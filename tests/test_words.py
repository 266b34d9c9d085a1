"""Word layer: parsing, free reduction, permutations, closures."""

import json
import random
import sys
import time

import _words_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import words
from braidcalc.moves import move_from_json
from braidcalc.templates import catalog, expand, sample_assignment
from braidcalc.words import (
    BraidWord,
    WordFormatError,
    closure_components,
    concat,
    conjugate,
    cycle_type,
    cyclic_key,
    cyclic_reduce,
    exponent_sum,
    format_word,
    free_reduce,
    inverse,
    parse_word,
    permutation,
    power,
    rotate,
)


def test_word_validation():
    w = BraidWord(3, (1, -2, 1))
    assert w.index == 3 and w.letters == (1, -2, 1)
    assert len(w) == 3
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))


def test_word_equality_is_syntactic():
    assert BraidWord(3, (1, -1)) != BraidWord(3, ())
    assert BraidWord(2, (1,)) != BraidWord(3, (1,))
    assert BraidWord(3, (1, 2)) == BraidWord(3, [1, 2])


def test_parse_word_round_trip():
    w = parse_word("3: 1 -2 1")
    assert w == BraidWord(3, (1, -2, 1))
    assert format_word(w) == "3: 1 -2 1"
    assert parse_word("4:") == BraidWord(4, ())
    assert format_word(BraidWord(4, ())) == "4:"
    assert str(BraidWord(3, (1, -2))) == "3: 1 -2"
    assert parse_word("  2 :  1   1 ") == BraidWord(2, (1, 1))


def test_parse_word_errors_carry_position():
    with pytest.raises(WordFormatError) as exc:
        parse_word("3 1 2")
    assert exc.value.line == 1 and exc.value.column == 1

    with pytest.raises(WordFormatError) as exc:
        parse_word("x: 1")
    assert "strand count" in str(exc.value)

    with pytest.raises(WordFormatError) as exc:
        parse_word("3: 4")
    assert exc.value.line == 1 and exc.value.column == 4
    assert "(line 1, column 4)" in str(exc.value)

    with pytest.raises(WordFormatError):
        parse_word("3: 0")
    with pytest.raises(WordFormatError):
        parse_word("3: z")
    # a late out-of-range letter still reports its exact position
    with pytest.raises(WordFormatError):
        parse_word("3: 1 1 1 -2 4")
    # only ASCII digits are digits, and a token int() refuses for its
    # length is malformed too
    long = "1" * 5000
    for text, column in [
        ("3: \u00b2", 4),
        ("3: 1 \u00b3", 6),
        ("3: \u0661", 4),
        ("\u0663: 1", 1),
        ("3: " + long, 4),
        ("3: 1\n  -" + long, 3),
        (long + ": 1", 1),
    ]:
        with pytest.raises(WordFormatError) as exc:
            parse_word(text)
        line = text.count("\n") + 1
        assert (exc.value.line, exc.value.column) == (line, column)


def _texts(alphabet, max_size):
    # "u" stands for "1_0" and "r" for more digits than int() converts
    text = st.text(alphabet, max_size=max_size)
    return text.map(lambda s: s.replace("u", "1_0").replace("r", "1" * 5000))


# signed ASCII numbers, separators that str.isspace() accepts (U+001C
# among them) and characters that int() alone would read as digits
_ANY = "0123456789+-:x \n\t\u00a0\u2003\u001c\u00b2\u0661\uff19ur"
_LETTERS = ["1 ", "-1\n", "+2\t", "-2\u00a0", "1\u2003", "2\u001c", "0 ", "1-2 "]
# most texts have a colon after a plausible strand count, so the letters
# are read too, and many of those letters are in range
word_texts = st.one_of(
    _texts(_ANY, 40),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["3", " 4", "5\n", "\u00a06", "+4"]) | _texts(_ANY, 3),
        _texts(_ANY, 40)
        | st.lists(st.sampled_from(_LETTERS), max_size=12).map("".join),
    ),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except WordFormatError as err:
        return str(err), err.line, err.column


@settings(max_examples=2000, deadline=None)
@given(word_texts)
def test_parse_word_matches_the_oracle(text):
    assert _outcome(parse_word, text) == _outcome(oracle.parse_word, text)


# tokens that a per-letter reader and a whole-text one might read
# differently: digits only int() reads, underscores, signed and padded
# zeros, signs inside a token, a number too long for int(), and letters
# out of range for every drawn strand count
_HOSTILE = [
    "\u0663", "\uff11", "1_0", "0_1", "-0", "+0", "007", "+-1", "1-2", "--1",
    "1" * 5000, "0", "99",
]
# separators str.isspace() accepts, newlines among them
_SEPARATORS = [" ", "\n", "\t", "\u00a0", "\x1c", "\u2028", " \n  "]


@st.composite
def hostile_texts(draw):
    # mostly valid letters, so the whole-text read runs, with a few
    # hostile tokens placed anywhere, often after some newlines
    n = draw(st.integers(1, 5))
    if n > 1:
        letter = st.integers(1 - n, n - 1).filter(bool)
        signed = st.one_of(letter.map(str), letter.map("{:+d}".format))
        pieces = draw(st.lists(signed, max_size=30))
    else:
        pieces = []
    hostile = st.sampled_from([*_HOSTILE, str(n), str(-n)])
    for bad in draw(st.lists(hostile, max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), bad)
    size = len(pieces) + 1
    gaps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=size, max_size=size))
    return f"{n}:" + "".join(g + p for g, p in zip(gaps, pieces)) + gaps[-1]


@settings(max_examples=1000, deadline=None)
@given(hostile_texts())
def test_parse_word_matches_the_oracle_on_hostile_tokens(text):
    assert _outcome(parse_word, text) == _outcome(oracle.parse_word, text)


def test_token_pattern_splits_where_isspace_does():
    # the reader splits with regular expressions and str.split() and
    # strips the strand count with str.strip(); all must agree on every
    # code point
    digits = set("0123456789+-")
    disagree = [
        hex(c)
        for c in range(sys.maxunicode + 1)
        if (words._TOKEN.fullmatch(chr(c)) is None) != chr(c).isspace()
        or (words._LETTERS.fullmatch(chr(c)) is None)
        != (not chr(c).isspace() and chr(c) not in digits)
        or len(f"1{chr(c)}1".split()) != 1 + chr(c).isspace()
    ]
    assert disagree == []


def test_free_reduce():
    assert free_reduce(BraidWord(3, (1, -1))) == BraidWord(3, ())
    assert free_reduce(BraidWord(3, (1, 2, -2, -1))) == BraidWord(3, ())
    assert free_reduce(BraidWord(3, (1, 2, -2, 1))) == BraidWord(3, (1, 1))
    w = BraidWord(3, (1, 2, 1))
    assert free_reduce(w) == w


def test_inverse_and_concat():
    w = BraidWord(3, (1, -2))
    assert inverse(w) == BraidWord(3, (2, -1))
    assert free_reduce(concat(w, inverse(w))) == BraidWord(3, ())
    with pytest.raises(ValueError):
        concat(BraidWord(2, (1,)), BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        concat()


def test_power_and_rotate():
    w = BraidWord(3, (1, 2))
    assert power(w, 3) == BraidWord(3, (1, 2, 1, 2, 1, 2))
    assert power(w, -1) == inverse(w)
    assert power(w, 0) == BraidWord(3, ())
    assert rotate(BraidWord(3, (1, 2, -1)), 1) == BraidWord(3, (2, -1, 1))
    assert rotate(BraidWord(3, (1, 2, -1)), 3) == BraidWord(3, (1, 2, -1))
    assert rotate(BraidWord(3, ()), 5) == BraidWord(3, ())


def test_conjugate():
    w = BraidWord(3, (2,))
    g = BraidWord(3, (1,))
    assert conjugate(w, g) == BraidWord(3, (1, 2, -1))
    assert conjugate(w, BraidWord(3, ())) == w
    with pytest.raises(ValueError):
        conjugate(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_permutation_convention():
    # position images: strand starting at 1 ends at 2, and so on
    assert permutation(BraidWord(3, (1, 2))) == (2, 3, 1)
    assert permutation(BraidWord(3, ())) == (1, 2, 3)
    assert permutation(BraidWord(3, (1, 1))) == (1, 2, 3)
    assert permutation(BraidWord(3, (-2,))) == (1, 3, 2)


def test_cycle_count_and_components():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((3, 4, 1, 2, 5)) == (1, 2, 2)
    assert closure_components(BraidWord(2, (1,))) == 1
    assert closure_components(BraidWord(2, (1, 1))) == 2
    assert closure_components(BraidWord(3, (1, 2))) == 1
    assert closure_components(BraidWord(3, ())) == 3


def test_exponent_sum_and_writhe():
    w = BraidWord(3, (1, 1, -2, 1))
    assert exponent_sum(w) == 2


def test_cyclic_reduce_trims_the_seam():
    assert cyclic_reduce(BraidWord(3, (1, 2, -1))) == BraidWord(3, (2,))
    assert cyclic_reduce(BraidWord(3, (-2, 1, 1, 2))) == BraidWord(3, (1, 1))
    assert cyclic_reduce(BraidWord(3, (1, -1))) == BraidWord(3, ())
    w = BraidWord(3, (1, 2))
    assert cyclic_reduce(w) == w


@st.composite
def braid_words(draw, max_index=6, max_len=16):
    n = draw(st.integers(1, max_index))
    if n == 1:
        return BraidWord(1, ())
    generators = st.integers(1, n - 1)
    letters = st.tuples(generators, st.sampled_from((1, -1)))
    drawn = draw(st.lists(letters, max_size=max_len))
    return BraidWord(n, [g * sign for g, sign in drawn])


def _validated(w):
    # w equals its rebuild by the validating constructor, types included
    assert type(w) is BraidWord and type(w.letters) is tuple
    assert all(type(g) is int for g in w.letters)
    valid = BraidWord(w.index, w.letters)
    assert w == valid and hash(w) == hash(valid) and repr(w) == repr(valid)


@settings(max_examples=300, deadline=None)
@given(braid_words(), st.integers(-20, 20), st.integers(0, 2**32))
def test_derived_words_equal_validated_words(w, k, seed):
    # these build their result without re-checking its letters
    for f in (
        free_reduce,
        inverse,
        cyclic_reduce,
        lambda w: rotate(w, k),
        lambda w: parse_word(format_word(w)),
    ):
        _validated(f(w))
    rng = random.Random(seed)
    t = rng.choice(catalog())
    asg = sample_assignment(t, rng, 6)
    for word in [*asg.values(), expand(t.plus, asg), expand(t.minus, asg)]:
        _validated(word)


def test_outside_letters_still_validate():
    with pytest.raises(ValueError, match="out of range"):
        BraidWord(3, (3,))
    with pytest.raises(WordFormatError, match="out of range"):
        parse_word("3: 3")
    with pytest.raises(ValueError, match="out of range"):
        move_from_json({"kind": "conjugate", "by": "3: 3"})


@st.composite
def tied_words(draw):
    # words over one to three letters, so that many rotations start at
    # the least letter and the key must break ties
    n = draw(st.integers(1, 12))
    if n == 1:
        return BraidWord(1, ())
    every = [g for g in range(1 - n, n) if g]
    alphabet = draw(st.lists(st.sampled_from(every), min_size=1, max_size=3))
    return BraidWord(n, draw(st.lists(st.sampled_from(alphabet), max_size=80)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(tied_words(), braid_words(12, 80)))
def test_cyclic_key_matches_the_oracle(w):
    assert cyclic_key(w) == oracle.cyclic_key(w)


def test_cyclic_key_breaks_long_ties_in_linear_time():
    # every rotation of 1^20000 starts at the least letter
    w = BraidWord(2, (1,) * 20000)
    start = time.perf_counter()
    assert cyclic_key(w) == (2, w.letters)
    assert time.perf_counter() - start < 0.5


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "\n", "\"\\", "\u00e9\u2603\U0001f600", "\x00\x1f"])
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert words._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_matches_json_dumps_deep_down():
    value = 1.5
    for depth in range(60):
        value = [value, (), {}] if depth % 2 else {"k\u00e9": value, "": None}
    assert words._json_text(value) == json.dumps(value, indent=2)
    # types the writer does not know go to json.dumps, indented in place
    odd = {"a": [{1: True, None: 2.5}, float("inf")], "b": {"c": -0.0}}
    assert words._json_text(odd) == json.dumps(odd, indent=2)
