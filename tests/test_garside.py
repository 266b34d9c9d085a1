"""Normal forms and the conjugacy oracle."""

import time

import _garside_oracle as oracle
import pytest
from _handles import equal_twin, is_trivial_word
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.garside import (
    ConjugacyReport,
    Verdict,
    conjugacy_test,
    factor_word,
    is_trivial,
    normal_form,
    normal_form_word,
    words_equal,
)
from braidcalc.words import (
    BraidWord,
    concat,
    conjugate,
    free_reduce,
    inverse,
    parse_word,
)


def letters(n, max_len):
    return st.lists(
        st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
        max_size=max_len,
    )


def words(max_index=5, max_len=12):
    return st.integers(2, max_index).flatmap(
        lambda n: letters(n, max_len).map(lambda ls: BraidWord(n, ls))
    )


def test_braid_relations():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert words_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    with pytest.raises(ValueError):
        words_equal(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_normal_form_shape():
    # the half twist itself: one Delta, no factors
    nf = normal_form(BraidWord(3, (1, 2, 1)))
    assert (nf.power, nf.factors) == (1, ())
    assert nf.inf == 1 and nf.sup == 1 and nf.canonical_length == 0
    assert normal_form(BraidWord(3, (2, 1, 2))) == nf

    nf = normal_form(BraidWord(3, ()))
    assert nf.is_identity()
    assert normal_form(BraidWord(3, (1, -1))).is_identity()

    nf = normal_form(BraidWord(3, (-1,)))
    assert nf.power == -1 and len(nf.factors) == 1


def test_normal_form_word_round_trip():
    for letters in [(), (1,), (1, 2, 1), (-2, 1, 1), (1, 1, 1, -2, -2)]:
        w = BraidWord(3, letters)
        back = normal_form_word(normal_form(w))
        assert words_equal(w, back)
        assert normal_form(back) == normal_form(w)


def test_factor_word_is_a_permutation_braid():
    assert factor_word((1, 2, 3)) == ()
    assert factor_word((2, 1, 3)) == (1,)
    assert factor_word((3, 2, 1)) == (1, 2, 1)


def test_delta_conjugation_flips_generators():
    delta = BraidWord(3, (1, 2, 1))
    lhs = free_reduce(concat(delta, BraidWord(3, (1,)), inverse(delta)))
    assert words_equal(lhs, BraidWord(3, (2,)))


def test_is_trivial():
    assert is_trivial(BraidWord(4, ()))
    assert is_trivial(BraidWord(4, (2, -2)))
    assert is_trivial(BraidWord(3, (1, 2, 1, -2, -1, -2)))
    assert not is_trivial(BraidWord(3, (1,)))


def test_conjugacy_basic_verdicts():
    rep = conjugacy_test(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert rep.verdict is Verdict.CONJUGATE
    rep = conjugacy_test(BraidWord(3, (1,)), BraidWord(3, (-1,)))
    assert rep.verdict is Verdict.NOT_CONJUGATE
    rep = conjugacy_test(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    assert rep.verdict is Verdict.CONJUGATE
    with pytest.raises(ValueError):
        conjugacy_test(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_conjugacy_finds_random_conjugates():
    u = BraidWord(4, (1, -2, 3, 3, 1))
    g = BraidWord(4, (2, -3, 1, 2))
    rep = conjugacy_test(u, conjugate(u, g))
    assert rep.verdict is Verdict.CONJUGATE


def test_conjugacy_cap_reports_inconclusive():
    u = BraidWord(4, (1, -2, 3, 3, 1))
    v = conjugate(u, BraidWord(4, (2, -3, 1, 2)))
    full = conjugacy_test(u, v)
    assert full.verdict is Verdict.CONJUGATE and full.nodes > 1
    capped = conjugacy_test(u, v, node_cap=1)
    assert capped.verdict is Verdict.INCONCLUSIVE
    assert isinstance(capped, ConjugacyReport)


def test_node_cap_below_one_is_rejected():
    # before any other check, so also on differing strand counts
    for cap in (0, -5):
        with pytest.raises(ValueError, match="node cap"):
            conjugacy_test(BraidWord(3, (1,)), BraidWord(3, (2,)), cap)
        with pytest.raises(ValueError, match="node cap"):
            conjugacy_test(BraidWord(2, (1,)), BraidWord(3, (1,)), cap)
    rep = conjugacy_test(BraidWord(3, (1,)), BraidWord(3, (2,)), node_cap=1)
    assert rep == ConjugacyReport(Verdict.CONJUGATE, 2)


def test_key_flype_pair_not_conjugate():
    a = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 1, -2, -2))
    rep = conjugacy_test(a, b)
    assert rep.verdict is Verdict.NOT_CONJUGATE


@settings(max_examples=60, deadline=None)
@given(words(max_index=4, max_len=8))
def test_word_equals_itself_times_trivial(w):
    padded = concat(w, BraidWord(w.index, (1, -1)))
    assert words_equal(w, padded)


@settings(max_examples=60, deadline=None)
@given(words(max_index=4, max_len=8))
def test_normal_form_is_canonical(w):
    nf = normal_form(w)
    assert normal_form(normal_form_word(nf)) == nf
    assert nf.inf <= nf.sup


@settings(max_examples=40, deadline=None)
@given(words(max_index=4, max_len=6), words(max_index=4, max_len=4))
def test_conjugates_test_conjugate(w, g):
    if g.index != w.index:
        g = BraidWord(w.index, [x for x in g.letters if abs(x) < w.index])
    rep = conjugacy_test(w, conjugate(w, g))
    assert rep.verdict is Verdict.CONJUGATE


@settings(max_examples=150, deadline=None)
@given(words(max_index=6, max_len=60))
def test_normal_form_matches_oracle(w):
    assert normal_form(w) == oracle.normal_form(w)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_words_equal_matches_handle_reduction(data):
    u = data.draw(words(max_index=6, max_len=22))
    n = u.index
    kind = data.draw(st.sampled_from(("twin", "near-twin", "random")))
    if kind == "random":
        v = BraidWord(n, data.draw(letters(n, 30)))
    else:
        rng = data.draw(st.randoms(use_true_random=False))
        rewritten = list(equal_twin(rng, u, rng.randint(1, 4)).letters)
        if kind == "near-twin" and rewritten:
            # one sign flip moves the exponent sum, so never equal to u
            k = rng.randrange(len(rewritten))
            rewritten[k] = -rewritten[k]
        v = BraidWord(n, rewritten)
    assert len(v) <= 30
    expected = is_trivial_word(concat(u, inverse(v)).letters)
    assert words_equal(u, v) == expected


def test_normal_form_is_fast_at_large_strand_counts():
    # each single-generator move in the left-weighting is O(1), so a
    # short word on many strands costs O(n^2) moves in all, not O(n^3)
    w = parse_word("300: 1 -1 2 -3")
    start = time.perf_counter()
    nf = normal_form(w)
    elapsed = time.perf_counter() - start
    assert nf == normal_form(parse_word("300: 2 -3"))
    assert (nf.inf, nf.sup) == (-1, 1)
    assert elapsed < 3.0, f"{elapsed:.2f} s"
