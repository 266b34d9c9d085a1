"""Laurent polynomial values, Burau matrices, link fingerprints.

``braidcalc.invariants`` keeps no Laurent ring arithmetic: its Burau
matrices and Alexander polynomials come from packed integers.  The
independent references are in ``_invariants_oracle``, which computes
over its own dict polynomials, and sympy for determinants.
"""

import dataclasses
import random
import time

import _invariants_oracle as oracle
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.invariants import (
    DivisibilityFailure,
    Fingerprint,
    LaurentPoly,
    _closed,
    _core,
    _digits,
    _divide_geometric,
    _pack,
    _packed_burau,
    alexander,
    burau,
    fingerprint,
    self_linking,
)
from braidcalc.words import (
    BraidWord,
    closure_components,
    concat,
    conjugate,
    cyclic_reduce,
    inverse,
    parse_word,
    rotate,
)


def poly(d):
    # the dense constructor, fed the dict's zero coefficients as well
    low = min(d, default=0)
    top = max(d, default=low - 1)
    return LaurentPoly(low, tuple(d.get(e, 0) for e in range(low, top + 1)))


def test_poly_basics():
    assert LaurentPoly().is_zero()
    assert LaurentPoly.one() == poly({0: 1})
    assert poly({2: 0}) == LaurentPoly()
    p = poly({0: 1, 1: -1, 2: 1})
    assert (p.low, p.coeffs) == (0, (1, -1, 1))
    assert p.items() == [(0, 1), (1, -1), (2, 1)]
    assert LaurentPoly(-3, (0, 0, 2, 0, -1, 0)) == LaurentPoly(-1, (2, 0, -1))
    assert LaurentPoly(5, (0, 0)) == LaurentPoly()
    assert (LaurentPoly().low, LaurentPoly().coeffs) == (0, ())
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.low = 1


def test_poly_normalized():
    assert poly({-2: -1, -1: 1}).normalized() == poly({0: 1, 1: -1})
    assert poly({3: 2}).normalized() == poly({0: 2})
    assert LaurentPoly().normalized() == LaurentPoly()


def test_poly_renderer():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(poly({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert str(poly({0: 1, 1: -3, 2: 1})) == "1 - 3*t + t^2"
    assert str(poly({3: 2})) == "2*t^3"
    assert str(poly({-1: 1, 1: -1})) == "t^-1 - t"
    assert str(poly({0: -1, 1: 1})) == "-1 + t"


TERMS = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5)


def agree(p, o):
    # same terms, same text, and the trimmed fields the terms call for
    assert p.items() == o.items() and str(p) == str(o)
    if o.is_zero():
        assert (p.low, p.coeffs) == (0, ())
    else:
        span = range(o.min_exp, o.max_exp + 1)
        assert (p.low, p.coeffs) == (
            o.min_exp,
            tuple(o.coefficient(e) for e in span),
        )


@settings(max_examples=300, deadline=None)
@given(TERMS, st.integers(-6, 6))
def test_poly_matches_dict_oracle(d, k):
    p, op = poly(d), oracle.DictLaurentPoly(d)
    agree(p, op)
    agree(p.shift(k), op.shift(k))
    agree(p.normalized(), op.normalized())
    assert oracle.dense(op) == p


@st.composite
def geometric_dividends(draw):
    # n and the coefficients, lowest first, of a multiple of
    # 1 + t + ... + t^(n-1), of such a multiple with one coefficient
    # moved by one (a remainder unless n is 1), or of an arbitrary
    # polynomial; a list may end in zeros
    n = draw(st.integers(1, 9))
    coeffs = st.lists(st.integers(-6, 6), max_size=12)
    kind = draw(st.sampled_from(("multiple", "near", "arbitrary")))
    if kind == "arbitrary":
        return draw(coeffs), n
    q = draw(coeffs)
    p = [0] * (len(q) + n - 1) if q else []
    for i, c in enumerate(q):
        for j in range(i, i + n):
            p[j] += c
    if kind == "near" and p:
        p[draw(st.integers(0, len(p) - 1))] += draw(st.sampled_from((1, -1)))
    return p, n


def divided(p, n):
    # the quotient's terms, or None on a remainder
    try:
        return LaurentPoly(0, tuple(_divide_geometric(p, n))).items()
    except DivisibilityFailure:
        return None


def oracle_divided(p, n):
    cycle = oracle.DictLaurentPoly({e: 1 for e in range(n)})
    try:
        quotient = oracle.DictLaurentPoly(dict(enumerate(p))).exact_div(cycle)
    except DivisibilityFailure:
        return None
    return quotient.items()


@settings(max_examples=300, deadline=None)
@given(geometric_dividends())
def test_digit_division_matches_dict_oracle(case):
    p, n = case
    assert divided(p, n) == oracle_divided(p, n)


def test_burau_relations():
    for n in range(2, 5):
        for i in range(1, n - 1):
            lhs = burau(BraidWord(n, (i, i + 1, i)))
            rhs = burau(BraidWord(n, (i + 1, i, i + 1)))
            assert lhs == rhs
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert burau(BraidWord(n, (i, j))) == burau(
                    BraidWord(n, (j, i))
                )
    gen = burau(BraidWord(3, (1,)))
    inv = burau(BraidWord(3, (-1,)))
    prod = burau(BraidWord(3, (1, -1)))
    assert prod == burau(BraidWord(3, ()))
    assert len(gen) == 2 and len(inv) == 2


def test_alexander_frozen_values():
    one = LaurentPoly.one()
    assert alexander(BraidWord(1, ())) == one
    assert alexander(BraidWord(2, (1,))) == one
    assert alexander(BraidWord(3, (1, 2))) == one
    # trefoil
    assert alexander(BraidWord(2, (1, 1, 1))) == poly({0: 1, 1: -1, 2: 1})
    # figure eight
    assert alexander(BraidWord(3, (1, -2, 1, -2))) == poly(
        {0: 1, 1: -3, 2: 1}
    )
    # Hopf link
    assert alexander(BraidWord(2, (1, 1))) == poly({0: 1, 1: -1})
    # split closures vanish
    assert alexander(BraidWord(2, ())) == LaurentPoly()
    assert alexander(BraidWord(3, (1,))) == LaurentPoly()


def test_alexander_mirror_symmetry():
    # the trefoil and its mirror share the polynomial
    assert alexander(BraidWord(2, (-1, -1, -1))) == alexander(
        BraidWord(2, (1, 1, 1))
    )


def test_fingerprint():
    fp = fingerprint(BraidWord(2, (1, 1, 1)))
    assert isinstance(fp, Fingerprint)
    assert fp.components == 1
    assert fp.alexander == poly({0: 1, 1: -1, 2: 1})
    assert fingerprint(BraidWord(2, (1, 1))).components == 2
    assert fingerprint(BraidWord(3, (1, 2))) == fingerprint(BraidWord(2, (1,)))


def test_self_linking():
    assert self_linking(BraidWord(2, (1, 1, 1))) == 1
    assert self_linking(BraidWord(1, ())) == -1
    w = BraidWord(3, (1, -2, 1))
    up = BraidWord(4, w.letters + (3,))
    down = BraidWord(4, w.letters + (-3,))
    assert self_linking(up) == self_linking(w)
    assert self_linking(down) == self_linking(w) - 2


def words_on(n, max_size):
    letters = st.integers(1, max(n - 1, 1)).flatmap(
        lambda g: st.sampled_from((g, -g))
    )
    # one strand has no generators, so only the empty word
    return st.lists(letters, max_size=max_size if n > 1 else 0).map(
        lambda ls: BraidWord(n, ls)
    )


def small_words(max_index=4, max_size=10):
    return st.integers(2, max_index).flatmap(lambda n: words_on(n, max_size))


@settings(max_examples=50, deadline=None)
@given(small_words(), st.integers(0, 11))
def test_fingerprint_rotation_invariant(w, k):
    assert fingerprint(rotate(w, k)) == fingerprint(w)


@settings(max_examples=40, deadline=None)
@given(small_words())
def test_fingerprint_stabilization_invariant(w):
    n = w.index
    up = BraidWord(n + 1, w.letters + (n,))
    down = BraidWord(n + 1, w.letters + (-n,))
    assert fingerprint(up) == fingerprint(w)
    assert fingerprint(down) == fingerprint(w)


@settings(max_examples=40, deadline=None)
@given(small_words())
def test_fingerprint_conjugation_invariant(w):
    g = BraidWord(w.index, (1,))
    assert fingerprint(conjugate(w, g)) == fingerprint(w)


@st.composite
def closed_words(draw):
    # a small word, sometimes wrapped in a conjugator and its inverse
    # without reduction, so that free and seam cancellations occur
    w = draw(small_words(max_index=5, max_size=10))
    c = draw(words_on(w.index, 3))
    return BraidWord(w.index, c.letters + w.letters + inverse(c).letters)


@settings(max_examples=100, deadline=None)
@given(closed_words())
def test_fingerprint_is_the_oracle_of_every_conjugate_shape(w):
    # the cyclic reduction and every rotation close to the same link
    fp = fingerprint(w)
    reduced = cyclic_reduce(w)
    shapes = [w, reduced, *(rotate(w, k) for k in range(len(w)))]
    shapes += [rotate(reduced, k) for k in range(len(reduced))]
    for v in shapes:
        want = Fingerprint(closure_components(v), oracle.alexander(v))
        assert fp == want, v


@settings(max_examples=40, deadline=None)
@given(small_words())
def test_burau_respects_inverse(w):
    assert burau(concat(w, inverse(w))) == burau(BraidWord(w.index, ()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: words_on(n, 40)))
def test_burau_matches_oracle(w):
    # the packed columns, decoded, against full matrix products and the
    # one-column update over dict polynomials
    assert burau(w) == oracle.burau(w) == oracle.column_burau(w)


def sympy_det(mat):
    # sympy's determinant over Z[t], taken after every entry is
    # multiplied by t^-low so that all exponents are natural
    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    low = min((x.min_exp for row in mat for x in row if not x.is_zero()),
              default=0)
    rows = [
        [ring.ring.from_dict({(e - low,): c for e, c in x.items()})
         for x in row]
        for row in mat
    ]
    det = DomainMatrix(rows, (len(mat), len(mat)), ring).det()
    return poly({e + low * len(mat): int(c) for (e,), c in det.terms()})


SPARSE_POLYS = st.one_of(
    st.just(oracle.DictLaurentPoly()),
    st.dictionaries(
        st.integers(-2, 2), st.integers(-3, 3), max_size=3
    ).map(oracle.DictLaurentPoly),
)


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 6))
    entries = draw(st.lists(SPARSE_POLYS, min_size=m * m, max_size=m * m))
    rows = [entries[i * m:(i + 1) * m] for i in range(m)]
    # zero leading entries force a row swap before the first pivot
    for i in range(draw(st.integers(0, m - 1))):
        rows[i][0] = oracle.DictLaurentPoly()
    return rows


@st.composite
def burau_minus_identity(draw):
    w = draw(small_words(max_index=7, max_size=12))
    one = oracle.DictLaurentPoly.one()
    rows = [
        [oracle.DictLaurentPoly(dict(x.items())) for x in row]
        for row in burau(w)
    ]
    for i, row in enumerate(rows):
        row[i] = row[i] - one
    return rows


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_matrices(), burau_minus_identity()))
def test_det_matches_sympy(mat):
    assert oracle._det(mat) == sympy_det(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: words_on(n, 80)))
def test_alexander_matches_oracle(w):
    assert alexander(w) == oracle.alexander(w)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10).flatmap(lambda n: words_on(n, 40)))
def test_packed_burau_decodes_to_burau_minus_identity(w):
    # alexander subtracts the identity from the packed columns in place,
    # so the bit width must leave room for burau(w) - I as well: decoded,
    # those columns match the oracle's matrix minus the identity
    cols, exps, k = _packed_burau(w)
    mat = oracle.burau(w)
    one = oracle.DictLaurentPoly.one()
    for j, col in enumerate(cols):
        col[j] -= 1 << k * exps[j]
        for i, x in enumerate(col):
            want = oracle.DictLaurentPoly(dict(mat[i][j].items()))
            if i == j:
                want = want - one
            got = LaurentPoly(-exps[j], tuple(_digits(x, k)))
            assert got == oracle.dense(want), (w, i, j)


def test_digits_invert_pack_up_to_the_extreme_digits():
    rng = random.Random(3)
    for k in (2, 3, 8, 31, 64, 65, 200):
        lo, hi = -(1 << (k - 1)), (1 << (k - 1)) - 1
        cases = [
            [hi], [lo], [lo, hi] * 40, [hi, lo] * 70, [0] * 100 + [lo],
            [1] + [0] * 200 + [-1],
            [rng.randint(lo, hi) for _ in range(300)] + [hi],
        ]
        for cs in cases:
            assert _digits(_pack(cs, k), k) == cs, (k, cs[:4])
        assert _digits(0, k) == [] and _pack([], k) == 0


def edge_words():
    # alternating signs: negative balanced digits and carries in every
    # packed entry, at growing bit widths
    for k in range(1, 61):
        yield BraidWord(3, (1, -2) * k)
        yield BraidWord(4, (1, -2, 3) * k)
    # only negative letters: every letter raises a column exponent
    for k in range(1, 31):
        yield BraidWord(5, (-1,) * k + (-4,) * k)
        yield BraidWord(2, (-1,) * k)
    # generators on the first and last columns only, either sign
    rng = random.Random(7)
    for n in range(2, 11):
        for size in (1, 5, 20, 60):
            letters = [rng.choice((1, -1, n - 1, 1 - n)) for _ in range(size)]
            yield BraidWord(n, letters)
    # the empty word, one strand, and split closures (determinant 0)
    for n in range(1, 11):
        yield BraidWord(n, ())
    for text in ("4: 1 1 3", "5: 1 2 -4", "6: 1 -2 4 -5", "7: 1 2 3 -5 -6 5"):
        yield parse_word(text)


def test_alexander_edge_cases_match_oracle():
    for w in edge_words():
        assert alexander(w) == oracle.alexander(w), w
    assert alexander(parse_word("5: 1 2 -4")) == LaurentPoly()


def test_burau_edge_cases_match_oracle():
    for w in edge_words():
        assert burau(w) == oracle.burau(w), w
    assert burau(BraidWord(1, ())) == ()


def test_alexander_is_polynomial_time():
    # the Burau product is one column update per letter and the
    # determinant Bareiss elimination; expansion over column subsets
    # took about 6 s on this word (two cores, Python 3.11)
    rng = random.Random(0)
    letters = [rng.choice([1, -1]) * rng.randint(1, 13) for _ in range(150)]
    start = time.perf_counter()
    alexander(BraidWord(14, letters))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def peelable_word(rng, max_index, max_size):
    # a word that exercises the core: letters from a random subset of
    # the generators (often a split closure), then top and bottom
    # stabilizations inserted anywhere, then an unreduced conjugation.
    # With no base strands beyond the first, it peels down to one strand
    stabs = rng.randint(0, max_index - 1)
    n = rng.randint(1, max_index - stabs)
    gens = [g for g in range(1, n) if rng.random() < 0.7]
    size = rng.randint(0, max_size - stabs - 6) if gens else 0
    letters = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(size)]
    for _ in range(stabs):
        i, sign = rng.randint(0, len(letters)), rng.choice((1, -1))
        if rng.random() < 0.5:  # sigma_n on n + 1 strands
            letters.insert(i, sign * n)
        else:  # every letter one strand up, sigma_1 below them
            letters = [g + 1 if g > 0 else g - 1 for g in letters]
            letters.insert(i, sign)
        n += 1
    if n > 1 and rng.random() < 0.5:
        c = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(3)]
        letters = [-g for g in reversed(c)] + letters + c
    return BraidWord(n, letters)


def core_mismatches(words, reference):
    return [
        w
        for w in words
        if fingerprint(w) != Fingerprint(closure_components(w), reference(w))
    ]


def test_fingerprint_on_the_core_matches_the_packed_oracle():
    # the uncut word's components and packed polynomial, n 1-10 and up
    # to 80 letters
    rng = random.Random(27)
    words = [peelable_word(rng, 10, 80) for _ in range(1500)]
    assert {w.index for w in words} == set(range(1, 11))
    assert max(map(len, words)) > 60
    assert core_mismatches(words, oracle.packed_alexander) == []
    # split closures, chains that peel to one strand and full cores
    cores = [_core(w) for w in words]
    split = [len(set(map(abs, c.letters))) < c.index - 1 for c in cores]
    assert sum(split) > 200
    assert sum(c.index == 1 for c in cores) > 100
    kept = [c.index > 2 and c == cyclic_reduce(w) for w, c in zip(words, cores)]
    assert sum(kept) > 50


def test_fingerprint_on_the_core_matches_the_dict_oracle():
    # the independent polynomial over dict Laurent polynomials, n 1-6
    rng = random.Random(28)
    words = [peelable_word(rng, 6, 20) for _ in range(400)]
    assert core_mismatches(words, oracle.alexander) == []


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fingerprint_on_the_core_matches_the_oracles(rng):
    w = peelable_word(rng, 10, 80)
    assert core_mismatches([w], oracle.packed_alexander) == []
    if w.index <= 6 and len(w) <= 20:
        assert core_mismatches([w], oracle.alexander) == []


def test_core_destabilizes_single_top_and_bottom_letters():
    # sigma_2 once: deleted; then sigma_1 twice stays
    assert _core(parse_word("3: 1 2 1")) == BraidWord(2, (1, 1))
    # sigma_1 once: deleted and the rest lowered
    assert _core(parse_word("4: 2 3 1 3 2")) == BraidWord(3, (2, 1, 1, 2))
    # the seam that a deletion opens is cut, and the rest peels away
    assert _core(parse_word("4: 1 3 -1 2 2")) == BraidWord(3, (2, 2))
    assert _core(parse_word("4: 2 1 -3")) == BraidWord(1, ())
    # an absent generator stops the peeling: the closure is split
    assert _core(parse_word("4: 2 -3 3 -2 1")) == BraidWord(3, ())
    assert _core(parse_word("5: 1 -2 1 -2")) == BraidWord(5, (1, -2, 1, -2))
    # one key for the rotations and stabilizations of one core
    w = parse_word("3: 1 -2 1 -2 1")
    key = _closed(w)[0]
    assert key == _closed(rotate(w, 2))[0]
    assert key == _closed(BraidWord(4, (3,) + w.letters))[0]
    assert key == _closed(BraidWord(5, (-4,) + w.letters + (3,)))[0]
    assert alexander(parse_word("6: 3")) == LaurentPoly()
