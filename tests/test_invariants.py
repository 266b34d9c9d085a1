"""Laurent arithmetic, Burau matrices, link fingerprints."""

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
    _digits,
    _pack,
    _packed_burau_minus_identity,
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
    out = LaurentPoly.zero()
    for e, c in d.items():
        out = out + LaurentPoly.term(c, e)
    return out


def test_poly_basics():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one() == poly({0: 1})
    assert poly({2: 0}) == LaurentPoly.zero()
    p = poly({0: 1, 1: -1, 2: 1})
    assert (p.low, p.coeffs) == (0, (1, -1, 1))
    assert p.items() == [(0, 1), (1, -1), (2, 1)]
    assert LaurentPoly(-3, (0, 0, 2, 0, -1, 0)) == LaurentPoly(-1, (2, 0, -1))
    assert LaurentPoly(5, (0, 0)) == LaurentPoly.zero()
    assert (LaurentPoly.zero().low, LaurentPoly.zero().coeffs) == (0, ())
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.low = 1


def test_poly_arithmetic():
    p = poly({0: 1, 1: 2})
    q = poly({0: 1, 1: -1})
    assert p + q == poly({0: 2, 1: 1})
    assert p - p == LaurentPoly.zero()
    assert p * q == poly({0: 1, 1: 1, 2: -2})
    assert p.shift(3) == poly({3: 1, 4: 2})
    assert -q == poly({0: -1, 1: 1})


def test_poly_exact_division():
    # (1 + t)(1 - t + t^2) = 1 + t^3
    num = poly({0: 1, 3: 1})
    den = poly({0: 1, 1: 1})
    assert num.exact_div(den) == poly({0: 1, 1: -1, 2: 1})
    assert num.shift(-2).exact_div(den) == poly({-2: 1, -1: -1, 0: 1})
    with pytest.raises(DivisibilityFailure):
        poly({0: 1, 1: 1}).exact_div(poly({0: 2}))
    with pytest.raises(DivisibilityFailure):
        poly({0: 1}).exact_div(LaurentPoly.zero())
    assert LaurentPoly.zero().exact_div(den) == LaurentPoly.zero()


def test_poly_normalized():
    assert poly({-2: -1, -1: 1}).normalized() == poly({0: 1, 1: -1})
    assert poly({3: 2}).normalized() == poly({0: 2})
    assert LaurentPoly.zero().normalized() == LaurentPoly.zero()


def test_poly_renderer():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(poly({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert str(poly({0: 1, 1: -3, 2: 1})) == "1 - 3*t + t^2"
    assert str(poly({3: 2})) == "2*t^3"
    assert str(poly({-1: 1, 1: -1})) == "t^-1 - t"
    assert str(poly({0: -1, 1: 1})) == "-1 + t"


TERMS = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5)


def dense(d):
    # the dense constructor, fed the dict's zero coefficients as well
    low = min(d, default=0)
    top = max(d, default=low - 1)
    return LaurentPoly(low, tuple(d.get(e, 0) for e in range(low, top + 1)))


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


def quotient(p, q):
    try:
        return p.exact_div(q).items()
    except DivisibilityFailure:
        return None


@settings(max_examples=300, deadline=None)
@given(TERMS, TERMS, st.integers(-6, 6))
def test_poly_matches_dict_oracle(d, e, k):
    p, op = dense(d), oracle.DictLaurentPoly(d)
    q, oq = dense(e), oracle.DictLaurentPoly(e)
    agree(p, op)
    agree(p + q, op + oq)
    agree(p - q, op - oq)
    agree(p * q, op * oq)
    agree(-p, -op)
    agree(p.shift(k), op.shift(k))
    agree(p.normalized(), op.normalized())
    if not q.is_zero():
        agree((p * q).exact_div(q), (op * oq).exact_div(oq))
    # on an arbitrary pair both raise or neither, with the same quotient
    assert quotient(p, q) == quotient(op, oq)


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
    assert alexander(BraidWord(2, ())) == LaurentPoly.zero()
    assert alexander(BraidWord(3, (1,))) == LaurentPoly.zero()


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
@given(small_words(max_index=8, max_size=40))
def test_burau_matches_oracle(w):
    assert burau(w) == oracle.burau(w)


def sympy_det(mat):
    # sympy's determinant over Z[t], taken after every entry is
    # multiplied by t^-low so that all exponents are natural
    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    low = min((x.low for row in mat for x in row if not x.is_zero()),
              default=0)
    rows = [
        [ring.ring.from_dict({(e - low,): c for e, c in x.items()})
         for x in row]
        for row in mat
    ]
    det = DomainMatrix(rows, (len(mat), len(mat)), ring).det()
    return poly({e + low * len(mat): int(c) for (e,), c in det.terms()})


SPARSE_POLYS = st.one_of(
    st.just(LaurentPoly.zero()),
    st.dictionaries(
        st.integers(-2, 2), st.integers(-3, 3), max_size=3
    ).map(poly),
)


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 6))
    entries = draw(st.lists(SPARSE_POLYS, min_size=m * m, max_size=m * m))
    rows = [entries[i * m:(i + 1) * m] for i in range(m)]
    # zero leading entries force a row swap before the first pivot
    for i in range(draw(st.integers(0, m - 1))):
        rows[i][0] = LaurentPoly.zero()
    return rows


@st.composite
def burau_minus_identity(draw):
    w = draw(small_words(max_index=7, max_size=12))
    one = LaurentPoly.one()
    return [
        [x - one if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(burau(w))
    ]


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
    cols, exps, k = _packed_burau_minus_identity(w)
    mat = burau(w)
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            want = mat[i][j] - LaurentPoly.term(int(i == j))
            assert LaurentPoly(-exps[j], tuple(_digits(x, k))) == want


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
    assert alexander(parse_word("5: 1 2 -4")) == LaurentPoly.zero()


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
