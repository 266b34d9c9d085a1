"""Normal forms and the conjugacy oracle."""

import hashlib
import itertools
import random
import time
import tracemalloc

import _garside_oracle as oracle
import pytest
from _handles import equal_twin, is_trivial_word
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import garside
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
from braidcalc.invariants import fingerprint
from braidcalc.words import (
    BraidWord,
    concat,
    conjugate,
    cycle_type,
    exponent_sum,
    free_reduce,
    inverse,
    parse_word,
    permutation,
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


def test_factor_word_matches_the_full_passes_on_every_permutation():
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            assert factor_word(p) == oracle.factor_word(p), p


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 60).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_factor_word_matches_the_full_passes_on_drawn_permutations(p):
    assert factor_word(tuple(p)) == oracle.factor_word(tuple(p))


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
    # equal exponent sums, but the identity against a 3-cycle: the
    # cycle types decide, before any normal form
    rep = conjugacy_test(parse_word("3: 1 1"), parse_word("3: 1 2"))
    assert rep == ConjugacyReport(Verdict.NOT_CONJUGATE, 0)
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
    kinds = ("twin", "near-twin", "random") + ("same-image",) * (n >= 3)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        v = BraidWord(n, data.draw(letters(n, 30)))
    else:
        rng = data.draw(st.randoms(use_true_random=False))
        rewritten = list(equal_twin(rng, u, rng.randint(1, 4)).letters)
        if kind == "near-twin" and rewritten:
            # one sign flip moves the exponent sum, so never equal to u
            k = rng.randrange(len(rewritten))
            rewritten[k] = -rewritten[k]
        if kind == "same-image":
            # a pure-braid commutator keeps the exponent sum and the
            # permutation but not the element, so only normal forms decide
            i = rng.randint(1, n - 2)
            k = rng.randint(0, len(rewritten))
            rewritten[k:k] = [i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1]
        v = BraidWord(n, rewritten)
    if kind == "same-image":
        assert exponent_sum(v) == exponent_sum(u)
        assert permutation(v) == permutation(u)
    assert len(v) <= 30
    expected = is_trivial_word(concat(u, inverse(v)).letters)
    assert words_equal(u, v) == expected
    assert is_trivial(concat(u, inverse(v))) == expected
    if n == 2:
        # B_2 is infinite cyclic: the exponent sum alone decides
        assert expected == (exponent_sum(u) == exponent_sum(v))


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
    # free reduction cancels the 1 -1 above before the pass runs; here
    # nothing cancels freely, and the pass must find the commutation
    w = parse_word("300: 1 3 -1 -3")
    start = time.perf_counter()
    nf = normal_form(w)
    elapsed = time.perf_counter() - start
    assert nf.is_identity()
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_a_long_positive_run_is_one_simple():
    # sigma_1 ... sigma_599 grows with every letter, so it goes to the
    # left-weighting loop as one simple, not as 599 of them; fed letter
    # by letter, it peaks at 12.2 MiB traced
    w = parse_word("600: " + " ".join(map(str, range(1, 600))))
    tracemalloc.start()
    try:
        nf = normal_form(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf == garside.NormalForm(600, 0, (permutation(w),))
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB"


def test_normal_form_is_linear_in_word_length():
    # a half twist made by the pass goes to the right end at once, so a
    # pass stays short however long the word; the old pass, which
    # carried each one to the front, took 10.4 s on this word against
    # 0.23 s (2 cores, Python 3.11).  The twin is respelled by braid
    # relations, which free reduction cannot undo
    rng = random.Random("twenty-thousand")
    w = random_word(rng, 4, 20_000)
    twin = equal_twin(rng, w, 20)
    assert twin != w
    start = time.perf_counter()
    nf = normal_form(w)
    elapsed = time.perf_counter() - start
    assert nf == normal_form(twin)
    assert elapsed < 5.0, f"{elapsed:.2f} s"


def test_words_equal_exits_on_homomorphic_images(monkeypatch):
    # a differing exponent sum or permutation proves the elements differ
    # before any normal form is built
    def forbidden(w):
        raise AssertionError(f"normal_form({w}) after an image differed")

    monkeypatch.setattr(garside, "normal_form", forbidden)
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (-1,)))
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    assert not is_trivial(BraidWord(4, (1, 1, -3, 2)))
    assert not is_trivial(BraidWord(3, (1, -2)))
    with pytest.raises(ValueError):
        words_equal(BraidWord(2, (1,)), BraidWord(3, (-1, -1)))


def random_word(rng, n, length):
    return BraidWord(
        n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
    )


def summit_bounds(w):
    x = garside._summit_representative(normal_form(w), garside._Table())
    return x.inf, x.sup


def random_pair(rng, n, length, conjugate_pair):
    """A pair that the cheap invariants cannot tell apart.

    Conjugate: ``v = x^-1 u x``.  Otherwise ``v`` shares ``u``'s exponent
    sum and permutation cycle type.  Up to four strands it also shares
    the summit infimum and supremum, so that only the walk can separate
    the pair; on five strands it must instead differ in the closure
    fingerprint, which certifies that it is not conjugate.
    """
    while True:
        u = random_word(rng, n, length)
        if conjugate_pair:
            x = random_word(rng, n, rng.randint(1, 5))
            return u, free_reduce(concat(inverse(x), u, x))
        v = random_word(rng, n, length)
        if exponent_sum(u) != exponent_sum(v):
            continue
        if cycle_type(permutation(u)) != cycle_type(permutation(v)):
            continue
        if n < 5 and summit_bounds(u) == summit_bounds(v):
            return u, v
        if n == 5 and fingerprint(u) != fingerprint(v):
            return u, v


def test_conjugacy_matches_the_all_simples_walk():
    # up to four strands the old walk decides every pair; both walks
    # store the whole super summit set on a not-conjugate pair, so the
    # node counts agree there.  Five-strand answers are known by
    # construction.
    rng = random.Random("conjugacy-differential")
    outcomes = []
    for k in range(300):
        n = (3, 4, 5)[k % 3]
        conjugate_pair = k % 2 == 0
        length = rng.randint(4, 12) if n < 5 else rng.randint(7, 9)
        u, v = random_pair(rng, n, length, conjugate_pair)
        rep = conjugacy_test(u, v)
        outcomes.append((rep.verdict.value, rep.nodes))
        if n == 5:
            expected = (
                Verdict.CONJUGATE if conjugate_pair else Verdict.NOT_CONJUGATE
            )
            assert rep.verdict is expected, (u, v)
            continue
        old = oracle.conjugacy_test(u, v)
        assert rep.verdict is old.verdict, (u, v)
        if old.verdict is Verdict.NOT_CONJUGATE:
            assert rep.nodes == old.nodes, (u, v)
    # the node counts on conjugate pairs depend on the walk's order,
    # which no oracle shares, so all 300 outcomes are pinned
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == (
        "7dc81175b3efc78d01fafb2710ad47925a621e0308109fc919bcf07df1f0241a"
    )


def length(p):
    return sum(a > b for a, b in itertools.combinations(p, 2))


def left_divides(s, t):
    # s t' = t with lengths adding
    return length(s) + length(garside._mul(garside._inv(s), t)) == length(t)


def test_lcm_is_the_least_common_multiple():
    rng = random.Random("lcm")
    for n in (2, 3, 4, 5):
        simples = list(itertools.permutations(range(1, n + 1)))
        pairs = itertools.product(simples, repeat=2)
        if n == 5:
            pairs = [
                (rng.choice(simples), rng.choice(simples)) for _ in range(200)
            ]
        for s, t in pairs:
            m = garside._lcm(s, t)
            common = [
                c for c in simples if left_divides(s, c) and left_divides(t, c)
            ]
            assert m in common, (s, t)
            assert all(left_divides(m, c) for c in common), (s, t)


@settings(max_examples=100, deadline=None)
@given(words(max_index=5, max_len=14))
def test_summit_representative_matches_the_oracle(w):
    # the conjugations spell no half twists but reach the same elements
    nf = normal_form(w)
    rep = garside._summit_representative(nf, garside._Table())
    assert rep == oracle._summit_representative(nf)


def test_conjugation_primitive_matches_the_oracle():
    # _conj by every simple up to four strands and 50 sampled ones on
    # five, _cycle and _decycle, each on elements whose infimum is
    # negative, zero, odd and even, against conjugation by spelled words
    rng = random.Random("conjugation-primitive")
    table = garside._Table()
    for n in (2, 3, 4, 5):
        simples = list(itertools.permutations(range(1, n + 1)))
        if n == 5:
            simples = rng.sample(simples, 50)
        for _ in range(3):
            factors = normal_form(random_word(rng, n, 8)).factors
            for p in (-3, -2, -1, 0, 1, 2):
                x = garside.NormalForm(n, p, factors)
                for s in simples:
                    a = BraidWord(n, factor_word(s))
                    assert garside._conj(x, s, table) == oracle._conj(x, a), (x, s)
                if not factors:
                    continue
                head = normal_form_word(garside.NormalForm(n, p, factors[:1]))
                assert garside._cycle(x, table) == oracle._conj(x, head), x
                last = inverse(BraidWord(n, factor_word(factors[-1])))
                assert garside._decycle(x, table) == oracle._conj(x, last), x


@st.composite
def products(draw, strands, max_len):
    # n, q and a sequence of simples drawn from a small pool that holds
    # the identity and D, so that both and repeats turn up
    n = draw(strands)
    q = draw(st.integers(-3, 3))
    perms = st.permutations(range(1, n + 1)).map(tuple)
    pool = [tuple(range(1, n + 1)), garside._half_twist(n)]
    pool += draw(st.lists(perms, min_size=1, max_size=4))
    size = draw(st.integers(0, max_len))  # long lists as often as short
    simples = st.lists(st.sampled_from(pool), min_size=size, max_size=size)
    return n, q, draw(simples)


@settings(max_examples=300, deadline=None)
@given(products(st.integers(2, 6), 10))
def test_product_matches_the_oracle_on_spelled_simples(case):
    n, q, simples = case
    twist = BraidWord(n, factor_word(garside._half_twist(n)))
    power = (twist if q >= 0 else inverse(twist)).letters * abs(q)
    spelled = [g for s in simples for g in factor_word(s)]
    expected = oracle.normal_form(BraidWord(n, (*power, *spelled)))
    assert garside._product(n, q, iter(simples), garside._Table()) == expected


@st.composite
def inverse_twist_items(draw):
    # up to 8 items, each a D^-1 (None) or a random permutation braid
    n = draw(st.integers(2, 5))
    perm = st.permutations(range(1, n + 1)).map(tuple)
    return n, draw(st.lists(st.none() | perm, max_size=8))


@settings(max_examples=300, deadline=None)
@given(inverse_twist_items())
def test_product_reads_none_as_an_inverse_half_twist(case):
    n, items = case
    twist = BraidWord(n, factor_word(garside._half_twist(n)))
    spelled = [
        g
        for s in items
        for g in (inverse(twist).letters if s is None else factor_word(s))
    ]
    expected = oracle.normal_form(BraidWord(n, spelled))
    assert garside._product(n, 0, iter(items), garside._Table()) == expected


@settings(max_examples=200, deadline=None)
@given(products(st.integers(1, 7), 300))
def test_product_matches_the_bubbling_pass(case):
    # too long for the quadratic oracle; on one strand the identity is D
    n, q, simples = case
    expected = oracle.bubbling_product(n, q, iter(simples))
    assert garside._product(n, q, iter(simples), garside._Table()) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(products(st.integers(1, 6), 20), min_size=1, max_size=8))
def test_product_is_the_same_through_a_shared_table(cases):
    # one table across products of mixed strand counts, as a conjugacy
    # test shares it, against a fresh table per product and the oracle
    shared = garside._Table()
    for n, q, simples in cases:
        expected = oracle.bubbling_product(n, q, iter(simples))
        assert garside._product(n, q, iter(simples), garside._Table()) == expected
        assert garside._product(n, q, iter(simples), shared) == expected


def test_memo_tables_die_with_their_call():
    # a module-level memo would outlive every call and keep its n-tuples
    memos = [name for name, v in vars(garside).items() if hasattr(v, "cache_info")]
    assert memos == []
    caches = vars(garside._Table())
    assert list(caches) == ["entry", "weigh", "lcm", "rem", "flip"]
    assert [c.cache_info().maxsize for c in caches.values()] == [1024] * 5


def test_memo_counters_of_the_readme_pair(monkeypatch):
    # the counters are deterministic: work that comes back per node, or
    # a memo that stops answering, changes them
    tables = []

    class Recorded(garside._Table):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(garside, "_Table", Recorded)
    a = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 1, -2, -2))
    assert conjugacy_test(a, b) == ConjugacyReport(Verdict.NOT_CONJUGATE, 20)
    [table] = tables
    counters = {
        name: (memo.cache_info().hits, memo.cache_info().misses)
        for name, memo in vars(table).items()
    }
    assert counters == {
        "entry": (1624, 6),
        "weigh": (36, 4),
        "lcm": (60, 14),
        "rem": (646, 14),
        "flip": (1283, 5),
    }


def _weighs_like_the_oracle(a, b):
    # a fresh table per pair, so that no earlier step answers from memo
    table = garside._Table()
    left, right = garside._entry(a), garside._entry(b)
    got = table.weigh(left, right)
    assert tuple(e[:3] for e in got) == oracle.weigh(left[:3], right[:3]), (a, b)
    assert all(e[3] == oracle._inv(e[0]) for e in got), (a, b)
    assert all(table.entry(e[0]) is e for e in got), (a, b)


def test_weigh_matches_the_oracle_on_every_pair():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for a, b in itertools.product(perms, repeat=2):
            _weighs_like_the_oracle(a, b)


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(5, 8))
    perms = st.permutations(range(1, n + 1)).map(tuple)
    return draw(perms), draw(perms)


@settings(max_examples=300, deadline=None)
@given(perm_pairs())
def test_weigh_matches_the_oracle_on_drawn_pairs(pair):
    _weighs_like_the_oracle(*pair)


def _rem_matches_the_definition(c, f):
    # a fresh table per pair, so that no earlier step answers from memo
    one = tuple(range(1, len(f) + 1))
    expected = garside._mul(garside._inv(f), garside._lcm(c, f))
    assert garside._Table().rem(c, f) == expected, (c, f)
    assert garside._Table().lcm(c, f) == garside._lcm(c, f), (c, f)
    assert garside._Table().rem(one, f) == one, f


def test_remainder_step_on_every_pair():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for c, f in itertools.product(perms, repeat=2):
            _rem_matches_the_definition(c, f)


@settings(max_examples=300, deadline=None)
@given(perm_pairs())
def test_remainder_step_on_drawn_pairs(pair):
    _rem_matches_the_definition(*pair)


def test_flip_entry_mirrors_the_masks():
    for n in range(1, 7):
        for f in itertools.permutations(range(1, n + 1)):
            flipped = garside._entry(garside._flip(f))
            # both helpers against their definitions
            assert flipped[0] == oracle._flip(f), f
            # the stored inverse: the places of 1, 2, ..., n in f
            inverse = tuple(sorted(range(1, n + 1), key=lambda k: f[k - 1]))
            assert garside._entry(f)[3] == inverse, f
            assert garside._descents(f) == sum(1 << i for i in oracle._finishing(f))


def test_long_words_match_the_bubbling_pass():
    # the same simples through both passes, and the freely reduced word
    # through normal_form, at a length where the old pass reaches far
    rng = random.Random("bubbling-pass")
    for n in (3, 4, 6):
        w = random_word(rng, n, 4_000)
        q = -sum(g < 0 for g in w.letters)
        simples = list(oracle.letter_simples(w))
        expected = oracle.bubbling_product(n, q, iter(simples))
        table = garside._Table()
        assert garside._product(n, q, iter(simples), table) == expected, n
        assert normal_form(w) == expected, n


@st.composite
def run_words(draw, max_chunks):
    # words made of sign runs: long ascending, descending and half-twist
    # runs of one sign, and runs cut by a repeat such as i i, -i -i or i j i
    n = draw(st.integers(1, 8))
    out: list[int] = []
    for _ in range(draw(st.integers(0, max_chunks)) if n > 1 else 0):
        sign = draw(st.sampled_from((1, -1)))
        i = draw(st.integers(1, n - 1))
        shape = draw(st.sampled_from(("up", "down", "twist", "i i", "i j i", "any")))
        if shape == "up":
            run = range(i, n)
        elif shape == "down":
            run = range(i, 0, -1)
        elif shape == "twist":
            run = factor_word(garside._half_twist(n))
        elif shape == "i i":
            run = (i, i)
        elif shape == "i j i":
            j = draw(st.integers(1, n - 1))
            run = (i, j, i)
        else:
            run = draw(st.lists(st.integers(1, n - 1), max_size=8))
        out.extend(sign * g for g in run)
    return BraidWord(n, out)


@settings(max_examples=200, deadline=None)
@given(run_words(6))
def test_run_words_match_the_oracle(w):
    assert normal_form(w) == oracle.normal_form(w)


@settings(max_examples=100, deadline=None)
@given(run_words(40))
def test_long_run_words_match_the_bubbling_pass(w):
    # too long for the quadratic oracle: the letter-by-letter feed
    q = -sum(g < 0 for g in w.letters)
    expected = oracle.bubbling_product(w.index, q, oracle.letter_simples(w))
    assert normal_form(w) == expected


def test_conjugacy_spells_no_letters(monkeypatch):
    # the walk, cycling and decycling hand permutations to _product and
    # never turn them into letters
    rng = random.Random("spells-no-letters")
    elements = [normal_form(random_word(rng, n, 10)) for n in (3, 4, 5) * 2]
    summits = [garside._summit_representative(x, garside._Table()) for x in elements]

    def spelled(p):
        raise AssertionError(f"factor_word{p} on the conjugacy path")

    monkeypatch.setattr(garside, "factor_word", spelled)
    a = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 1, -2, -2))
    assert conjugacy_test(a, b) == ConjugacyReport(Verdict.NOT_CONJUGATE, 20)
    assert [
        garside._summit_representative(x, garside._Table()) for x in elements
    ] == summits


@settings(max_examples=150, deadline=None)
@given(words(max_index=6, max_len=20))
def test_inverse_normal_form_from_the_factors(w):
    x = normal_form(w)
    assert garside._inverse(x, garside._Table()) == normal_form(inverse(w))


def test_minimal_simples_match_brute_force():
    # against every permutation braid: for each generator, the least
    # simple above it that keeps the conjugate in the super summit set,
    # each listed once, in generator order
    rng = random.Random("minimal-simples")
    for n in (3, 4, 5):
        simples = list(itertools.permutations(range(1, n + 1)))[1:]
        for _ in range(30 if n < 5 else 12):
            w = random_word(rng, n, rng.randint(2, 12))
            x = oracle._summit_representative(normal_form(w))
            good = []
            for s in simples:
                y = oracle._conj(x, BraidWord(n, factor_word(s)))
                if (y.inf, y.sup) == (x.inf, x.sup):
                    good.append(s)
            expected = []
            for i in range(1, n):
                generator = garside._tau(i, n)
                above = [s for s in good if left_divides(generator, s)]
                least = [
                    s for s in above if all(left_divides(s, t) for t in above)
                ]
                assert len(least) == 1
                if least[0] not in expected:
                    expected.append(least[0])
            assert garside._minimal_simples(x, garside._Table()) == expected, w


def test_five_strand_summit_set_walk_is_fast():
    # 388 elements in the super summit set, counted by the old walk,
    # which took over half a minute; the fingerprints differ
    u = BraidWord(5, (2, -3, 2, -3, -4, 4, -3, 1, -3, -3, -4, -2))
    v = BraidWord(5, (-2, -4, -4, -1, -1, 2, -4, 3, -1, 1, 1, -2))
    start = time.perf_counter()
    rep = conjugacy_test(u, v)
    elapsed = time.perf_counter() - start
    assert rep == ConjugacyReport(Verdict.NOT_CONJUGATE, 388)
    assert elapsed < 10.0, f"{elapsed:.2f} s"


def _minimal_simples_match_the_oracle(x, table):
    got = garside._minimal_simples(x, table)
    assert got == oracle.minimal_simples(x), x


def test_minimal_simples_match_the_oracle_on_summit_representatives():
    # the memoized walk with its identity cut against the per-factor
    # products of the old one, list and order alike
    rng = random.Random("minimal-simples-oracle")
    drawn = [random_word(rng, n, rng.randint(1, 14)) for n in (3, 4, 5, 6) * 40]
    for w in drawn + CHAINS_MEET:
        table = garside._Table()
        x = garside._summit_representative(normal_form(w, table), table)
        _minimal_simples_match_the_oracle(x, table)


# on these two a chain meets a simple that an earlier chain passed on
# its way to its fixpoint
CHAINS_MEET = [
    BraidWord(5, (-4, -1, 4, -3, -4, -1, -2, 1, -3, -1, -1, 4, 3, -2)),
    BraidWord(6, (4, 3, -4, 1, 5, -1, 4, 5, 1, 5, -5, 2)),
]


def test_minimal_simples_match_the_oracle_on_a_whole_summit_set():
    # every element the 388-node five-strand walk stores, through one
    # table as conjugacy_test shares it
    u = BraidWord(5, (2, -3, 2, -3, -4, 4, -3, 1, -3, -3, -4, -2))
    table = garside._Table()
    x = garside._summit_representative(normal_form(u, table), table)
    seen, frontier = {x}, [x]
    while frontier:
        next_frontier = []
        for x in frontier:
            _minimal_simples_match_the_oracle(x, table)
            for s in garside._minimal_simples(x, table):
                y = garside._conj(x, s, table)
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
        frontier = next_frontier
    assert len(seen) == 388
