"""Acceptance gate: one test per shipped guarantee.

Each test exercises a contract end to end at a fixed seed and a fixed
time budget, so ``pytest -v`` prints one pass or fail line per
guarantee.  Tolerances are asserted, not just measured.  A failure
here means the package does not honor its published behavior; the
message says which guarantee broke and on what instance.
"""

import random
import time

from _handles import equal_twin, is_trivial_word

from braidcalc.census import (
    EdgeCensus,
    VertexCensus,
    edge_vertex_consistency,
    euler_balance_annulus,
)
from braidcalc.explorer import proxy_complexity, search_reduce
from braidcalc.garside import Verdict, conjugacy_test, words_equal
from braidcalc.invariants import fingerprint
from braidcalc.moves import (
    Conjugate,
    Destabilize,
    Stabilize,
    Tower,
    apply_move,
    extend,
    find_exchanges,
    flype_admissibility,
    replay,
    stabilize,
)
from braidcalc.templates import (
    catalog,
    cyclic_tower,
    gflype_tower,
    make_destabilize,
    make_exchange,
    make_flype,
    non_carry_certificate,
    sample_assignment,
    sigma_budget,
    verify_template,
)
from braidcalc.words import (
    BraidWord,
    concat,
    conjugate,
    inverse,
    permutation,
    rotate,
)


def _random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
    )
    return BraidWord(n, letters)


def test_criterion_01_word_problem_matches_handle_reduction():
    start = time.monotonic()
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 2, n):
                assert words_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))
            if i + 1 < n:
                assert words_equal(
                    BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
                )
    rng = random.Random(101)
    for trial in range(1000):
        n = rng.randint(2, 5)
        u = _random_word(rng, n, 8 if trial % 2 == 0 else 12)
        if trial % 2 == 0:
            v = equal_twin(rng, u, rng.randint(1, 2))
        else:
            v = _random_word(rng, n, 12)
        got = words_equal(u, v)
        want = is_trivial_word(concat(u, inverse(v)).letters)
        assert got == want, f"disagree on {u} vs {v}: ours={got} oracle={want}"
        if trial % 2 == 0:
            assert got, f"sound rewrite changed the braid: {u} vs {v}"
    assert time.monotonic() - start < 10.0


def test_criterion_02_fingerprint_is_markov_invariant():
    start = time.monotonic()
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(2, 5)
        w = _random_word(rng, n, 12)
        fp = fingerprint(w)
        c = _random_word(rng, n, 3)
        assert fingerprint(conjugate(w, c)) == fp
        assert fingerprint(rotate(w, rng.randint(0, max(len(w.letters), 1)))) == fp
        assert fingerprint(stabilize(w, 1)) == fp
        assert fingerprint(stabilize(w, -1)) == fp
    assert time.monotonic() - start < 30.0


def test_criterion_03_exchange_agrees_with_stab_conj_destab():
    start = time.monotonic()
    rng = random.Random(303)
    for _ in range(50):
        p = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 5)))
        q = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 5)))
        x = BraidWord(3, p + (2,) + q + (-2,))
        moves = find_exchanges(x)
        assert moves, f"no exchange site on {x}"
        exchanged = apply_move(x, moves[0])
        tower = Tower(x)
        tower = extend(tower, Stabilize(1))
        tower = extend(tower, Conjugate(inverse(BraidWord(4, p))))
        tower = extend(tower, Destabilize(1))
        assert tower.index_profile == (3, 4, 4, 3)
        report = replay(tower)
        assert report.ok and report.constant
        verdict = conjugacy_test(exchanged, tower.final).verdict
        assert verdict is Verdict.CONJUGATE, (
            f"exchange of {x} not conjugate to its tower composite"
        )
    assert time.monotonic() - start < 60.0


def test_criterion_04_three_strand_exchange_preserves_conjugacy():
    start = time.monotonic()
    rng = random.Random(404)
    done = 0
    while done < 100:
        p = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
        q = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
        e = rng.choice((1, -1))
        x = rotate(
            BraidWord(3, p + (2 * e,) + q + (-2 * e,)),
            rng.randint(0, len(p) + len(q) + 1),
        )
        moves = find_exchanges(x)
        assert moves, f"no exchange site on {x}"
        y = apply_move(x, moves[0])
        verdict = conjugacy_test(x, y).verdict
        assert verdict is Verdict.CONJUGATE, f"{x} vs exchanged {y}: {verdict}"
        done += 1
    assert time.monotonic() - start < 60.0


def test_criterion_05_fingerprint_blind_pair_separated_by_conjugacy():
    start = time.monotonic()
    a = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 1, -2, -2))
    assert fingerprint(a) == fingerprint(b)
    report = conjugacy_test(a, b)
    assert report.verdict is Verdict.NOT_CONJUGATE, (
        f"expected a definite split, got {report.verdict} "
        f"after {report.nodes} nodes"
    )
    assert time.monotonic() - start < 300.0


def test_criterion_06_flype_family_index_arithmetic():
    checked = 0
    for w in range(1, 6):
        for k in range(1, 6):
            for wp in range(1, 6):
                kp = w + wp - k
                if kp < 1 or w + wp > 6:
                    continue
                t = make_flype(1, w, k, wp, kp)
                fa = flype_admissibility(w, k, wp, kp)
                assert fa.valid
                assert t.delta_b == wp - k == fa.delta_b
                assert fa.admissible == (fa.delta_b >= 0)
                checked += 1
    assert checked == sum((s - 1) ** 2 for s in range(2, 7))
    bad = flype_admissibility(1, 2, 1, 1)
    assert not bad.valid and not bad.admissible
    try:
        make_flype(1, 1, 2, 1, 1)
    except ValueError:
        pass
    else:
        raise AssertionError("inconsistent weights accepted")


def test_criterion_07_full_twist_letter_floor_and_certificates():
    start = time.monotonic()
    target = BraidWord(3, (1, 2, 1, 2, 1, 2))
    best = None
    witness = None
    # the full twist has exponent sum 6, so a spelling of length <= 7
    # has exactly six letters, all positive; the odd lengths and the
    # lengths below 6 cannot reach that sum and are skipped
    for length in range(8):
        if length % 2 != 0 or length < 6:
            continue
        stack = [()]
        for _ in range(length):
            stack = [
                w + (g,) for w in stack for g in (1, -1, 2, -2)
            ]
        for letters in stack:
            if sum(1 if g > 0 else -1 for g in letters) != 6:
                continue
            if not words_equal(BraidWord(3, letters), target):
                continue
            count = sum(1 for g in letters if abs(g) == 2)
            if best is None or count < best:
                best, witness = count, letters
    assert best is not None
    assert time.monotonic() - start < 60.0
    # the witness equals the full twist by the independent
    # handle-reduction oracle as well, not only by words_equal
    assert is_trivial_word(witness + inverse(target).letters), (
        f"witness {witness} is not the full twist by handle reduction"
    )
    # lower bound: with no top letter, exponent sum 6 forces sigma_1^6,
    # which is not the full twist; with one top letter the word reduces
    # to sigma_1^a sigma_2^(+-1) sigma_1^b, whose permutation depends on
    # a and b mod 2 only, and none of those eight words fixes strand 3,
    # so none is pure, while the full twist is
    assert not words_equal(BraidWord(3, (1,) * 6), target)
    for a in (0, 1):
        for b in (0, 1):
            for e in (1, -1):
                word = BraidWord(3, (1,) * a + (2 * e,) + (1,) * b)
                assert permutation(word)[2] != 3, (
                    f"{word.letters} fixes strand 3"
                )
    floor = 2
    assert best == floor, (
        f"the proven floor of {floor} top-generator letters is not "
        f"attained: the fewest found is {best}, witness {witness}"
    )
    # a certificate holds only when the budget stays below the proven
    # floor; the exchange diagram reaches it, so it gets none
    destabilize = make_destabilize(1).plus
    exchange = make_exchange(1).plus
    assert sigma_budget(destabilize) == 1
    assert non_carry_certificate(destabilize, floor)
    assert sigma_budget(exchange) == 2
    assert not non_carry_certificate(exchange, floor)


def test_criterion_08_catalog_templates_verify_and_towers_replay():
    start = time.monotonic()
    for position, template in enumerate(sorted(catalog(), key=lambda t: t.name)):
        rng = random.Random(800 + position)
        samples = [sample_assignment(template, rng, 6) for _ in range(25)]
        report = verify_template(template, samples)
        assert report.all_pass, (
            f"{template.name}: {report.summary()}; "
            + "; ".join(s.detail for s in report.samples if not s.ok)
        )
    asg = {
        "B1": BraidWord(2, (1,)),
        "B2": BraidWord(2, (-1,)),
        "B3": BraidWord(2, (1, 1)),
        "B4": BraidWord(2, ()),
    }
    tower = cyclic_tower(4, asg)
    assert tower.index_profile == (4, 5, 5, 5, 5, 4)
    report = replay(tower)
    assert report.ok and report.constant
    gtemplate = next(t for t in catalog() if t.name == "gflype6")
    gasg = sample_assignment(gtemplate, random.Random(17), 6)
    gtower = gflype_tower(gasg)
    assert gtower.index_profile == (6, 7, 7, 7, 6)
    greport = replay(gtower)
    assert greport.ok and greport.constant
    assert time.monotonic() - start < 300.0


def test_criterion_09_census_balances_match_direct_arithmetic():
    start = time.monotonic()
    for k in range(1, 11):
        vc = VertexCensus({(1, 2): 2 * k})
        assert euler_balance_annulus(vc, 0) == 0
    rng = random.Random(909)
    for _ in range(20):
        counts = {}
        for _ in range(rng.randint(1, 6)):
            a, b = rng.randint(0, 3), rng.randint(0, 4)
            if a + b == 0:
                continue
            counts[(a, b)] = counts.get((a, b), 0) + rng.randint(1, 5)
        if not counts:
            counts[(1, 2)] = 2
        es = rng.randint(0, 4)
        vc = VertexCensus(counts)
        direct = 0
        for (a, b), cnt in counts.items():
            if (a, b) == (1, 1):
                direct += cnt
            if (a, b) == (1, 0):
                direct += 2 * cnt
            if (a, b) == (0, 2):
                direct += 2 * cnt
            if (a, b) == (0, 3):
                direct += cnt
            excess = 2 * a + b - 4
            if excess > 0:
                direct -= excess * cnt
        direct -= 2 * es
        assert euler_balance_annulus(vc, es) == direct
    for _ in range(20):
        counts = {
            (rng.randint(0, 3), rng.randint(1, 4)): rng.randint(1, 5)
            for _ in range(rng.randint(1, 5))
        }
        vc = VertexCensus(counts)
        ec = EdgeCensus(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
        got = edge_vertex_consistency(vc, ec)
        total = sum(counts.values())
        a_sum = sum(a * c for (a, _), c in counts.items())
        b_sum = sum(b * c for (_, b), c in counts.items())
        assert got.vertex_residual == 2 * total - (ec.ea + ec.eb + ec.es)
        assert got.a_residual == a_sum - ec.ea
        assert got.b_residual == b_sum - 2 * ec.eb
        assert got.ok == (
            got.vertex_residual == got.a_residual == got.b_residual == 0
        )
    assert time.monotonic() - start < 1.0


def test_criterion_10_search_recovers_obfuscated_closures():
    start = time.monotonic()
    rng = random.Random(424)
    wins = 0
    for trial in range(100):
        if trial % 2 == 0:
            w = BraidWord(2, (1,))
            floor = (1, 0)
        else:
            w = BraidWord(2, (1, 1, 1))
            floor = (2, 3)
        for _ in range(rng.randint(0, 2)):
            w = stabilize(w, rng.choice((1, -1)))
        for _ in range(rng.randint(0, 4)):
            g = rng.choice((1, -1)) * rng.randint(1, w.index - 1)
            w = conjugate(w, BraidWord(w.index, (g,)))
        if rng.random() < 0.5:
            moves = find_exchanges(w)
            if moves:
                w = apply_move(w, moves[0])
        outcome = search_reduce(w)
        good = (
            outcome.proxy_complexity == floor
            and outcome.proxy_complexity <= proxy_complexity(w)
            and fingerprint(outcome.reached) == fingerprint(w)
            and replay(outcome.best).ok
        )
        wins += good
    assert wins >= 95, f"only {wins}/100 instances recovered"
    assert time.monotonic() - start < 600.0
