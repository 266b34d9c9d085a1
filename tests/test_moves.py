"""Move vocabulary: stabilize, destabilize, exchange, 3-braid flype, towers."""

import json
from itertools import product
from pathlib import Path

import _moves_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.garside import Verdict, conjugacy_test
from braidcalc.invariants import fingerprint, self_linking
from braidcalc.moves import (
    Conjugate,
    CyclicShift,
    Destabilize,
    Exchange,
    Flype3,
    InvalidSite,
    Stabilize,
    Tower,
    TowerStep,
    apply_move,
    dump_tower,
    extend,
    find_destabilizations,
    find_exchanges,
    flype_admissibility,
    load_tower,
    move_from_json,
    move_to_json,
    replay,
    stabilize,
    tower_from_json,
    tower_to_json,
)
from braidcalc.words import BraidWord, free_reduce, inverse, rotate

TOWER_FIXTURE = Path(__file__).with_name("tower_six_kinds.json")


def test_stabilize():
    assert stabilize(BraidWord(1, ()), 1) == BraidWord(2, (1,))
    assert stabilize(BraidWord(2, (1, 1, 1)), 1) == BraidWord(3, (1, 1, 1, 2))
    low = stabilize(BraidWord(2, (1,)), -1)
    assert low == BraidWord(3, (1, -2))
    assert fingerprint(low) == fingerprint(BraidWord(2, (1,)))
    assert self_linking(low) == self_linking(BraidWord(2, (1,))) - 2
    with pytest.raises(ValueError):
        stabilize(BraidWord(2, (1,)), 2)


def test_find_destabilizations():
    assert find_destabilizations(BraidWord(3, (1, 2))) == [Destabilize(1)]
    assert find_destabilizations(BraidWord(3, (2, 1))) == [Destabilize(1)]
    assert find_destabilizations(BraidWord(3, (1, 2, 1, -2))) == []
    assert find_destabilizations(BraidWord(3, (1, -2))) == [Destabilize(-1)]
    assert find_destabilizations(BraidWord(1, ())) == []


def test_apply_destabilize():
    assert apply_move(BraidWord(3, (1, 2)), Destabilize(1)) == BraidWord(
        2, (1,)
    )
    assert apply_move(BraidWord(2, (1,)), Destabilize(1)) == BraidWord(1, ())
    assert apply_move(BraidWord(3, (1, -2)), Destabilize(-1)) == BraidWord(
        2, (1,)
    )
    # the top letter is rotated to the end before it is dropped
    assert apply_move(
        BraidWord(3, (1, 2, -1, 1)), Destabilize(1)
    ) == BraidWord(2, (-1, 1, 1))
    with pytest.raises(InvalidSite) as err:
        apply_move(BraidWord(3, (1, 2)), Destabilize(-1))
    assert str(err.value) == "no destabilization of sign -1 in 3: 1 2"
    with pytest.raises(InvalidSite):
        apply_move(BraidWord(3, (2, 1, 2)), Destabilize(1))
    with pytest.raises(InvalidSite):
        apply_move(BraidWord(1, ()), Destabilize(1))


def test_stab_destab_round_trip():
    w = BraidWord(3, (1, -2, 1))
    for sign in (1, -1):
        up = stabilize(w, sign)
        moves = find_destabilizations(up)
        assert moves == [Destabilize(sign)]
        assert apply_move(up, moves[0]) == w


def test_find_exchanges():
    moves = find_exchanges(BraidWord(3, (1, 1, 2, -1, -2)))
    assert moves == [Exchange(2, 4)]
    assert find_exchanges(BraidWord(3, (1, 2, 1, 2))) == []
    assert find_exchanges(BraidWord(3, (2, -1, 2))) == []
    assert find_exchanges(BraidWord(3, (2, -2))) == [Exchange(0, 1)]
    # rotation robustness: the pattern may wrap the seam
    wrapped = BraidWord(3, (-2, 1, 1, 2, -1))
    assert find_exchanges(wrapped) == [Exchange(3, 0)]
    assert apply_move(wrapped, Exchange(3, 0)) == BraidWord(
        3, (2, 1, 1, -2, -1)
    )


def test_apply_exchange():
    w = BraidWord(3, (1, 1, 2, -1, -2))
    out = apply_move(w, find_exchanges(w)[0])
    assert out == BraidWord(3, (1, 1, -2, -1, 2))
    assert fingerprint(out) == fingerprint(w)
    assert conjugacy_test(w, out).verdict is Verdict.CONJUGATE

    degenerate = BraidWord(3, (2, -2))
    flipped = apply_move(degenerate, find_exchanges(degenerate)[0])
    assert flipped == BraidWord(3, (-2, 2))
    assert free_reduce(flipped) == BraidWord(3, ())

    with pytest.raises(InvalidSite) as err:
        apply_move(w, Exchange(0, 1))
    assert str(err.value) == "no exchange at cuts (0, 1) in 3: 1 1 2 -1 -2"
    # the positive top letter must sit at cut1
    with pytest.raises(InvalidSite):
        apply_move(w, Exchange(4, 2))


def test_exchange_is_an_involution():
    w = BraidWord(3, (1, 1, 2, -1, -2))
    once = apply_move(w, find_exchanges(w)[0])
    twice = apply_move(once, find_exchanges(once)[0])
    assert twice == w


def flype_sites(w):
    # every Flype3 with exponents up to the word length that applies
    exps = [e for e in range(-len(w), len(w) + 1) if e]
    sites = []
    for p, u, q, eps in product(exps, exps, exps, (1, -1)):
        try:
            apply_move(w, Flype3(p, u, q, eps))
        except InvalidSite:
            continue
        sites.append(Flype3(p, u, q, eps))
    return sites


def test_parse_flype3():
    w = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    assert flype_sites(w) == [Flype3(3, -2, 4, -1)]
    assert flype_sites(BraidWord(3, (1, -2, -2, 1, 1, 2))) == [
        Flype3(1, -2, 2, 1)
    ]
    assert flype_sites(BraidWord(3, (1, 1, 2, 2))) == []
    assert flype_sites(BraidWord(3, (2, 1, 2, 1))) == []
    assert flype_sites(BraidWord(3, (1, 2, 1, 2, 2))) == []
    assert flype_sites(BraidWord(4, (1, -2, -2, 1, 1, 2))) == []


def test_apply_flype3_key_pair():
    w = BraidWord(3, (1, 1, 1, -2, -2, 1, 1, 1, 1, -2))
    out = apply_move(w, Flype3(3, -2, 4, -1))
    assert out == BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 1, -2, -2))
    assert fingerprint(out) == fingerprint(w)
    # the deep flype resists braid isotopy
    assert conjugacy_test(w, out).verdict is Verdict.NOT_CONJUGATE


def test_apply_flype3_shallow_instance_is_isotopy():
    w = BraidWord(3, (1, -2, -2, 1, 1, 2))
    out = apply_move(w, Flype3(1, -2, 2, 1))
    assert fingerprint(out) == fingerprint(w)
    assert conjugacy_test(w, out).verdict is Verdict.CONJUGATE


def test_flype_admissibility():
    r = flype_admissibility(1, 1, 1, 1)
    assert (r.valid, r.delta_b, r.admissible) == (True, 0, True)
    r = flype_admissibility(1, 3, 2, 2)
    assert not r.valid and not r.admissible
    r = flype_admissibility(2, 3, 3, 2)
    assert (r.valid, r.delta_b, r.admissible) == (True, 0, True)
    r = flype_admissibility(2, 3, 2, 1)
    assert r.valid and r.delta_b == -1 and not r.admissible
    with pytest.raises(ValueError):
        flype_admissibility(1, 3, 2, 0)


def test_apply_move_dispatch():
    w = BraidWord(2, (1,))
    assert apply_move(w, Stabilize(1)) == BraidWord(3, (1, 2))
    assert apply_move(w, Conjugate(BraidWord(2, (1,)))) == BraidWord(2, (1,))
    assert apply_move(BraidWord(3, (1, 2)), CyclicShift(1)) == BraidWord(
        3, (2, 1)
    )
    assert apply_move(BraidWord(3, (1, 2)), Destabilize(1)) == BraidWord(
        2, (1,)
    )
    with pytest.raises(InvalidSite):
        apply_move(BraidWord(3, (1, 2)), Destabilize(-1))
    word = BraidWord(3, (1, 1, 2, -1, -2))
    assert apply_move(word, Exchange(2, 4)) == BraidWord(
        3, (1, 1, -2, -1, 2)
    )
    with pytest.raises(InvalidSite):
        apply_move(word, Exchange(0, 1))
    flyped = apply_move(
        BraidWord(3, (1, -2, -2, 1, 1, 2)), Flype3(1, -2, 2, 1)
    )
    assert flyped == BraidWord(3, (1, 2, 1, 1, -2, -2))
    with pytest.raises(InvalidSite) as err:
        apply_move(BraidWord(3, (1, -2, -2, 1, 1, 2)), Flype3(2, -2, 1, 1))
    assert str(err.value) == (
        "no flype with (p, u, q, eps) = (2, -2, 1, 1) in 3: 1 -2 -2 1 1 2"
    )
    with pytest.raises(TypeError):
        apply_move(w, "stabilize")


def test_tower_construction_and_replay():
    tower = Tower(BraidWord(2, (1,)))
    tower = extend(tower, Stabilize(1))
    tower = extend(tower, Destabilize(1))
    assert tower.final == BraidWord(2, (1,))
    assert tower.index_profile == (2, 3, 2)
    report = replay(tower)
    assert report.ok and report.constant
    assert report.failed_step is None
    assert len(report.fingerprints) == 3


def test_extend_applies_many_moves_in_order():
    start = BraidWord(2, (1,))
    moves = (Stabilize(1), Conjugate(BraidWord(3, (2,))), Destabilize(1))
    one_by_one = Tower(start)
    for move in moves:
        one_by_one = extend(one_by_one, move)
    assert extend(Tower(start), *moves) == one_by_one
    assert extend(extend(Tower(start), moves[0]), *moves[1:]) == one_by_one
    assert extend(one_by_one) == one_by_one


def test_replay_flags_corrupted_steps():
    tower = Tower(
        BraidWord(2, (1,)),
        (TowerStep(Stabilize(1), BraidWord(3, (1, 1))),),
    )
    report = replay(tower)
    assert not report.ok
    assert report.failed_step == 1
    # a step whose move no longer applies: the stabilization's top
    # letter is positive, so a negative destabilization finds no site
    tower = Tower(
        BraidWord(2, (1,)),
        (
            TowerStep(Stabilize(1), BraidWord(3, (1, 2))),
            TowerStep(Destabilize(-1), BraidWord(2, (1,))),
        ),
    )
    report = replay(tower)
    assert (report.ok, report.failed_step) == (False, 2)
    assert report.fingerprints == (fingerprint(BraidWord(2, (1,))),) * 2


def test_very_simple_tower_matches_the_shallow_flype():
    # carry the leading block around the axis through one stabilization
    start = BraidWord(3, (1, -2, -2, 1, 1, 2))
    segment = BraidWord(4, (1,))
    tower = Tower(start)
    tower = extend(tower, Stabilize(1))
    tower = extend(tower, Conjugate(inverse(segment)))
    tower = extend(tower, Destabilize(1))
    assert tower.index_profile == (3, 4, 4, 3)
    report = replay(tower)
    assert report.ok and report.constant
    flyped = apply_move(start, Flype3(1, -2, 2, 1))
    verdict = conjugacy_test(tower.final, flyped).verdict
    assert verdict is Verdict.CONJUGATE


def test_move_json_round_trip():
    moves = [
        Stabilize(-1),
        Conjugate(BraidWord(3, (1, -2))),
        CyclicShift(2),
        Destabilize(1),
        Exchange(2, 4),
        Flype3(3, -2, 4, -1),
    ]
    for move in moves:
        data = move_to_json(move)
        assert move_from_json(json.loads(json.dumps(data))) == move
    with pytest.raises(TypeError, match="not a move"):
        move_to_json(BraidWord(3, (1,)))
    for kind in ("twist", ["stabilize"]):
        with pytest.raises(ValueError, match="unknown move kind"):
            move_from_json({"kind": kind})


@pytest.mark.parametrize(
    "data,key",
    [
        ({"kind": "cyclic", "k": 2}, "k"),
        ({"kind": "stabilize", "sign": 1}, "sign"),
        ({"kind": "destabilize", "sign": -1}, "sign"),
        ({"kind": "exchange", "cut1": 2, "cut2": 4}, "cut1"),
        ({"kind": "exchange", "cut1": 2, "cut2": 4}, "cut2"),
        *[
            ({"kind": "flype3", "p": 3, "u": -2, "q": 4, "eps": -1}, key)
            for key in ("p", "u", "q", "eps")
        ],
    ],
)
def test_move_from_json_wants_integers(data, key):
    move_from_json(data)
    for bad in (True, False, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match=key):
            move_from_json({**data, key: bad})
    if key in ("sign", "eps"):
        for bad in (0, 2, -3):
            with pytest.raises(ValueError, match="must be \\+1 or -1"):
                move_from_json({**data, key: bad})


def test_tower_json_round_trip(tmp_path):
    tower = Tower(BraidWord(2, (1,)))
    tower = extend(tower, Stabilize(1))
    tower = extend(tower, Destabilize(1))
    data = tower_to_json(tower)
    assert tower_from_json(json.loads(json.dumps(data))) == tower

    path = tmp_path / "tower.json"
    dump_tower(tower, path)
    assert load_tower(path) == tower


def small_words():
    return st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(
                lambda g: st.sampled_from((g, -g))
            ),
            max_size=10,
        ).map(lambda ls: BraidWord(n, ls))
    )


@settings(max_examples=50, deadline=None)
@given(small_words(), st.sampled_from((1, -1)))
def test_moves_preserve_fingerprint(w, sign):
    fp = fingerprint(w)
    up = stabilize(w, sign)
    assert fingerprint(up) == fp
    for move in find_destabilizations(w) + find_exchanges(w):
        assert fingerprint(apply_move(w, move)) == fp


@settings(max_examples=30, deadline=None)
@given(small_words())
def test_exchange_conjugate_at_index_three(w):
    if w.index != 3:
        w = BraidWord(3, [g for g in w.letters if abs(g) <= 2])
    for move in find_exchanges(w):
        out = apply_move(w, move)
        assert conjugacy_test(w, out).verdict is Verdict.CONJUGATE


@settings(max_examples=100, deadline=None)
@given(small_words())
def test_apply_move_accepts_exactly_the_found_sites(w):
    # every candidate site: the applier's check agrees with the finders
    found = find_destabilizations(w) + find_exchanges(w)
    candidates = [Destabilize(1), Destabilize(-1)] + [
        Exchange(a, b)
        for a in range(len(w.letters))
        for b in range(len(w.letters))
    ]
    for move in candidates:
        if move not in found:
            with pytest.raises(InvalidSite):
                apply_move(w, move)
        elif isinstance(move, Destabilize):
            # putting the letter back gives a rotation of the word
            back = stabilize(apply_move(w, move), move.sign).letters
            assert back in {
                rotate(w, k).letters for k in range(len(w.letters))
            }
        else:
            out = apply_move(w, move)
            assert apply_move(out, find_exchanges(out)[0]) == w


def flype_cases():
    # the word s1^p s2^u s1^q s2^e with small exponents (a zero merges two
    # runs) on 2 to 4 strands, and the move Flype3(p, u, q, e)
    def case(n, p, u, q, e):
        letters = [
            g if count > 0 else -g
            for g, count in zip((1, 2, 1, 2), (p, u, q, e)) if g < n
            for _ in range(abs(count))
        ]
        return BraidWord(n, letters), Flype3(p, u, q, e)

    exps = st.integers(-3, 3)
    return st.builds(
        case, st.sampled_from((2, 3, 3, 3, 4)), exps, exps, exps,
        st.integers(-2, 2),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        flype_cases(),
        st.tuples(
            small_words(),
            st.builds(Flype3, *[st.integers(-4, 4)] * 3, st.integers(-2, 2)),
        ),
    )
)
def test_flype_site_matches_the_old_parser(case):
    # apply_move takes a Flype3 exactly when the old run parser reads the
    # word as its parameters, and then rewrites it as the old code did
    w, move = case
    try:
        parsed = oracle.parse_flype3(w)
    except oracle.PatternMismatch:
        parsed = None
    candidates = [move] if parsed is None else [move, Flype3(*parsed)]
    for i, d in product(range(4), (-1, 1)):
        near = [move.p, move.u, move.q, move.eps]
        near[i] += d
        candidates.append(Flype3(*near))
    for candidate in candidates:
        if (candidate.p, candidate.u, candidate.q, candidate.eps) == parsed:
            assert apply_move(w, candidate) == oracle.apply_flype3(w)
        else:
            with pytest.raises(InvalidSite):
                apply_move(w, candidate)


MOVE_KINDS = ("conjugate", "cyclic", "stabilize", "destabilize", "exchange")


@st.composite
def towers(draw):
    # a small word and up to 8 moves, each kept only if it applies;
    # a recorded result may then be corrupted, or a move swapped
    tower = Tower(draw(small_words()))
    for _ in range(draw(st.integers(0, 8))):
        w = tower.final
        kind = draw(st.sampled_from(MOVE_KINDS))
        if kind == "conjugate":
            letters = st.integers(1, max(w.index - 1, 1)).flatmap(
                lambda g: st.sampled_from((g, -g))
            )
            # one strand has no generators, so only the empty conjugator
            size = 3 if w.index > 1 else 0
            by = draw(st.lists(letters, max_size=size))
            move = Conjugate(BraidWord(w.index, by))
        elif kind == "cyclic":
            move = CyclicShift(draw(st.integers(-5, 5)))
        elif kind == "stabilize":
            if w.index >= 6:
                continue
            move = Stabilize(draw(st.sampled_from((1, -1))))
        else:
            found = (
                find_destabilizations(w)
                if kind == "destabilize"
                else find_exchanges(w)
            )
            if not found:
                continue
            move = found[0]
        tower = extend(tower, move)
    steps = list(tower.steps)
    if steps and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(steps) - 1))
        step = steps[at]
        if draw(st.booleans()):
            wrong = BraidWord(step.result.index, step.result.letters[1:])
            steps[at] = TowerStep(step.move, wrong)
        else:
            steps[at] = TowerStep(Stabilize(1), step.result)
    return Tower(tower.initial, tuple(steps))


@settings(max_examples=200, deadline=None)
@given(towers())
def test_replay_matches_the_memo_free_oracle(tower):
    assert replay(tower) == oracle.replay(tower)


def test_tower_fixture_replays_unchanged(tmp_path):
    text = TOWER_FIXTURE.read_text(encoding="utf-8")
    tower = load_tower(TOWER_FIXTURE)
    kinds = {move_to_json(step.move)["kind"] for step in tower.steps}
    assert kinds == {
        "conjugate",
        "cyclic",
        "stabilize",
        "destabilize",
        "exchange",
        "flype3",
    }
    report = replay(tower)
    assert report.ok and report.constant
    assert report.failed_step is None
    dump_tower(tower, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == text
