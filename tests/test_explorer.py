"""Best-first reduction search."""

import hashlib
import json
import random
import time

import _explorer_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.explorer import (
    SearchConfig,
    _normalize,
    canonical_key,
    proxy_complexity,
    search_reduce,
)
from braidcalc.invariants import fingerprint
from braidcalc.moves import (
    Conjugate,
    apply_move,
    find_exchanges,
    replay,
    stabilize,
    tower_to_json,
)
from braidcalc.words import (
    BraidWord,
    concat,
    conjugate,
    cyclic_reduce,
    inverse,
)


def words(min_index, max_index):
    return st.integers(min_index, max_index).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=12,
        ).map(lambda ls: BraidWord(n, ls))
    )


small_or_wide_words = st.one_of(words(2, 6), words(120, 300))


def test_config_validation():
    cfg = SearchConfig()
    assert cfg.node_budget == 50_000
    with pytest.raises(ValueError):
        SearchConfig(max_index=0)
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(max_extra_stabilizations=-1)
    with pytest.raises(ValueError):
        search_reduce(BraidWord(5, ()), SearchConfig(max_index=4))


def test_proxy_complexity():
    assert proxy_complexity(BraidWord(3, (1, -2))) == (3, 2)
    assert proxy_complexity(BraidWord(3, (1, 2, -1))) == (3, 1)
    assert proxy_complexity(BraidWord(1, ())) == (1, 0)


def test_canonical_key():
    assert canonical_key(BraidWord(3, (2, 1))) == canonical_key(
        BraidWord(3, (1, 2))
    )
    assert canonical_key(BraidWord(3, (1,))) != canonical_key(
        BraidWord(3, (2,))
    )
    assert canonical_key(BraidWord(2, (1, -1))) == canonical_key(
        BraidWord(2, ())
    )
    assert canonical_key(BraidWord(2, ())) != canonical_key(BraidWord(3, ()))


def test_canonical_key_above_128_strands():
    w = BraidWord(200, (199, 150, -199, 2))
    assert canonical_key(w) == (200, (-199, 2, 199, 150))
    rotated = BraidWord(200, (2, 199, 150, -199))
    assert canonical_key(rotated) == canonical_key(w)
    assert canonical_key(BraidWord(200, (150, 199))) == (200, (150, 199))


@settings(max_examples=200, deadline=None)
@given(small_or_wide_words)
def test_canonical_key_is_least_rotation(w):
    letters = cyclic_reduce(w).letters
    rotations = [letters[k:] + letters[:k] for k in range(len(letters))]
    assert canonical_key(w) == (w.index, min(rotations, default=()))


@settings(max_examples=200, deadline=None)
@given(small_or_wide_words, st.data())
def test_canonical_key_ignores_single_generator_conjugation(w, data):
    # why the search has no conjugation children: a cyclically reduced
    # conjugate of a cyclically reduced word is one of its rotations
    w = cyclic_reduce(w)
    g = data.draw(st.integers(1, w.index - 1)) * data.draw(
        st.sampled_from((1, -1))
    )
    conjugated = conjugate(w, BraidWord(w.index, (g,)))
    assert canonical_key(conjugated) == canonical_key(w)


def word_pairs(min_index, max_index):
    def pair(n):
        letters = st.sampled_from([g for g in range(1 - n, n) if g])
        word = st.lists(letters, max_size=12).map(lambda ls: BraidWord(n, ls))
        return st.tuples(word, word)

    return st.integers(min_index, max_index).flatmap(pair)


@settings(max_examples=300, deadline=None)
@given(word_pairs(2, 5))
def test_normalize_matches_the_oracle(pair):
    # wrapping a word in another and its inverse gives the seam pairs to
    # strip, and random letters give free reduction some to cancel
    core, wrap = pair
    for w in (core, concat(wrap, core, inverse(wrap))):
        assert _normalize(w) == oracle._normalize(w)


def test_normalize_is_linear_in_seam_pairs():
    # 3: 1^k 2 -1^k loses k pairs at the seam; stripping them one pair
    # at a time is quadratic and takes well over the bound at this k
    k = 20_000
    w = BraidWord(3, (1,) * k + (2,) + (-1,) * k)
    start = time.perf_counter()
    reduced = cyclic_reduce(w)
    core, moves = _normalize(w)
    elapsed = time.perf_counter() - start
    assert reduced == core == BraidWord(3, (2,))
    assert moves == (Conjugate(BraidWord(3, (-1,))),) * k
    assert elapsed < 1.0


def test_two_syntactic_destabilizations():
    out = search_reduce(BraidWord(3, (1, -2)))
    assert out.proxy_complexity == (1, 0)
    assert out.reached == BraidWord(1, ())
    destabs = [
        s for s in out.best.steps if type(s.move).__name__ == "Destabilize"
    ]
    assert len(destabs) == 2
    report = replay(out.best)
    assert report.ok and report.constant


def test_trefoil_stops_at_its_braid_index():
    out = search_reduce(BraidWord(3, (1, 1, 1, 2)))
    assert out.proxy_complexity == (2, 3)
    assert out.reached.index == 2
    assert not out.exhausted
    report = replay(out.best)
    assert report.ok and report.constant


def test_obfuscated_unknot_recovery():
    rng = random.Random(99)
    w = BraidWord(2, (1,))
    w = stabilize(w, 1)
    w = stabilize(w, -1)
    for _ in range(3):
        g = rng.choice([1, -1, 2, -2, 3, -3])
        w = conjugate(w, BraidWord(w.index, (g,)))
    moves = find_exchanges(w)
    if moves:
        w = apply_move(w, moves[0])
    out = search_reduce(w)
    assert out.proxy_complexity == (1, 0)
    assert fingerprint(out.reached) == fingerprint(w)
    report = replay(out.best)
    assert report.ok and report.constant


def test_children_longer_than_the_word_cap_are_skipped():
    # both stabilizations of 2: 1 1 1 have four letters, and it admits
    # no destabilization or exchange, so the root is all the search has
    w = BraidWord(2, (1, 1, 1))
    out = search_reduce(w, SearchConfig(max_word_length=3))
    assert (out.nodes, out.best.steps, out.reached) == (1, (), w)
    assert not out.exhausted
    assert search_reduce(w, SearchConfig(max_word_length=4)).nodes > 1


def test_search_never_worsens():
    for letters in [(), (1, 2), (1, 1, 2, -1, -2), (1, -2, 1, -2)]:
        w = BraidWord(3, letters)
        out = search_reduce(w)
        assert out.proxy_complexity <= proxy_complexity(w)
        assert out.reached == out.best.final
        assert proxy_complexity(out.reached) == out.proxy_complexity


def test_search_tower_starts_at_input():
    w = BraidWord(3, (2, 1, -2, 1))
    out = search_reduce(w)
    assert out.best.initial == w
    assert replay(out.best).ok


def test_determinism():
    w = BraidWord(4, (1, -2, 3, 1, -2, 3))
    a = search_reduce(w)
    b = search_reduce(w)
    assert a.nodes == b.nodes
    assert a.reached == b.reached
    assert [s.move for s in a.best.steps] == [s.move for s in b.best.steps]


def test_budget_exhaustion_is_reported():
    w = BraidWord(4, (1, -2, 3, 1, -2, 3))
    full = search_reduce(w)
    tiny = search_reduce(w, SearchConfig(node_budget=2))
    assert tiny.nodes <= 2
    if tiny.proxy_complexity > (1, 0):
        assert tiny.exhausted or tiny.proxy_complexity == full.proxy_complexity
    assert tiny.proxy_complexity >= full.proxy_complexity


def test_search_output_is_pinned():
    # criterion 10's inputs; any change to a tower or a node count
    # changes this digest
    rng = random.Random(424)
    results = []
    for trial in range(100):
        w = BraidWord(2, (1,) if trial % 2 == 0 else (1, 1, 1))
        for _ in range(rng.randint(0, 2)):
            w = stabilize(w, rng.choice((1, -1)))
        for _ in range(rng.randint(0, 4)):
            g = rng.choice((1, -1)) * rng.randint(1, w.index - 1)
            w = conjugate(w, BraidWord(w.index, (g,)))
        if rng.random() < 0.5:
            moves = find_exchanges(w)
            if moves:
                w = apply_move(w, moves[0])
        out = search_reduce(w)
        results.append([tower_to_json(out.best), out.nodes])
    doc = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "3138aaa89cf1e606f06a9c619812bbe0a91f3df1cd4197679635dfd265fe8332"
    )
