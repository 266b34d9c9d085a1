"""Best-first search for move sequences that lower a braid's complexity.

States are braid words up to rotation and free reduction; moves are
the destabilizations and exchange moves a state's word exposes, and a
bounded number of stabilizations.  Conjugation by a single generator
is not a move here: a cyclically reduced conjugate of a cyclically
reduced free word is one of its rotations (Lyndon and Schupp,
Combinatorial Group Theory, I.1), so it never reaches a new state.
The objective is the proxy pair (strand count, cyclically reduced
length), ordered lexicographically: strand count first, mirroring the
index-first complexity ordering the move theory is organized around.
The search returns a replayable tower to the best state found, never
worse than the start, and is deterministic for a fixed input and
configuration.

Every stored state is freely and cyclically reduced, and the clean-up
conjugations that bring a raw move result into that form are recorded
in the tower alongside the move itself.  Keeping states reduced is
what exposes destabilization sites: a marked letter buried under
conjugation debris surfaces once the seam cancellations are applied.
The site finders scan the whole word, so no rotation normalization is
needed; the state key identifies rotations regardless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .moves import (
    Conjugate,
    Move,
    Stabilize,
    Tower,
    apply_move,
    extend,
    find_destabilizations,
    find_exchanges,
)
from .words import (
    BraidWord, _cut_seam, _derived, cyclic_key, cyclic_reduce, free_reduce
)

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "canonical_key",
    "proxy_complexity",
    "search_reduce",
]


@dataclass(frozen=True)
class SearchConfig:
    """Caps that keep the search space finite.

    ``max_index`` bounds the strand count outright;
    ``max_extra_stabilizations`` bounds it relative to the input.
    """

    max_index: int = 16
    max_extra_stabilizations: int = 2
    max_word_length: int = 64
    node_budget: int = 50_000

    def __post_init__(self):
        if min(self.max_index, self.max_word_length, self.node_budget) < 1:
            raise ValueError(f"caps must be positive: {self}")
        if self.max_extra_stabilizations < 0:
            raise ValueError(f"negative stabilization cap: {self}")


@dataclass(frozen=True)
class SearchOutcome:
    """Best tower found, its endpoint, and how the search stopped.

    ``exhausted`` is true when the node budget ran out with frontier
    states still unexplored; ``nodes`` counts states expanded.
    """

    best: Tower
    reached: BraidWord
    proxy_complexity: tuple[int, int]
    exhausted: bool
    nodes: int


def proxy_complexity(w: BraidWord) -> tuple[int, int]:
    """The search objective: (strand count, cyclically reduced length)."""
    return (w.index, len(cyclic_reduce(w).letters))


def canonical_key(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """A state key shared by rotations of the freely reduced cyclic word.

    The key is :func:`~braidcalc.words.cyclic_key`; this function stays
    separate so that the search's own key calls can be told apart.
    """
    return cyclic_key(w)


def _normalize(word: BraidWord) -> tuple[BraidWord, tuple[Move, ...]]:
    # reduce a raw move result freely and around the seam, recording the
    # clean-up as replayable moves: conjugating by the empty word stands
    # for the free reduction, and conjugating by the inverse of each
    # leading letter the seam loses strips that letter and its partner
    reduced = free_reduce(word)
    core = _derived(word.index, _cut_seam(reduced.letters))
    moves = [Conjugate(BraidWord(word.index, ()))] if reduced != word else []
    stripped = reduced.letters[: (len(reduced) - len(core)) // 2]
    moves += [Conjugate(BraidWord(word.index, (-g,))) for g in stripped]
    return core, tuple(moves)


def _children(word: BraidWord, index_cap: int) -> list[tuple[Move, BraidWord]]:
    moves: list[Move] = [*find_destabilizations(word), *find_exchanges(word)]
    if word.index < index_cap:
        moves += [Stabilize(1), Stabilize(-1)]
    return [(move, apply_move(word, move)) for move in moves]


def search_reduce(
    w: BraidWord, cfg: SearchConfig | None = None
) -> SearchOutcome:
    """Search for a tower from ``w`` to minimal proxy complexity.

    Expansion is best-first on (proxy complexity, state key), which
    fixes the outcome independently of scheduling.  The returned tower
    replays, preserves the closure fingerprint by construction, and
    ends at a state no worse than the input.
    """

    if cfg is None:
        cfg = SearchConfig()
    if cfg.max_index < w.index:
        raise ValueError(
            f"max_index {cfg.max_index} below input index {w.index}"
        )
    index_cap = min(cfg.max_index, w.index + cfg.max_extra_stabilizations)
    floor = (1, 0)

    root, root_cleanup = _normalize(w)
    # parent-linked store: (state word, parent position, edge moves)
    nodes: list[tuple[BraidWord, int, tuple[Move, ...]]] = [
        (root, -1, root_cleanup)
    ]
    root_key = canonical_key(root)
    seen = {root_key}
    # a stored state is reduced, so its letters are its reduced length
    root_rank = (root.index, len(root.letters))
    heap = [(root_rank, root_key, 0)]
    best_rank = (root_rank, root_key)
    best_at = 0
    expanded = 0

    while heap and expanded < cfg.node_budget:
        rank, key, at = heapq.heappop(heap)
        expanded += 1
        if (rank, key) < best_rank:
            best_rank = (rank, key)
            best_at = at
        if best_rank[0] == floor:
            break
        word = nodes[at][0]
        for move, raw in _children(word, index_cap):
            if len(raw.letters) > cfg.max_word_length:
                continue
            child_key = canonical_key(raw)
            if child_key in seen:
                continue
            seen.add(child_key)
            child, cleanup = _normalize(raw)
            nodes.append((child, at, (move, *cleanup)))
            heapq.heappush(
                heap,
                ((child.index, len(child.letters)), child_key, len(nodes) - 1),
            )

    path: list[Move] = []
    at = best_at
    while at != -1:
        _, parent, edge = nodes[at]
        path.extend(reversed(edge))
        at = parent
    tower = extend(Tower(w), *reversed(path))
    return SearchOutcome(
        best=tower,
        reached=tower.final,
        proxy_complexity=best_rank[0],
        exhausted=bool(heap) and best_rank[0] != floor,
        nodes=expanded,
    )
