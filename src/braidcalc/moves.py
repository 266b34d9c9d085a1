"""Markov moves on braid words and replayable move towers.

Moves act on closed braid representatives at the word level:

* stabilization appends ``sign * n`` and raises the strand count;
* destabilization removes the unique occurrence of the top generator,
  after rotating the cyclic word so that it comes last;
* the exchange move flips the signs of the only two, oppositely signed,
  top generator letters;
* the three strand flype rewrites the literal pattern
  ``s1^p s2^u s1^q s2^e`` into ``s1^p s2^e s1^q s2^u``;
* conjugation and cyclic shifts record the braid isotopies between
  the moves above.

Destabilization, the exchange move and the flype are deliberately
syntactic: they fire only when the written word exposes the site.
Conjugating into position first is the caller's job, which keeps every
move cheap and every tower replayable letter by letter.  Each move value
is its own site: ``find_destabilizations`` and ``find_exchanges`` return
the moves a word admits, and ``apply_move``, the one applier, checks the
site again.  Each move class states its JSON ``kind`` and its site
check, so the applier holds no per-kind code; the JSON codec is the
shared record codec of :mod:`braidcalc.words`, which diagram entries
use too.

A :class:`Tower` stores the starting word and one ``(move, result)``
pair per step.  ``replay`` re-applies each move, confirms the recorded
words, and reports the closure fingerprint at every stage; stages whose
cores (see :mod:`braidcalc.invariants`) are rotations of each other
share one fingerprint computation within the call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import Fingerprint, _closed, _closed_fingerprint
from .words import (
    BraidWord,
    _dump_json,
    _load_json,
    _record_from_json,
    _record_json,
    _typed,
    conjugate,
    format_word,
    parse_word,
    rotate,
)

__all__ = [
    "InvalidSite",
    "Conjugate",
    "CyclicShift",
    "Stabilize",
    "Destabilize",
    "Exchange",
    "Flype3",
    "Move",
    "stabilize",
    "find_destabilizations",
    "find_exchanges",
    "FlypeArithmetic",
    "flype_admissibility",
    "apply_move",
    "TowerStep",
    "Tower",
    "extend",
    "ReplayReport",
    "replay",
    "move_to_json",
    "move_from_json",
    "tower_to_json",
    "tower_from_json",
    "dump_tower",
    "load_tower",
]


class InvalidSite(ValueError):
    """The word no longer matches the requested move site."""


def _top_positions(w: BraidWord) -> list[int]:
    top = w.index - 1
    return [i for i, g in enumerate(w.letters) if abs(g) == top]


def _flype_letters(p: int, u: int, q: int, e: int) -> tuple[int, ...]:
    # the letters of s1^p s2^u s1^q s2^e
    return tuple(
        g if count > 0 else -g
        for g, count in ((1, p), (2, u), (1, q), (2, e))
        for _ in range(abs(count))
    )


@dataclass(frozen=True)
class Conjugate:
    by: BraidWord
    kind = "conjugate"

    def _apply(self, w: BraidWord) -> BraidWord:
        return conjugate(w, self.by)


@dataclass(frozen=True)
class CyclicShift:
    k: int
    kind = "cyclic"

    def _apply(self, w: BraidWord) -> BraidWord:
        return rotate(w, self.k)


@dataclass(frozen=True)
class Stabilize:
    sign: int
    kind = "stabilize"

    def _apply(self, w: BraidWord) -> BraidWord:
        return stabilize(w, self.sign)


@dataclass(frozen=True)
class Destabilize:
    sign: int
    kind = "destabilize"

    def _apply(self, w: BraidWord) -> BraidWord:
        # the only top letter, of the move's sign, rotated off the end
        top = _top_positions(w)
        if len(top) != 1 or w.letters[top[0]] != self.sign * (w.index - 1):
            raise InvalidSite(
                f"no destabilization of sign {self.sign} in {format_word(w)}"
            )
        pos = top[0]
        return BraidWord(w.index - 1, w.letters[pos + 1 :] + w.letters[:pos])


@dataclass(frozen=True)
class Exchange:
    cut1: int
    cut2: int
    kind = "exchange"

    def _apply(self, w: BraidWord) -> BraidWord:
        # the only two top letters: positive at cut1, negative at cut2
        cut1, cut2 = self.cut1, self.cut2
        if _top_positions(w) != sorted((cut1, cut2)) or not (
            w.letters[cut1] > 0 > w.letters[cut2]
        ):
            raise InvalidSite(
                f"no exchange at cuts ({cut1}, {cut2}) in {format_word(w)}"
            )
        letters = list(w.letters)
        letters[cut1] = -letters[cut1]
        letters[cut2] = -letters[cut2]
        return BraidWord(w.index, letters)


@dataclass(frozen=True)
class Flype3:
    p: int
    u: int
    q: int
    eps: int
    kind = "flype3"

    def _apply(self, w: BraidWord) -> BraidWord:
        # the word must be exactly s1^p s2^u s1^q s2^eps with one final
        # letter; the length test comes first so that a huge exponent
        # builds no letters
        p, u, q, eps = self.p, self.u, self.q, self.eps
        if (
            w.index != 3
            or 0 in (p, u, q)
            or abs(p) + abs(u) + abs(q) + 1 != len(w.letters)
            or w.letters != _flype_letters(p, u, q, eps)
        ):
            raise InvalidSite(
                f"no flype with (p, u, q, eps) = ({p}, {u}, {q}, {eps})"
                f" in {format_word(w)}"
            )
        return BraidWord(3, _flype_letters(p, eps, q, u))


Move = Conjugate | CyclicShift | Stabilize | Destabilize | Exchange | Flype3

_KINDS = {cls.kind: cls for cls in Move.__args__}


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def stabilize(w: BraidWord, sign: int) -> BraidWord:
    """Append ``sign * n`` on a fresh strand; index goes up by one."""
    _check_sign(sign)
    return BraidWord(w.index + 1, w.letters + (sign * w.index,))


def find_destabilizations(w: BraidWord) -> list[Destabilize]:
    """The destabilization the written word admits, if any.

    A word qualifies only when the generator ``n - 1`` appears exactly
    once; the move carries that letter's sign, so the result has at
    most one entry.
    """

    positions = _top_positions(w)
    if len(positions) != 1:
        return []
    return [Destabilize(1 if w.letters[positions[0]] > 0 else -1)]


def find_exchanges(w: BraidWord) -> list[Exchange]:
    """The exchange the written word admits, if any.

    Requires exactly two top generator letters of opposite sign, read
    cyclically as ``P (top) Q (top^-1)``; ``cut1`` indexes the positive
    one, so each qualifying word yields a single move.  Both ``P`` and
    ``Q`` may be empty.
    """

    positions = _top_positions(w)
    if len(positions) != 2:
        return []
    a, b = positions
    if w.letters[a] == w.letters[b]:
        return []
    return [Exchange(a, b) if w.letters[a] > 0 else Exchange(b, a)]


@dataclass(frozen=True)
class FlypeArithmetic:
    valid: bool
    delta_b: int
    admissible: bool


def flype_admissibility(w: int, k: int, wp: int, kp: int) -> FlypeArithmetic:
    """Strand arithmetic of the weighted flype family.

    The weight quadruple is consistent when ``w + wp == k + kp``; the
    braid index changes by ``wp - k``; the flype is admissible when it
    is valid and does not increase the index change, that is when the
    delta is at least zero.
    """

    for v in (w, k, wp, kp):
        if v < 1:
            raise ValueError(f"weights must be positive, got {v}")
    valid = w + wp == k + kp
    delta = wp - k
    return FlypeArithmetic(valid, delta, valid and delta >= 0)


def apply_move(w: BraidWord, move: Move) -> BraidWord:
    """Apply one move to a word, validating its site."""
    if not isinstance(move, Move):
        raise TypeError(f"not a move: {move!r}")
    return move._apply(w)


@dataclass(frozen=True)
class TowerStep:
    move: Move
    result: BraidWord


@dataclass(frozen=True)
class Tower:
    """A starting word and the full record of every move and result."""

    initial: BraidWord
    steps: tuple[TowerStep, ...] = ()

    @property
    def words(self) -> list[BraidWord]:
        return [self.initial] + [s.result for s in self.steps]

    @property
    def final(self) -> BraidWord:
        return self.steps[-1].result if self.steps else self.initial

    @property
    def index_profile(self) -> tuple[int, ...]:
        return tuple(w.index for w in self.words)


def extend(tower: Tower, *moves: Move) -> Tower:
    """Apply each move in turn to the tower's final word and record it."""
    steps, word = list(tower.steps), tower.final
    for move in moves:
        word = apply_move(word, move)
        steps.append(TowerStep(move, word))
    return Tower(tower.initial, tuple(steps))


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-running a tower step by step.

    ``ok`` means every move applied cleanly and reproduced the recorded
    word.  ``failed_step`` is the 1-based step that broke, if any.
    ``fingerprints`` holds the closure fingerprint of the initial word
    and of each verified stage; ``constant`` records whether they all
    agree.
    """

    ok: bool
    failed_step: int | None
    fingerprints: tuple[Fingerprint, ...]
    constant: bool


def replay(tower: Tower) -> ReplayReport:
    """Re-apply every move, check the record, fingerprint every stage.

    Stages whose cores are rotations of each other close to one link
    and share a fingerprint, computed once per call: rotations, seam
    cancellations and single-letter destabilizations among them.
    """
    memo: dict = {}
    current = tower.initial
    prints = [_closed_fingerprint(memo, *_closed(current))]
    for number, step in enumerate(tower.steps, start=1):
        try:
            computed = apply_move(current, step.move)
        except ValueError:
            return _report(False, number, prints)
        if (
            computed.index != step.result.index
            or computed.letters != step.result.letters
        ):
            return _report(False, number, prints)
        current = computed
        prints.append(_closed_fingerprint(memo, *_closed(current)))
    return _report(True, None, prints)


def _report(
    ok: bool, failed_step: int | None, prints: list[Fingerprint]
) -> ReplayReport:
    constant = all(fp == prints[0] for fp in prints)
    return ReplayReport(ok, failed_step, tuple(prints), constant)


def move_to_json(move: Move) -> dict:
    """Encode one move as a JSON-ready dictionary tagged by kind."""
    if not isinstance(move, Move):
        raise TypeError(f"not a move: {move!r}")
    return _record_json(move)


def move_from_json(data: dict) -> Move:
    """Decode a move dictionary.

    Every integer field must be a JSON integer, and ``sign`` and ``eps``
    must be +1 or -1.  A malformed document raises ``ValueError``, a
    missing field ``KeyError``, and a document or field of the wrong JSON
    type ``TypeError`` or ``AttributeError``.
    """
    return _record_from_json(data, _KINDS, "move")


def tower_to_json(tower: Tower) -> dict:
    return {
        "initial": format_word(tower.initial),
        "steps": [
            {"move": move_to_json(s.move), "result": format_word(s.result)}
            for s in tower.steps
        ],
    }


def tower_from_json(data: dict) -> Tower:
    initial = parse_word(data["initial"])
    steps = tuple(
        TowerStep(move_from_json(s["move"]), parse_word(s["result"]))
        for s in _typed(data["steps"], "steps", list)
    )
    return Tower(initial, steps)


def dump_tower(tower: Tower, path) -> None:
    _dump_json(tower_to_json(tower), path)


def load_tower(path) -> Tower:
    return tower_from_json(_load_json(path))
