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

Destabilization and the exchange move are deliberately syntactic: they
fire only when the written word exposes the site.  Conjugating into
position first is the caller's job, which keeps every move cheap and
every tower replayable letter by letter.  Each move value is its own
site: ``find_destabilizations`` and ``find_exchanges`` return the moves
a word admits, and ``apply_move``, the one applier, checks the site
again with a single scan of the top generator letters.

A :class:`Tower` stores the starting word and one ``(move, result)``
pair per step.  ``replay`` re-applies each move, confirms the recorded
words, and reports the closure fingerprint at every stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .invariants import Fingerprint, fingerprint
from .words import (
    BraidWord,
    conjugate,
    format_word,
    parse_word,
    rotate,
)

__all__ = [
    "InvalidSite",
    "PatternMismatch",
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
    "parse_flype3",
    "apply_flype3",
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


class PatternMismatch(ValueError):
    """The word does not have the literal shape the move requires."""


@dataclass(frozen=True)
class Conjugate:
    by: BraidWord


@dataclass(frozen=True)
class CyclicShift:
    k: int


@dataclass(frozen=True)
class Stabilize:
    sign: int


@dataclass(frozen=True)
class Destabilize:
    sign: int


@dataclass(frozen=True)
class Exchange:
    cut1: int
    cut2: int


@dataclass(frozen=True)
class Flype3:
    p: int
    u: int
    q: int
    eps: int


Move = Conjugate | CyclicShift | Stabilize | Destabilize | Exchange | Flype3


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def stabilize(w: BraidWord, sign: int) -> BraidWord:
    """Append ``sign * n`` on a fresh strand; index goes up by one."""
    _check_sign(sign)
    return BraidWord(w.index + 1, w.letters + (sign * w.index,))


def _top_positions(w: BraidWord) -> list[int]:
    top = w.index - 1
    return [i for i, g in enumerate(w.letters) if abs(g) == top]


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


def _runs(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    # maximal runs of one signed letter, as (letter, length)
    runs: list[tuple[int, int]] = []
    for g in letters:
        if runs and runs[-1][0] == g:
            runs[-1] = (g, runs[-1][1] + 1)
        else:
            runs.append((g, 1))
    return runs


def parse_flype3(w: BraidWord) -> tuple[int, int, int, int]:
    """Match the literal three strand flype pattern.

    Returns ``(p, u, q, eps)`` such that the word is exactly
    ``s1^p s2^u s1^q s2^eps`` with ``p, u, q`` nonzero and a single
    final crossing.  Raises :class:`PatternMismatch` otherwise.
    """

    if w.index != 3:
        raise PatternMismatch(f"need 3 strands, got {w.index}")
    runs = _runs(w.letters)
    if len(runs) != 4:
        raise PatternMismatch(f"need runs s1 s2 s1 s2, got {len(runs)} runs")
    (g1, l1), (g2, l2), (g3, l3), (g4, l4) = runs
    if (abs(g1), abs(g2), abs(g3), abs(g4)) != (1, 2, 1, 2):
        raise PatternMismatch("runs must alternate generator 1, 2, 1, 2")
    if l4 != 1:
        raise PatternMismatch("final crossing must be a single letter")
    p = l1 if g1 > 0 else -l1
    u = l2 if g2 > 0 else -l2
    q = l3 if g3 > 0 else -l3
    eps = 1 if g4 > 0 else -1
    return p, u, q, eps


def apply_flype3(w: BraidWord) -> BraidWord:
    """Rewrite ``s1^p s2^u s1^q s2^eps`` as ``s1^p s2^eps s1^q s2^u``."""
    p, u, q, eps = parse_flype3(w)

    def run(gen: int, count: int) -> list[int]:
        step = gen if count > 0 else -gen
        return [step] * abs(count)

    return BraidWord(3, run(1, p) + [eps * 2] + run(1, q) + run(2, u))


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
    if isinstance(move, Conjugate):
        return conjugate(w, move.by)
    if isinstance(move, CyclicShift):
        return rotate(w, move.k)
    if isinstance(move, Stabilize):
        return stabilize(w, move.sign)
    if isinstance(move, Destabilize):
        # the only top letter, of the move's sign, rotated off the end
        top = _top_positions(w)
        if len(top) != 1 or w.letters[top[0]] != move.sign * (w.index - 1):
            raise InvalidSite(
                f"no destabilization of sign {move.sign} in {format_word(w)}"
            )
        pos = top[0]
        return BraidWord(w.index - 1, w.letters[pos + 1 :] + w.letters[:pos])
    if isinstance(move, Exchange):
        # the only two top letters: positive at cut1, negative at cut2
        cut1, cut2 = move.cut1, move.cut2
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
    if isinstance(move, Flype3):
        parsed = parse_flype3(w)
        if parsed != (move.p, move.u, move.q, move.eps):
            raise PatternMismatch(
                f"word parses as {parsed}, move expects"
                f" ({move.p}, {move.u}, {move.q}, {move.eps})"
            )
        return apply_flype3(w)
    raise TypeError(f"not a move: {move!r}")


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


def extend(tower: Tower, move: Move) -> Tower:
    """Apply a move to the tower's final word and record the result."""
    result = apply_move(tower.final, move)
    return Tower(tower.initial, tower.steps + (TowerStep(move, result),))


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
    """Re-apply every move, check the record, fingerprint every stage."""
    current = tower.initial
    prints = [fingerprint(current)]
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
        prints.append(fingerprint(current))
    return _report(True, None, prints)


def _report(
    ok: bool, failed_step: int | None, prints: list[Fingerprint]
) -> ReplayReport:
    constant = all(fp == prints[0] for fp in prints)
    return ReplayReport(ok, failed_step, tuple(prints), constant)


def move_to_json(move: Move) -> dict:
    """Encode one move as a JSON-ready dictionary tagged by kind."""
    if isinstance(move, Conjugate):
        return {"kind": "conjugate", "by": format_word(move.by)}
    if isinstance(move, CyclicShift):
        return {"kind": "cyclic", "k": move.k}
    if isinstance(move, Stabilize):
        return {"kind": "stabilize", "sign": move.sign}
    if isinstance(move, Destabilize):
        return {"kind": "destabilize", "sign": move.sign}
    if isinstance(move, Exchange):
        return {"kind": "exchange", "cut1": move.cut1, "cut2": move.cut2}
    if isinstance(move, Flype3):
        return {
            "kind": "flype3",
            "p": move.p,
            "u": move.u,
            "q": move.q,
            "eps": move.eps,
        }
    raise TypeError(f"not a move: {move!r}")


def _int_field(data: dict, key: str, unit: bool = False) -> int:
    # a JSON integer (bool is an int subclass), and +1 or -1 if unit
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if unit and value not in (1, -1):
        raise ValueError(f"{key} must be +1 or -1, got {value!r}")
    return value


def move_from_json(data: dict) -> Move:
    """Decode a move dictionary; malformed documents raise ``ValueError``.

    Every integer field must be a JSON integer, and ``sign`` and ``eps``
    must be +1 or -1.
    """
    kind = data.get("kind")
    if kind == "conjugate":
        return Conjugate(parse_word(data["by"]))
    if kind == "cyclic":
        return CyclicShift(_int_field(data, "k"))
    if kind == "stabilize":
        return Stabilize(_int_field(data, "sign", unit=True))
    if kind == "destabilize":
        return Destabilize(_int_field(data, "sign", unit=True))
    if kind == "exchange":
        return Exchange(_int_field(data, "cut1"), _int_field(data, "cut2"))
    if kind == "flype3":
        p, u, q = (_int_field(data, key) for key in "puq")
        return Flype3(p, u, q, _int_field(data, "eps", unit=True))
    raise ValueError(f"unknown move kind: {kind!r}")


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
        for s in data["steps"]
    )
    return Tower(initial, steps)


def dump_tower(tower: Tower, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tower_to_json(tower), fh, indent=2)
        fh.write("\n")


def load_tower(path) -> Tower:
    with open(path, encoding="utf-8") as fh:
        return tower_from_json(json.load(fh))
