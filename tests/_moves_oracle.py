"""Move code as it was before later rewrites, kept as references.

The literal three strand flype as it was before ``moves.Flype3``
checked its own site: the word is split into maximal runs of one signed
letter, and the four runs ``s1^p s2^u s1^q s2^eps`` are read off them.
It is the oracle for :func:`braidcalc.moves.apply_move` on
:class:`braidcalc.moves.Flype3`.

``replay`` is the tower replay as it was before its per-call
fingerprint memo: it fingerprints every stage from scratch.  It is the
oracle for :func:`braidcalc.moves.replay`.
"""

from __future__ import annotations

from braidcalc.invariants import fingerprint
from braidcalc.moves import ReplayReport, Tower, apply_move
from braidcalc.words import BraidWord


class PatternMismatch(ValueError):
    """The word does not have the literal shape the move requires."""


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


def _report(ok, failed_step, prints) -> ReplayReport:
    constant = all(fp == prints[0] for fp in prints)
    return ReplayReport(ok, failed_step, tuple(prints), constant)
