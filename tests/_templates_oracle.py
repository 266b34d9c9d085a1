"""Template code as it was before later rewrites, kept as references.

Template expansion as it was before a block's word crossed its cables
through the same walker as the diagram's bands: ``expand`` swaps a
block's cables in a loop of its own, ``_preserves_vector`` is a third
such loop, ``sigma_budget`` re-expands each band and ``_segment_tower``
expands a diagram per segment, which equals cutting the side's
expansion only when every weight is 1.

``verify_template`` is the sample loop as it was before its per-call
fingerprint memo: it fingerprints every expansion from scratch.

``per_call_sample_assignment`` is the sampler as it was before each
template kept its sampler tables: it reads both diagrams' stored walks,
sorts the blocks and lists their letters again on every call.

All are kept unchanged for differential tests of
:mod:`braidcalc.templates`.
"""

from __future__ import annotations

import random

from braidcalc import templates
from braidcalc.invariants import fingerprint
from braidcalc.moves import Conjugate, Destabilize, Stabilize, Tower, extend
from braidcalc.templates import (
    Assignment,
    Band,
    BlockOnLastStrand,
    BlockRef,
    BlockStrandDiagram,
    CoverageError,
    IndexMismatch,
    Template,
    VerifyReport,
    VerifySample,
    WeightFlowError,
    _leaving,
    band_expand,
)
from braidcalc.words import BraidWord, concat, inverse


def _walk(weights, entries):
    """Yield ``(entry, flow, base)`` for each entry, top to bottom.

    ``flow`` is the list of slot weights entering the entry and ``base``
    is the first strand of its slot ``pos``.  A band's two slots swap
    only when the caller resumes the walk, so a caller can check the
    band's slot before the swap reads it.  The same list is yielded
    every time; copy what must outlive the step.
    """

    flow = list(weights)
    for entry in entries:
        if not isinstance(entry, (Band, BlockRef)):
            raise TypeError(f"not a diagram entry: {entry!r}")
        yield entry, flow, 1 + sum(flow[: entry.pos - 1])
        if isinstance(entry, Band):
            i = entry.pos
            flow[i - 1], flow[i] = flow[i], flow[i - 1]


def expand(d: BlockStrandDiagram, asg: Assignment) -> BraidWord:
    """Expand a diagram to a plain braid word under an assignment.

    Bands become :func:`band_expand` words at the current weight flow.
    A block letter ``sigma_j`` becomes the band crossing of the block's
    ``j``-th and ``(j+1)``-th cables; the assigned word must restore the
    entering cable weights in their original order.
    """

    missing = sorted(set(d.blocks) - set(asg))
    if missing:
        raise CoverageError(f"assignment misses blocks: {missing}")
    n = d.index
    letters: list[int] = []
    for entry, flow, base in _walk(d.weights, d.entries):
        if isinstance(entry, Band):
            a, b = flow[entry.pos - 1], flow[entry.pos]
            letters.extend(band_expand(a, b, base, entry.sign, n).letters)
        else:
            word = asg[entry.id]
            if word.index != entry.span:
                raise IndexMismatch(
                    f"block {entry.id!r} has {entry.span} cables,"
                    f" assigned word has {word.index} strands"
                )
            entering = flow[entry.pos - 1 : entry.pos - 1 + entry.span]
            cables = list(entering)
            for g in word.letters:
                j = abs(g)
                sign = 1 if g > 0 else -1
                p = base + sum(cables[: j - 1])
                letters.extend(
                    band_expand(cables[j - 1], cables[j], p, sign, n).letters
                )
                cables[j - 1], cables[j] = cables[j], cables[j - 1]
            if cables != entering:
                raise WeightFlowError(
                    f"block {entry.id!r}: cables enter as {entering} but"
                    f" leave as {cables}"
                )
    return BraidWord(n, letters)


def _preserves_vector(letters: tuple[int, ...], vec: tuple[int, ...]) -> bool:
    cables = list(vec)
    for g in letters:
        j = abs(g)
        cables[j - 1], cables[j] = cables[j], cables[j - 1]
    return cables == list(vec)


def sample_assignment(
    t: Template, rng: random.Random, max_len: int = 6
) -> Assignment:
    """Draw one random assignment compatible with both diagrams.

    Words are uniform over letters of the block's index, with length
    from 0 to ``max_len``; words that would break a block's cable
    weight order are redrawn.
    """

    # entering cable weights of every block occurrence on either side
    constraints: dict[str, list[tuple[int, ...]]] = {}
    for diagram in (t.plus, t.minus):
        for entry, flow, _ in _walk(diagram.weights, diagram.entries):
            if isinstance(entry, BlockRef):
                vec = tuple(flow[entry.pos - 1 : entry.pos - 1 + entry.span])
                constraints.setdefault(entry.id, []).append(vec)
    asg: Assignment = {}
    for name, span in sorted(t.blocks.items()):
        choices = [g for g in range(-(span - 1), span) if g != 0]
        while True:
            length = rng.randint(0, max_len)
            # one cable has no letters: its only word is the empty word
            letters = tuple(
                rng.choice(choices) for _ in range(length if choices else 0)
            )
            if all(
                _preserves_vector(letters, vec)
                for vec in constraints.get(name, [])
            ):
                asg[name] = BraidWord(span, letters)
                break
    return asg


def per_call_sample_assignment(
    t: Template, rng: random.Random, max_len: int = 6
) -> Assignment:
    """Draw one random assignment compatible with both diagrams.

    Words are uniform over letters of the block's index, with length
    from 0 to ``max_len``; words that would break a block's cable
    weight order are redrawn.
    """

    # the entering cable weights of each block on either side; a word
    # cannot reorder cables that all weigh the same
    entering: dict[str, set[tuple[int, ...]]] = {}
    for diagram in (t.plus, t.minus):
        for entry, covered, _ in diagram._steps:
            if isinstance(entry, BlockRef) and len(set(covered)) > 1:
                entering.setdefault(entry.id, set()).add(covered)
    asg: Assignment = {}
    for name, span in sorted(t.blocks.items()):
        choices = [g for g in range(-(span - 1), span) if g != 0]
        while True:
            length = rng.randint(0, max_len)
            # one cable has no letters: its only word is the empty word
            letters = tuple(
                rng.choice(choices) for _ in range(length if choices else 0)
            )
            if all(_leaving(v, letters) == v for v in entering.get(name, ())):
                asg[name] = BraidWord(span, letters)
                break
    return asg


def sigma_budget(d: BlockStrandDiagram) -> int:
    """Count of top generator letters the diagram's bands can emit.

    Requires every block to sit clear of the last strand, as in the
    normalized form where blocks occupy initial strands; otherwise
    raises :class:`BlockOnLastStrand`.  Blocks seated off the last
    strand never expand to the top generator, so this total bounds the
    count of letters ``n - 1`` in any expansion of the diagram.
    """

    top, count = d.index - 1, 0
    for entry, flow, base in _walk(d.weights, d.entries):
        if isinstance(entry, BlockRef):
            total = sum(flow[entry.pos - 1 : entry.pos - 1 + entry.span])
            if base + total - 1 >= d.index:
                raise BlockOnLastStrand(
                    f"block {entry.id!r} spans strands"
                    f" {base}..{base + total - 1} of {d.index}"
                )
        else:
            a, b = flow[entry.pos - 1], flow[entry.pos]
            letters = band_expand(a, b, base, entry.sign, d.index).letters
            count += sum(1 for g in letters if abs(g) == top)
    return count


def _segment_tower(
    side: BlockStrandDiagram, asg: Assignment, sign: int
) -> Tower:
    """Stabilize, carry each leading segment around, destabilize.

    The side is cut before every block that follows a band, and each
    segment is expanded on its own.  That equals cutting the side's
    expansion only when every weight is 1, which this assumes.  The
    moves record one full trip of the marked strand around the closure,
    one conjugation per segment it crosses.
    """

    parts: list[list[DiagramEntry]] = [[]]
    for entry in side.entries:
        if isinstance(entry, BlockRef) and parts[-1] and isinstance(
            parts[-1][-1], Band
        ):
            parts.append([])
        parts[-1].append(entry)
    segments = [
        expand(BlockStrandDiagram(side.index, side.weights, part), asg)
        for part in parts
    ]
    initial = concat(*segments)
    n = initial.index
    tower = Tower(initial)
    tower = extend(tower, Stabilize(sign))
    for seg in segments[:-1]:
        lifted = BraidWord(n + 1, seg.letters)
        tower = extend(tower, Conjugate(inverse(lifted)))
    return extend(tower, Destabilize(sign))


def verify_template(t: Template, samples: list[Assignment]) -> VerifyReport:
    """Expand both sides per sample and compare closure fingerprints.

    Expansion errors do not abort the run; they fail their sample with
    the error text in the report.
    """

    if not samples:
        raise ValueError("need at least one sample assignment")
    rows: list[VerifySample] = []
    for number, asg in enumerate(samples, start=1):
        try:
            plus = fingerprint(templates.expand(t.plus, asg))
            minus = fingerprint(templates.expand(t.minus, asg))
        except (CoverageError, IndexMismatch, WeightFlowError) as err:
            rows.append(VerifySample(number, False, str(err)))
            continue
        if plus == minus:
            rows.append(VerifySample(number, True))
        else:
            rows.append(
                VerifySample(number, False, f"{plus} versus {minus}")
            )
    return VerifyReport(t.name, t.delta_b, tuple(rows))
