"""Block-strand diagrams, templates, and their expansion to braid words.

A block-strand diagram is a braid-shaped picture built from weighted
strands: a composition of positive weights totalling the braid index,
followed by a top-to-bottom sequence of entries.  A band crosses two
adjacent weighted strands, carrying one whole bundle across the other
with a fixed sign; a block is a named hole spanning consecutive
weighted strands, to be filled later with a braid word on that many
cables.  Filling every block (a braiding assignment) and cabling each
crossing through the strand weights expands the diagram to a plain
braid word.

A template pairs two diagrams over the same block names.  A template
is the assertion that for every assignment the two expansions close to
the same link; ``verify_template`` samples assignments and compares
closure fingerprints, which can refute an encoding but never certify
it.  A sample whose two expansions have cores (see
:mod:`braidcalc.invariants`) that are rotations of each other passes
without a fingerprint, since such words close to the same link.
Otherwise, within one call, it fingerprints each core once: expansions
whose cores are rotations of each other share a fingerprint, held in a
memo that dies with the call.  A diagram keeps the walk it makes when
it is built; a band's crossing letters join it on first expansion.
It also keeps a step table that a block's letters fill as expansions
meet them: per first strand, cable weights and letter, the crossing
letters and the leaving weights, taken from one step of the same walk.
A template keeps the tables it draws samples from on first sampling.
The catalog, built once per process by the ``make_*`` constructors
below, covers destabilization, the exchange move in weight one and
weighted form, the three strand flype, microflypes, a four block
necklace that cyclically permutes its blocks, and two six strand
examples whose two sides differ by sliding a strand bundle across
interior blocks.

``sigma_budget`` counts the top generator letters a diagram can emit
outside its blocks.  Since blocks seated away from the last strand
never produce the top generator, the budget bounds the top letter
count of every expansion, which yields a cheap certificate that a
diagram cannot carry a braid whose conjugacy class needs more of them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .invariants import _closed, _closed_fingerprint
from .moves import Conjugate, Destabilize, Stabilize, Tower, extend
from .words import (
    BraidWord, _derived, _dump_json, _load_json, _record_from_json, _record_json,
    _typed, inverse,
)

__all__ = [
    "CoverageError",
    "IndexMismatch",
    "WeightFlowError",
    "BlockOnLastStrand",
    "Band",
    "BlockRef",
    "BlockStrandDiagram",
    "Template",
    "Assignment",
    "band_expand",
    "expand",
    "sample_assignment",
    "VerifySample",
    "VerifyReport",
    "verify_template",
    "sigma_budget",
    "non_carry_certificate",
    "make_destabilize",
    "make_exchange",
    "make_flype",
    "make_microflype",
    "make_cyclic",
    "make_gflype6",
    "make_gexchange6",
    "builtin_templates",
    "diagram_to_json",
    "diagram_from_json",
    "template_to_json",
    "template_from_json",
    "dump_template",
    "load_template",
    "catalog",
    "TEMPLATE_DIR_ENV",
    "cyclic_tower",
    "gflype_tower",
]

TEMPLATE_DIR_ENV = "BRAID_TEMPLATE_DIR"


class CoverageError(ValueError):
    """An assignment is missing one of the template's blocks."""


class IndexMismatch(ValueError):
    """An assigned word's strand count differs from the block's cables."""


class WeightFlowError(ValueError):
    """An assigned word fails to return its cables to the entering order."""


class BlockOnLastStrand(ValueError):
    """A block touches the last strand, so the diagram is not normalized."""


@dataclass(frozen=True)
class Band:
    """One weighted crossing of the strands in slots ``pos`` and ``pos + 1``."""

    pos: int
    sign: int
    kind = "band"
    span = 2  # the slots a band covers; not a field


@dataclass(frozen=True)
class BlockRef:
    """A named block consuming ``span`` consecutive slots starting at ``pos``.

    The block's braid index is its span: an assignment fills it with a
    word on ``span`` strands, one per weighted cable.
    """

    id: str
    span: int
    pos: int = 1
    kind = "block"


DiagramEntry = Band | BlockRef

_ENTRY_KINDS = {cls.kind: cls for cls in DiagramEntry.__args__}


def _walk(flow, steps, first=1):
    """Yield ``(step, covered, base)`` for each step, top to bottom.

    A step is a :class:`Band`, a :class:`BlockRef`, or a block letter
    ``±j``, the band across the block's ``j``-th and ``(j+1)``-th cables.
    ``covered`` copies the weights of the slots the step covers and
    ``base`` is its first strand, counting from ``first``.  A band swaps
    its slots in the caller's ``flow`` when the walk resumes, so the
    caller can check it first; ``flow`` ends as the leaving weights.
    """

    for step in steps:
        if isinstance(step, int):
            i, span = abs(step), 2
        elif isinstance(step, (Band, BlockRef)):
            i, span = step.pos, step.span
        else:
            raise TypeError(f"not a diagram entry: {step!r}")
        yield step, flow[i - 1 : i - 1 + span], first + sum(flow[: i - 1])
        if not isinstance(step, BlockRef):
            flow[i - 1], flow[i] = flow[i], flow[i - 1]


@dataclass(frozen=True)
class BlockStrandDiagram:
    """Weighted strands plus an ordered sequence of bands and blocks.

    ``weights`` is the entering composition; its sum is the braid index
    ``index``.  Entries act top to bottom: a band swaps two adjacent
    weights, a block preserves the weights it spans.  Diagrams flagged
    ``post_destabilization`` are exempt from the requirement that each
    block's span stay strictly below the braid index.

    Construction walks the diagram once and keeps the walk: per entry,
    the entering weights of its slots and its first strand.  A band's
    crossing letters are built on the diagram's first expansion and
    kept on it after that.  A block letter's crossing letters and the
    cable weights it leaves are built the first time an expansion meets
    that letter at those cable weights and first strand, and are kept
    in a step table on the diagram.
    """

    index: int
    weights: tuple[int, ...]
    entries: tuple[DiagramEntry, ...]
    post_destabilization: bool = False

    def __init__(self, index, weights, entries, post_destabilization=False):
        weights = tuple(weights)
        entries = tuple(entries)
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be positive: {weights}")
        if sum(weights) != index:
            raise ValueError(
                f"weights {weights} sum to {sum(weights)}, index is {index}"
            )
        slots = len(weights)
        spans: dict[str, int] = {}
        steps = []
        for entry, covered, base in _walk(list(weights), entries):
            if isinstance(entry, Band):
                if entry.sign not in (1, -1):
                    raise ValueError(f"band sign must be +1 or -1: {entry}")
                if not 1 <= entry.pos <= slots - 1:
                    raise ValueError(f"band slot out of range: {entry}")
            elif not isinstance(entry, BlockRef):
                raise TypeError(f"not a diagram entry: {entry!r}")
            else:
                if entry.span < 1:
                    raise ValueError(f"block span must be >= 1: {entry}")
                if not 1 <= entry.pos <= slots - entry.span + 1:
                    raise ValueError(f"block slots out of range: {entry}")
                if sum(covered) < 2:
                    raise ValueError(
                        f"block {entry.id!r} has entering weight"
                        f" {sum(covered)}, needs at least 2"
                    )
                if entry.span >= index and not post_destabilization:
                    raise ValueError(
                        f"block {entry.id!r} spans {entry.span} of {index}"
                        " strands; only post-destabilization diagrams allow"
                        " a full-width block"
                    )
                if spans.setdefault(entry.id, entry.span) != entry.span:
                    raise ValueError(
                        f"block {entry.id!r} appears with two spans"
                    )
            steps.append((entry, tuple(covered), base))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(
            self, "post_destabilization", bool(post_destabilization)
        )
        # not a field: equality, hashing, repr and JSON ignore it
        object.__setattr__(self, "_steps", tuple(steps))

    @cached_property
    def _walked(self):
        # the stored walk with each band's crossing letters (None for a
        # block), built on first use; like _steps, not a field
        return tuple(
            (
                entry,
                covered,
                base,
                tuple(_crossing(*covered, base, entry.sign))
                if isinstance(entry, Band)
                else None,
            )
            for entry, covered, base in self._steps
        )

    @cached_property
    def _cable_steps(self):
        # (first strand, cable weights, block letter) -> (crossing
        # letters, leaving cable weights), filled by _expansion one miss
        # at a time; like _walked, not a field
        return {}

    @property
    def blocks(self) -> dict[str, int]:
        """Map block id to its span, which its repeats share."""
        return {e.id: e.span for e in self.entries if isinstance(e, BlockRef)}


Assignment = dict[str, BraidWord]


@dataclass(frozen=True)
class Template:
    """Two diagrams over the same blocks, claimed to close identically."""

    name: str
    plus: BlockStrandDiagram
    minus: BlockStrandDiagram

    def __post_init__(self):
        pb, mb = self.plus.blocks, self.minus.blocks
        if pb != mb:
            raise ValueError(
                f"template {self.name!r}: block mismatch"
                f" {sorted(pb.items())} versus {sorted(mb.items())}"
            )

    @property
    def blocks(self) -> dict[str, int]:
        return self.plus.blocks

    @cached_property
    def _sampler(self):
        # per block, by id: span, letters and the entering cable weights
        # a drawn word must restore; like a diagram's _walked, not a field
        entering: dict[str, set[tuple[int, ...]]] = {}
        for diagram in (self.plus, self.minus):
            for entry, covered, _ in diagram._steps:
                # a word cannot reorder cables that all weigh the same
                if isinstance(entry, BlockRef) and len(set(covered)) > 1:
                    entering.setdefault(entry.id, set()).add(covered)
        blocks = sorted(self.blocks.items())
        choices = {s: tuple(g for g in range(1 - s, s) if g) for _, s in blocks}
        return tuple((b, s, choices[s], entering.get(b, ())) for b, s in blocks)

    @property
    def delta_b(self) -> int:
        """Braid index drop from the plus side to the minus side."""
        return self.plus.index - self.minus.index


def band_expand(a: int, b: int, p: int, sign: int, n: int) -> BraidWord:
    """The braid carrying a weight ``a`` bundle across a weight ``b`` bundle.

    The bundles occupy strands ``p .. p+a-1`` and ``p+a .. p+a+b-1``.
    Every strand of the first bundle crosses every strand of the second
    exactly once, all with the given sign, and the bundles swap as
    blocks with no internal crossings.
    """

    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if a < 1 or b < 1 or p < 1 or p + a + b - 1 > n:
        raise ValueError(
            f"bundle out of range: weights ({a}, {b}) at strand {p}"
            f" in {n} strands"
        )
    return BraidWord(n, _crossing(a, b, p, sign))


def _crossing(a: int, b: int, p: int, sign: int) -> list[int]:
    # the letters of band_expand, whose range checks the caller has made
    if a == b == 1:
        return [sign * p]
    return [
        sign * s for r in range(b) for s in range(p + a - 1 + r, p + r - 1, -1)
    ]


def _expansion(d: BlockStrandDiagram, asg: Assignment):
    """Yield each entry with the letters :func:`expand` emits for it."""
    missing = sorted(set(d.blocks) - set(asg))
    if missing:
        raise CoverageError(f"assignment misses blocks: {missing}")
    table = d._cable_steps
    for entry, covered, base, crossing in d._walked:
        if isinstance(entry, Band):
            yield entry, crossing
            continue
        word = asg[entry.id]
        if word.index != entry.span:
            raise IndexMismatch(
                f"block {entry.id!r} has {entry.span} cables,"
                f" assigned word has {word.index} strands"
            )
        cables = covered
        letters: list[int] = []
        for g in word.letters:
            key = base, cables, g
            step = table.get(key)
            if step is None:
                flow = list(cables)
                for _, (a, b), p in _walk(flow, (g,), base):
                    part = tuple(_crossing(a, b, p, 1 if g > 0 else -1))
                step = table[key] = part, tuple(flow)
            part, cables = step
            letters += part
        if cables != covered:
            raise WeightFlowError(
                f"block {entry.id!r}: cables enter as {list(covered)} but"
                f" leave as {list(cables)}"
            )
        yield entry, letters


def expand(d: BlockStrandDiagram, asg: Assignment) -> BraidWord:
    """Expand a diagram to a plain braid word under an assignment.

    Bands become :func:`band_expand` words at the current weight flow.
    A block letter ``sigma_j`` becomes the band crossing of the block's
    ``j``-th and ``(j+1)``-th cables; the assigned word must restore the
    entering cable weights in their original order.
    """

    letters: list[int] = []
    for _, part in _expansion(d, asg):
        letters += part
    # every letter crosses strands inside a checked band or block
    return _derived(d.index, tuple(letters))


def sample_assignment(
    t: Template, rng: random.Random, max_len: int = 6
) -> Assignment:
    """Draw one random assignment compatible with both diagrams.

    Words are uniform over letters of the block's index, with length
    from 0 to ``max_len``; words that would break a block's cable
    weight order are redrawn.
    """

    asg: Assignment = {}
    for name, span, choices, entering in t._sampler:
        while True:
            length = rng.randint(0, max_len)
            # one cable has no letters: its only word is the empty word
            draws = [choices] * length if choices else ()
            letters = tuple(map(rng.choice, draws))
            if all(_leaving(v, letters) == v for v in entering):
                asg[name] = _derived(span, letters)
                break
    return asg


def _leaving(entering: tuple[int, ...], letters) -> tuple[int, ...]:
    """The cable weights a block's word leaves with."""
    cables = list(entering)
    for _ in _walk(cables, letters):
        pass
    return tuple(cables)


@dataclass(frozen=True)
class VerifySample:
    """Result for one sampled assignment."""

    number: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    """Per-sample outcomes plus the template's braid index delta."""

    template: str
    delta_b: int
    samples: tuple[VerifySample, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    @property
    def all_pass(self) -> bool:
        return self.passed == len(self.samples)

    def summary(self) -> str:
        return (
            f"{self.passed}/{len(self.samples)} pass delta_b={self.delta_b}"
        )


def verify_template(t: Template, samples: list[Assignment]) -> VerifyReport:
    """Expand both sides per sample and compare their closures.

    Expansion errors do not abort the run; they fail their sample with
    the error text in the report.  A sample whose two expansions have
    cores that are rotations of each other passes without a fingerprint:
    the words close to the same link.  Otherwise the closure
    fingerprints are compared; expansions whose cores are rotations of
    each other share a fingerprint, computed once per call.
    """

    if not samples:
        raise ValueError("need at least one sample assignment")
    memo: dict = {}
    rows: list[VerifySample] = []
    for number, asg in enumerate(samples, start=1):
        try:
            plus_word = expand(t.plus, asg)
            minus_word = expand(t.minus, asg)
        except (CoverageError, IndexMismatch, WeightFlowError) as err:
            rows.append(VerifySample(number, False, str(err)))
            continue
        plus_key, plus_core = _closed(plus_word)
        minus_key, minus_core = _closed(minus_word)
        if plus_key == minus_key:
            rows.append(VerifySample(number, True))
            continue
        plus = _closed_fingerprint(memo, plus_key, plus_core)
        minus = _closed_fingerprint(memo, minus_key, minus_core)
        if plus == minus:
            rows.append(VerifySample(number, True))
        else:
            rows.append(
                VerifySample(number, False, f"{plus} versus {minus}")
            )
    return VerifyReport(t.name, t.delta_b, tuple(rows))


def sigma_budget(d: BlockStrandDiagram) -> int:
    """Count of top generator letters the diagram's bands can emit.

    Requires every block to sit clear of the last strand, as in the
    normalized form where blocks occupy initial strands; otherwise
    raises :class:`BlockOnLastStrand`.  Blocks seated off the last
    strand never expand to the top generator, so this total bounds the
    count of letters ``n - 1`` in any expansion of the diagram.
    """

    for entry, covered, base in d._steps:
        if isinstance(entry, BlockRef) and base + sum(covered) - 1 >= d.index:
            raise BlockOnLastStrand(
                f"block {entry.id!r} spans strands"
                f" {base}..{base + sum(covered) - 1} of {d.index}"
            )
    bare = {name: BraidWord(span, ()) for name, span in d.blocks.items()}
    return sum(
        letters.count(entry.sign * (d.index - 1))
        for entry, letters in _expansion(d, bare)
        if isinstance(entry, Band)
    )


def non_carry_certificate(d: BlockStrandDiagram, min_last_count: int) -> bool:
    """Certify that no expansion of ``d`` reaches the required top count.

    ``min_last_count`` must be a proven lower bound on occurrences of
    the top generator across the target's conjugacy class.  True means
    the diagram cannot carry the target.
    """

    return sigma_budget(d) < min_last_count


def _units(n: int) -> tuple[int, ...]:
    return (1,) * n


def make_destabilize(sign: int, w: int = 1) -> Template:
    """Destabilization over a weight ``w`` loop; index drops by ``w``."""
    tag = "pos" if sign > 0 else "neg"
    name = f"destabilize_{tag}" if w == 1 else f"destabilize_{tag}_w{w}"
    plus = BlockStrandDiagram(
        2 + w, (1, 1, w), (BlockRef("P", 2), Band(2, sign))
    )
    minus = BlockStrandDiagram(
        2, (1, 1), (BlockRef("P", 2),), post_destabilization=True
    )
    return Template(name, plus, minus)


def make_exchange(w: int = 1) -> Template:
    """The exchange move: a weight ``w`` bundle swaps its two passes."""
    name = "exchange_w1" if w == 1 else "exchange_weighted"
    def side(first: int) -> BlockStrandDiagram:
        return BlockStrandDiagram(
            2 + w,
            (1, 1, w),
            (
                BlockRef("P", 2),
                Band(2, first),
                BlockRef("Q", 2),
                Band(2, -first),
            ),
        )
    return Template(name, side(1), side(-1))


def make_flype(eps: int, w: int, k: int, wp: int, kp: int) -> Template:
    """The weighted flype family; requires ``w + wp == k + kp``.

    The index delta of the two sides is ``wp - k``; the catalog carries
    only the unit instances, the three strand flypes ``flype3_pos`` and
    ``flype3_neg`` with moving block ``R``, whose links agree for every
    assignment, while the weighted family is exposed for its arithmetic.
    """

    if w + wp != k + kp:
        raise ValueError(
            f"inconsistent weights: {w}+{wp} != {k}+{kp}"
        )
    tag = "pos" if eps > 0 else "neg"
    unit = (w, k, wp, kp) == (1, 1, 1, 1)
    name = f"flype3_{tag}" if unit else f"flype_{tag}_{w}{k}{wp}{kp}"
    plus = BlockStrandDiagram(
        1 + w + wp,
        (1, w, wp),
        (BlockRef("P", 2), BlockRef("R", 2, 2), BlockRef("Q", 2), Band(2, eps)),
    )
    minus = BlockStrandDiagram(
        1 + w + k,
        (1, w, k),
        (BlockRef("P", 2), Band(2, eps), BlockRef("Q", 2), BlockRef("R", 2, 2)),
    )
    return Template(name, plus, minus)


def make_microflype(alpha: int, beta: int) -> Template:
    """A flype whose moving block is one full twist on two unit strands."""
    suffix = ("p" if alpha > 0 else "m") + ("p" if beta > 0 else "m")
    name = f"microflype_{suffix}"
    plus = BlockStrandDiagram(
        3,
        (1, 1, 1),
        (
            BlockRef("P", 2),
            Band(2, beta),
            Band(2, beta),
            BlockRef("Q", 2),
            Band(2, alpha),
        ),
    )
    minus = BlockStrandDiagram(
        3,
        (1, 1, 1),
        (
            BlockRef("P", 2),
            Band(2, alpha),
            BlockRef("Q", 2),
            Band(2, beta),
            Band(2, beta),
        ),
    )
    return Template(name, plus, minus)


def _carousel(k: int) -> tuple[Band, ...]:
    # carry the first strand to the back: one full turn of the necklace
    return tuple(Band(j, 1) for j in range(k - 1, 0, -1))


def make_cyclic(k: int) -> Template:
    """A necklace of ``k`` two strand blocks; the sides differ by one turn."""
    if k < 3:
        raise ValueError(f"need at least 3 blocks, got {k}")
    def side(order: list[int]) -> BlockStrandDiagram:
        entries: list[DiagramEntry] = []
        for i in order:
            entries.append(BlockRef(f"B{i}", 2))
            entries.extend(_carousel(k))
        return BlockStrandDiagram(k, _units(k), tuple(entries))
    plus = side(list(range(1, k + 1)))
    minus = side(list(range(2, k + 1)) + [1])
    return Template(f"cyclic{k}", plus, minus)


def make_gflype6() -> Template:
    """Six strand example: a bundle pass flips around two block pairs."""
    def side(sign: int) -> BlockStrandDiagram:
        return BlockStrandDiagram(
            6,
            _units(6),
            (
                BlockRef("W", 2),
                BlockRef("X", 2, 3),
                Band(5, -sign),
                BlockRef("Y", 2),
                Band(5, sign),
                BlockRef("Z", 2, 3),
            ),
        )
    return Template("gflype6", side(1), side(-1))


def make_gexchange6() -> Template:
    """Six strand example with six blocks around one strand pass."""
    def side(sign: int) -> BlockStrandDiagram:
        return BlockStrandDiagram(
            6,
            _units(6),
            (
                BlockRef("A", 2),
                BlockRef("B", 2, 3),
                Band(5, -sign),
                BlockRef("C", 2),
                BlockRef("D", 2, 3),
                Band(5, sign),
                BlockRef("E", 2),
                BlockRef("F", 2, 3),
            ),
        )
    return Template("gexchange6", side(1), side(-1))


def builtin_templates() -> list[Template]:
    """The catalog templates, built by their constructors."""
    return [
        make_cyclic(4),
        make_destabilize(-1),
        make_destabilize(1),
        make_exchange(1),
        make_exchange(2),
        make_flype(-1, 1, 1, 1, 1),
        make_flype(1, 1, 1, 1, 1),
        make_gexchange6(),
        make_gflype6(),
        make_microflype(-1, -1),
        make_microflype(-1, 1),
        make_microflype(1, -1),
        make_microflype(1, 1),
    ]


# the built-in catalog, sorted by name: built once, since it is constant
_BUILTIN = tuple(sorted(builtin_templates(), key=lambda t: t.name))


def diagram_to_json(d: BlockStrandDiagram) -> dict:
    data = {
        "n": d.index,
        "weights": list(d.weights),
        "entries": [_record_json(e) for e in d.entries],
    }
    if d.post_destabilization:
        data["post_destabilization"] = True
    return data


def diagram_from_json(data: dict) -> BlockStrandDiagram:
    """Decode a diagram.

    Every integer must be a JSON integer, a band ``sign`` +1 or -1, a
    block ``id`` a string and ``post_destabilization`` a JSON bool; an
    entry is decoded by the record codec that decodes moves.  A malformed
    document raises ``ValueError``, a missing field ``KeyError``, and a
    document or field of the wrong JSON type ``TypeError`` or
    ``AttributeError``.
    """
    post = _typed(
        data.get("post_destabilization", False), "post_destabilization", bool
    )
    return BlockStrandDiagram(
        _typed(data["n"], "n", int),
        [_typed(w, "weight", int) for w in _typed(data["weights"], "weights", list)],
        [
            _record_from_json(e, _ENTRY_KINDS, "entry")
            for e in _typed(data["entries"], "entries", list)
        ],
        post,
    )


def template_to_json(t: Template) -> dict:
    return {
        "name": t.name,
        "plus": diagram_to_json(t.plus),
        "minus": diagram_to_json(t.minus),
    }


def template_from_json(data: dict) -> Template:
    return Template(
        _typed(data["name"], "name", str),
        diagram_from_json(data["plus"]),
        diagram_from_json(data["minus"]),
    )


def dump_template(t: Template, path) -> None:
    _dump_json(template_to_json(t), path)


def load_template(path) -> Template:
    return template_from_json(_load_json(path))


def catalog() -> list[Template]:
    """The template catalog.

    The environment variable ``BRAID_TEMPLATE_DIR``, read on every call,
    names a directory whose ``*.json`` template files, sorted by file
    name, are the catalog; otherwise the catalog is
    :func:`builtin_templates`, sorted by name, built once per process.
    An empty value counts as unset, and a directory that does not exist
    raises :class:`NotADirectoryError`.  Each call returns a new list.
    """

    directory = os.environ.get(TEMPLATE_DIR_ENV)
    if not directory:
        return list(_BUILTIN)
    if not Path(directory).is_dir():
        raise NotADirectoryError(f"no template directory {directory!r}")
    return [load_template(p) for p in sorted(Path(directory).glob("*.json"))]


def _segment_tower(
    side: BlockStrandDiagram, asg: Assignment, sign: int
) -> Tower:
    """Stabilize, carry each leading segment around, destabilize.

    The side's expansion is cut before every block that follows a band.
    The moves record one full trip of the marked strand around the
    closure, one conjugation per segment it crosses.
    """

    segments: list[list[int]] = [[]]
    previous = None
    for entry, letters in _expansion(side, asg):
        if isinstance(entry, BlockRef) and isinstance(previous, Band):
            segments.append([])
        segments[-1] += letters
        previous = entry
    n = side.index
    initial = BraidWord(n, [g for seg in segments for g in seg])
    carries = [Conjugate(inverse(BraidWord(n + 1, s))) for s in segments[:-1]]
    return extend(Tower(initial), Stabilize(sign), *carries, Destabilize(sign))


def cyclic_tower(k: int, asg: Assignment) -> Tower:
    """The replayable tower that turns the ``cyclic(k)`` necklace once.

    Starting from the plus expansion, the tower stabilizes, conjugates
    one block-and-carousel segment at a time across the marked strand,
    and destabilizes; its index profile is ``k`` then ``k + 1`` repeated
    ``k`` times then ``k``, and the final word is the plus expansion
    rotated block by block, the word form of the one step block shift.
    """

    return _segment_tower(make_cyclic(k).plus, asg, 1)


def gflype_tower(asg: Assignment) -> Tower:
    """The replayable tower behind the six strand bundle-pass template.

    One stabilization up to seven strands (the inadmissible direction),
    two conjugations carrying the interior segments across the marked
    strand, and one destabilization back to six strands.
    """

    return _segment_tower(make_gflype6().plus, asg, -1)
