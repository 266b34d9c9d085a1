"""Garside left normal form and a conjugacy oracle for braid words.

Every braid element has a unique expression ``D^p F1 F2 ... Fm`` where
``D`` is the half twist, each factor ``Fi`` is a permutation braid (a
positive word in which any two strands cross at most once), the pair
``(Fi, Fi+1)`` is left weighted, no factor is trivial and no factor is
the full half twist.  Permutation braids are stored as their endpoint
permutations and all factor arithmetic happens on permutations, so no
precomputed tables are needed and any strand count works.

The normal form takes one pass over the word.  A negative letter is
``D^-1 (D sigma_g^-1)``; moving every ``D^-1`` to the front flips each
earlier factor by ``D``, so a factor is flipped when an odd number of
negative letters follow it.  Factors are appended one at a time and a
right-to-left pass restores left weighting, stopping at the first pair
already left weighted (Epstein et al., *Word Processing in Groups*,
1992, ch. 9; Elrifai and Morton, Quart. J. Math. 45, 1994).

Conjugacy is decided through super summit sets: cycling raises the
infimum to its conjugacy maximum, decycling lowers the supremum to its
minimum, and the set of all conjugates with those extremal values is
closed under conjugation by permutation braids.  Two elements are
conjugate exactly when their super summit sets coincide.  The search
explores that set with a node cap and reports an inconclusive verdict
if the cap is exceeded.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

from .words import (
    BraidWord,
    concat,
    cycle_type,
    exponent_sum,
    free_reduce,
    inverse,
    permutation,
)

__all__ = [
    "NormalForm",
    "normal_form",
    "normal_form_word",
    "factor_word",
    "words_equal",
    "is_trivial",
    "Verdict",
    "ConjugacyReport",
    "conjugacy_test",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 10_000

Perm = tuple[int, ...]
Entry = tuple[Perm, int, int]  # permutation, left/right-divisor masks


def _identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def _half_twist(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def _tau(i: int, n: int) -> Perm:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def _mul(p: Perm, q: Perm) -> Perm:
    # composition as functions, q applied first
    return tuple(p[q[i] - 1] for i in range(len(p)))


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def _descents(p: Perm) -> int:
    # bit i: sigma_i right-divides p (of the inverse: left-divides p)
    return sum(1 << i for i in range(1, len(p)) if p[i - 1] > p[i])


def factor_word(p: Perm) -> tuple[int, ...]:
    """A positive word for a permutation braid, deterministic per input.

    Bubble sorting the image tuple to the identity records one letter
    per inversion; the reversed record is a word whose endpoint
    permutation is ``p``.
    """

    arr = list(p)
    record: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                record.append(i + 1)
                changed = True
    return tuple(reversed(record))


@dataclass(frozen=True)
class NormalForm:
    """Left normal form ``D^power F1 ... Fm`` with factors as permutations.

    Structural equality of normal forms is equality of braid elements.
    ``power`` is the infimum; ``power + len(factors)`` is the supremum.
    """

    index: int
    power: int
    factors: tuple[Perm, ...]

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left normal form of a braid word.

    The power is minus the number of negative letters; a letter's factor
    is flipped when the negative letters after it are odd in number.
    Each pass back from a new factor stops at the first pair already
    left weighted, one mask test on the factors' divisor bitmasks.
    """
    n = w.index
    w0 = _half_twist(n)
    negatives = after = sum(g < 0 for g in w.letters)
    factors: list[Entry] = []
    weigh = functools.lru_cache(1024)(_weigh)  # pairs recur in one word
    for g in w.letters:
        after -= g < 0
        f = _tau(n - abs(g) if after % 2 else abs(g), n)
        f = _mul(w0, f) if g < 0 else f
        fin = _descents(f)
        if not fin:
            continue  # sigma_1^-1 on two strands is D^-1 itself
        factors.append((f, _descents(_inv(f)), fin))
        j = len(factors) - 1
        while j and factors[j][1] & ~factors[j - 1][2]:
            factors[j - 1], factors[j] = weigh(factors[j - 1], factors[j])
            j -= 1
        while factors and not factors[-1][2]:
            factors.pop()
    lead = sum(f == w0 for f, _, _ in factors)  # every D comes first
    rest = tuple(f for f, _, _ in factors[lead:])
    return NormalForm(n, lead - negatives, rest)


def _weigh(left: Entry, right: Entry) -> tuple[Entry, Entry]:
    # move generators from the front of right to the back of left until
    # the pair is left weighted; a move swaps two entries, updates 3 bits
    x, _, fin = left
    y, start, _ = right
    x, yi = list(x), list(_inv(y))
    pending = start & ~fin
    while pending:
        i = (pending & -pending).bit_length() - 1
        x[i - 1], x[i] = x[i], x[i - 1]
        yi[i - 1], yi[i] = yi[i], yi[i - 1]
        for k in range(max(i - 1, 1), min(i + 2, len(x))):
            bit = 1 << k
            fin = fin | bit if x[k - 1] > x[k] else fin & ~bit
            start = start | bit if yi[k - 1] > yi[k] else start & ~bit
        pending = start & ~fin
    x, y = tuple(x), _inv(yi)
    return (x, _descents(_inv(x)), fin), (y, start, _descents(y))


def normal_form_word(nf: NormalForm) -> BraidWord:
    """A word evaluating to the element the normal form represents."""
    n = nf.index
    letters: list[int] = []
    twist = factor_word(_half_twist(n))
    if nf.power >= 0:
        letters.extend(twist * nf.power)
    else:
        undo = tuple(-g for g in reversed(twist))
        letters.extend(undo * (-nf.power))
    for f in nf.factors:
        letters.extend(factor_word(f))
    return BraidWord(n, letters)


def words_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words on the same strand count are the same element."""
    if u.index != v.index:
        raise ValueError(f"strand counts differ: {u.index} versus {v.index}")
    return normal_form(u) == normal_form(v)


def is_trivial(w: BraidWord) -> bool:
    """Whether the word is the identity element."""
    return normal_form(w).is_identity()


class Verdict(enum.Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not-conjugate"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of a conjugacy test plus the node count the search used."""

    verdict: Verdict
    nodes: int


def _conj(x: NormalForm, a: BraidWord) -> NormalForm:
    # a^-1 x a, normalized again from the word
    return normal_form(free_reduce(concat(inverse(a), normal_form_word(x), a)))


def _settle(x: NormalForm, conjugator, gains) -> tuple[NormalForm, bool]:
    # conjugate by conjugator(x), restarting the orbit at each gain,
    # until it revisits
    seen, gained = {x}, False
    while x.factors:
        y = _conj(x, conjugator(x))
        if gains(y, x):
            x, seen, gained = y, {y}, True
        elif y in seen:
            break
        else:
            seen.add(y)
            x = y
    return x, gained


def _summit_representative(x: NormalForm) -> NormalForm:
    # raise inf by cycling (conjugating by D^inf F1), lower sup by
    # decycling (by the inverse of the last factor), until both settle
    n = x.index
    while True:
        x, raised = _settle(
            x,
            lambda x: normal_form_word(NormalForm(n, x.power, x.factors[:1])),
            lambda y, x: y.inf > x.inf,
        )
        x, lowered = _settle(
            x,
            lambda x: inverse(BraidWord(n, factor_word(x.factors[-1]))),
            lambda y, x: y.sup < x.sup,
        )
        if not (raised or lowered):
            return x


def _all_simples(n: int) -> list[Perm]:
    identity = _identity(n)
    return [p for p in itertools.permutations(identity) if p != identity]


def conjugacy_test(
    u: BraidWord, v: BraidWord, node_cap: int = DEFAULT_NODE_CAP
) -> ConjugacyReport:
    """Decide conjugacy of two words on the same strand count.

    Cheap invariants run first: exponent sum and the cycle type of the
    endpoint permutation both separate non-conjugate pairs at no cost.
    Otherwise the super summit set of ``u`` is enumerated, conjugating
    by every permutation braid and keeping elements whose infimum and
    supremum match the summit values; ``v`` is conjugate to ``u``
    exactly when its own summit representative lands in that set.  If
    the set would exceed ``node_cap`` elements the verdict is
    inconclusive; a cap below 1 raises ``ValueError``.  The search is
    deterministic: simples are tried in a fixed order and the frontier
    is processed first in, first out.
    """

    if node_cap < 1:
        raise ValueError(f"bad node cap {node_cap}: need at least 1")
    if u.index != v.index:
        raise ValueError(f"strand counts differ: {u.index} versus {v.index}")
    if exponent_sum(u) != exponent_sum(v):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 0)
    if cycle_type(permutation(u)) != cycle_type(permutation(v)):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 0)

    nu = _summit_representative(normal_form(u))
    nv = _summit_representative(normal_form(v))
    if (nu.inf, nu.sup) != (nv.inf, nv.sup):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 2)
    if nu == nv:
        return ConjugacyReport(Verdict.CONJUGATE, 2)

    simples = _all_simples(u.index)
    seen = {nu}
    frontier = [nu]
    while frontier:
        next_frontier: list[NormalForm] = []
        for x in frontier:
            for s in simples:
                y = _conj(x, BraidWord(x.index, factor_word(s)))
                if (y.inf, y.sup) != (nu.inf, nu.sup) or y in seen:
                    continue
                if y == nv:
                    return ConjugacyReport(Verdict.CONJUGATE, len(seen) + 1)
                if len(seen) >= node_cap:
                    return ConjugacyReport(Verdict.INCONCLUSIVE, len(seen))
                seen.add(y)
                next_frontier.append(y)
        frontier = next_frontier
    return ConjugacyReport(Verdict.NOT_CONJUGATE, len(seen))

