"""Garside left normal form and a conjugacy oracle for braid words.

Every braid element has a unique expression ``D^p F1 F2 ... Fm`` where
``D`` is the half twist, each factor ``Fi`` is a permutation braid (a
positive word in which any two strands cross at most once), the pair
``(Fi, Fi+1)`` is left weighted, no factor is trivial and no factor is
the full half twist.  Permutation braids are stored as their endpoint
permutations and all factor arithmetic happens on permutations, so any
strand count works.  Each public call keeps one table of bounded memos
of the descents, left-weightings and lcms its products share; the table
dies with the call.  A left-weighting step re-tests only the bits next
to each generator it moves and takes its results from the table's
descent memo, so the two memos share their tuples.

The normal form takes one pass over the freely reduced word.  A
negative letter is ``D^-1 (D sigma_g^-1)``; moving every ``D^-1`` to
the front flips each earlier factor by ``tau``, conjugation by ``D``,
so a factor is flipped when an odd number of negative letters follow
it.  One loop left-weights every product of simples, a word's and a
conjugation's alike: each is appended and a right-to-left pass stops
at the first pair already left weighted (Epstein et al., *Word
Processing in Groups*, 1992, ch. 9; Elrifai and Morton, Quart. J.
Math. 45, 1994) or at a ``D``.  That ``D`` goes to a count at the right
end, as ``D Y = tau(Y) D``, and the pass ends: carried to the front,
the ``D`` would leave the pairs behind it left weighted.  ``tau`` moves
a descent at ``i`` to ``n - i``, so each factor behind that ``D`` keeps
its descent masks, mirrored.
Equality first compares the images in ``Z`` (exponent sum) and ``S_n``
(permutation): only words with equal images are normalized.

Conjugacy is decided through super summit sets: cycling raises the
infimum to its conjugacy maximum, decycling lowers the supremum to its
minimum, and the set of all conjugates with those extremal values is
connected under conjugation by its minimal simple elements: for each
generator, the least permutation braid above it that keeps a conjugate
in the set (Franco and Gonzalez-Meneses, J. Algebra 266, 2003).  Each
element has at most ``n - 1`` of them.  Two elements are conjugate
exactly when their super summit sets coincide.  The search explores
that set with a node cap and reports an inconclusive verdict if the
cap is exceeded.  Each conjugation of ``x = D^p F1 ... Fm`` hands that
loop one positive product of simples and spells no word, ``tau``
flipping ``sigma_i`` to ``sigma_(n-i)``: ``D^(p-1) tau^(p+1)(s^-1 D)
F1 ... Fm s`` by a simple ``s``, ``D^p tau^p(F2) ... tau^p(Fm) F1``
when cycling and ``D^p tau^p(Fm) F1 ... F(m-1)`` when decycling.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .words import BraidWord, cycle_type, exponent_sum, free_reduce, permutation

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


class _Table:
    # one per public call: bounded memos of the primitives its products
    # share; a weigh result is the entry memo's own tuples
    def __init__(self):
        self.entry = functools.lru_cache(1024)(_entry)
        weigh = functools.partial(_weigh, entry=self.entry)
        self.weigh = functools.lru_cache(1024)(weigh)
        self.lcm = functools.lru_cache(1024)(_lcm)


def normal_form(w: BraidWord, table: _Table | None = None) -> NormalForm:
    """Compute the left normal form of a braid word.

    The word is freely reduced; the power is minus its number of negative
    letters, a letter's factor is flipped when an odd number of negative
    letters follow it, and the factors go to ``_product``.  ``table`` is
    the memo of the calling Garside function, if any.
    """
    w = free_reduce(w)
    n = w.index
    w0 = _half_twist(n)
    negatives = sum(g < 0 for g in w.letters)
    made: dict[tuple[int, int], Perm] = {}  # (letter, parity): its simple

    def simples():
        after = negatives
        for g in w.letters:
            after -= g < 0
            key = g, after % 2
            if key not in made:
                f = _tau(n - abs(g) if after % 2 else abs(g), n)
                made[key] = _mul(w0, f) if g < 0 else f
            yield made[key]

    return _product(n, -negatives, simples(), table or _Table())


def _product(n: int, q: int, simples, table: _Table) -> NormalForm:
    # D^q times a product of simples, normalized as D^q F1 ... Fm D^r:
    # each arrives flipped by tau^r; a D the pass makes moves to the end
    twist = (1 << n) - 2  # the descents of D
    factors: list[Entry] = []
    r = 0
    for f in simples:
        entry = table.entry(_flip(f) if r % 2 else f)
        if not entry[2]:
            continue  # the identity, as D sigma_1^-1 on two strands
        if entry[2] == twist:  # D; on one strand, the identity above
            r += 1
            continue
        factors.append(entry)
        j = len(factors) - 1
        while j and factors[j][1] & ~factors[j - 1][2]:
            left, factors[j] = table.weigh(factors[j - 1], factors[j])
            if left[2] == twist:  # F1 ... D Y = F1 ... tau(Y) D
                # not through the table: from n = 8 on, these re-flips fill it
                factors[j - 1 :] = [_flip_entry(e) for e in factors[j:]]
                r += 1
                break
            factors[j - 1] = left
            j -= 1
        while factors and not factors[-1][2]:
            factors.pop()
    perms = [f for f, _, _ in factors]
    return NormalForm(n, q + r, tuple(map(_flip, perms) if r % 2 else perms))


def _entry(f: Perm) -> Entry:
    return f, _descents(_inv(f)), _descents(f)


def _flip_entry(entry: Entry) -> Entry:
    # tau moves a descent at i to n - i, so both masks mirror; the bit
    # above them keeps bin() from dropping their high zeros
    f, start, fin = entry
    top = 1 << len(f) + 1
    start, fin = int(bin(start | top)[:2:-1], 2), int(bin(fin | top)[:2:-1], 2)
    return _flip(f), start, fin


def _weigh(left: Entry, right: Entry, entry) -> tuple[Entry, Entry]:
    # move generators from the front of right to the back of left until
    # the pair is left weighted.  A move at i swaps two places of x and
    # of right's inverse: left gains descent i, right loses it, and only
    # i - 1 and i + 1 need a look.  entry gives the result's masks
    x, _, fin = left
    y, start, _ = right
    n = len(x)
    x, yi = list(x), list(_inv(y))
    pending = start & ~fin
    while pending:
        bit = pending & -pending
        i = bit.bit_length() - 1
        x[i - 1], x[i] = x[i], x[i - 1]
        yi[i - 1], yi[i] = yi[i], yi[i - 1]
        fin, start = fin | bit, start & ~bit
        for k in (i - 1, i + 1):
            if 0 < k < n:
                b = 1 << k
                fin = fin | b if x[k - 1] > x[k] else fin & ~b
                start = start | b if yi[k - 1] > yi[k] else start & ~b
        pending = start & ~fin
    return entry(tuple(x)), entry(_inv(yi))


def normal_form_word(nf: NormalForm) -> BraidWord:
    """A word evaluating to the element the normal form represents."""
    twist = factor_word(_half_twist(nf.index))
    if nf.power < 0:
        twist = tuple(-g for g in reversed(twist))
    factors = (g for f in nf.factors for g in factor_word(f))
    return BraidWord(nf.index, (*twist * abs(nf.power), *factors))


def words_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words on the same strand count are the same element."""
    if u.index != v.index:
        raise ValueError(f"strand counts differ: {u.index} versus {v.index}")
    if exponent_sum(u) != exponent_sum(v) or permutation(u) != permutation(v):
        return False  # their images in Z or in S_n differ
    table = _Table()
    return normal_form(u, table) == normal_form(v, table)


def is_trivial(w: BraidWord) -> bool:
    """Whether the word is the identity element."""
    return words_equal(w, BraidWord(w.index, ()))


class Verdict(enum.Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not-conjugate"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of a conjugacy test plus the node count the search used.

    ``nodes`` is 0 when an invariant (exponent sum, permutation cycle
    type) separated the pair.  Otherwise it is the number of
    super-summit-set elements the search stored, plus one when it found
    the second representative, and 2 also when the two summit
    representatives decided alone: 2 does not say whether the walk ran.
    """

    verdict: Verdict
    nodes: int


def _flip(p: Perm) -> Perm:
    # tau, conjugation by D: strand i becomes strand n + 1 - i; tau^2 = 1,
    # so callers flip only at an odd power
    n = len(p)
    return tuple(n + 1 - p[n - 1 - i] for i in range(n))


def _conj(x: NormalForm, s: Perm, table: _Table) -> NormalForm:
    # s^-1 D^p A s = D^(p-1) tau^(p+1)(s^-1 D) A s, all of it positive
    top = _mul(_inv(s), _half_twist(x.index))
    top = top if x.power % 2 else _flip(top)
    return _product(x.index, x.power - 1, (top, *x.factors, s), table)


def _cycle(x: NormalForm, table: _Table) -> NormalForm:
    # conjugation by D^p F1
    rest = tuple(map(_flip, x.factors[1:])) if x.power % 2 else x.factors[1:]
    return _product(x.index, x.power, (*rest, x.factors[0]), table)


def _decycle(x: NormalForm, table: _Table) -> NormalForm:
    # conjugation by the inverse of the last factor
    last = _flip(x.factors[-1]) if x.power % 2 else x.factors[-1]
    return _product(x.index, x.power, (last, *x.factors[:-1]), table)


def _settle(x: NormalForm, step, gains, table: _Table) -> tuple[NormalForm, bool]:
    # apply step, restarting the orbit at each gain, until it revisits
    seen, gained = {x}, False
    while x.factors:
        y = step(x, table)
        if gains(y, x):
            x, seen, gained = y, {y}, True
        elif y in seen:
            break
        else:
            seen.add(y)
            x = y
    return x, gained


def _summit_representative(x: NormalForm, table: _Table) -> NormalForm:
    # raise inf by cycling, lower sup by decycling, until both settle
    while True:
        x, raised = _settle(x, _cycle, lambda y, x: y.inf > x.inf, table)
        x, lowered = _settle(x, _decycle, lambda y, x: y.sup < x.sup, table)
        if not (raised or lowered):
            return x


def _lcm(s: Perm, t: Perm) -> Perm:
    # s v t for permutation braids.  Call i < j inverted in the inverse
    # q of a simple when q[i] > q[j], as _descents(_inv(f)) does for
    # adjacent pairs: s left-divides t exactly when t's inverted pairs
    # hold s's, and those of s v t are the transitive closure of both
    n = len(s)
    qs, qt = _inv(s), _inv(t)
    after = [0] * n  # bit j of after[i]: the pair (i, j) is inverted
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if qs[i] > qs[j] or qt[i] > qt[j]:
                after[i] |= 1 << j | after[j]
    # q[i] counts the entries it must exceed: inverted ones after it,
    # uninverted ones before it
    q = [
        1 + after[i].bit_count() + sum(not after[j] >> i & 1 for j in range(i))
        for i in range(n)
    ]
    return _inv(tuple(q))


def _inverse(x: NormalForm) -> NormalForm:
    # x^-1 = D^(-p-r) y_r ... y_1 with y_i = tau^(p+i)(x_i^-1 D), a
    # left normal form as it stands
    n, p = x.index, x.power
    w0 = _half_twist(n)
    ys = [_mul(_inv(f), w0) for f in x.factors]
    ys = [_flip(y) if i % 2 else y for i, y in enumerate(ys, p + 1)]
    return NormalForm(n, -p - len(ys), tuple(reversed(ys)))


def _phi(s: Perm, power: int, factors, table: _Table) -> Perm:
    # s v c with c the least simple such that tau^q(s) left-divides
    # y1 ... yr c, for y = D^q y1 ... yr given as q and the pairs
    # (y_k, y_k^-1); c_k = y_k^-1 (c_(k-1) v y_k)
    c = _flip(s) if power % 2 else s
    for f, fi in factors:
        c = _mul(fi, table.lcm(c, f))
    return table.lcm(s, c)


def _minimal_simples(x: NormalForm, table: _Table) -> list[Perm]:
    # for each generator sigma_i, the least simple s above it with x^s
    # in the super summit set of x, which holds x.  phi_x(s) = s exactly
    # when conjugating by s keeps the infimum, and phi is monotone with
    # D a fixpoint, so iterating from sigma_i stops at the least one.
    # Each factor of x and x^-1 is inverted once, not on every step
    n, xi = x.index, _inverse(x)
    xs = [(f, _inv(f)) for f in x.factors]
    xis = [(f, _inv(f)) for f in xi.factors]
    out: list[Perm] = []
    for i in range(1, n):
        s = _tau(i, n)
        while (t := _phi(_phi(s, x.power, xs, table), xi.power, xis, table)) != s:
            s = t
        if s not in out:
            out.append(s)
    return out


def conjugacy_test(
    u: BraidWord, v: BraidWord, node_cap: int = DEFAULT_NODE_CAP
) -> ConjugacyReport:
    """Decide conjugacy of two words on the same strand count.

    Cheap invariants run first: exponent sum and the cycle type of the
    endpoint permutation both separate non-conjugate pairs at no cost.
    Otherwise the super summit set of ``u`` is enumerated breadth
    first, conjugating each element by its minimal simple elements;
    ``v`` is conjugate to ``u`` exactly when its own summit
    representative lands in that set.  If the set would exceed
    ``node_cap`` elements the verdict is inconclusive; a cap below 1
    raises ``ValueError``.  The search is deterministic: an element's
    minimal simples are tried in the order of the generators they sit
    above, and the frontier is processed first in, first out.
    """

    if node_cap < 1:
        raise ValueError(f"bad node cap {node_cap}: need at least 1")
    if u.index != v.index:
        raise ValueError(f"strand counts differ: {u.index} versus {v.index}")
    if exponent_sum(u) != exponent_sum(v):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 0)
    if cycle_type(permutation(u)) != cycle_type(permutation(v)):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 0)

    table = _Table()
    nu = _summit_representative(normal_form(u, table), table)
    nv = _summit_representative(normal_form(v, table), table)
    if (nu.inf, nu.sup) != (nv.inf, nv.sup):
        return ConjugacyReport(Verdict.NOT_CONJUGATE, 2)
    if nu == nv:
        return ConjugacyReport(Verdict.CONJUGATE, 2)

    seen = {nu}
    frontier = [nu]
    while frontier:
        next_frontier: list[NormalForm] = []
        for x in frontier:
            for s in _minimal_simples(x, table):
                y = _conj(x, s, table)
                if y in seen:
                    continue
                if y == nv:
                    return ConjugacyReport(Verdict.CONJUGATE, len(seen) + 1)
                if len(seen) >= node_cap:
                    return ConjugacyReport(Verdict.INCONCLUSIVE, len(seen))
                seen.add(y)
                next_frontier.append(y)
        frontier = next_frontier
    return ConjugacyReport(Verdict.NOT_CONJUGATE, len(seen))

