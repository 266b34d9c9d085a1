"""Reference Garside algorithms, kept as differential oracles.

Used by the tests; no production code imports this.

:func:`normal_form` is the original quadratic algorithm, the oracle for
:func:`braidcalc.garside.normal_form`.  Every negative letter re-flips
all earlier factors by the half twist, and left-weighting repeats full
passes over the factor list until no pair changes.  Slow, but simple
enough to trust.

:func:`bubbling_product` is the original one-pass left-weighting loop,
the oracle for ``braidcalc.garside._product``.  A half twist made by the
pass is carried pair by pair to the front of the list, and every
``D`` is counted there at the end.  Quadratic in the word length on
random words, but it needs no flip of the factors behind a ``D``.
:func:`letter_simples` spells a word as the simples that pass took.
:func:`weigh` is the original left-weighting step, the oracle for
``braidcalc.garside._weigh``: it re-tests all three bits around each
swap and recomputes both result masks from the permutations.
:func:`factor_word` is the original spelling of a permutation braid,
the oracle for :func:`braidcalc.garside.factor_word`: it bubble sorts
with full passes until a pass makes no swap.

:func:`minimal_simples` is the original search for an element's minimal
simple elements, the oracle for ``braidcalc.garside._minimal_simples``:
each remainder step of :func:`phi` multiplies by the inverse of its
factor, with no memo and no stop at the identity remainder, and every
generator iterates its own chain to the fixpoint.  It inverts ``x``
with :func:`inverse_normal_form`, which inverts every factor.

:func:`conjugacy_test` is the original super-summit-set walk, the oracle
for :func:`braidcalc.garside.conjugacy_test`.  It conjugates every node
by all ``n! - 1`` permutation braids, spelling the half twists out in
every conjugation word, and keeps the conjugates whose infimum and
supremum match the summit values.  It normalizes with the production
:func:`braidcalc.garside.normal_form`, which the quadratic oracle above
checks on its own.
"""

from __future__ import annotations

import functools
import itertools

from braidcalc import garside
from braidcalc.garside import (
    DEFAULT_NODE_CAP,
    ConjugacyReport,
    Entry,
    NormalForm,
    Perm,
    Verdict,
    _descents,
    _half_twist,
    _inv,
    _lcm,
    _mul,
    _tau,
    normal_form_word,
)
from braidcalc.words import (
    BraidWord,
    concat,
    cycle_type,
    exponent_sum,
    free_reduce,
    inverse,
    permutation,
)


def _identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def _flip(p: Perm) -> Perm:
    # conjugation by the half twist
    w0 = _half_twist(len(p))
    return _mul(w0, _mul(p, w0))


def _starting(p: Perm) -> set[int]:
    # i such that sigma_i is a left divisor of the permutation braid
    inv = _inv(p)
    return {i for i in range(1, len(p)) if inv[i - 1] > inv[i]}


def _finishing(p: Perm) -> set[int]:
    # i such that sigma_i is a right divisor
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def normal_form(w: BraidWord) -> NormalForm:
    """Compute the left normal form of a braid word."""
    n = w.index
    w0 = _half_twist(n)
    power = 0
    factors: list[Perm] = []
    for g in w.letters:
        if g > 0:
            factors.append(_tau(g, n))
        else:
            # sigma_g^-1 = D^-1 (D sigma_g^-1); push D^-1 to the front
            factors = [_flip(f) for f in factors]
            power -= 1
            factors.append(_mul(w0, _tau(-g, n)))
    factors = _left_weight(factors, n)
    while factors and factors[0] == w0:
        factors.pop(0)
        power += 1
    return NormalForm(n, power, tuple(factors))


def _left_weight(factors: list[Perm], n: int) -> list[Perm]:
    identity = _identity(n)
    factors = [f for f in factors if f != identity]
    changed = True
    while changed:
        changed = False
        for j in range(len(factors) - 1):
            x, y = factors[j], factors[j + 1]
            moved = False
            while True:
                pending = _starting(y) - _finishing(x)
                if not pending:
                    break
                i = min(pending)
                t = _tau(i, n)
                x = _mul(x, t)
                y = _mul(t, y)
                moved = True
            if moved:
                factors[j], factors[j + 1] = x, y
                changed = True
        if changed:
            factors = [f for f in factors if f != identity]
    return factors


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


def letter_simples(w: BraidWord):
    """The simple of each letter, flipped by the negative letters after
    it; D to the minus their count times these is ``w``."""
    n = w.index
    w0 = _half_twist(n)
    after = sum(g < 0 for g in w.letters)
    for g in w.letters:
        after -= g < 0
        f = _tau(n - abs(g) if after % 2 else abs(g), n)
        yield _mul(w0, f) if g < 0 else f


def weigh(left: Entry, right: Entry) -> tuple[Entry, Entry]:
    """Move generators from the front of ``right`` to the back of
    ``left`` until the pair is left weighted; a move swaps two entries
    and updates 3 bits."""
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


def bubbling_product(n: int, q: int, simples) -> NormalForm:
    """D^q times the normal form of a product of simples: a pass back
    from each new one stops at the first pair already left weighted."""
    w0 = _half_twist(n)
    factors: list[Entry] = []
    cached = functools.lru_cache(1024)(weigh)  # pairs recur in one product
    for f in simples:
        fin = _descents(f)
        if not fin:
            continue  # the identity, as D sigma_1^-1 on two strands
        factors.append((f, _descents(_inv(f)), fin))
        j = len(factors) - 1
        while j and factors[j][1] & ~factors[j - 1][2]:
            factors[j - 1], factors[j] = cached(factors[j - 1], factors[j])
            j -= 1
        while factors and not factors[-1][2]:
            factors.pop()
    lead = sum(f == w0 for f, _, _ in factors)  # every D comes first
    return NormalForm(n, q + lead, tuple(f for f, _, _ in factors[lead:]))


def inverse_normal_form(x: NormalForm) -> NormalForm:
    """x^-1 = D^(-p-r) y_r ... y_1 with y_i = tau^(p+i)(x_i^-1 D)."""
    n, p = x.index, x.power
    w0 = _half_twist(n)
    ys = [_mul(_inv(f), w0) for f in x.factors]
    ys = [_flip(y) if i % 2 else y for i, y in enumerate(ys, p + 1)]
    return NormalForm(n, -p - len(ys), tuple(reversed(ys)))


def phi(s: Perm, power: int, factors) -> Perm:
    """s v c with c the least simple such that tau^q(s) left-divides
    y1 ... yr c, for y = D^q y1 ... yr given as q and the pairs
    (y_k, y_k^-1); c_k = y_k^-1 (c_(k-1) v y_k)."""
    c = _flip(s) if power % 2 else s
    for f, fi in factors:
        c = _mul(fi, _lcm(c, f))
    return _lcm(s, c)


def minimal_simples(x: NormalForm) -> list[Perm]:
    """For each generator, the least simple above it that keeps x^s in
    the super summit set of x, which holds x; each listed once, in
    generator order."""
    n, xi = x.index, inverse_normal_form(x)
    xs = [(f, _inv(f)) for f in x.factors]
    xis = [(f, _inv(f)) for f in xi.factors]
    out: list[Perm] = []
    for i in range(1, n):
        s = _tau(i, n)
        while (t := phi(phi(s, x.power, xs), xi.power, xis)) != s:
            s = t
        if s not in out:
            out.append(s)
    return out


def _conj(x: NormalForm, a: BraidWord) -> NormalForm:
    # a^-1 x a, normalized again from the word
    word = concat(inverse(a), normal_form_word(x), a)
    return garside.normal_form(free_reduce(word))


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

    nu = _summit_representative(garside.normal_form(u))
    nv = _summit_representative(garside.normal_form(v))
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

