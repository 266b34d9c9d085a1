"""Reference left normal form: the original quadratic algorithm.

Used by the tests as a differential oracle for
:func:`braidcalc.garside.normal_form`; no production code imports this.
Every negative letter re-flips all earlier factors by the half twist,
and left-weighting repeats full passes over the factor list until no
pair changes.  Slow, but simple enough to trust.
"""

from __future__ import annotations

from braidcalc.garside import (
    NormalForm,
    Perm,
    _half_twist,
    _identity,
    _inv,
    _mul,
    _tau,
)
from braidcalc.words import BraidWord


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
