"""The reduced Burau product as it was before the one-column update.

Kept unchanged as a reference for differential tests of
:func:`braidcalc.invariants.burau`: every letter becomes a full
``(n - 1) x (n - 1)`` generator matrix and the running product is
multiplied by it.
"""

from __future__ import annotations

from functools import cache

from braidcalc.invariants import LaurentPoly
from braidcalc.words import BraidWord

Matrix = tuple[tuple[LaurentPoly, ...], ...]


def _mat_identity(m: int) -> Matrix:
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(m)) for i in range(m)
    )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = LaurentPoly.zero()
            for k in range(m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@cache
def _generator_matrix(n: int, g: int) -> Matrix:
    """Reduced Burau image of the letter ``g`` in the group on ``n`` strands."""
    m = n - 1
    t = LaurentPoly.term(1, 1)
    tinv = LaurentPoly.term(1, -1)
    one = LaurentPoly.one()
    rows = [list(row) for row in _mat_identity(m)]
    i = abs(g)
    if g > 0:
        if m == 1:
            rows[0][0] = -t
        elif i == 1:
            rows[0][0] = -t
            rows[1][0] = one
        elif i == m:
            rows[m - 2][m - 1] = t
            rows[m - 1][m - 1] = -t
        else:
            rows[i - 2][i - 1] = t
            rows[i - 1][i - 1] = -t
            rows[i][i - 1] = one
    else:
        if m == 1:
            rows[0][0] = -tinv
        elif i == 1:
            rows[0][0] = -tinv
            rows[1][0] = tinv
        elif i == m:
            rows[m - 2][m - 1] = one
            rows[m - 1][m - 1] = -tinv
        else:
            rows[i - 2][i - 1] = one
            rows[i - 1][i - 1] = -tinv
            rows[i][i - 1] = tinv
    return tuple(tuple(row) for row in rows)


def burau(w: BraidWord) -> Matrix:
    """Reduced Burau matrix of a word, exact over Laurent integers.

    The matrix has shape ``(n - 1) x (n - 1)``; the empty word on one
    strand yields the empty matrix.
    """

    m = _mat_identity(w.index - 1)
    for g in w.letters:
        m = _mat_mul(m, _generator_matrix(w.index, g))
    return m
