"""Invariants code as it was before later rewrites, kept as references.

``DictLaurentPoly`` is the Laurent polynomial class as it was before the
dense ``(low, coeffs)`` form: a dict from exponent to nonzero
coefficient, with the ring operations and the exact long division.  It
is the oracle for differential tests of
:class:`braidcalc.invariants.LaurentPoly` and of the division that
:func:`braidcalc.invariants.alexander` runs on digits, and every other
function here but ``packed_alexander`` computes over it.

``burau`` is the reduced Burau product as it was before the one-column
update: every letter becomes a full ``(n - 1) x (n - 1)`` generator
matrix and the running product is multiplied by it.  ``column_burau``
is the one-column update as it was before it moved to packed integers:
each letter rewrites one column of the running product.  Both are
oracles for :func:`braidcalc.invariants.burau`.

``_det`` and ``alexander`` are the Alexander polynomial as it was
before it moved to packed integers: fraction-free Bareiss elimination
over Laurent polynomials applied to ``column_burau(w) - I``, then the
exact quotient by ``1 + t + ... + t^(n-1)``.  They are the oracle for
:func:`braidcalc.invariants.alexander`.

``packed_alexander`` is :func:`braidcalc.invariants.alexander` as it
was before it read the word's core: the packed pipeline on the
cyclically reduced word at its full strand count, a Burau matrix built
for split closures too.  It is the oracle for the core's
destabilizations and for the zero answer on obviously split cores.

Each public function returns :class:`braidcalc.invariants.LaurentPoly`
values, converted at its return by ``dense``.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from braidcalc.invariants import (
    DivisibilityFailure,
    LaurentPoly,
    _bareiss,
    _digits,
    _divide_geometric,
    _pack,
    _packed_burau,
)
from braidcalc.words import BraidWord, cyclic_reduce


class DictLaurentPoly:
    """An integer Laurent polynomial in one variable ``t``.

    Immutable; stores only nonzero coefficients keyed by exponent.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DictLaurentPoly is immutable")

    @staticmethod
    def zero() -> "DictLaurentPoly":
        return DictLaurentPoly()

    @staticmethod
    def one() -> "DictLaurentPoly":
        return DictLaurentPoly({0: 1})

    @staticmethod
    def term(coeff: int, exp: int = 0) -> "DictLaurentPoly":
        return DictLaurentPoly({exp: coeff})

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DictLaurentPoly)
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "DictLaurentPoly") -> "DictLaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return DictLaurentPoly(out)

    def __neg__(self) -> "DictLaurentPoly":
        return DictLaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "DictLaurentPoly") -> "DictLaurentPoly":
        return self + (-other)

    def __mul__(self, other: "DictLaurentPoly") -> "DictLaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return DictLaurentPoly(out)

    def shift(self, k: int) -> "DictLaurentPoly":
        """Multiply by ``t^k``."""
        return DictLaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def exact_div(self, divisor: "DictLaurentPoly") -> "DictLaurentPoly":
        """Divide exactly, raising :class:`DivisibilityFailure` on remainder."""
        if divisor.is_zero():
            raise DivisibilityFailure("division by the zero polynomial")
        if self.is_zero():
            return DictLaurentPoly.zero()
        # shift both to ordinary polynomials and do long division
        num = self.shift(-self.min_exp)
        den = divisor.shift(-divisor.min_exp)
        shift_back = self.min_exp - divisor.min_exp
        rem = dict(num._coeffs)
        lead = den.max_exp
        lead_coeff = den.coefficient(lead)
        quot: dict[int, int] = {}
        while rem:
            top = max(rem)
            if top < lead:
                raise DivisibilityFailure("nonzero remainder")
            c, r = divmod(rem[top], lead_coeff)
            if r != 0:
                raise DivisibilityFailure("nonzero remainder")
            quot[top - lead] = c
            for e, dc in den._coeffs.items():
                k = top - lead + e
                v = rem.get(k, 0) - c * dc
                if v == 0:
                    rem.pop(k, None)
                else:
                    rem[k] = v
        return DictLaurentPoly(quot).shift(shift_back)

    def normalized(self) -> "DictLaurentPoly":
        """Scale by a unit so the lowest exponent is 0 with positive coefficient."""
        if self.is_zero():
            return self
        shifted = self.shift(-self.min_exp)
        if shifted.coefficient(0) < 0:
            return -shifted
        return shifted

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"DictLaurentPoly({dict(self.items())!r})"


Matrix = tuple[tuple[LaurentPoly, ...], ...]
Rows = list[list[DictLaurentPoly]]


def dense(p: DictLaurentPoly) -> LaurentPoly:
    """The same polynomial as a :class:`braidcalc.invariants.LaurentPoly`."""
    if p.is_zero():
        return LaurentPoly()
    span = range(p.min_exp, p.max_exp + 1)
    return LaurentPoly(p.min_exp, tuple(p.coefficient(e) for e in span))


def _dense_matrix(rows: Rows) -> Matrix:
    return tuple(tuple(dense(x) for x in row) for row in rows)


def _identity(m: int) -> Rows:
    one, zero = DictLaurentPoly.one(), DictLaurentPoly.zero()
    return [[one if i == j else zero for j in range(m)] for i in range(m)]


def _mat_mul(a: Rows, b: Rows) -> Rows:
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = DictLaurentPoly.zero()
            for k in range(m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


@cache
def _generator_matrix(
    n: int, g: int
) -> tuple[tuple[DictLaurentPoly, ...], ...]:
    """Reduced Burau image of the letter ``g`` in the group on ``n`` strands."""
    m = n - 1
    t = DictLaurentPoly.term(1, 1)
    tinv = DictLaurentPoly.term(1, -1)
    one = DictLaurentPoly.one()
    rows = _identity(m)
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

    m = _identity(w.index - 1)
    for g in w.letters:
        m = _mat_mul(m, _generator_matrix(w.index, g))
    return _dense_matrix(m)


def _columns(w: BraidWord) -> Rows:
    # a letter g differs from the identity only in column c = |g| - 1,
    # whose rows c - 1, c, c + 1 hold t, -t, 1 for a positive letter and
    # 1, -t^-1, t^-1 for a negative one (rows outside the matrix
    # dropped), so each letter rewrites one column of the running product
    m = w.index - 1
    zero = DictLaurentPoly.zero()
    rows = _identity(m)
    for g in w.letters:
        c = abs(g) - 1
        for row in rows:
            left = row[c - 1] if c > 0 else zero
            right = row[c + 1] if c + 1 < m else zero
            if g > 0:
                row[c] = (left - row[c]).shift(1) + right
            else:
                row[c] = left + (right - row[c]).shift(-1)
    return rows


def column_burau(w: BraidWord) -> Matrix:
    """Reduced Burau matrix of a word, one column update per letter."""
    return _dense_matrix(_columns(w))


def _dict_det(mat: Rows) -> DictLaurentPoly:
    # fraction-free Bareiss elimination (Math. Comp. 22, 1968): each
    # entry update divides exactly by the previous pivot, and a zero
    # pivot is replaced by a row swap that flips the sign
    a = [list(row) for row in mat]
    m = len(a)
    if m == 0:
        return DictLaurentPoly.one()
    sign, prev = 1, DictLaurentPoly.one()
    for k in range(m - 1):
        if a[k][k].is_zero():
            rest = [i for i in range(k + 1, m) if not a[i][k].is_zero()]
            if not rest:
                return DictLaurentPoly.zero()
            a[k], a[rest[0]] = a[rest[0]], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (
                    a[i][j] * pivot - a[i][k] * a[k][j]
                ).exact_div(prev)
        prev = pivot
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def _det(mat: Rows) -> LaurentPoly:
    """Determinant of a square matrix of ``DictLaurentPoly`` entries."""
    return dense(_dict_det(mat))


def alexander(w: BraidWord) -> LaurentPoly:
    """Normalized one variable Alexander polynomial of the closure."""

    if w.index == 1:
        return LaurentPoly.one()
    one = DictLaurentPoly.one()
    rows = _columns(w)
    for i, row in enumerate(rows):
        row[i] = row[i] - one
    det = _dict_det(rows)
    cycle = DictLaurentPoly({e: 1 for e in range(w.index)})
    return dense(det.exact_div(cycle).normalized())


def packed_alexander(w: BraidWord) -> LaurentPoly:
    """The packed Alexander polynomial of the cyclically reduced word."""

    if w.index == 1:
        return LaurentPoly.one()
    cols, exps, k = _packed_burau(cyclic_reduce(w))
    bound, coeffs = 1, []
    for j, col in enumerate(cols):
        col[j] -= 1 << k * exps[j]
        low = min(
            (((x & -x).bit_length() - 1) // k for x in col if x), default=0
        )
        exps[j] -= low
        entries = [_digits(x >> k * low, k) for x in col]
        bound *= max(sum(sum(map(abs, cs)) ** 2 for cs in entries), 1)
        coeffs.append(entries)
    kd = (isqrt(bound) + 1).bit_length() + 1
    det = _bareiss([[_pack(cs, kd) for cs in row] for row in zip(*coeffs)])
    quotient = _divide_geometric(_digits(det, kd), w.index)
    return LaurentPoly(-sum(exps), tuple(quotient)).normalized()
