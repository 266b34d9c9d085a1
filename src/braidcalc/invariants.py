"""Link fingerprints of braid closures.

The fingerprint of a word pairs the component count of its closure with
the one variable Alexander polynomial, computed exactly from the reduced
Burau representation over integer Laurent polynomials:

    alexander(w) = det(burau(w) - I) / (1 + t + ... + t^(n-1))

normalized so the lowest exponent is zero and the lowest coefficient is
positive.  The Burau product is built by rewriting one column per
letter and the determinant by fraction-free Bareiss elimination, whose
divisions are exact, so both take time polynomial in the strand count
and the word length.  Both entries are unchanged by conjugation, by both
stabilizations and by exchange moves, so a fingerprint mismatch
certifies that two closures are different links.  The self linking
number, exponent sum minus strand count, is deliberately kept out of
the fingerprint: it drops by two under negative stabilization and is
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, closure_components, exponent_sum

__all__ = [
    "LaurentPoly",
    "DivisibilityFailure",
    "burau",
    "alexander",
    "Fingerprint",
    "fingerprint",
    "self_linking",
]


class DivisibilityFailure(ArithmeticError):
    """Raised when a Laurent quotient that must be exact is not."""


class LaurentPoly:
    """An integer Laurent polynomial in one variable ``t``.

    Immutable; stores only nonzero coefficients keyed by exponent.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def term(coeff: int, exp: int = 0) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

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
            isinstance(other, LaurentPoly) and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``t^k``."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly, raising :class:`DivisibilityFailure` on remainder."""
        if divisor.is_zero():
            raise DivisibilityFailure("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
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
        return LaurentPoly(quot).shift(shift_back)

    def normalized(self) -> "LaurentPoly":
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
        return f"LaurentPoly({dict(self.items())!r})"


Matrix = tuple[tuple[LaurentPoly, ...], ...]


def burau(w: BraidWord) -> Matrix:
    """Reduced Burau matrix of a word, exact over Laurent integers.

    The matrix has shape ``(n - 1) x (n - 1)``; the empty word on one
    strand yields the empty matrix.  A letter ``g`` differs from the
    identity only in column ``c = |g| - 1``, whose rows ``c - 1, c, c + 1``
    hold ``t, -t, 1`` for a positive letter and ``1, -t^-1, t^-1`` for a
    negative one (rows outside the matrix dropped), so each letter
    rewrites one column of the running product.
    """

    m = w.index - 1
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    rows = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for g in w.letters:
        c = abs(g) - 1
        for row in rows:
            left = row[c - 1] if c > 0 else zero
            right = row[c + 1] if c + 1 < m else zero
            if g > 0:
                row[c] = (left - row[c]).shift(1) + right
            else:
                row[c] = left + (right - row[c]).shift(-1)
    return tuple(tuple(row) for row in rows)


def _det(mat: Matrix) -> LaurentPoly:
    # fraction-free Bareiss elimination (Math. Comp. 22, 1968): each
    # entry update divides exactly by the previous pivot, and a zero
    # pivot is replaced by a row swap that flips the sign
    a = [list(row) for row in mat]
    m = len(a)
    if m == 0:
        return LaurentPoly.one()
    sign, prev = 1, LaurentPoly.one()
    for k in range(m - 1):
        if a[k][k].is_zero():
            rest = [i for i in range(k + 1, m) if not a[i][k].is_zero()]
            if not rest:
                return LaurentPoly.zero()
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


def alexander(w: BraidWord) -> LaurentPoly:
    """Normalized one variable Alexander polynomial of the closure.

    Returns 1 for the one strand closure, 0 when the Burau determinant
    vanishes (split closures included), and otherwise the exact quotient
    by ``1 + t + ... + t^(n-1)`` normalized up to units.
    """

    if w.index == 1:
        return LaurentPoly.one()
    one = LaurentPoly.one()
    det = _det(
        tuple(
            tuple(x - one if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(burau(w))
        )
    )
    if det.is_zero():
        return LaurentPoly.zero()
    divisor = LaurentPoly({k: 1 for k in range(w.index)})
    return det.exact_div(divisor).normalized()


@dataclass(frozen=True)
class Fingerprint:
    """Closure component count paired with the Alexander polynomial."""

    components: int
    alexander: LaurentPoly

    def __str__(self) -> str:
        return f"components={self.components} alexander={self.alexander}"


def fingerprint(w: BraidWord) -> Fingerprint:
    """The move invariant fingerprint of the word's closure."""
    return Fingerprint(closure_components(w), alexander(w))


def self_linking(w: BraidWord) -> int:
    """Exponent sum minus strand count."""
    return exponent_sum(w) - w.index
