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
from itertools import zip_longest

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


@dataclass(frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial in one variable ``t``.

    ``coeffs[i]`` is the coefficient of ``t^(low + i)``.  Construction
    trims zeros at both ends and the zero polynomial is ``(0, ())``, so
    field equality is polynomial equality.
    """

    low: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = self.coeffs
        if c and c[0] and c[-1]:
            return
        start, end = 0, len(c)
        while start < end and not c[start]:
            start += 1
        while end > start and not c[end - 1]:
            end -= 1
        object.__setattr__(self, "low", self.low + start if start < end else 0)
        object.__setattr__(self, "coeffs", c[start:end])

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def term(coeff: int, exp: int = 0) -> "LaurentPoly":
        return LaurentPoly(exp, (coeff,))

    def items(self) -> list[tuple[int, int]]:
        return [(e, c) for e, c in enumerate(self.coeffs, self.low) if c]

    def is_zero(self) -> bool:
        return not self.coeffs

    def _aligned(self, other: "LaurentPoly"):
        # both coefficient lists padded to start at the lower exponent
        low = min(self.low, other.low)
        return low, zip_longest(
            (0,) * (self.low - low) + self.coeffs,
            (0,) * (other.low - low) + other.coeffs,
            fillvalue=0,
        )

    # tuples are built from lists, not generators: a generator's tuple is
    # resized from a guessed size, which fills CPython's tuple free lists
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        low, pairs = self._aligned(other)
        return LaurentPoly(low, tuple([a + b for a, b in pairs]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        low, pairs = self._aligned(other)
        return LaurentPoly(low, tuple([a - b for a, b in pairs]))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple([-c for c in self.coeffs]))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs, i):
                out[j] += a * b
        return LaurentPoly(self.low + other.low, tuple(out))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``t^k``."""
        return LaurentPoly(self.low + k, self.coeffs)

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly, raising :class:`DivisibilityFailure` on remainder."""
        den = divisor.coeffs
        if not den:
            raise DivisibilityFailure("division by the zero polynomial")
        # long division from the top coefficient down
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(den) + 1, 0)
        for i in reversed(range(len(quot))):
            q, r = divmod(rem[i + len(den) - 1], den[-1])
            if r:
                raise DivisibilityFailure("nonzero remainder")
            quot[i] = q
            for j, d in enumerate(den, i):
                rem[j] -= q * d
        if any(rem):
            raise DivisibilityFailure("nonzero remainder")
        return LaurentPoly(self.low - divisor.low, tuple(quot))

    def normalized(self) -> "LaurentPoly":
        """Scale by a unit so the lowest exponent is 0 with positive coefficient."""
        if self.coeffs and self.coeffs[0] < 0:
            return (-self).shift(-self.low)
        return self.shift(-self.low)

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
    return det.exact_div(LaurentPoly(0, (1,) * w.index)).normalized()


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
