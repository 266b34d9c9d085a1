"""Link fingerprints of braid closures.

The fingerprint of a word pairs the component count of its closure with
the one variable Alexander polynomial

    alexander(w) = det(burau(w) - I) / (1 + t + ... + t^(n-1))

normalized so the lowest exponent is zero and the lowest coefficient is
positive.  One column recurrence builds the reduced Burau matrix on
packed integers (Kronecker substitution): every entry is evaluated at
t = 2^K, column j scaled by t^e_j so that a letter's t^-1 stays
integral.  ``burau`` decodes the columns; ``alexander`` subtracts the
identity and takes the determinant by integer Bareiss elimination,
whose divisions are exact.  Packed values are read back as balanced
base 2^K digits, exact when every coefficient is below 2^(K-1) in
size.  K is sized twice.  A per-column recurrence on L1 norms bounds
the entries; decoding them gives their true L1 norms, and since a
coefficient is at most the polynomial's maximum on the unit circle,
Hadamard's bound there (the product of the column norms) bounds the
determinant and fixes the K it is computed at.  The division by
``1 + ... + t^(n-1)`` runs on the determinant's digits.
The polynomial is read from the word's core, which closes to the same
link: the cyclically reduced word after every Markov destabilization
that a lone sigma_(n-1), or a lone sigma_1 after conjugating by the half
twist, allows.  A core lacking a generator closes to a split link, whose
polynomial is 0 with no Burau matrix.  The component count, a link
invariant too, is read from the word as given.  Both entries are
unchanged by conjugation, by both stabilizations and by exchange moves,
so a fingerprint mismatch certifies that two closures are different
links.
The self linking number, exponent sum minus strand count, is
deliberately kept out of the fingerprint: it drops by two under
negative stabilization and is reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import add

from .words import (
    BraidWord, _cut_seam, _derived, _least_rotation, closure_components,
    cyclic_reduce, exponent_sum,
)

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
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    def items(self) -> list[tuple[int, int]]:
        return [(e, c) for e, c in enumerate(self.coeffs, self.low) if c]

    def is_zero(self) -> bool:
        return not self.coeffs

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``t^k``."""
        return LaurentPoly(self.low + k, self.coeffs)

    def normalized(self) -> "LaurentPoly":
        """Scale by a unit so the lowest exponent is 0 with positive coefficient."""
        sign = -1 if self.coeffs and self.coeffs[0] < 0 else 1
        return LaurentPoly(0, tuple([sign * c for c in self.coeffs]))

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

    cols, exps, k = _packed_burau(w)
    cols = [
        [LaurentPoly(-e, tuple(_digits(x, k))) for x in col]
        for col, e in zip(cols, exps)
    ]
    return tuple(zip(*cols))


def _digits(x: int, k: int) -> list[int]:
    # the coefficients, lowest first, of the polynomial p with p(2^k) = x
    # whose coefficients lie in [-2^(k-1), 2^(k-1)): balanced base 2^k
    # digits, unique when every true coefficient is that small.  Long
    # numbers split in halves, so the cost is not quadratic in the length
    count = x.bit_length() // k + 1
    if count > 64:
        h = count // 2
        # the low h digits make a value in [-shift, 2^(kh) - shift)
        shift = int(f"{1 << (k - 1):b}" * h, 2)
        low = ((x + shift) & ((1 << k * h) - 1)) - shift
        digits = _digits(low, k)
        high = _digits((x - low) >> k * h, k)
        return digits + [0] * (h - len(digits)) + high
    mask, offset = (1 << k) - 1, 1 << (k - 1)
    out = []
    while x:
        d = ((x + offset) & mask) - offset
        out.append(d)
        x = (x - d) >> k
    return out


def _pack(coeffs: list[int], k: int) -> int:
    # the polynomial with these coefficients, lowest first, at 2^k
    if len(coeffs) > 64:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], k) + (_pack(coeffs[h:], k) << k * h)
    x = 0
    for c in reversed(coeffs):
        x = (x << k) + c
    return x


def _packed_burau(w: BraidWord) -> tuple[list[list[int]], list[int], int]:
    # the columns of burau(w) evaluated at t = 2^k, with column j stored
    # times t^e_j so that every entry is a polynomial, then the e_j and
    # k.  A letter rewrites column c from its neighbours, its t and t^-1
    # folded into shifts by the least exponent that keeps the column
    # integral.
    m = w.index - 1
    # a rewritten entry's L1 norm is at most the sum of its three
    # sources', so with the running column maxima, max(l1) + 1 bounds
    # every coefficient of burau(w) and of burau(w) - I
    l1 = [0, *[1] * m, 0]
    for g in w.letters:
        c = abs(g)
        l1[c] += l1[c - 1] + l1[c + 1]
    k = (max(l1) + 1).bit_length() + 1
    pad = [0] * m
    cols = [pad, *([int(i == j) for i in range(m)] for j in range(m)), pad]
    bits = [0] * (m + 2)  # k * e_j, with a zero column on either side
    for g in w.letters:
        c = abs(g)
        el, ec, er = bits[c - 1], bits[c], bits[c + 1]
        if g > 0:  # t * (left - col) + right
            e = max(el - k, ec - k, er)
            sl, sc, sr = e + k - el, e + k - ec, e - er
        else:  # left + t^-1 * (right - col)
            e = max(el, ec + k, er + k)
            sl, sc, sr = e - el, e - k - ec, e - k - er
        cols[c] = [
            (a << sl) - (b << sc) + (d << sr)
            for a, b, d in zip(cols[c - 1], cols[c], cols[c + 1])
        ]
        bits[c] = e
    return cols[1:-1], [b // k for b in bits[1:-1]], k


def _divide_geometric(p: list[int], n: int) -> list[int]:
    # the coefficients, lowest first, of p / (1 + t + ... + t^(n-1)):
    # from p (1 - t) = q (1 - t^n), q_i = p_i - p_(i-1) + q_(i-n), and
    # the division is exact when the top n - 1 places of q vanish
    q, prev = [], 0
    for i, c in enumerate(p):
        q.append(c - prev + (q[i - n] if i >= n else 0))
        prev = c
    cut = max(len(p) - n + 1, 0)
    if any(q[cut:]):
        raise DivisibilityFailure("nonzero remainder")
    return q[:cut]


def _bareiss(a: list[list[int]]) -> int:
    # integer Bareiss elimination (Math. Comp. 22, 1968): each update
    # divides exactly by the previous pivot, and a zero pivot is
    # replaced by a row swap that flips the sign
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        if not a[k][k]:
            rest = [i for i in range(k + 1, m) if a[i][k]]
            if not rest:
                return 0
            a[k], a[rest[0]] = a[rest[0]], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, m):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def alexander(w: BraidWord) -> LaurentPoly:
    """Normalized one variable Alexander polynomial of the closure.

    Works on the word's core, which closes to the same link.  Returns 1
    when the core has one strand, 0 when it lacks a generator (an
    obviously split closure) or its Burau determinant vanishes, and
    otherwise the exact quotient by ``1 + t + ... + t^(n-1)``
    normalized up to units.
    """

    w = _core(w)
    if w.index == 1:
        return LaurentPoly.one()
    if len(set(map(abs, w.letters))) < w.index - 1:
        return LaurentPoly()
    cols, exps, k = _packed_burau(w)
    # each coefficient of the determinant is at most its maximum on
    # the unit circle, which Hadamard bounds by the product of the
    # column norms, and an entry's modulus there is at most its L1 norm;
    # `bound` is that product squared.  With every factor at least 1 it
    # covers each minor that Bareiss tests for zero too, so the row
    # swaps are those of the Laurent elimination.
    bound, coeffs = 1, []
    for j, col in enumerate(cols):
        col[j] -= 1 << k * exps[j]
        # drop the column's common power of t: a nonzero x has fewer
        # than k trailing zero bits above its lowest nonzero field
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


@dataclass(frozen=True)
class Fingerprint:
    """Closure component count paired with the Alexander polynomial."""

    components: int
    alexander: LaurentPoly

    def __str__(self) -> str:
        return f"components={self.components} alexander={self.alexander}"


def fingerprint(w: BraidWord) -> Fingerprint:
    """The move invariant fingerprint of the word's closure.

    Components are counted on the word as given; ``alexander`` cores it.
    """
    return Fingerprint(closure_components(w), alexander(w))


def _core(w: BraidWord) -> BraidWord:
    # the cyclically reduced word, then while sigma_(n-1), or else
    # sigma_1, occurs once: that letter deleted with the letters after
    # it rotated to the front, so that only the seam can cancel, and cut
    if 0 in map(add, w.letters, w.letters[1:] + w.letters[:1]):
        w = cyclic_reduce(w)
    n, letters = w.index, w.letters
    while n > 1:
        count = letters.count
        if count(n - 1) + count(1 - n) == 1:
            g = n - 1
        elif count(1) + count(-1) == 1:
            g = 1
        else:
            break
        i = letters.index(g if count(g) else -g)
        rest = letters[i + 1 :] + letters[:i]
        if g == 1:  # the half twists on n and n - 1 strands: k -> k - 1
            rest = tuple([x - 1 if x > 0 else x + 1 for x in rest])
        n -= 1
        letters = _cut_seam(rest)
    return w if n == w.index else _derived(n, letters)


def _closed(w: BraidWord) -> tuple[tuple[int, tuple[int, ...]], BraidWord]:
    # (key, core): words with one key have cores that rotate to each other
    core = _core(w)
    return _least_rotation(core), core


def _closed_fingerprint(prints: dict, key, core: BraidWord) -> Fingerprint:
    # fingerprint(core) through the caller's memo, which lives for one
    # call; key and core come from _closed
    fp = prints.get(key)
    if fp is None:
        fp = prints[key] = fingerprint(core)
    return fp


def self_linking(w: BraidWord) -> int:
    """Exponent sum minus strand count."""
    return exponent_sum(w) - w.index
