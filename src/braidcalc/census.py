"""Integer identity checks for tiled-annulus vertex and edge counts.

A census records, for an abstract singular-foliation tiling, the number
``V(a, b)`` of vertices met by ``a`` arcs of the first kind and ``b``
arcs of the second, plus three boundary-edge totals.  The checkers
verify the Euler-characteristic balance identities that every genuine
tiling satisfies; they are pure arithmetic on the count table, with no
geometric model behind them, and report exact residuals instead of
booleans so callers can see how far off an inconsistent table is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import _load_json, _typed

__all__ = [
    "VertexCensus",
    "EdgeCensus",
    "ConsistencyReport",
    "euler_balance_annulus",
    "euler_balance_surface",
    "edge_vertex_consistency",
    "minimal_complexity_advisory",
    "census_to_json",
    "census_from_json",
    "load_census",
]


@dataclass(frozen=True)
class VertexCensus:
    """Counts of vertex types: ``counts[(a, b)]`` vertices of type (a, b).

    The valence of a type is ``a + b``.  Zero counts are dropped so two
    censuses with the same support compare equal.
    """

    counts: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, counts=()):
        table: dict[tuple[int, int], int] = {}
        items = counts.items() if isinstance(counts, dict) else counts
        for (a, b), count in items:
            if a < 0 or b < 0 or count < 0:
                raise ValueError(
                    f"negative census entry: V({a},{b}) = {count}"
                )
            if count:
                table[a, b] = table.get((a, b), 0) + count
        object.__setattr__(
            self, "counts", tuple(sorted(table.items()))
        )

    def get(self, a: int, b: int) -> int:
        for key, count in self.counts:
            if key == (a, b):
                return count
        return 0

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    @property
    def a_total(self) -> int:
        return sum(a * count for (a, _), count in self.counts)

    @property
    def b_total(self) -> int:
        return sum(b * count for (_, b), count in self.counts)


@dataclass(frozen=True)
class EdgeCensus:
    """Boundary edge totals: a-edges, b-edges, and boundary s-arcs."""

    ea: int
    eb: int
    es: int

    def __post_init__(self):
        if self.ea < 0 or self.eb < 0 or self.es < 0:
            raise ValueError(f"negative edge count: {self}")


def _excess(a: int, b: int) -> int:
    # coefficient v + a - 4 at valence v = a + b
    return 2 * a + b - 4


def _positive_excess(vc: VertexCensus) -> int:
    # what the types of positive excess pay into a balance's right side
    excess = ((_excess(a, b), count) for (a, b), count in vc.counts)
    return sum(e * count for e, count in excess if e > 0)


def euler_balance_annulus(vc: VertexCensus, es: int) -> int:
    """Residual of the annulus balance identity; 0 means consistent.

    Low-valence types V(1,1), V(1,0), V(0,2), V(0,3) pay into the left
    side; each type with positive excess ``v + a - 4`` pays that excess
    into the right side along with twice the boundary s-arc count.
    Types of excess zero, such as (1,2), (2,0), (0,4), drop out.
    """

    lhs = (
        vc.get(1, 1)
        + 2 * vc.get(1, 0)
        + 2 * vc.get(0, 2)
        + vc.get(0, 3)
    )
    rhs = 2 * es + _positive_excess(vc)
    return lhs - rhs


def euler_balance_surface(vc: VertexCensus, chi: int) -> int:
    """Residual of the closed-surface variant, with 4 * chi on the right."""
    lhs = vc.get(1, 1) + 2 * vc.get(0, 2) + vc.get(0, 3)
    rhs = 4 * chi + _positive_excess(vc)
    return lhs - rhs


@dataclass(frozen=True)
class ConsistencyReport:
    """Residuals of the three vertex/edge double counts."""

    vertex_residual: int
    a_residual: int
    b_residual: int

    @property
    def ok(self) -> bool:
        return (
            self.vertex_residual == 0
            and self.a_residual == 0
            and self.b_residual == 0
        )


def edge_vertex_consistency(
    vc: VertexCensus, ec: EdgeCensus
) -> ConsistencyReport:
    """Check 2V = Ea + Eb + Es, sum(a) = Ea, and sum(b) = 2 Eb."""
    return ConsistencyReport(
        vertex_residual=2 * vc.total - (ec.ea + ec.eb + ec.es),
        a_residual=vc.a_total - ec.ea,
        b_residual=vc.b_total - 2 * ec.eb,
    )


def minimal_complexity_advisory(vc: VertexCensus) -> tuple[str, ...]:
    """Name the minimal-complexity constraints a census visibly violates.

    At minimal complexity under exchange moves and destabilizations, no
    vertex has type (1,0) and none has two or more a-arcs.  The third
    constraint of that family concerns interior-region counts this
    table does not carry, so it cannot be checked here.  Violations are
    advisory: the balance checkers accept such tables regardless.
    """

    notes = []
    if vc.get(1, 0):
        notes.append(f"V(1,0) = {vc.get(1, 0)}, expected 0")
    heavy = sorted(
        (key, count) for key, count in vc.counts if key[0] >= 2
    )
    for (a, b), count in heavy:
        notes.append(f"V({a},{b}) = {count}, expected 0 for a >= 2")
    return tuple(notes)


def census_to_json(
    vc: VertexCensus, ec: EdgeCensus, chi: int | None = None
) -> dict:
    data = {
        "V": [
            {"a": a, "b": b, "count": count}
            for (a, b), count in vc.counts
        ],
        "Ea": ec.ea,
        "Eb": ec.eb,
        "Es": ec.es,
    }
    if chi is not None:
        data["chi"] = chi
    return data


def census_from_json(data: dict) -> tuple[VertexCensus, EdgeCensus, int | None]:
    """Decode a census; every count must be a JSON integer.

    Missing edge totals are 0, and a missing ``chi`` means none.
    """
    vc = VertexCensus(
        [
            (
                (_typed(row["a"], "a", int), _typed(row["b"], "b", int)),
                _typed(row["count"], "count", int),
            )
            for row in _typed(data.get("V", []), "V", list)
        ]
    )
    ec = EdgeCensus(
        *(_typed(data.get(key, 0), key, int) for key in ("Ea", "Eb", "Es"))
    )
    chi = data.get("chi")
    return vc, ec, None if chi is None else _typed(chi, "chi", int)


def load_census(path) -> tuple[VertexCensus, EdgeCensus, int | None]:
    return census_from_json(_load_json(path))
