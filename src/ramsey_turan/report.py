"""Reference density constants and the lower/upper bound gap report.

All coefficients are edge-density coefficients of n^2 and are kept as exact
rationals; CSV output prints the exact fraction next to a decimal rendering.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

Fr = Fraction

# settled two-clique density constants, indexed by (p, q)
TABLE_CONSTANTS = {
    (3, 3): Fr(1, 4),
    (3, 4): Fr(1, 3),
    (3, 5): Fr(2, 5),
    (3, 6): Fr(5, 12),
    (3, 7): Fr(7, 16),
    (4, 3): Fr(1, 3),
    (4, 4): Fr(11, 28),
}

LOWER_36_QUAD = Fr(2)
UPPER_36_QUAD = Fr(841, 400)


@dataclass(frozen=True)
class ReportRow:
    """One density row; q is None for single-clique rows."""

    p: int
    q: int | None
    delta: Fraction
    lb_coeff: Fraction
    ub_coeff: Fraction
    source: str

    def __post_init__(self):
        if self.lb_coeff > self.ub_coeff:
            raise ValueError("lower bound exceeds upper bound")
        if self.source == "Table1" and self.delta != 0:
            raise ValueError("fixed-constant rows carry delta = 0")


def single_clique_density(p: int, delta) -> Fraction:
    """Exact density of a single clique constraint at independence scale delta."""
    delta = Fr(delta)
    if p < 3:
        raise ValueError("clique size must be >= 3")
    if p % 2:
        s = (p - 1) // 2
        return Fr(1, 2) * (Fr(s - 1, s) + delta)
    s = p // 2
    if s < 2:
        raise ValueError("even clique size must be >= 4")
    return Fr(1, 2) * (Fr(3 * s - 5, 3 * s - 2) + delta - delta * delta)


def bounds_36(delta) -> tuple[Fraction, Fraction]:
    """(lower, upper) (3,6) density coefficients at independence scale delta."""
    delta = Fr(delta)
    base = TABLE_CONSTANTS[(3, 6)] + delta / 2
    return base + LOWER_36_QUAD * delta**2, base + UPPER_36_QUAD * delta**2


def bounds_37(delta) -> tuple[Fraction, Fraction]:
    """(lower, upper) (3,7) density coefficients; both are the conjectured value."""
    delta = Fr(delta)
    value = TABLE_CONSTANTS[(3, 7)] + delta / 2
    return value, value


def _scale(delta) -> Fraction:
    """delta as a Fraction, which must lie in the open interval (0, 1)."""
    delta = Fr(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta={delta} outside (0, 1)")
    return delta


def reference_table(deltas=(), single_cliques=()) -> list[ReportRow]:
    """Fixed constants plus parametrized rows for the requested grids.

    ``deltas`` adds a two-clique (3,6) and (3,7) row per value; pairs
    ``(p, delta)`` in ``single_cliques`` add single-clique formula rows.
    Every requested delta must lie in (0, 1).
    """
    deltas = [_scale(d) for d in deltas]
    single_cliques = [(p, _scale(d)) for p, d in single_cliques]
    rows = [
        ReportRow(p, q, Fr(0), c, c, "Table1")
        for (p, q), c in sorted(TABLE_CONSTANTS.items())
    ]
    for delta in deltas:
        lb, ub = bounds_36(delta)
        rows.append(ReportRow(3, 6, delta, lb, ub, "Construction"))
        lb, ub = bounds_37(delta)
        rows.append(ReportRow(3, 7, delta, lb, ub, "Conjecture"))
    for p, delta in single_cliques:
        value = single_clique_density(p, delta)
        rows.append(ReportRow(p, None, delta, value, value, "Formula"))
    return rows


def bound_gap_report(delta_grid) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Rows (delta, lb, ub, gap) with gap = ub - lb = (41/400) * delta^2."""
    rows = []
    for delta in map(_scale, delta_grid):
        lb, ub = bounds_36(delta)
        rows.append((delta, lb, ub, ub - lb))
    return rows


def _cell(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return "" if value is None else str(value)


def gap_report_csv(delta_grid) -> str:
    out = io.StringIO()
    out.write("delta,lb,ub,gap,delta_dec,lb_dec,ub_dec,gap_dec\n")
    for row in bound_gap_report(delta_grid):
        exact = ",".join(_cell(v) for v in row)
        decimal = ",".join(repr(float(v)) for v in row)
        out.write(f"{exact},{decimal}\n")
    return out.getvalue()


def reference_table_csv(deltas=(), single_cliques=()) -> str:
    out = io.StringIO()
    out.write("p,q,delta,lb,ub,source,delta_dec,lb_dec,ub_dec\n")
    for row in reference_table(deltas, single_cliques):
        out.write(
            ",".join(
                [
                    str(row.p),
                    _cell(row.q),
                    _cell(row.delta),
                    _cell(row.lb_coeff),
                    _cell(row.ub_coeff),
                    row.source,
                    repr(float(row.delta)),
                    repr(float(row.lb_coeff)),
                    repr(float(row.ub_coeff)),
                ]
            )
            + "\n"
        )
    return out.getvalue()
