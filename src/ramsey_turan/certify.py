"""Exact certification of colorings, witnesses, edge formulas and partitions.

Every verdict is backed by a completed exact search, and every failing
certificate carries a concrete witness (a monochromatic clique, an
independent set, or a violating edge) that can be re-checked in time
quadratic in the witness size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

from .graphs import (
    ColoredGraph,
    Graph,
    VertexPartition,
    _check_clique_sizes,
    _check_order,
    _complement_rows,
    _omega,
    clique_number,
    independence_number,
    min_crossing_degree,
)
from .report import bounds_36, bounds_37


@dataclass(frozen=True)
class CheckRow:
    """One named measurement compared against a bound (measured <= bound)."""

    name: str
    measured: object
    bound: object
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass
class Certificate:
    status: str
    checks: list[CheckRow]
    witness: tuple[int, ...] | None
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _finish(checks: list[CheckRow], witness, params) -> Certificate:
    status = "pass" if all(row.passed for row in checks) else "fail"
    return Certificate(status=status, checks=checks, witness=witness, params=params)


def check_colored_free(cg: ColoredGraph, p: int, q: int) -> Certificate:
    """Pass iff color 1 has no K_p and color 2 has no K_q (exact search)."""
    _check_clique_sizes(p, q)
    checks = []
    witness = None
    for color, cap in ((1, p), (2, q)):
        omega, clique = clique_number(cg.color_class(color))
        ok = omega < cap
        checks.append(
            CheckRow(f"color{color}_max_clique", omega, cap - 1, _verdict(ok))
        )
        if not ok and witness is None:
            witness = tuple(sorted(clique[:cap]))
    return _finish(checks, witness, {"p": p, "q": q, "n": cg.n})


def check_rt_witness(cg: ColoredGraph, p: int, q: int, m: int) -> Certificate:
    """check_colored_free plus an exact independence-number cap."""
    if m < 1:
        raise ValueError("independence cap must be >= 1")
    base = check_colored_free(cg, p, q)
    alpha, ind_witness = independence_number(cg.graph)
    alpha_ok = alpha <= m
    checks = list(base.checks)
    checks.append(CheckRow("alpha", alpha, m, _verdict(alpha_ok)))
    witness = base.witness
    if witness is None and not alpha_ok:
        witness = ind_witness
    e = cg.graph.edge_count
    params = {
        "p": p,
        "q": q,
        "m": m,
        "n": cg.n,
        "edges": e,
        "alpha": alpha,
        "density": Fraction(e, cg.n * cg.n) if cg.n else Fraction(0),
    }
    return _finish(checks, witness, params)


FORMULAS = {
    "kkl36": lambda d: bounds_36(d)[0],
    "c37": lambda d: bounds_37(d)[0],
}


def edge_formula_check(cg: ColoredGraph, formula: str, delta, tol) -> Certificate:
    """Pass iff |e(G) - coefficient(delta) * n^2| <= tol * n^2, exactly.

    The coefficients are the density formulas at an independence scale
    delta in [0, 1); any other delta raises ``ValueError``.
    """
    key = formula.lower()
    if key not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; expected kkl36 or c37")
    delta = Fraction(delta)
    if not 0 <= delta < 1:
        raise ValueError(f"delta={delta} outside [0, 1)")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = cg.n
    target = FORMULAS[key](delta) * n * n
    e = cg.graph.edge_count
    gap = abs(Fraction(e) - target)
    bound = tol * n * n
    checks = [CheckRow("edge_count_gap", gap, bound, _verdict(gap <= bound))]
    params = {
        "formula": key,
        "delta": delta,
        "tol": tol,
        "n": n,
        "edges": e,
        "target": target,
    }
    return _finish(checks, None, params)


def _triangle_free_colorings(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """K_n's edges and its 2-colorings with no monochromatic triangle.

    A coloring is a mask over the edge list: bit i set puts edge i in color 1.
    """
    edges = list(combinations(range(n), 2))
    edge_index = {e: i for i, e in enumerate(edges)}
    tri_masks = [
        sum(1 << edge_index[e] for e in combinations(tri, 2))
        for tri in combinations(range(n), 3)
    ]
    survivors = [
        mask
        for mask in range(1 << len(edges))
        if not any(mask & tm == tm or mask & tm == 0 for tm in tri_masks)
    ]
    return edges, survivors


def _is_five_cycle(g: Graph) -> bool:
    # a 2-regular simple graph is a disjoint union of cycles of length >= 3,
    # and 5 is no sum of two or more such lengths, so on 5 vertices it is C_5
    return g.n == 5 and all(g.degree(v) == 2 for v in range(5))


def pentagonlike_census() -> tuple[int, bool]:
    """Sweep all 1024 two-colorings of K5.

    Returns the number with no monochromatic triangle and whether every
    survivor has both color classes isomorphic to the 5-cycle.
    """
    edges, survivors = _triangle_free_colorings(5)
    full = (1 << len(edges)) - 1
    all_pentagon = all(
        _is_five_cycle(
            Graph.from_edges(5, [e for i, e in enumerate(edges) if (want >> i) & 1])
        )
        for mask in survivors
        for want in (mask, full ^ mask)
    )
    return len(survivors), all_pentagon


def mono_triangle_free_count(n: int) -> int:
    """Number of 2-colorings of E(K_n) with no monochromatic triangle."""
    return len(_triangle_free_colorings(_check_order(n))[1])


@dataclass(frozen=True)
class AuditConfig:
    """Slack scale for the eight-property partition audit.

    Thresholds are c * gamma**(1/k) * n for the fixed table in
    ``audit_partition``; gamma must lie strictly between 0 and 1.
    """

    gamma: Fraction

    def __post_init__(self):
        g = Fraction(self.gamma)
        if not 0 < g < 1:
            raise ValueError(f"gamma={self.gamma} outside (0, 1)")


def audit_partition(
    cg: ColoredGraph, part: VertexPartition, cfg: AuditConfig
) -> Certificate:
    """Audit the eight structural properties of a six-part partition.

    Each part is tried in the distinguished sixth role with each cyclic order
    of the remaining five in the cyclic roles, and the best-scoring
    assignment is reported.  The third property is evaluated both as printed
    (for every cyclic index) and in the weaker exists-an-index reading.

    No row tells apart the ten listings of one cyclic order (its rotations
    and reflections): P3 and P3_exists compare roles i and i+2, P4 roles i
    and i+1, P8_deg1_far pairs each role with those at cyclic distance 2 and
    P8_deg2_near with those at distance 1, and rotating or reflecting the
    cycle only permutes these pairs; P2, P7 and P8_alpha depend only on which
    part is sixth, and P1, P5 and P6 on no role at all.  So for each sixth
    part only the 12 listings that start with the least other part and whose
    second entry is below their last are measured, 72 assignments in all.
    That listing is the lexicographically least of its class, and the
    tie-break key ends in ``(x6, roles)``, so it is the one that scoring all
    720 listings would report.
    """
    if part.p != 6:
        raise ValueError(f"audit needs exactly 6 parts, got {part.p}")
    if part.n != cg.n:
        raise ValueError("partition does not match graph")
    n = cg.n
    g = cg.graph
    g1 = cg.color_class(1)
    g2 = cg.color_class(2)
    sizes = [len(p) for p in part.parts]
    masks = part.masks

    deg1 = [[(g1.adj[v] & m).bit_count() for m in masks] for v in range(n)]
    # miss[i][j]: most vertices of part j that one vertex of part i is not
    # joined to in that color class (0 when part i is empty)
    miss1, miss2 = (
        [
            [
                max((s - (adj[v] & m).bit_count() for v in p), default=0)
                for m, s in zip(masks, sizes)
            ]
            for p in part.parts
        ]
        for adj in (g1.adj, g2.adj)
    )
    co1, co2 = _complement_rows(g1.adj), _complement_rows(g2.adj)
    alpha1 = [_omega(co1, m, None)[0] for m in masks]
    alpha2 = [_omega(co2, m, None)[0] for m in masks]
    inner_delta = [
        max(((g.adj[v] & masks[j]).bit_count() for v in part.parts[j]), default=0)
        for j in range(6)
    ]
    dcr = min_crossing_degree(g, part)

    # row -> (c, k): the row passes iff measured <= c * gamma**(1/k) * n,
    # that is iff measured <= 0 or measured**k <= (c * n)**k * gamma; with
    # gamma = a/b and measured = p/q, iff p <= 0 or p**k * b <= q**k * top,
    # top = (c * n)**k * a
    exps = {
        "P1": (2, 4),
        "P2": (1, 4),
        "P3": (1, 59),
        "P3_exists": (1, 59),
        "P4": (1, 60),
        "P5": (1, 117),
        "P6": (1, 118),
        "P7": (1, 119),
        "P8_alpha": (1, 4),
        "P8_deg1_far": (1, 119),
        "P8_deg2_near": (1, 119),
    }
    gamma = Fraction(cfg.gamma)
    a, b = gamma.as_integer_ratio()
    top = {name: (c * n) ** k * a for name, (c, k) in exps.items()}
    # displayed bounds only; every verdict compares exactly against top
    bound_for = {
        name: c * (float(gamma) ** (1 / k) * n) for name, (c, k) in exps.items()
    }

    def decide(rows: dict) -> dict:
        ok = {}
        for name, value in rows.items():
            p, q = value.as_integer_ratio()
            k = exps[name][1]
            ok[name] = p <= 0 or p ** k * b <= q ** k * top[name]
        return ok

    target = Fraction(n, 6)
    fixed = {
        "P1": max(abs(Fraction(s) - target) for s in sizes),
        "P5": max(inner_delta),
        "P6": target - dcr,
    }
    fixed_ok = decide(fixed)

    best = None
    for x6 in range(6):
        rest = [i for i in range(6) if i != x6]
        own = {
            "P2": alpha1[x6],
            "P7": max(miss2[i][x6] for i in rest),
            "P8_alpha": max(alpha2[i] for i in rest),
        }
        own_ok = decide(own)
        # P3, P3_exists and P4 are maxima over these rows, so each distinct
        # row is scored once
        x6_rows = {tuple(deg1[v]) for v in part.parts[x6]}
        for tail in permutations(rest[1:]):
            if tail[0] > tail[-1]:
                continue
            roles = (rest[0], *tail)
            p3_all = p3_exists = p4 = 0
            for row in x6_rows:
                mins = [
                    min(row[roles[i]], row[roles[(i + 2) % 5]]) for i in range(5)
                ]
                p3_all = max(p3_all, max(mins))
                p3_exists = max(p3_exists, min(mins))
                p4 = max(
                    p4,
                    min(row[roles[i]] + row[roles[(i + 1) % 5]] for i in range(5)),
                )
            cyclic = {
                "P3": p3_all,
                "P3_exists": p3_exists,
                "P4": p4,
                "P8_deg1_far": max(
                    miss1[roles[i]][roles[(i + d) % 5]]
                    for i in range(5)
                    for d in (2, 3)
                ),
                "P8_deg2_near": max(
                    miss2[roles[i]][roles[(i + d) % 5]]
                    for i in range(5)
                    for d in (1, 4)
                ),
            }
            ok = {**fixed_ok, **own_ok, **decide(cyclic)}
            # prefer assignments that pass more properties, then the ones
            # whose role-defining measurements sit lowest
            key = (-sum(ok.values()), own["P2"], p3_all, p4, own["P7"], x6, roles)
            if best is None or key < best[0]:
                best = (key, x6, roles, {**fixed, **own, **cyclic}, ok)
    _, x6, roles, meas, ok = best

    checks = [
        CheckRow(name, meas[name], bound_for[name], _verdict(ok[name]))
        for name in exps
    ]
    params = {
        "gamma": cfg.gamma,
        "n": n,
        "x6_part": x6,
        "role_parts": list(roles) + [x6],
        "min_crossing_degree": dcr,
        "part_sizes": sizes,
    }
    return _finish(checks, None, params)
