"""Brute-force oracles: canonical small-graph enumeration, edge-coloring
backtracking, and exact extremal edge counts at desk scale.

Everything here is self-contained exhaustive search — no heuristics and no
external canonical-labeling dependency — so results double as independent
checks of the construction and certification modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .certify import Certificate, check_rt_witness
from .constructions import _complete_multipartite
from .graphs import (
    ColoredGraph,
    EdgeColoring,
    Graph,
    _clique_engine,
    independence_number,
)


class SearchBudgetExceeded(RuntimeError):
    """The node-expansion budget ran out before the search completed."""


def canonical_form(g: Graph) -> int:
    """Lex-min adjacency bitstring over all vertex relabelings.

    The string lists the upper triangle in column order (the graph6 bit
    order); earlier bits are more significant, so comparing encoded integers
    of equal-order graphs is the same as comparing the strings.  Backtracking
    over partial labelings prunes any prefix that already exceeds the best.
    """
    n = g.n
    nbits = n * (n - 1) // 2
    if n <= 1:
        return 0
    adj = g.adj
    best: int | None = None

    def extend(chosen: list[int], used: int, prefix: int, length: int):
        nonlocal best
        k = len(chosen)
        if k == n:
            if best is None or prefix < best:
                best = prefix
            return
        for v in range(n):
            if (used >> v) & 1:
                continue
            chunk = 0
            row = adj[v]
            for u in chosen:
                chunk = (chunk << 1) | ((row >> u) & 1)
            new_prefix = (prefix << k) | chunk
            new_length = length + k
            if best is not None and new_prefix > (best >> (nbits - new_length)):
                continue
            extend(chosen + [v], used | (1 << v), new_prefix, new_length)

    extend([], 0, 0, 0)
    return best


def graph_from_canonical(n: int, mask: int) -> Graph:
    """Inverse of the canonical bit layout (column-major upper triangle)."""
    nbits = n * (n - 1) // 2
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> (nbits - 1 - pos)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


@lru_cache(maxsize=None)
def enumerate_canonical_graphs(n: int) -> tuple[int, ...]:
    """All isomorphism classes of n-vertex graphs as canonical masks.

    Built by extending each (n-1)-vertex class with every possible
    neighborhood for a new vertex and canonicalizing; practical for n <= 8.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (0,)
    smaller = enumerate_canonical_graphs(n - 1)
    found = set()
    for mask in smaller:
        base = graph_from_canonical(n - 1, mask)
        rows = list(base.adj) + [0]
        for nbhd in range(1 << (n - 1)):
            rows[n - 1] = nbhd
            for v in range(n - 1):
                if (nbhd >> v) & 1:
                    rows[v] |= 1 << (n - 1)
                else:
                    rows[v] &= ~(1 << (n - 1))
            found.add(canonical_form(Graph(n, rows)))
    return tuple(sorted(found))


@dataclass
class ColoringSearch:
    """Outcome of the free-coloring backtracker.

    ``coloring is None`` with ``exhausted=True`` is a proof that no coloring
    exists; with ``exhausted=False`` the budget ran out first.
    """

    coloring: EdgeColoring | None
    exhausted: bool
    nodes: int


def find_free_coloring(
    g: Graph, p: int, q: int, budget: int = 10**6
) -> ColoringSearch:
    """Backtracking search for a 2-coloring with no K_p in color 1 and no K_q
    in color 2.

    Edges are processed by descending endpoint degree sum (ties by vertex
    pair) and color 1 is tried first, so witnesses are reproducible.  Each
    attempted edge-color assignment counts one node against the budget.
    """
    if p < 2 or q < 2:
        raise ValueError("clique sizes must be >= 2")
    if budget <= 0:
        raise ValueError("budget must be positive")
    edges = sorted(
        g.edges(), key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e)
    )
    n = g.n
    adj = {1: [0] * n, 2: [0] * n}
    # a K_p (K_q) through uv is a K_{p-2} (K_{q-2}) in their common neighbourhood
    needs = {1: p - 2, 2: q - 2}
    assignment: dict[tuple[int, int], int] = {}
    nodes = 0

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == len(edges):
            return True
        u, v = edges[idx]
        for c in (1, 2):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded()
            rows = adj[c]
            need = needs[c]
            common = rows[u] & rows[v]
            if need > 0 and (
                not common or _clique_engine(rows, common, need - 1, need)[0] < need
            ):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                assignment[(u, v)] = c
                if place(idx + 1):
                    return True
                del assignment[(u, v)]
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
        return False

    try:
        found = place(0)
    except SearchBudgetExceeded:
        return ColoringSearch(None, False, nodes)
    if found:
        return ColoringSearch(EdgeColoring(dict(assignment)), True, nodes)
    return ColoringSearch(None, True, nodes)


def ramsey_verify(p: int, q: int, n: int, budget: int = 10**6) -> bool:
    """Does K_n admit a coloring with no K_p in color 1 and no K_q in color 2?

    False answers are proofs (the backtracking completed); running out of
    budget raises instead of guessing.
    """
    result = find_free_coloring(Graph.complete(n), p, q, budget)
    if result.coloring is not None:
        return True
    if not result.exhausted:
        raise SearchBudgetExceeded(
            f"budget {budget} exhausted before deciding ({p},{q}) on K_{n}"
        )
    return False


@dataclass(frozen=True)
class RtInstance:
    n: int
    p: int
    q: int
    m: int
    budget: int = 10**6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.p < 2 or self.q < 2:
            raise ValueError("clique sizes must be >= 2")
        if self.m < 1:
            raise ValueError("independence cap must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass
class RtResult:
    """value is the exact maximum edge count, or None when no n-vertex graph
    satisfies both constraints (only trustworthy when ``exhausted``)."""

    value: int | None
    witness: ColoredGraph | None
    exhausted: bool
    nodes: int

    def certificate(self, inst: RtInstance) -> Certificate | None:
        if self.witness is None:
            return None
        return check_rt_witness(self.witness, inst.p, inst.q, inst.m)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if largest is None else min(n, largest)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def rt_exact(inst: RtInstance) -> RtResult:
    """Exact maximum edge count over all n-vertex graphs with independence
    at most m that admit a (p, q)-free coloring.

    Complete multipartite seeds establish a fast lower bound, then the
    canonical isomorphism-class sweep (exhaustive for n <= 8) proves
    optimality by visiting the remaining graphs in decreasing edge count.
    """
    n = inst.n
    nodes = 0
    best_value: int | None = None
    best_witness: ColoredGraph | None = None
    all_conclusive = True

    def attempt(g: Graph) -> bool:
        """Try to certify g; returns True when a coloring was found."""
        nonlocal nodes, best_value, best_witness, all_conclusive
        alpha, _ = independence_number(g)
        if alpha > inst.m:
            return False
        result = find_free_coloring(g, inst.p, inst.q, inst.budget)
        nodes += result.nodes
        if result.coloring is None:
            if not result.exhausted:
                all_conclusive = False
            return False
        best_value = g.edge_count
        best_witness = ColoredGraph(g, result.coloring)
        return True

    for sizes in _partitions(n):
        g = _complete_multipartite(sizes)
        if max(sizes) > inst.m:
            continue
        if best_value is not None and g.edge_count <= best_value:
            continue
        attempt(g)

    if n <= 8:
        sweep = sorted(
            enumerate_canonical_graphs(n),
            key=lambda mask: (-mask.bit_count(), mask),
        )
        exhausted = True
        for mask in sweep:
            e = mask.bit_count()
            if best_value is not None and e <= best_value:
                break
            g = graph_from_canonical(n, mask)
            if attempt(g):
                # sweep is ordered by decreasing edge count, so the first
                # qualifying graph at this point is the maximum
                break
            if not all_conclusive:
                exhausted = False
                break
        return RtResult(best_value, best_witness, exhausted, nodes)

    return RtResult(best_value, best_witness, False, nodes)
