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
from .graphs import MAX_VERTICES, ColoredGraph, EdgeColoring, Graph, _clique_engine


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


def _edge_search(n, pairs, colors, needs, budget):
    """Iterative backtracking over the colours of ``pairs``.

    Pair i gets the colours of ``colors`` in order.  Colour c is allowed on uv
    iff ``needs[c] > 0`` and colour c has no K_{needs[c]} in the common
    neighbourhood of u and v, i.e. placing uv closes no K_{needs[c] + 2}.
    Colour 0 stands for a non-edge and is tried only while it keeps the count
    of zeros below the best completed assignment (branch and bound); a
    completed assignment becomes the new best and one without zeros ends the
    search.  Each attempted assignment counts one node.  Returns (best
    assignment as a colour list or None, search completed, nodes).
    """
    layers = [[0] * n, [0] * n, [0] * n]
    total = len(pairs)
    ncolors = len(colors)
    placed = [0] * total
    # choice[i]: index in colors of the next colour to try at pair i
    choice = [0] * total
    best = None
    best_zeros = total + 1
    zeros = nodes = i = k = 0
    while True:
        if i == total:
            best = placed[:]
            best_zeros = zeros
            if not zeros:
                return best, True, nodes
        elif zeros < best_zeros:
            u, v = pairs[i]
            while k < ncolors:
                c = colors[k]
                k += 1
                if not c and zeros + 1 >= best_zeros:
                    continue
                nodes += 1
                if nodes > budget:
                    return best, False, nodes
                need = needs[c]
                if need <= 0:
                    continue
                rows = layers[c]
                common = rows[u] & rows[v]
                if common and _clique_engine(rows, common, need - 1, need)[0] >= need:
                    continue
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                placed[i] = c
                choice[i] = k
                zeros += not c
                i += 1
                k = 0
                break
            if not k:  # placed a colour and moved on to the next pair
                continue
        # pair i is exhausted (or cannot beat the best): undo pair i - 1
        i -= 1
        if i < 0:
            return best, True, nodes
        u, v = pairs[i]
        c = placed[i]
        rows = layers[c]
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        zeros -= not c
        k = choice[i]


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
    # a K_p (K_q) through uv is a K_{p-2} (K_{q-2}) in their common neighbourhood
    found, exhausted, nodes = _edge_search(g.n, edges, (1, 2), (0, p - 2, q - 2), budget)
    if found is None:
        return ColoringSearch(None, exhausted, nodes)
    return ColoringSearch(EdgeColoring(dict(zip(edges, found))), True, nodes)


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
    """``budget`` caps the node count of the whole search."""

    n: int
    p: int
    q: int
    m: int
    budget: int = 10**6

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"n must be in [1, {MAX_VERTICES}]")
        if self.p < 2 or self.q < 2:
            raise ValueError("clique sizes must be >= 2")
        if self.m < 1:
            raise ValueError("independence cap must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass
class RtResult:
    """value is the exact maximum edge count, or None when no n-vertex graph
    satisfies both constraints (only trustworthy when ``exhausted``); a
    non-exhausted value is a lower bound.  ``nodes`` counts search nodes."""

    value: int | None
    witness: ColoredGraph | None
    exhausted: bool
    nodes: int

    def certificate(self, inst: RtInstance) -> Certificate | None:
        if self.witness is None:
            return None
        return check_rt_witness(self.witness, inst.p, inst.q, inst.m)


def rt_exact(inst: RtInstance) -> RtResult:
    """Exact maximum edge count over all n-vertex graphs with independence
    at most m that admit a (p, q)-free coloring.

    Such a graph with its coloring is a 3-coloring of the pairs of K_n with
    no K_p in color 1, no K_q in color 2 and no K_{m+1} among the non-edges
    (color 0).  The edge search branches on the pairs in column order, edge
    colors first, and bounds on the number of non-edges, so the first
    assignment found is a dense lower bound and a completed search proves the
    fewest non-edges.
    """
    n = inst.n
    # a completed assignment costs at least one node per pair, so a smaller
    # budget cannot finish even one graph
    if n * (n - 1) // 2 > inst.budget:
        return RtResult(None, None, False, 0)
    pairs = [(u, v) for v in range(n) for u in range(v)]
    needs = (inst.m - 1, inst.p - 2, inst.q - 2)
    best, exhausted, nodes = _edge_search(n, pairs, (1, 2, 0), needs, inst.budget)
    if best is None:
        return RtResult(None, None, exhausted, nodes)
    colored = [(u, v, c) for (u, v), c in zip(pairs, best) if c]
    witness = ColoredGraph.from_colored_edges(n, colored)
    return RtResult(len(colored), witness, exhausted, nodes)
