"""Exact graph primitives.

Graphs are stored as bitset adjacency rows (one Python int per vertex), which
keeps adjacency tests and neighborhood intersections O(1) word operations up
to the 4096-vertex cap.  All solvers here are exact: clique and independence
queries run a branch-and-bound with a greedy-coloring bound, so an "absent"
answer is a completed search, not a heuristic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

MAX_VERTICES = 4096


def _check_order(n: int) -> int:
    """Return ``n`` if it is a valid vertex count; call before allocating rows."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    return n


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor bitset of ``v``.  Rows are validated to be
    symmetric, irreflexive and within range; instances are treated as
    immutable values.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        _check_order(n)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        rows = tuple(adj)
        for v, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency row {v} has bits outside [0, {n})")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bit_indices(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = rows

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * _check_order(n)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << _check_order(n)) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * _check_order(n))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            while row:
                low = row & -row
                yield (u, u + low.bit_length())
                row ^= low

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full & ~row & ~(1 << v) for v, row in enumerate(self.adj)])

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled 0.. in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in induced-subgraph request")
        rows = [0] * len(vertices)
        for i, v in enumerate(vertices):
            row = self.adj[v]
            for u in bit_indices(row):
                j = index.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(len(vertices), rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class VertexPartition:
    """Ordered list of disjoint vertex sets covering ``0..n-1``."""

    __slots__ = ("n", "parts", "masks")

    def __init__(self, n: int, parts: Sequence[Sequence[int]]):
        masks = []
        seen = 0
        norm = []
        for part in parts:
            mask = 0
            for v in part:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range for n={n}")
                mask |= 1 << v
            if mask & seen:
                raise ValueError("partition parts are not disjoint")
            seen |= mask
            masks.append(mask)
            norm.append(tuple(sorted(part)))
        if seen != (1 << n) - 1:
            raise ValueError("partition does not cover all vertices")
        self.n = n
        self.parts = tuple(norm)
        self.masks = tuple(masks)

    @property
    def p(self) -> int:
        return len(self.parts)

    def part_of(self, v: int) -> int:
        for i, mask in enumerate(self.masks):
            if (mask >> v) & 1:
                return i
        raise ValueError(f"vertex {v} not covered")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexPartition)
            and self.n == other.n
            and self.parts == other.parts
        )

    def __repr__(self) -> str:
        return f"VertexPartition(n={self.n}, sizes={[len(p) for p in self.parts]})"


class EdgeColoring:
    """Total map from the host graph's edges to colors 1 and 2."""

    __slots__ = ("colors",)

    def __init__(self, colors: dict):
        norm = {}
        for (u, v), c in colors.items():
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) in coloring")
            if c not in (1, 2):
                raise ValueError(f"color {c} not in {{1, 2}}")
            norm[(u, v) if u < v else (v, u)] = c
        self.colors = norm

    def color(self, u: int, v: int) -> int:
        return self.colors[(u, v) if u < v else (v, u)]

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeColoring) and self.colors == other.colors

    def __len__(self) -> int:
        return len(self.colors)


class ColoredGraph:
    """Graph together with a total 2-coloring of its edge set."""

    __slots__ = ("graph", "coloring")

    def __init__(self, graph: Graph, coloring: EdgeColoring):
        edges = set(graph.edges())
        domain = set(coloring.colors)
        if domain != edges:
            missing = sorted(edges - domain)[:3]
            extra = sorted(domain - edges)[:3]
            raise ValueError(
                f"coloring domain mismatch (missing {missing}, extra {extra})"
            )
        self.graph = graph
        self.coloring = coloring

    @classmethod
    def from_colored_edges(cls, n: int, colored_edges) -> "ColoredGraph":
        colors = {}
        for u, v, c in colored_edges:
            key = (u, v) if u < v else (v, u)
            if key in colors:
                raise ValueError(f"duplicate edge {key}")
            colors[key] = c
        graph = Graph.from_edges(n, list(colors))
        return cls(graph, EdgeColoring(colors))

    @property
    def n(self) -> int:
        return self.graph.n

    def color_class(self, c: int) -> Graph:
        """Spanning subgraph carrying the edges of color ``c``."""
        if c not in (1, 2):
            raise ValueError(f"color {c} not in {{1, 2}}")
        rows = [0] * self.graph.n
        for (u, v), cc in self.coloring.colors.items():
            if cc == c:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return Graph(self.graph.n, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.graph == other.graph
            and self.coloring == other.coloring
        )

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, m={self.graph.edge_count})"


def _clique_engine(
    adj: Sequence[int], start: int, lower: int, stop_at: int | None
) -> tuple[int, int]:
    """Branch-and-bound maximum clique over the vertex bitset ``start``.

    Only cliques strictly larger than ``lower`` are recorded; with ``stop_at``
    set the search returns as soon as a clique of that size is found, which
    turns the engine into an exact "is there a K_p" decision procedure.
    Returns (best size, best clique bitset); best size == lower means the
    completed search found nothing larger.
    """
    best_size = lower
    best_mask = 0

    def expand(r_size: int, r_mask: int, cands: int) -> bool:
        nonlocal best_size, best_mask
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cands
        color = 0
        while uncolored:
            color += 1
            queue = uncolored
            while queue:
                v = (queue & -queue).bit_length() - 1
                bit = 1 << v
                uncolored ^= bit
                queue = (queue ^ bit) & ~adj[v]
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] <= best_size:
                return False
            v = order[i]
            bit = 1 << v
            new_cands = cands & adj[v]
            if new_cands:
                if expand(r_size + 1, r_mask | bit, new_cands):
                    return True
            elif r_size + 1 > best_size:
                best_size = r_size + 1
                best_mask = r_mask | bit
                if stop_at is not None and best_size >= stop_at:
                    return True
            cands ^= bit
        return False

    if start:
        expand(0, 0, start)
    return best_size, best_mask


def find_clique(g: Graph, p: int) -> tuple[int, ...] | None:
    """Exact search for a clique of size ``p``; None is a proof of absence."""
    if p < 1 or p > g.n:
        raise ValueError(f"clique size {p} outside [1, {g.n}]")
    size, mask = _clique_engine(g.adj, (1 << g.n) - 1, p - 1, p)
    if size < p:
        return None
    return tuple(bit_indices(mask))[:p]


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique (empty graph gives 0)."""
    size, mask = _clique_engine(g.adj, (1 << g.n) - 1, 0, None)
    return size, tuple(bit_indices(mask))


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number via max clique on the complement."""
    if g.n == 0:
        raise ValueError("independence number of the empty graph is undefined")
    full = (1 << g.n) - 1
    comp = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    size, mask = _clique_engine(comp, full, 0, None)
    return size, tuple(bit_indices(mask))


def min_crossing_degree(g: Graph, part: VertexPartition) -> int:
    """min over parts i != j and v in part i of deg(v, part j)."""
    if part.n != g.n:
        raise ValueError("partition does not match graph")
    if part.p < 2:
        raise ValueError("crossing degree needs at least 2 parts")
    best = None
    for i, vertices in enumerate(part.parts):
        for v in vertices:
            row = g.adj[v]
            for j, mask in enumerate(part.masks):
                if i == j:
                    continue
                d = (row & mask).bit_count()
                if best is None or d < best:
                    best = d
    return 0 if best is None else best


def crossing_edge_count(g: Graph, part: VertexPartition) -> int:
    """Number of edges with endpoints in different parts."""
    inner = 0
    for mask in part.masks:
        for v in bit_indices(mask):
            inner += (g.adj[v] & mask).bit_count()
    return g.edge_count - inner // 2


def max_cut_partition(g: Graph, p: int, seed: int = 0) -> VertexPartition:
    """Locally max-cut p-partition via steepest single-vertex moves.

    The result is 1-move locally optimal: relocating any one vertex does not
    increase the crossing edge count.  Deterministic for a fixed seed; ties
    between equal-gain moves break on (vertex index, part index).
    """
    if p < 2:
        raise ValueError("max-cut partition needs p >= 2")
    if g.n < p:
        raise ValueError(f"p={p} exceeds vertex count {g.n}")
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    assign = [0] * g.n
    for slot, v in enumerate(order):
        assign[v] = slot % p
    masks = [0] * p
    for v, i in enumerate(assign):
        masks[i] |= 1 << v

    while True:
        best_gain = 0
        best_move = None
        for v in range(g.n):
            i = assign[v]
            row = g.adj[v]
            d_own = (row & masks[i]).bit_count()
            for j in range(p):
                if j == i:
                    continue
                gain = d_own - (row & masks[j]).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, j)
        if best_move is None:
            break
        v, j = best_move
        bit = 1 << v
        masks[assign[v]] ^= bit
        masks[j] |= bit
        assign[v] = j

    parts = [[] for _ in range(p)]
    for v, i in enumerate(assign):
        parts[i].append(v)
    return VertexPartition(g.n, parts)


def min_degree_refinement(
    g: Graph, d: Fraction | int | str
) -> tuple[tuple[int, ...], Graph]:
    """Iteratively strip low-degree vertices until min degree >= d * order.

    Each round removes every vertex whose current degree falls below
    d * (current vertex count); rounds repeat until none does.  The empty
    graph is a legitimate outcome.  Returns (kept vertices, induced graph).
    """
    d = Fraction(d)
    if not 0 < d <= 1:
        raise ValueError(f"degree fraction {d} outside (0, 1]")
    keep = (1 << g.n) - 1
    count = g.n
    while count:
        # deg(v) < d * count  <=>  deg(v) * denominator < numerator * count
        bound = d.numerator * count
        drop = 0
        for v in bit_indices(keep):
            if (g.adj[v] & keep).bit_count() * d.denominator < bound:
                drop |= 1 << v
        if not drop:
            break
        keep &= ~drop
        count = keep.bit_count()
    kept = tuple(bit_indices(keep))
    return kept, g.induced(kept)
