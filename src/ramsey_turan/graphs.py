"""Exact graph primitives.

Graphs are stored as bitset adjacency rows (one Python int per vertex), which
keeps adjacency tests and neighborhood intersections O(1) word operations up
to the 4096-vertex cap.  All solvers here are exact, so an "absent" answer is
a completed search, not a heuristic.  Clique and independence queries keep
one vertex per class of false twins and then walk the modular decomposition
of the graph (``_omega``): components, co-components and the maximal strong
modules reduce the blow-up constructions to small prime quotients.  Those
are solved by a branch-and-bound with a greedy-coloring bound
(``_clique_engine``, which takes the module weights when modules carry
them).  Both the decomposition
walk and the searches keep their state on explicit stacks, so deep inputs
never hit the interpreter's recursion limit.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

MAX_VERTICES = 4096
_UNIT = (1,) * MAX_VERTICES


def _check_order(n: int) -> int:
    """Return ``n`` if it is a valid vertex count; call before allocating rows."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    return n


def _check_clique_sizes(p: int, q: int):
    if p < 2 or q < 2:
        raise ValueError("clique sizes must be >= 2")


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def _transpose_steps(w: int) -> tuple[tuple[int, int], ...]:
    """``(shift, mask)`` of the delta swaps that transpose a w-by-w bit matrix.

    Bit (r, c) of the matrix is bit ``r * w + c``.  The swap at block size j
    exchanges (r, c) with (r + j, c - j) wherever bit j of r is clear and bit
    j of c is set, a shift of ``j * (w - 1)``; applying it for j = w/2, ...,
    1 transposes the matrix (Warren, *Hacker's Delight* 7-3).  Each mask is
    built from repeated byte patterns, in time linear in its w*w/8 bytes.
    """
    row_bytes = w // 8
    steps = []
    j = w // 2
    while j:
        if j >= 8:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (w // (2 * j))
        else:
            row = bytes([sum(1 << c for c in range(8) if c & j)]) * row_bytes
        block = row * j + bytes(row_bytes * j)
        steps.append((j * (w - 1), int.from_bytes(block * (w // (2 * j)), "little")))
        j //= 2
    return tuple(steps)


def _transpose(matrix: int, w: int) -> int:
    """Transpose of the w-by-w bit matrix ``matrix`` (bit (r, c) at r * w + c)."""
    for shift, mask in _transpose_steps(w):
        t = (matrix ^ (matrix >> shift)) & mask
        matrix ^= t ^ (t << shift)
    return matrix


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor bitset of ``v``.  Rows are validated to be
    irreflexive and within range one at a time, and symmetric all at once:
    the rows are packed into one w-by-w bit matrix (w the next power of two
    >= max(n, 8)), transposed by log2(w) delta swaps, and any bit of the
    matrix missing from its transpose names the first asymmetric pair.
    ``_unchecked`` skips that validation; only ``_color_classes``,
    ``ColoredGraph.from_classes``, ``graph6.decode`` and
    ``search.graph_from_canonical`` call it, on rows that are valid by
    construction (see there and ``graph6._triangle_rows``).  Instances are
    treated as immutable values.
    """

    __slots__ = ("n", "adj")

    @classmethod
    def _unchecked(cls, n: int, adj: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        return g

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
        w = max(8, 1 << (n - 1).bit_length())
        packed = int.from_bytes(
            b"".join([r.to_bytes(w // 8, "little") for r in rows]), "little"
        )
        one_sided = packed & ~_transpose(packed, w)
        if one_sided:
            # lowest set bit: the first row v holding a u whose row lacks v
            v, u = divmod((one_sided & -one_sided).bit_length() - 1, w)
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
        return Graph(self.n, _complement_rows(self.adj))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled 0.. in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in induced-subgraph request")
        rows = [0] * len(vertices)
        for i, v in enumerate(vertices):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
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
        _check_order(n)
        masks = []
        seen = 0
        norm = []
        for part in parts:
            mask = 0
            for v in part:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range for n={n}")
                if (mask >> v) & 1:
                    raise ValueError(f"vertex {v} repeated within one part")
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
            key = (u, v) if u < v else (v, u)
            if key in norm:
                raise ValueError(f"duplicate edge {key}")
            norm[key] = c
        self.colors = norm

    def color(self, u: int, v: int) -> int:
        return self.colors[(u, v) if u < v else (v, u)]

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeColoring) and self.colors == other.colors

    def __len__(self) -> int:
        return len(self.colors)


def _color_classes(n: int, colored_edges) -> tuple[Graph, Graph]:
    """The two spanning color classes of (u, v, color) triples on ``n`` vertices.

    One pass only sets bits: the color picks its rows from ``rows`` and each
    endpoint's bit comes from ``bits``, so a value that is not a color or
    not a vertex raises a lookup error before any shift is done.  One count
    over the rows then rejects self-loops, pairs in both classes and
    repeated edges at once: each edge sets at most two bits of the union of
    the classes, a self-loop only one and a pair given a second time, in
    either class, none, so the union holds 2 * len(edges) bits exactly when
    every edge is a new pair of distinct vertices.  Rows that pass are
    valid by construction: every edge sets both of its bits (symmetric),
    every bit is a value of ``bits`` (in range), the diagonal is clear and
    the classes share no pair, so they skip ``Graph``'s checks.  On any
    lookup error or a short count the per-edge checks rerun over the same
    list and raise for the first bad edge in input order.
    """
    one, two = [0] * _check_order(n), [0] * n
    edges = list(colored_edges)
    rows = {1: one, 2: two}
    bits = {v: 1 << v for v in range(n)}
    try:
        for u, v, c in edges:
            row = rows[c]
            row[u] |= bits[v]
            row[v] |= bits[u]
    except (LookupError, TypeError, ValueError):
        pass
    else:
        if sum(map(int.bit_count, map(int.__or__, one, two))) == 2 * len(edges):
            return Graph._unchecked(n, one), Graph._unchecked(n, two)
    return _checked_color_classes(n, edges)


def _checked_color_classes(n: int, colored_edges) -> tuple[Graph, Graph]:
    """``_color_classes`` with every edge checked as it is added."""
    one, two = [0] * _check_order(n), [0] * n
    for u, v, c in colored_edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) in coloring")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if c not in (1, 2):
            raise ValueError(f"color {c} not in {{1, 2}}")
        if (one[u] | two[u]) >> v & 1:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        row = one if c == 1 else two
        row[u] |= 1 << v
        row[v] |= 1 << u
    return Graph(n, one), Graph(n, two)


class ColoredGraph:
    """Graph together with a total 2-coloring of its edge set.

    The coloring is stored as its two color classes, spanning graphs whose
    edge sets partition the host's, built and validated once; ``coloring``
    is the equivalent edge-to-color map, built on first use.
    """

    __slots__ = ("graph", "classes", "_coloring")

    def __init__(self, graph: Graph, coloring: EdgeColoring):
        one, two = _color_classes(
            graph.n, ((u, v, c) for (u, v), c in coloring.colors.items())
        )
        for v, row in enumerate(graph.adj):
            colored = one.adj[v] | two.adj[v]
            if colored != row:
                missing = list(bit_indices(row & ~colored))[:3]
                extra = list(bit_indices(colored & ~row))[:3]
                raise ValueError(
                    f"coloring domain mismatch at vertex {v}"
                    f" (missing {missing}, extra {extra})"
                )
        self.graph = graph
        self.classes = (one, two)
        self._coloring = coloring

    @classmethod
    def from_classes(cls, one: Graph, two: Graph) -> "ColoredGraph":
        """Colored graph whose color-1 and color-2 edges are ``one`` and ``two``.

        The host rows are the union of two already-validated graphs of the
        same order that share no edge, so they are valid by construction and
        skip ``Graph``'s checks.
        """
        if one.n != two.n:
            raise ValueError(f"color classes differ in order ({one.n} != {two.n})")
        rows = []
        for v, (a, b) in enumerate(zip(one.adj, two.adj)):
            if a & b:
                raise ValueError(f"color classes share an edge at vertex {v}")
            rows.append(a | b)
        cg = cls.__new__(cls)
        cg.graph = Graph._unchecked(one.n, rows)
        cg.classes = (one, two)
        cg._coloring = None
        return cg

    @classmethod
    def from_colored_edges(cls, n: int, colored_edges) -> "ColoredGraph":
        return cls.from_classes(*_color_classes(n, colored_edges))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def coloring(self) -> EdgeColoring:
        """Edge-to-color map of the classes (cached; treat as read-only)."""
        if self._coloring is None:
            two = self.classes[1].adj
            self._coloring = EdgeColoring(
                {(u, v): 2 if two[u] >> v & 1 else 1 for u, v in self.graph.edges()}
            )
        return self._coloring

    def color_class(self, c: int) -> Graph:
        """Spanning subgraph carrying the edges of color ``c``."""
        if c not in (1, 2):
            raise ValueError(f"color {c} not in {{1, 2}}")
        return self.classes[c - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ColoredGraph) and self.classes == other.classes

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, m={self.graph.edge_count})"


def _clique_engine(
    adj: Sequence[int],
    start: int,
    lower: int,
    stop_at: int | None,
    weights: Sequence[int] = _UNIT,
) -> tuple[int, int]:
    """Branch-and-bound maximum-weight clique over the vertex bitset ``start``.

    The candidates are colored greedily and a branch is pruned when its
    weight plus, over the color classes left, the weight of each class's
    first vertex cannot beat the best clique (Ostergard 2002).  That first
    vertex is the class's lowest index, so the bound is sound when
    ``weights`` (positive, one per vertex) do not increase with the vertex
    index; the unit default makes it the plain color count.  Only cliques
    strictly heavier than ``lower`` are recorded; with ``stop_at`` set the
    search returns as soon as a clique of that weight is found, which turns
    the engine into an exact "is there a K_p" decision procedure.  Returns
    (best weight, best clique bitset); best weight == lower means the
    completed search found nothing heavier.  The search keeps its branches
    on an explicit stack, so its depth is not bounded by the interpreter's.
    """
    best_size = lower
    best_mask = 0
    if not start:
        return best_size, best_mask
    stack = []
    r_size, r_mask, cands = 0, 0, start
    while True:
        # greedy coloring of the candidates: bounds[i] bounds the weight of a
        # clique within order[:i+1]
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cands
        total = 0
        while uncolored:
            queue = uncolored
            v = (queue & -queue).bit_length() - 1
            total += weights[v]
            while True:
                bit = 1 << v
                uncolored ^= bit
                queue = (queue ^ bit) & ~adj[v]
                order.append(v)
                bounds.append(total)
                if not queue:
                    break
                v = (queue & -queue).bit_length() - 1
        i = len(order) - 1
        while True:
            if i < 0 or r_size + bounds[i] <= best_size:
                if not stack:
                    return best_size, best_mask
                r_size, r_mask, cands, order, bounds, i = stack.pop()
                continue
            v = order[i]
            bit = 1 << v
            new_cands = cands & adj[v]
            cands ^= bit
            i -= 1
            if new_cands:
                stack.append((r_size, r_mask, cands, order, bounds, i))
                r_size += weights[v]
                r_mask |= bit
                cands = new_cands
                break
            if r_size + weights[v] > best_size:
                best_size = r_size + weights[v]
                best_mask = r_mask | bit
                if stop_at is not None and best_size >= stop_at:
                    return best_size, best_mask


def _component(adj: Sequence[int], S: int, seed: int) -> int:
    """Vertices of G[S] reachable from the bitset ``seed``."""
    comp = frontier = seed
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & S & ~comp
        comp |= frontier
    return comp


def _co_component(adj: Sequence[int], S: int, seed: int) -> int:
    """Vertices of the complement of G[S] reachable from the bitset ``seed``."""
    comp = frontier = seed
    rest = S & ~seed
    while frontier and rest:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rest & ~adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach
        rest ^= reach
        comp |= reach
    return comp


def _edgeless(adj: Sequence[int], S: int) -> bool:
    """True when no two vertices of ``S`` are adjacent."""
    rest = S
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & S:
            return False
        rest ^= low
    return True


def _quotient_rows(adj: Sequence[int], reps: Sequence[int]) -> list[int]:
    """Rows of the graph induced on the vertex bits ``reps``, relabeled
    0.. in list order."""
    index = {rep: j for j, rep in enumerate(reps)}
    rep_mask = sum(reps)
    rows = []
    for rep in reps:
        row = adj[rep.bit_length() - 1] & rep_mask
        qrow = 0
        while row:
            low = row & -row
            qrow |= 1 << index[low]
            row ^= low
        rows.append(qrow)
    return rows


def _strong_modules(adj: Sequence[int], S: int) -> list[int]:
    """Maximal strong modules of G[S] when G[S] and its complement are connected.

    The maximal modules avoiding v (the lowest vertex) come from partition
    refinement: start from v's neighbors and non-neighbors in S, and split a
    part by the row of any vertex outside it that sees some but not all of
    it.  Every module avoiding v stays inside one part, and each final part
    is a module, so the parts are those maximal modules.  A vertex that
    splits a half of a split part splits the part or lies in the other half,
    so each part carries that superset of its splitters and is tested against
    it or against its own rows, whichever is smaller.

    The strong module of v is v plus the parts whose module closure with it,
    in the quotient Q on {v} + parts, stays proper.  A set holding v is a
    module iff it holds every w that distinguishes v from one of its members,
    so the closure of a module C plus part j is C plus what j reaches along
    "w distinguishes v from u" arcs.  When that is all of Q, every part that
    reaches j is outside the module of v too.  The parts left over are the
    other maximal strong modules; the module of v comes first.
    """
    vbit = S & -S
    rest = S ^ vbit
    near = rest & adj[vbit.bit_length() - 1]
    far = rest ^ near
    work = [(part, other) for part, other in ((near, far), (far, near)) if part]
    parts = []
    while work:
        part, cand = work.pop()
        if not part & (part - 1):
            parts.append(part)
            continue
        split = 0
        if cand.bit_count() < part.bit_count():
            while cand:
                low = cand & -cand
                seen = adj[low.bit_length() - 1] & part
                if seen and seen != part:
                    split |= low
                cand ^= low
        else:
            some, every = 0, -1
            left = part
            while left:
                low = left & -left
                row = adj[low.bit_length() - 1]
                some |= row
                every &= row
                left ^= low
            split = some & ~every & S & ~part
        if split:
            half = part & adj[(split & -split).bit_length() - 1]
            other = part ^ half
            work += ((half, split | other), (other, split | half))
        else:
            parts.append(part)

    # Q is G induced on v plus the lowest vertex of each part
    whole = vbit
    part_of = {}
    for part in parts:
        rep = part & -part
        part_of[rep] = part
        whole |= rep
    row_v = adj[vbit.bit_length() - 1]
    mod = vbit
    outside = 0
    for rep in part_of:
        if (mod | outside) & rep:
            continue
        # forward: the vertices that distinguish v from a reached one
        grown = frontier = rep
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1] ^ row_v
                frontier ^= low
            frontier = reach & whole & ~grown & ~mod
            grown |= frontier
        if grown | mod != whole:
            mod |= grown
            continue
        # backward: the vertices from which one already outside is reached
        frontier = rep
        while frontier:
            outside |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                row = adj[low.bit_length() - 1]
                reach |= ~row if row & vbit else row
                frontier ^= low
            frontier = reach & whole & ~outside & ~vbit
    module_of_v = vbit
    others = []
    for rep, part in part_of.items():
        if mod & rep:
            module_of_v |= part
        else:
            others.append(part)
    return [module_of_v] + others


# Largest decomposition node handed to ``_clique_engine`` whole.  Sweep, in
# microseconds per call (minimum of 41 interleaved runs, in-process; 2 vCPUs,
# CPython 3.11.7); "pent" rows are seeded pentagon blow-ups with n = 10..18
# (12 free calls at q = 3 or 6, 8 witness calls), "r" a relabelled copy:
#
#   | row               |  T=8 | T=12 | T=16 | T=20 | T=24 | T=32 |
#   | pent free         |  715 |  454 |  277 |  268 |  268 |  267 |
#   | pent witness      |  400 |  351 |  342 |  322 |  315 |  314 |
#   | kkl60 free        |  273 |  203 |  198 |  194 |  191 |  434 |
#   | kkl60 witness     |  591 |  337 |  326 |  322 |  322 |  569 |
#   | kkl60r free       |  251 |  190 |  186 |  183 |  181 |  191 |
#   | kkl60r witness    |  617 |  334 |  327 |  321 |  319 |  336 |
#   | kkl120 witness    |  926 |  821 |  800 |  670 |  658 |  920 |
#   | kkl240 free       |  386 |  302 |  292 |  291 |  287 |  562 |
#   | kkl240 witness    | 1507 | 1424 | 1429 | 1375 | 1381 | 1654 |
#   | c37_160 free      | 1167 | 1142 | 1125 |  574 |  566 |  566 |
#   | c37_160r free     | 1214 | 1178 | 1192 |  546 |  538 |  534 |
#
# At 32 the twin-reduced root of a native kkl colour class (about 30 vertices)
# goes to the engine whole, which costs more than its decomposition.
_SMALL_NODE = 24


def _omega(adj: Sequence[int], S: int, stop_at: int | None) -> tuple[int, int]:
    """Maximum clique of G[S] through the modular decomposition of G[S].

    False twins go first: of the vertices of S with one row ``adj[v] & S``,
    only the lowest is kept.  Such vertices are pairwise non-adjacent (no
    vertex is in its own row), so a clique holds at most one of them and any
    one of them can stand for the others; omega, every ``stop_at`` decision
    and the witness (a clique of G[S]) are those of G[S].  A blow-up keeps
    one vertex per block.

    Exact node rules (Gallai 1967): when G[S] is disconnected (parallel
    node), omega is the largest over its components; when its complement is
    disconnected (series node), omega is the sum over the co-components and
    the witness is the union of theirs; otherwise (prime node) omega is the
    maximum-weight clique of the quotient on the maximal strong modules, each
    weighted by its own omega, solved by ``_clique_engine`` (on the module
    witnesses themselves when every weight is 1).  Nodes of at most
    ``_SMALL_NODE`` vertices go to ``_clique_engine`` whole.  ``stop_at``
    behaves as in ``_clique_engine``: once a clique of that size is found it
    is returned, otherwise the result is exact.  The decomposition tree is
    walked with an explicit stack of node generators, and the witness is
    re-checked.
    """
    reps = {}
    rest = S
    while rest:
        low = rest & -rest
        reps.setdefault(adj[low.bit_length() - 1] & S, low)
        rest ^= low
    S = sum(reps.values())
    stack = [_omega_node(adj, S, stop_at)]
    result = None
    while stack:
        try:
            request = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_omega_node(adj, *request))
            result = None
    size, mask = result
    rest = mask
    while rest:
        low = rest & -rest
        if (adj[low.bit_length() - 1] | low) & mask != mask:
            raise RuntimeError("modular decomposition produced a non-clique witness")
        rest ^= low
    if mask.bit_count() != size:
        raise RuntimeError("modular decomposition witness size mismatch")
    return size, mask


def _omega_node(adj: Sequence[int], S: int, stop_at: int | None):
    """One node of ``_omega``: yields (child set, child stop_at) requests,
    receives each child's (size, mask) and returns its own.

    A node of at most ``_SMALL_NODE`` vertices, the empty set and single
    vertices among them, returns the engine's answer on S itself, which is
    exact on any vertex set, and skips the component, co-component and
    module scans.
    """
    if S.bit_count() <= _SMALL_NODE:
        return _clique_engine(adj, S, 0, stop_at)

    low = S & -S
    comp = _component(adj, S, low)
    if comp != S:
        comps = [comp]
        rest = S ^ comp
        while rest:
            comp = _component(adj, rest, rest & -rest)
            comps.append(comp)
            rest ^= comp
        comps.sort(key=int.bit_count, reverse=True)
        best = (0, 0)
        for comp in comps:
            if comp.bit_count() <= best[0]:
                break
            found = yield comp, stop_at
            if found[0] > best[0]:
                best = found
                if stop_at is not None and best[0] >= stop_at:
                    break
        return best

    comp = _co_component(adj, S, low)
    if comp != S:
        size, mask = 0, 0
        rest = S
        while rest:
            comp = _co_component(adj, rest, rest & -rest)
            rest ^= comp
            if _edgeless(adj, comp):
                found = (1, comp & -comp)
            else:
                found = yield comp, None if stop_at is None else stop_at - size
            size += found[0]
            mask |= found[1]
            if stop_at is not None and size >= stop_at:
                break
        return size, mask

    weights, witnesses = [], []
    for module in _strong_modules(adj, S):
        if _edgeless(adj, module):
            found = (1, module & -module)
        else:
            found = yield module, stop_at
        if stop_at is not None and found[0] >= stop_at:
            return found
        weights.append(found[0])
        witnesses.append(found[1])
    if max(weights) == 1:
        # every module is edgeless and its witness is one of its vertices, so
        # G on the witnesses is the quotient and its cliques lift as they are
        return _clique_engine(adj, sum(witnesses), 0, stop_at)
    # heaviest modules first, as the engine's bound needs: each greedy color
    # class opens with its maximum (a vertex of a module's witness stands for
    # the whole module)
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    qrows = _quotient_rows(adj, [witnesses[j] & -witnesses[j] for j in order])
    size, qmask = _clique_engine(
        qrows, (1 << len(qrows)) - 1, 0, stop_at, [weights[j] for j in order]
    )
    mask = 0
    while qmask:
        bit = qmask & -qmask
        mask |= witnesses[order[bit.bit_length() - 1]]
        qmask ^= bit
    return size, mask


def find_clique(g: Graph, p: int) -> tuple[int, ...] | None:
    """Exact search for a clique of size ``p``; None is a proof of absence."""
    if p < 1 or p > g.n:
        raise ValueError(f"clique size {p} outside [1, {g.n}]")
    size, mask = _omega(g.adj, (1 << g.n) - 1, p)
    if size < p:
        return None
    return tuple(bit_indices(mask))[:p]


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique (empty graph gives 0)."""
    size, mask = _omega(g.adj, (1 << g.n) - 1, None)
    return size, tuple(bit_indices(mask))


def _complement_rows(adj: Sequence[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number via max clique on the complement."""
    if g.n == 0:
        raise ValueError("independence number of the empty graph is undefined")
    size, mask = _omega(_complement_rows(g.adj), (1 << g.n) - 1, None)
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
