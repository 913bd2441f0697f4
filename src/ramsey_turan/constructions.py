"""Generators for the extremal graphs and colorings under study.

Covers balanced complete multipartite (Turan) graphs, triangle-free regular
graphs with matching independence number (Andrasfai circulants and their
blow-ups), pentagonlike colorings of K5, the six-part colored construction
with planted regular graphs and cloned independent blocks, and the eight-part
variant whose cross colors follow part distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .graphs import (
    ColoredGraph,
    EdgeColoring,
    Graph,
    VertexPartition,
    _check_order,
    independence_number,
)
from .report import bounds_36


class ConstructionError(ValueError):
    """A construction parameter cannot be realized."""


class RuleVariant(Enum):
    """Which reading of coloring rule 2 the six-part construction uses.

    TEXT sends the i-th independent block's color-1 edges to parts i and i+2;
    FIGURE sends them to parts i and i+1.  Both variants are preserved so the
    certifier can decide empirically which one is triangle-free.
    """

    TEXT = "text"
    FIGURE = "figure"


class Distance(Enum):
    """Part-index distance used by the eight-part construction."""

    CYCLIC = "cyclic"
    LITERAL = "literal"


def turan(n: int, p: int) -> Graph:
    """Balanced complete p-partite graph; larger parts come first."""
    if p < 1:
        raise ValueError("part count must be >= 1")
    if p > n:
        raise ValueError(f"part count {p} exceeds vertex count {n}")
    return _complete_multipartite(turan_part_sizes(n, p))


def _complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph whose parts are consecutive vertex runs."""
    n = _check_order(sum(sizes))
    rows = [0] * n
    full = (1 << n) - 1
    start = 0
    for size in sizes:
        mask = ((1 << size) - 1) << start
        for v in range(start, start + size):
            rows[v] = full & ~mask
        start += size
    return Graph(n, rows)


def turan_part_sizes(n: int, p: int) -> list[int]:
    q, r = divmod(n, p)
    return [q + 1] * r + [q] * (p - r)


def turan_partition(n: int, p: int) -> VertexPartition:
    parts = []
    start = 0
    for size in turan_part_sizes(n, p):
        parts.append(range(start, start + size))
        start += size
    return VertexPartition(n, parts)


def _andrasfai_rows(k: int) -> Graph:
    # circulant on 3k-1 vertices joining differences congruent to 1 mod 3
    n = _check_order(3 * k - 1)
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and (u - v) % n % 3 == 1:
                rows[u] |= 1 << v
    return Graph(n, rows)


def andrasfai(k: int) -> Graph:
    """Triangle-free k-regular circulant on 3k-1 vertices with independence k."""
    if k < 2:
        raise ValueError("andrasfai index must be >= 2")
    return _andrasfai_rows(k)


def blowup(g: Graph, t: int) -> Graph:
    """Replace each vertex by an independent t-set and each edge by K_{t,t}."""
    if t < 1:
        raise ValueError("blow-up factor must be >= 1")
    n = _check_order(g.n * t)
    rows = [0] * n
    block = (1 << t) - 1
    for v in range(g.n):
        mask = 0
        row = g.adj[v]
        for u in range(g.n):
            if (row >> u) & 1:
                mask |= block << (u * t)
        for c in range(t):
            rows[v * t + c] = mask
    return Graph(n, rows)


@dataclass(frozen=True)
class FGraphResult:
    """A realized triangle-free regular graph with independence = degree.

    ``padding`` isolated vertices were appended when the requested order has
    no circulant blow-up; they inflate ``alpha`` beyond ``degree`` and are
    surfaced here rather than hidden.
    """

    graph: Graph
    degree: int
    alpha: int
    padding: int
    k: int
    t: int

    @property
    def exact(self) -> bool:
        return self.padding == 0 and self.alpha == self.degree


def _blowup_options(m: int) -> list[tuple[int, int]]:
    # (k, t) with t * (3k - 1) = m; k = 1 degenerates to complete bipartite
    out = []
    k = 1
    while 3 * k - 1 <= m:
        base = 3 * k - 1
        if m % base == 0:
            out.append((k, m // base))
        k += 1
    return out


def f_graph(m: int, d_target: int) -> FGraphResult:
    """Best-effort n-vertex d-regular triangle-free graph with alpha = d.

    Chooses the Andrasfai blow-up (k, t) on exactly m vertices whose degree
    t*k is closest to ``d_target`` (ties prefer the larger degree).  When no
    blow-up hits m vertices, the largest realizable order below m is padded
    with isolated vertices and the alpha inflation is reported.
    """
    if m < 2:
        raise ValueError("f-graph order must be >= 2")
    order = m
    padding = 0
    options = _blowup_options(order)
    while not options:
        order -= 1
        padding += 1
        if order < 2:
            raise ConstructionError(f"no realizable core for order {m}")
        options = _blowup_options(order)
    options.sort(key=lambda kt: (abs(kt[0] * kt[1] - d_target), -kt[0] * kt[1]))
    k, t = options[0]
    core = blowup(_andrasfai_rows(k), t)
    degree = k * t
    if padding:
        rows = list(core.adj) + [0] * padding
        graph = Graph(m, rows)
    else:
        graph = core
    return FGraphResult(
        graph=graph,
        degree=degree,
        alpha=degree + padding,
        padding=padding,
        k=k,
        t=t,
    )


def pentagonlike(perm) -> ColoredGraph:
    """Two-coloring of K5 whose color classes are the cycle on ``perm`` and
    its complementary cycle."""
    perm = tuple(perm)
    if sorted(perm) != [0, 1, 2, 3, 4]:
        raise ValueError(f"{perm!r} is not a permutation of 0..4")
    colors = {}
    for i in range(5):
        u, v = perm[i], perm[(i + 1) % 5]
        colors[(min(u, v), max(u, v))] = 1
    for u in range(5):
        for v in range(u + 1, 5):
            colors.setdefault((u, v), 2)
    cg = ColoredGraph(Graph.complete(5), EdgeColoring(colors))
    for c in (1, 2):
        if not _is_five_cycle(cg.color_class(c)):
            raise AssertionError(f"color class {c} is not a 5-cycle")
    return cg


def _is_five_cycle(g: Graph) -> bool:
    if g.n != 5 or g.edge_count != 5:
        return False
    if any(g.degree(v) != 2 for v in range(5)):
        return False
    seen = 1
    while True:
        grown = seen
        for v in range(5):
            if (seen >> v) & 1:
                grown |= g.adj[v]
        if grown == seen:
            return seen == (1 << 5) - 1
        seen = grown


def _dist_mod(a: int, b: int, modulus: int) -> int:
    d = (a - b) % modulus
    return min(d, modulus - d)


@dataclass(frozen=True)
class KklParams:
    """Parameters of the six-part construction.

    ``n`` total vertices (divisible by 6); ``d1`` degree of the graph planted
    in the five outer parts; ``m2``/``d2`` order and degree of the core graph
    the sixth part is grown from; ``rule_variant`` picks the coloring reading.
    """

    n: int
    d1: int
    m2: int
    d2: int
    rule_variant: RuleVariant = RuleVariant.FIGURE

    def __post_init__(self):
        if self.n <= 0 or self.n % 6:
            raise ValueError(f"n={self.n} must be a positive multiple of 6")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("planted degrees must be >= 1")
        if self.m2 < 2:
            raise ValueError("core order m2 must be >= 2")
        if self.isolated < 0:
            raise ValueError(
                f"m2={self.m2} plus clones exceeds part size {self.n // 6}"
            )

    @property
    def clone_block(self) -> int:
        return (self.d2 + 1) // 2

    @property
    def isolated(self) -> int:
        return self.n // 6 - self.m2 - 3 * self.clone_block

    @property
    def delta_n(self) -> Fraction:
        """Independence scale implied by m2 = n/6 - 3*delta*n/2."""
        return Fraction(2 * (self.n // 6 - self.m2), 3)


@dataclass(frozen=True)
class DensityPoint:
    """Edge-density coefficients (of n^2) bracketing an extremal value."""

    p: int
    q: int
    delta: Fraction
    lower_bound: Fraction
    upper_bound: Fraction

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise ValueError("lower bound exceeds upper bound")

    @classmethod
    def for_36(cls, delta) -> "DensityPoint":
        lower, upper = bounds_36(delta)
        return cls(p=3, q=6, delta=Fraction(delta), lower_bound=lower, upper_bound=upper)


@dataclass
class KklConstruction:
    colored_graph: ColoredGraph
    partition: VertexPartition
    stats: dict = field(default_factory=dict)


def kkl_36(params: KklParams) -> KklConstruction:
    """Six-part colored construction with planted regular graphs.

    The underlying graph is the balanced complete 6-partite graph plus a copy
    of f_graph(n/6, d1) inside each of the first five parts and, inside the
    sixth part, a core f_graph(m2, d2) grown by: an independence witness I of
    size d2 split into blocks I1/I2, three clone blocks I3..I5 of I1 (each
    clone inherits its original's core neighborhood), complete joins between
    blocks at cyclic distance two, and isolated filler up to n/6 vertices.

    Color 1 goes to: cross edges between outer parts at cyclic distance two
    (rule 1); edges from block Ii to its two target parts (rule 2, variant
    dependent); sixth-part inner edges not joining two block vertices
    (rule 3).  Everything else is color 2 (rule 4).  Freeness is not asserted
    here; the certifier decides it.
    """
    q = params.n // 6
    f1 = f_graph(q, params.d1)
    if not f1.exact or f1.degree != params.d1:
        raise ConstructionError(
            f"d1={params.d1} not realizable on {q} vertices (achieved {f1.degree},"
            f" padding {f1.padding})"
        )
    f2 = f_graph(params.m2, params.d2)
    if not f2.exact or f2.degree != params.d2:
        raise ConstructionError(
            f"d2={params.d2} not realizable on {params.m2} vertices"
            f" (achieved {f2.degree}, padding {f2.padding})"
        )

    n = params.n
    part_ranges = [range(i * q, (i + 1) * q) for i in range(6)]
    x6_base = 5 * q
    h = params.clone_block

    alpha2, witness = independence_number(f2.graph)
    if alpha2 != params.d2:
        raise ConstructionError(
            f"core independence {alpha2} differs from d2={params.d2}"
        )
    i1_local = list(witness[:h])
    i2_local = list(witness[h:])
    blocks_local = [i1_local, i2_local]
    for b in range(3):
        blocks_local.append(
            [params.m2 + b * h + j for j in range(h)]
        )
    i_sets = [tuple(x6_base + v for v in block) for block in blocks_local]

    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int):
        edges.add((u, v) if u < v else (v, u))

    # complete 6-partite skeleton
    for a in range(6):
        for b in range(a + 1, 6):
            for u in part_ranges[a]:
                for v in part_ranges[b]:
                    add(u, v)
    # planted copies in the five outer parts
    for i in range(5):
        off = i * q
        for u, v in f1.graph.edges():
            add(off + u, off + v)
    # sixth part: core, clones, distance-two block joins
    for u, v in f2.graph.edges():
        add(x6_base + u, x6_base + v)
    for b in range(3):
        for j, orig in enumerate(i1_local):
            clone = params.m2 + b * h + j
            for w in range(params.m2):
                if f2.graph.has_edge(orig, w):
                    add(x6_base + clone, x6_base + w)
    for i in range(5):
        for u in i_sets[i]:
            for v in i_sets[(i + 2) % 5]:
                add(u, v)

    graph = Graph.from_edges(n, edges)

    # block membership and per-part ids for the coloring rules
    block_of = {}
    for i, block in enumerate(i_sets):
        for v in block:
            block_of[v] = i
    part_of = [min(v // q, 5) for v in range(n)]

    if params.rule_variant is RuleVariant.TEXT:
        offsets = (0, 2)
    else:
        offsets = (0, 1)

    colors = {}
    rule_counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for u, v in graph.edges():
        pu, pv = part_of[u], part_of[v]
        rule = 4
        if pu != pv:
            if pu < 5 and pv < 5 and _dist_mod(pu, pv, 5) == 2:
                rule = 1
            elif pu == 5 or pv == 5:
                inner, outer = (u, pv) if pu == 5 else (v, pu)
                b = block_of.get(inner)
                if b is not None and outer in ((b + off) % 5 for off in offsets):
                    rule = 2
        else:
            if pu == 5 and not (u in block_of and v in block_of):
                rule = 3
        rule_counts[rule] += 1
        colors[(u, v)] = 1 if rule < 4 else 2

    cg = ColoredGraph(graph, EdgeColoring(colors))
    partition = VertexPartition(n, part_ranges)
    alpha, alpha_witness = independence_number(graph)
    stats = {
        "edges": graph.edge_count,
        "alpha": alpha,
        "alpha_witness": alpha_witness,
        "rule_edges": rule_counts,
        "i_sets": tuple(i_sets),
        "isolated": params.isolated,
        "delta_n": params.delta_n,
        "d1_shortfall": params.delta_n - params.d1,
        "d2_shortfall": params.delta_n - params.d2,
        "f1": f1,
        "f2": f2,
    }
    return KklConstruction(cg, partition, stats)


def construction_37(
    n: int, d: int, distance: Distance = Distance.CYCLIC
) -> tuple[ColoredGraph, VertexPartition]:
    """Eight-part construction: T(n,8) with f_graph(n/8, d) in every part.

    Inner edges get color 2; cross edges get color 2 exactly when the part
    distance (cyclic mod 8 or literal |i-j|) is 1 or 2, and color 1 otherwise.
    """
    if n <= 0 or n % 8:
        raise ValueError(f"n={n} must be a positive multiple of 8")
    q = n // 8
    planted = f_graph(q, d)
    if not planted.exact or planted.degree != d:
        raise ConstructionError(
            f"d={d} not realizable on {q} vertices (achieved {planted.degree},"
            f" padding {planted.padding})"
        )
    colors = {}
    for i in range(8):
        off = i * q
        for u, v in planted.graph.edges():
            colors[(off + u, off + v)] = 2
    for a in range(8):
        for b in range(a + 1, 8):
            if distance is Distance.CYCLIC:
                dist = _dist_mod(a, b, 8)
            else:
                dist = b - a
            c = 2 if dist in (1, 2) else 1
            for u in range(a * q, (a + 1) * q):
                for v in range(b * q, (b + 1) * q):
                    colors[(u, v)] = c
    graph = Graph.from_edges(n, list(colors))
    cg = ColoredGraph(graph, EdgeColoring(colors))
    partition = VertexPartition(n, [range(i * q, (i + 1) * q) for i in range(8)])
    return cg, partition
