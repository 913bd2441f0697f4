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
    Graph,
    VertexPartition,
    _check_order,
    _clique_engine,
    _complement_rows,
    bit_indices,
)


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
    return _complete_multipartite(turan_part_sizes(_check_order(n), p))


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
    if p < 1:
        raise ValueError("part count must be >= 1")
    if p > n:
        raise ValueError(f"part count {p} exceeds vertex count {n}")
    q, r = divmod(n, p)
    return [q + 1] * r + [q] * (p - r)


def turan_partition(n: int, p: int) -> VertexPartition:
    _check_order(n)
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
    if d_target < 0:
        raise ValueError(f"f-graph target degree d must be >= 0, got {d_target}")
    order = _check_order(m)
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


def _exact_f_graph(m: int, d: int, name: str) -> FGraphResult:
    """``f_graph(m, d)`` when it is exactly d-regular with alpha = d and no
    padding; otherwise a ConstructionError naming the parameter ``name``."""
    f = f_graph(m, d)
    if not f.exact or f.degree != d:
        raise ConstructionError(
            f"{name}={d} not realizable on {m} vertices (achieved {f.degree},"
            f" padding {f.padding})"
        )
    return f


def pentagonlike(perm) -> ColoredGraph:
    """Two-coloring of K5 whose color classes are the cycle on ``perm`` and
    its complementary cycle."""
    perm = tuple(perm)
    if sorted(perm) != [0, 1, 2, 3, 4]:
        raise ValueError(f"{perm!r} is not a permutation of 0..4")
    cycle = Graph.from_edges(5, [(perm[i], perm[(i + 1) % 5]) for i in range(5)])
    return ColoredGraph.from_classes(cycle, cycle.complement())


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
    (rule 3).  Everything else is color 2 (rule 4).  ``stats`` holds the edge
    count, the edge tally of each rule and the five blocks; freeness and the
    independence number are not asserted here, the certifier decides them.
    """
    n = _check_order(params.n)
    q = n // 6
    f1 = _exact_f_graph(q, params.d1, "d1")
    f2 = _exact_f_graph(params.m2, params.d2, "d2")

    full = (1 << n) - 1
    partition = turan_partition(n, 6)
    part_masks = partition.masks
    x6_base = 5 * q
    h = params.clone_block

    # the blocks come from this exact engine's witness on the core, so the
    # output does not depend on which maximum independent set the modular
    # decomposition of independence_number would return
    alpha2, core_mask = _clique_engine(
        _complement_rows(f2.graph.adj), (1 << params.m2) - 1, 0, None
    )
    witness = tuple(bit_indices(core_mask))
    if alpha2 != params.d2:
        raise ConstructionError(
            f"core independence {alpha2} differs from d2={params.d2}"
        )
    i1_local = witness[:h]
    clones = [range(params.m2 + b * h, params.m2 + (b + 1) * h) for b in range(3)]
    i_sets = [
        tuple(x6_base + v for v in block) for block in (i1_local, witness[h:], *clones)
    ]
    block_masks = [sum(1 << v for v in block) for block in i_sets]

    # sixth part's own color-1 rows (local labels): the core, and clones that
    # inherit their original's core neighborhood
    inner = list(f2.graph.adj) + [0] * (q - params.m2)
    for block in clones:
        for clone, orig in zip(block, i1_local):
            inner[clone] = f2.graph.adj[orig]
            for w in bit_indices(inner[clone]):
                inner[w] |= 1 << clone

    # rows of both colors by the rules above; block b's rule-2 edges go to
    # parts b and b + step
    step = 2 if params.rule_variant is RuleVariant.TEXT else 1
    outer = full ^ part_masks[5]
    one, two = [], []
    for i in range(5):
        row1 = (
            part_masks[(i + 2) % 5]
            | part_masks[(i + 3) % 5]
            | block_masks[i]
            | block_masks[(i - step) % 5]
        )
        row2 = full & ~part_masks[i] & ~row1
        one += [row1] * q
        two += [row2 | row << (i * q) for row in f1.graph.adj]
    one += [row << x6_base for row in inner]
    two += [outer] * q
    for b, block in enumerate(i_sets):
        sent = part_masks[b] | part_masks[(b + step) % 5]
        joined = block_masks[(b + 2) % 5] | block_masks[(b + 3) % 5]
        for v in block:
            one[v] |= sent
            two[v] = (outer ^ sent) | joined

    cg = ColoredGraph.from_classes(Graph(n, one), Graph(n, two))
    stats = {
        "edges": cg.graph.edge_count,
        "rule_edges": {
            1: sum((row & outer).bit_count() for row in one[:x6_base]) // 2,
            2: sum((row & part_masks[5]).bit_count() for row in one[:x6_base]),
            3: sum((row & part_masks[5]).bit_count() for row in one[x6_base:]) // 2,
            4: cg.classes[1].edge_count,
        },
        "i_sets": tuple(i_sets),
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
    if n < 16:
        raise ValueError(
            f"n={n} must be >= 16: each of the 8 parts needs at least 2 vertices"
            " for its f-graph"
        )
    q = _check_order(n) // 8
    planted = _exact_f_graph(q, d, "d")
    partition = turan_partition(n, 8)
    part_masks = partition.masks
    one, two = [], []
    for a in range(8):
        near = far = 0
        for b in range(8):
            if b == a:
                continue
            dist = _dist_mod(a, b, 8) if distance is Distance.CYCLIC else abs(a - b)
            if dist in (1, 2):
                near |= part_masks[b]
            else:
                far |= part_masks[b]
        one += [far] * q
        two += [near | row << (a * q) for row in planted.graph.adj]
    return ColoredGraph.from_classes(Graph(n, one), Graph(n, two)), partition
