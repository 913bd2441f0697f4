"""Independent re-checks for benchmark answers.

Nothing here calls a solver of the package under test.  Witnesses are
re-checked by pairwise adjacency through the public ``Graph.has_edge`` and
``EdgeColoring.color`` accessors, small colorings by direct enumeration of
vertex subsets, graph6 lines by this file's own codec, and QP values by
evaluating the objective's formula here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """An answer differs from its pinned or re-computed expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# ----------------------------------------------------------------------
# cliques, independent sets and colorings


def is_mono_clique(cg, vertices, color: int) -> bool:
    """Every pair of ``vertices`` is an edge of ``cg`` with color ``color``."""
    return all(
        cg.graph.has_edge(u, v) and cg.coloring.color(u, v) == color
        for u, v in combinations(vertices, 2)
    )


def has_clique(n: int, edges, size: int) -> bool:
    """Brute force over vertex subsets; meant for n of at most 16."""
    if size <= 1:
        return size <= n
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def grow(clique: list[int], cands: list[int]) -> bool:
        if len(clique) == size:
            return True
        for i, v in enumerate(cands):
            if grow(clique + [v], [w for w in cands[i + 1:] if w in nbrs[v]]):
                return True
        return False

    return grow([], list(range(n)))


def independence_number(n: int, edges) -> int:
    """Brute force over vertex subsets; meant for n of at most 10."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    best = 0
    for size in range(1, n + 1):
        if any(
            all(pair not in edge_set for pair in combinations(subset, 2))
            for subset in combinations(range(n), size)
        ):
            best = size
        else:
            break
    return best


def check_free_coloring(n: int, edges, color_of, p: int, q: int) -> None:
    """``color_of(u, v)`` colors exactly ``edges`` with no K_p in color 1 and
    no K_q in color 2."""
    layers = {1: [], 2: []}
    for u, v in edges:
        c = color_of(u, v)
        expect(c in (1, 2), f"edge ({u},{v}) has color {c!r}")
        layers[c].append((u, v))
    expect(not has_clique(n, layers[1], p), f"color 1 contains K_{p}")
    expect(not has_clique(n, layers[2], q), f"color 2 contains K_{q}")


def check_rt_witness_graph(cg, value: int, p: int, q: int, m: int) -> None:
    """An extremal-count witness: ``value`` edges, (p, q)-free, alpha <= m."""
    n = cg.graph.n
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if cg.graph.has_edge(u, v)
    ]
    expect_equal(len(edges), value, "witness edge count")
    check_free_coloring(n, edges, cg.coloring.color, p, q)
    expect(independence_number(n, edges) <= m, f"witness has alpha > {m}")


# ----------------------------------------------------------------------
# graph6, written independently of the package codec


def graph6_encode(n: int, edges) -> str:
    """graph6 line for n <= 62: size byte, then the column-major upper
    triangle in big-endian 6-bit groups offset by 63."""
    if not 0 <= n <= 62:
        raise ValueError("the benchmark only writes graph6 for n <= 62")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in edge_set for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    groups = (
        sum(bit << (5 - k) for k, bit in enumerate(bits[g:g + 6]))
        for g in range(0, len(bits), 6)
    )
    return chr(n + 63) + "".join(chr(x + 63) for x in groups)


def graph6_decode(line: str) -> tuple[int, list[tuple[int, int]]]:
    line = line.strip()
    n = ord(line[0]) - 63
    expect(0 <= n <= 62, f"graph6 size byte {line[0]!r} out of range")
    bits = [
        (ord(ch) - 63) >> (5 - k) & 1 for ch in line[1:] for k in range(6)
    ]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    expect(len(bits) >= len(pairs), "graph6 line too short")
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


# ----------------------------------------------------------------------
# the two cyclic quadratics, evaluated from their definitions

F_MAX = Fraction(841, 400)
G_MAX = Fraction(2)


def quad_f(x, y) -> Fraction:
    """3/10 sum x + 1/5 sum y + sum x_i y_{i+2} + sum x_i x_{i+2}."""
    value = Fraction(3, 10) * sum(x) + Fraction(1, 5) * sum(y)
    value += sum(x[i] * y[(i + 2) % 5] for i in range(5))
    value += sum(x[i] * x[(i + 2) % 5] for i in range(5))
    return value


def filled_y(x) -> tuple[Fraction, ...]:
    """y_i = 1 - x_i - x_{i+1}, the largest feasible y for a given x."""
    return tuple(1 - x[i] - x[(i + 1) % 5] for i in range(5))


def f_feasible(x, y) -> bool:
    return all(v >= 0 for v in (*x, *y)) and all(
        x[i] + x[(i + 1) % 5] + y[i] <= 1 for i in range(5)
    )


def quad_g(x) -> Fraction:
    """(x_3 + x_4 + x_5) / 2 + sum x_i x_{i+2} (1-based indices)."""
    return Fraction(1, 2) * (x[2] + x[3] + x[4]) + sum(
        x[i] * x[(i + 2) % 5] for i in range(5)
    )


def g_feasible(x) -> bool:
    return all(v >= 0 for v in x) and all(x[i] + x[(i + 1) % 5] <= 1 for i in range(5))


# ----------------------------------------------------------------------
# density constants quoted by the paper

TABLE1 = {
    (3, 3): Fraction(1, 4),
    (3, 4): Fraction(1, 3),
    (3, 5): Fraction(2, 5),
    (3, 6): Fraction(5, 12),
    (3, 7): Fraction(7, 16),
    (4, 3): Fraction(1, 3),
    (4, 4): Fraction(11, 28),
}


def lower_36(delta: Fraction) -> Fraction:
    """Edge-density coefficient of the six-part construction."""
    return Fraction(5, 12) + delta / 2 + 2 * delta * delta


def single_clique_density(p: int, delta: Fraction) -> Fraction:
    if p % 2:
        s = (p - 1) // 2
        return Fraction(1, 2) * (Fraction(s - 1, s) + delta)
    s = p // 2
    return Fraction(1, 2) * (Fraction(3 * s - 5, 3 * s - 2) + delta - delta * delta)
