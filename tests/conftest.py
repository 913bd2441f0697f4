"""Shared builders and naive reference oracles.

The oracles here enumerate subsets directly and never call the solvers they
check, so solver/oracle agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from ramsey_turan import ColoredGraph, EdgeColoring, Graph, maximize_f, maximize_g


def petersen() -> Graph:
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, v + 5) for v in range(5)]
    return Graph.from_edges(10, edges)


def naive_max_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def naive_has_clique(g: Graph, p: int) -> bool:
    return any(
        all(g.has_edge(u, v) for u, v in combinations(subset, 2))
        for subset in combinations(range(g.n), p)
    )


def naive_independence(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if len(vs) <= best:
            continue
        if all(not g.has_edge(u, v) for u, v in combinations(vs, 2)):
            best = len(vs)
    return best


def assert_clique(g: Graph, vertices) -> None:
    for u, v in combinations(vertices, 2):
        assert g.has_edge(u, v), f"{u},{v} not adjacent"


def assert_independent(g: Graph, vertices) -> None:
    for u, v in combinations(vertices, 2):
        assert not g.has_edge(u, v), f"{u},{v} adjacent"


def pentagon_pattern_t12() -> ColoredGraph:
    """T(12,6) with cross colors following the five-cycle pattern.

    Parts 0..4 get color 1 at cyclic distance two and color 2 at distance
    one; everything touching part 5 is color 2.
    """
    from ramsey_turan import turan

    g = turan(12, 6)
    colors = {}
    for u, v in g.edges():
        pu, pv = u // 2, v // 2
        if max(pu, pv) == 5:
            c = 2
        else:
            d = (pu - pv) % 5
            c = 1 if min(d, 5 - d) == 2 else 2
        colors[(u, v)] = c
    return ColoredGraph(g, EdgeColoring(colors))


@pytest.fixture
def petersen_graph() -> Graph:
    return petersen()


# the two certified maxima are memoized by the package, so these fixtures and
# the CLI tests share one computation of each
@pytest.fixture(scope="session")
def f_cert():
    return maximize_f()


@pytest.fixture(scope="session")
def g_cert():
    return maximize_g()
