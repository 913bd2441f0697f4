import random
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_turan import (
    ColoredGraph,
    EdgeColoring,
    Graph,
    VertexPartition,
    clique_number,
    find_clique,
    independence_number,
    min_crossing_degree,
    turan,
    turan_partition,
)
from ramsey_turan.graphs import (
    _SMALL_NODE,
    _clique_engine,
    _omega,
    _transpose,
    _transpose_steps,
    bit_indices,
)
from ramsey_turan.search import enumerate_canonical_graphs, graph_from_canonical

from .conftest import (
    assert_clique,
    assert_independent,
    naive_has_clique,
    naive_independence,
    naive_max_clique,
    petersen,
)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


graphs_strategy = st.builds(
    random_graph,
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)


def per_edge_classes(n: int, colored_edges) -> tuple[Graph, Graph]:
    """Color classes built with every edge checked as it is added: the
    reference for the errors of ``ColoredGraph.from_colored_edges``."""
    one, two = [0] * n, [0] * n
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


def outcome(build):
    """("ok", value) of ``build()``, or the type and text of what it raised."""
    try:
        return "ok", build()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def colored_edge_lists(draw):
    """(n, triples): valid colored edges with bad ones mixed in, among them
    self-loops, vertices -1, n and 10**12, colors 0, 3 and True, and
    repeated or reversed edges in the same or the other color."""
    n = draw(st.integers(min_value=2, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    color = st.sampled_from((1, 2))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          unique=True, max_size=12))
    triples = [
        (v, u, c) if draw(st.booleans()) else (u, v, c)
        for (u, v), c in zip(pairs, draw(st.lists(color, min_size=len(pairs),
                                                   max_size=len(pairs))))
    ]
    bad = [
        st.builds(lambda v, c: (v, v, c), vertex, color),
        st.tuples(st.sampled_from((-1, n, 10**12)), vertex, color),
        st.tuples(vertex, st.sampled_from((-1, n, 10**12)), color),
        st.tuples(vertex, vertex, st.sampled_from((0, 3, True))),
    ]
    if triples:
        bad.append(st.builds(
            lambda t, flip, c: ((t[1], t[0]) if flip else t[:2]) + (c,),
            st.sampled_from(triples), st.booleans(), color,
        ))
    for extra in draw(st.lists(st.one_of(bad), max_size=3)):
        triples.insert(draw(st.integers(min_value=0, max_value=len(triples))), extra)
    return n, triples


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, [0b10, 0b00])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [0b1])

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(2, [0b100, 0])

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Graph(4097, [0] * 4097)

    def test_edges_roundtrip(self):
        g = petersen()
        assert Graph.from_edges(10, g.edges()) == g
        assert g.edge_count == 15

    def test_induced(self):
        g = Graph.cycle(5)
        sub = g.induced((0, 1, 2))
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_induced_vertex_out_of_range(self, bad):
        # a negative index would wrap to vertex 3 and repeat it unseen
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError) as err:
            g.induced([bad, 3])
        assert str(err.value) == f"vertex {bad} out of range for n=4"


def bit_loop_validate(n: int, adj) -> None:
    """Reference validation: the range and self-loop checks per row, then
    symmetry one adjacency bit at a time."""
    if not 0 <= n <= 4096:
        raise ValueError(f"vertex count {n} outside [0, 4096]")
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


def validation_outcome(check, n: int, rows):
    try:
        check(n, rows)
    except Exception as exc:  # the type and the message are both compared
        return type(exc), str(exc)
    return None


def planted_rows(rng: random.Random, n: int) -> list[int]:
    """A random symmetric row list with one to three one-sided bits planted
    and, now and then, an out-of-range bit, a negative row or a self-loop."""
    rows = list(random_graph(n, rng.random(), rng.randrange(10**6)).adj)
    pairs = list(combinations(range(n), 2))
    for pair in rng.sample(pairs, min(len(pairs), rng.randint(1, 3))):
        u, v = pair if rng.random() < 0.5 else pair[::-1]
        rows[u] ^= 1 << v
    if n and rng.random() < 0.1:
        rows[rng.randrange(n)] |= 1 << (n + rng.randrange(3))
    if n and rng.random() < 0.1:
        rows[rng.randrange(n)] = -rng.randint(1, 5)
    if n and rng.random() < 0.1:
        v = rng.randrange(n)
        rows[v] |= 1 << v
    return rows


def cross_block_star(w: int) -> Graph:
    """Vertex 0 joined to j + 1 for every block size 2 <= j < w (and to 3):
    each edge (0, c) crosses block size j, while (j, c ^ j) stays a non-edge,
    so a transpose that skips the swap at j (or garbles it) reads asymmetric."""
    n = w // 2 + 2
    blocks = [1 << k for k in range(1, w.bit_length() - 1)]
    return Graph.from_edges(n, [(0, 3)] + [(0, j + 1) for j in blocks])


class TestSymmetryTranspose:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70])
    def test_matches_bit_loop_oracle(self, n):
        rng = random.Random(1000 + n)
        for _ in range(150):
            rows = planted_rows(rng, n)
            expected = validation_outcome(bit_loop_validate, n, rows)
            assert validation_outcome(Graph, n, rows) == expected
            assert expected is not None or n < 2

    @pytest.mark.parametrize("w", [1 << k for k in range(3, 13)])
    def test_every_width_and_block_size(self, w):
        g = cross_block_star(w)
        assert max(8, 1 << (g.n - 1).bit_length()) == w
        assert Graph(g.n, g.adj) == g
        for c in bit_indices(g.adj[0]):
            rows = list(g.adj)
            rows[c] ^= 1
            message = f"asymmetric adjacency between {c} and 0"
            with pytest.raises(ValueError, match=f"^{message}$"):
                Graph(g.n, rows)

    @pytest.mark.parametrize("w", [8, 16, 32, 128])
    def test_transpose_of_random_matrices(self, w):
        rng = random.Random(w)
        for _ in range(3):
            x = rng.getrandbits(w * w)
            expected = sum(
                1 << (c * w + r)
                for r in range(w)
                for c in range(w)
                if x >> (r * w + c) & 1
            )
            assert _transpose(x, w) == expected

    def test_first_graph_at_the_cap_validates_in_time(self):
        rng = random.Random(4096)
        rows = [0] * 4096
        for _ in range(200_000):
            u, v = rng.sample(range(4096), 2)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _transpose_steps.cache_clear()
        try:
            start = time.perf_counter()
            g = Graph(4096, rows)
            elapsed = time.perf_counter() - start
        finally:
            _transpose_steps.cache_clear()
        assert g.edge_count > 190_000
        assert elapsed < 1.0


class TestVertexPartition:
    def test_vertex_cap(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="outside"):
            VertexPartition(4097, [range(4097)])
        with pytest.raises(ValueError, match="outside"):
            turan_partition(10**6, 3)
        assert time.perf_counter() - start < 1.0

    def test_repeated_vertex_in_one_part_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            VertexPartition(3, [[0, 0, 1], [2]])

    def test_shared_vertex_across_parts_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            VertexPartition(3, [[0, 1], [1, 2]])


class TestColoredGraph:
    TRIANGLE = {(0, 1): 1, (0, 2): 2, (1, 2): 1}

    @pytest.mark.parametrize(
        "graph, colors, message",
        [
            (Graph.complete(3), {(0, 1): 1, (0, 2): 2}, "missing \\[2\\]"),
            (Graph.cycle(4), {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2, (0, 2): 1},
             "extra \\[2\\]"),
            (Graph.complete(3), {**TRIANGLE, (0, 3): 1}, "out of range"),
            (Graph.complete(3), {**TRIANGLE, (-1, 0): 2}, "out of range"),
        ],
        ids=["missing-edge", "extra-pair", "out-of-range", "negative"],
    )
    def test_rejects_a_coloring_that_is_not_the_edge_set(self, graph, colors, message):
        with pytest.raises(ValueError, match=message):
            ColoredGraph(graph, EdgeColoring(colors))

    @pytest.mark.parametrize(
        "triples, message",
        [
            ([(0, 1, 1), (0, 2, 3)], "color 3"),
            ([(0, 1, 1), (1, 1, 2)], "self-loop"),
            ([(0, 1, 1), (1, 0, 1)], "duplicate"),
            ([(0, 1, 1), (0, 1, 2)], "duplicate"),
            ([(0, 1, 2), (1, 0, 1)], "duplicate"),
            ([(0, 3, 1)], "out of range"),
            ([(0, -1, 1)], "out of range"),
        ],
        ids=["color-3", "self-loop", "reversed", "both-colors", "reversed-both-colors",
             "out-of-range", "negative"],
    )
    def test_rejects_bad_colored_edges(self, triples, message):
        with pytest.raises(ValueError, match=message):
            ColoredGraph.from_colored_edges(3, triples)

    @given(colored_edge_lists())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_edge_checks(self, case):
        n, triples = case
        assert outcome(lambda: ColoredGraph.from_colored_edges(n, triples).classes) == (
            outcome(lambda: per_edge_classes(n, triples))
        )

    @pytest.mark.parametrize(
        "triples, expected",
        [
            ([(0, 1, 1), (2, 2, 1), (0, 5, 1)], (ValueError, "self-loop (2,2) in coloring")),
            ([(0, 1, 1), (0, 5, 1), (2, 2, 1)], (ValueError, "edge (0,5) out of range for n=3")),
            ([(0, 1, 2), (1, 2, 0), (1, 0, 1)], (ValueError, "color 0 not in {1, 2}")),
            ([(0, 1, 2), (1, 0, 1), (1, 2, 0)], (ValueError, "duplicate edge (0, 1)")),
            ([(0, 1.0, 1)], (TypeError, "unsupported operand type(s) for >>: 'int' and 'float'")),
            ([(0, 1.5, 1)], (TypeError, "unsupported operand type(s) for >>: 'int' and 'float'")),
        ],
        ids=["loop-then-range", "range-then-loop", "color-then-duplicate",
             "duplicate-then-color", "float-vertex", "fractional-vertex"],
    )
    def test_first_bad_edge_is_named(self, triples, expected):
        assert outcome(lambda: per_edge_classes(3, triples)) == expected
        assert outcome(lambda: ColoredGraph.from_colored_edges(3, triples)) == expected

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_unchecked_rows_equal_the_validated_graphs(self, n, p, seed):
        rng = random.Random(seed)
        triples = []
        one, two = [0] * n, [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < p:
                c = rng.choice((1, 2))
                rows = one if c == 1 else two
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                triples.append((u, v, c) if rng.random() < 0.5 else (v, u, c))
        rng.shuffle(triples)
        host = Graph(n, [a | b for a, b in zip(one, two)])
        cg = ColoredGraph.from_colored_edges(n, triples)
        for built, validated in zip((cg.graph, *cg.classes), (host, Graph(n, one), Graph(n, two))):
            assert built == validated and hash(built) == hash(validated)
            assert isinstance(built.adj, tuple)
        assert ColoredGraph.from_colored_edges(n, iter(triples)) == cg
        coloring = EdgeColoring({(u, v): c for u, v, c in triples})
        assert ColoredGraph(host, coloring) == cg

    def test_rejection_rereads_a_one_shot_generator(self):
        # the per-edge checks rerun over the edges already read
        triples = [(u, v, c) for (u, v), c in self.TRIANGLE.items()]
        with pytest.raises(ValueError) as err:
            ColoredGraph.from_colored_edges(3, (t for t in [*triples, (2, 1, 2)]))
        assert str(err.value) == "duplicate edge (1, 2)"
        with pytest.raises(ValueError) as err:
            ColoredGraph(Graph.complete(3), EdgeColoring({**self.TRIANGLE, (0, 3): 1}))
        assert str(err.value) == "edge (0,3) out of range for n=3"

    def test_duplicate_in_edge_coloring_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EdgeColoring({(0, 1): 1, (1, 0): 2})

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="outside"):
            ColoredGraph.from_colored_edges(4097, [])

    def test_from_classes_rejects_overlap_and_order_mismatch(self):
        with pytest.raises(ValueError, match="share an edge"):
            ColoredGraph.from_classes(Graph.complete(3), Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(ValueError, match="order"):
            ColoredGraph.from_classes(Graph.empty(3), Graph.empty(4))

    def test_views_agree_and_are_built_once(self):
        coloring = EdgeColoring(self.TRIANGLE)
        cg = ColoredGraph(Graph.complete(3), coloring)
        assert cg.coloring == coloring
        assert cg.color_class(1) is cg.color_class(1)
        assert sorted(cg.color_class(1).edges()) == [(0, 1), (1, 2)]
        assert sorted(cg.color_class(2).edges()) == [(0, 2)]
        built = ColoredGraph.from_colored_edges(
            3, [(u, v, c) for (u, v), c in self.TRIANGLE.items()]
        )
        assert built == cg and built.graph == Graph.complete(3)
        assert built.coloring == coloring
        assert built.coloring is built.coloring
        assert built.color_class(2) is built.color_class(2)
        assert ColoredGraph.from_classes(*cg.classes) == cg


class TestFindClique:
    def test_complete(self):
        assert find_clique(Graph.complete(6), 6) == (0, 1, 2, 3, 4, 5)

    def test_c5_triangle_free(self):
        assert find_clique(Graph.cycle(5), 3) is None

    def test_petersen_triangle_free(self):
        # oracle: all 120 triples checked directly
        g = petersen()
        assert not naive_has_clique(g, 3)
        assert find_clique(g, 3) is None

    def test_argument_errors(self):
        g = Graph.cycle(5)
        with pytest.raises(ValueError):
            find_clique(g, 0)
        with pytest.raises(ValueError):
            find_clique(g, 6)

    @given(graphs_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_witness_is_clique(self, g, p):
        if p > g.n:
            return
        found = find_clique(g, p)
        if found is not None:
            assert len(found) == p
            assert_clique(g, found)

    def test_absence_matches_naive_on_all_small_graphs(self):
        for n in range(1, 8):
            for mask in enumerate_canonical_graphs(n):
                g = graph_from_canonical(n, mask)
                for p in range(1, n + 1):
                    assert (find_clique(g, p) is None) == (
                        not naive_has_clique(g, p)
                    )


class TestIndependence:
    def test_c5(self):
        size, witness = independence_number(Graph.cycle(5))
        assert size == 2
        assert_independent(Graph.cycle(5), witness)

    def test_k6(self):
        size, witness = independence_number(Graph.complete(6))
        assert size == 1 and len(witness) == 1

    def test_petersen(self):
        g = petersen()
        assert naive_independence(g) == 4  # oracle: all 2^10 subsets
        size, witness = independence_number(g)
        assert size == 4
        assert_independent(g, witness)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            independence_number(Graph.empty(0))

    def test_matches_complement_clique_number_small(self):
        # cross-oracle on every isomorphism class with at most 7 vertices
        for n in range(1, 8):
            for mask in enumerate_canonical_graphs(n):
                g = graph_from_canonical(n, mask)
                alpha, witness = independence_number(g)
                omega, _ = clique_number(g.complement())
                assert alpha == omega
                assert_independent(g, witness)

    def test_matches_naive(self):
        for seed in range(30):
            g = random_graph(8, 0.4, seed)
            assert independence_number(g)[0] == naive_independence(g)


def substitution_graph(rng: random.Random, depth: int) -> Graph:
    """Random graphs substituted into the vertices of a random quotient,
    ``depth`` levels deep; random quotients make prime, series and parallel
    nodes all occur."""
    if depth == 0 or rng.random() < 0.2:
        return random_graph(rng.randint(1, 4), rng.random(), rng.randrange(10**6))
    quotient = random_graph(rng.randint(2, 5), rng.random(), rng.randrange(10**6))
    kids = [substitution_graph(rng, depth - 1) for _ in range(quotient.n)]
    offsets = [sum(kid.n for kid in kids[:i]) for i in range(len(kids))]
    edges = [
        (off + u, off + v) for kid, off in zip(kids, offsets) for u, v in kid.edges()
    ]
    for a, b in quotient.edges():
        edges += [
            (offsets[a] + u, offsets[b] + v)
            for u in range(kids[a].n)
            for v in range(kids[b].n)
        ]
    return Graph.from_edges(sum(kid.n for kid in kids), edges)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def planted_twins(rng: random.Random, n: int) -> Graph:
    """A random quotient blown up to ``n`` vertices, each of its vertices into
    a class of false twins (independent) or of true twins (a clique), with a
    few pairs then flipped so that some classes only nearly stay twins."""
    k = rng.randint(1, (n + 1) // 2)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = list(zip([0] + cuts, cuts + [n]))
    quotient = random_graph(k, rng.random(), rng.randrange(10**6))
    edges = set()
    for lo, hi in bounds:
        if rng.random() < 0.5:
            edges |= set(combinations(range(lo, hi), 2))
    for a, b in quotient.edges():
        (alo, ahi), (blo, bhi) = bounds[a], bounds[b]
        edges |= {(u, v) for u in range(alo, ahi) for v in range(blo, bhi)}
    pairs = list(combinations(range(n), 2))
    for pair in rng.sample(pairs, min(len(pairs), rng.randint(0, 3))):
        edges ^= {pair}
    return Graph.from_edges(n, edges)


def kernel_cases(seed: int):
    rng = random.Random(seed)
    # both sides of the kernel's small-node cut
    for n in range(2, 41):
        for _ in range(3):
            yield relabelled(planted_twins(rng, n), rng), rng
    for _ in range(240):
        g = substitution_graph(rng, rng.randint(1, 4))
        if g.n <= 60:
            yield relabelled(g, rng), rng
    for _ in range(60):
        g = random_graph(rng.randint(1, 30), rng.random(), rng.randrange(10**6))
        yield relabelled(g, rng), rng


class TestOmegaKernel:
    """The modular-decomposition kernel against the plain branch and bound,
    on relabelled planted-twin blow-ups, substitution graphs and G(n, p)."""

    def test_matches_engine_with_rechecked_witnesses(self):
        for g, rng in kernel_cases(2024):
            full = (1 << g.n) - 1
            omega, clique = clique_number(g)
            alpha, independent = independence_number(g)
            assert omega == _clique_engine(g.adj, full, 0, None)[0]
            assert alpha == _clique_engine(g.complement().adj, full, 0, None)[0]
            assert len(clique) == omega and len(independent) == alpha
            assert_clique(g, clique)
            assert_independent(g, independent)
            # a decision query stops at its target and is exact below it
            stop_at = rng.randint(1, omega + 1)
            size, mask = _omega(g.adj, full, stop_at)
            assert size == mask.bit_count()
            assert_clique(g, tuple(bit_indices(mask)))
            assert size == omega if omega < stop_at else stop_at <= size <= omega
            found = find_clique(g, stop_at) if stop_at <= g.n else None
            assert (found is None) == (omega < stop_at)
            if found is not None:
                assert len(found) == stop_at
                assert_clique(g, found)

    def test_vertex_subsets_of_planted_twins(self):
        # twin classes are taken in G[S], whose rows are adj[v] & S
        rng = random.Random(28)
        for _ in range(300):
            g = relabelled(planted_twins(rng, rng.randint(2, 40)), rng)
            co = g.complement().adj
            S = rng.randrange(1 << g.n)
            for rows in (g.adj, co):
                omega = _clique_engine(rows, S, 0, None)[0]
                size, mask = _omega(rows, S, None)
                assert size == omega == mask.bit_count()
                assert mask & ~S == 0
                assert_clique(Graph(g.n, rows), tuple(bit_indices(mask)))
                stop_at = rng.randint(1, omega + 1)
                size, mask = _omega(rows, S, stop_at)
                assert mask & ~S == 0 and size == mask.bit_count()
                assert size == omega if omega < stop_at else stop_at <= size <= omega


def pentagon_blowup_graphs(rng: random.Random, n: int, deletions: int) -> list[Graph]:
    """The two colour classes of a pentagon-coloured blow-up of K5 on ``n``
    vertices (adjacent parts, then parts at cyclic distance two) and their
    union, after up to ``deletions`` seeded edges leave each class."""
    part = [rng.randrange(5) for _ in range(n)]
    classes = ([], [])
    for u, v in combinations(range(n), 2):
        gap = (part[u] - part[v]) % 5
        if gap:
            classes[gap in (2, 3)].append((u, v))
    for edges in classes:
        for e in rng.sample(edges, min(len(edges), rng.randint(0, deletions))):
            edges.remove(e)
    one, two = classes
    return [Graph.from_edges(n, one), Graph.from_edges(n, two), Graph.from_edges(n, one + two)]


def threshold_cases(seed: int):
    """Graphs of 9 to ``_SMALL_NODE`` + 8 vertices, so that the root (after
    its twins go) and its children fall on both sides of the small-node cut."""
    rng = random.Random(seed)
    for n in range(9, _SMALL_NODE + 9):
        for p in (0.3, 0.5, 0.8):
            yield random_graph(n, p, rng.randrange(10**6))
        yield from pentagon_blowup_graphs(rng, n, 3)
        yield relabelled(planted_twins(rng, n), rng)


class TestSmallNodeThreshold:
    """Every answer around ``_SMALL_NODE`` equals the plain branch and bound
    on the whole vertex set, and every witness is checked against the graph."""

    def test_matches_engine_on_the_whole_vertex_set(self):
        for g in threshold_cases(29):
            full = (1 << g.n) - 1
            omega = _clique_engine(g.adj, full, 0, None)[0]
            alpha = _clique_engine(g.complement().adj, full, 0, None)[0]
            size, clique = clique_number(g)
            assert size == omega == len(clique)
            assert_clique(g, clique)
            size, independent = independence_number(g)
            assert size == alpha == len(independent)
            assert_independent(g, independent)
            for p in range(1, min(g.n, omega + 1) + 1):
                found = find_clique(g, p)
                assert (found is None) == (p > omega)
                if found is not None:
                    assert len(found) == p
                    assert_clique(g, found)

    def test_cases_straddle_the_cut(self):
        sizes = {g.n for g in threshold_cases(29)}
        assert min(sizes) == 9 and max(sizes) == _SMALL_NODE + 8


def heaviest_clique_weight(g: Graph, start: int, weights) -> int:
    """Largest total weight of a clique inside ``start``, by enumeration."""
    vertices = list(bit_indices(start))
    return max(
        sum(weights[v] for v in subset)
        for size in range(len(vertices) + 1)
        for subset in combinations(vertices, size)
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2))
    )


class TestCliqueEngine:
    """The branch and bound against enumeration, with its restriction to
    ``start``, its ``lower`` floor, its ``stop_at`` exit and weights that do
    not increase with the vertex index (unit weights among them)."""

    def test_matches_enumeration(self):
        rng = random.Random(10)
        for case in range(1500):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng.randrange(10**6))
            if case % 3:
                weights = sorted((rng.randint(1, 5) for _ in range(n)), reverse=True)
            else:
                weights = [1] * n
            start = rng.randrange(1 << n)
            best = heaviest_clique_weight(g, start, weights)
            lower = rng.randint(0, best + 1)
            stop_at = rng.choice([None, rng.randint(1, best + 2)])
            size, mask = _clique_engine(g.adj, start, lower, stop_at, weights)
            # what a completed search returns: the optimum, or the floor
            exact = max(best, lower)
            if stop_at is None or exact < stop_at:
                assert size == exact
            else:
                assert stop_at <= size <= exact
            if size > lower:
                assert mask & ~start == 0
                assert sum(weights[v] for v in bit_indices(mask)) == size
                assert_clique(g, tuple(bit_indices(mask)))
            else:
                assert (size, mask) == (lower, 0)


def call_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def with_shallow_stack(fn, *args):
    """Run ``fn`` with only 100 interpreter frames to spare."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 100)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def alternating_threshold(n: int) -> Graph:
    """Each odd vertex joins every earlier vertex; the even ones stay isolated
    when added, so the decomposition tree has depth n."""
    return Graph.from_edges(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


class TestDeepInputs:
    def test_thin_spider_clique(self):
        k = 400
        edges = [(u, v) for v in range(k) for u in range(v)]
        edges += [(v, k + v) for v in range(k)]
        g = Graph.from_edges(2 * k, edges)
        size, witness = with_shallow_stack(clique_number, g)
        assert size == k and witness == tuple(range(k))

    def test_alternating_threshold_independence(self):
        g = alternating_threshold(400)
        size, witness = with_shallow_stack(independence_number, g)
        assert size == 200
        assert_independent(g, witness)


class TestDecisionQueries:
    @pytest.mark.parametrize("joined", [False, True], ids=["isolated", "dominating"])
    def test_triangle_found_at_once(self, joined):
        # G(150, 0.9) plus one vertex: the root is a parallel node when the
        # vertex is isolated and a series node when it sees every vertex
        dense = random_graph(150, 0.9, 1)
        extra = [(v, 150) for v in range(150)] if joined else []
        g = Graph.from_edges(151, list(dense.edges()) + extra)
        start = time.perf_counter()
        found = find_clique(g, 3)
        elapsed = time.perf_counter() - start
        assert found is not None and len(found) == 3
        assert_clique(g, found)
        assert elapsed < 1.0


class TestMinCrossingDegree:
    def test_turan(self):
        assert min_crossing_degree(turan(12, 6), turan_partition(12, 6)) == 2

    def test_c5_bipartition(self):
        part = VertexPartition(5, [(0, 1), (2, 3, 4)])
        assert min_crossing_degree(Graph.cycle(5), part) == 0

    def test_k6_triples(self):
        part = VertexPartition(6, [(0, 1, 2), (3, 4, 5)])
        assert min_crossing_degree(Graph.complete(6), part) == 3

    def test_single_part_rejected(self):
        with pytest.raises(ValueError):
            min_crossing_degree(Graph.cycle(5), VertexPartition(5, [range(5)]))
