import hashlib
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_turan import (
    ColoredGraph,
    Graph,
    RtInstance,
    RtResult,
    SearchBudgetExceeded,
    canonical_form,
    check_rt_witness,
    enumerate_canonical_graphs,
    find_free_coloring,
    graph_from_canonical,
    independence_number,
    ramsey_verify,
    rt_exact,
)
from ramsey_turan.certify import _is_five_cycle
from ramsey_turan.constructions import turan
from ramsey_turan.graphs import MAX_VERTICES, _clique_engine
from ramsey_turan.search import _closes, _colorable, _degree_caps

from .conftest import naive_has_clique, naive_independence


def lex_least_coloring(g: Graph, p: int, q: int) -> dict | None:
    """The first (p, q)-free colouring among all 2^e in lexicographic order,
    colour 1 before colour 2, over the edges in the backtracker's documented
    order (descending endpoint degree sum, then vertex pair); independent of
    the backtracker and its engine."""
    edges = sorted(g.edges(), key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
    for colors in product((1, 2), repeat=len(edges)):
        red = [e for e, c in zip(edges, colors) if c == 1]
        blue = [e for e, c in zip(edges, colors) if c == 2]
        if not naive_has_clique(Graph.from_edges(g.n, red), p) and not (
            naive_has_clique(Graph.from_edges(g.n, blue), q)
        ):
            return dict(zip(edges, colors))
    return None


def brute_force_colorable(g: Graph, p: int, q: int) -> bool:
    return lex_least_coloring(g, p, q) is not None


def colorable_classes(n: int, p: int, q: int) -> tuple[tuple[int, int], ...]:
    """(edge count, independence number) of every n-vertex class with a
    (p, q)-free coloring, by brute force over the canonical sweep."""
    out = []
    for mask in enumerate_canonical_graphs(n):
        g = graph_from_canonical(n, mask)
        if brute_force_colorable(g, p, q):
            out.append((mask.bit_count(), naive_independence(g)))
    return tuple(out)


class TestCanonical:
    def test_class_counts(self):
        # graphs on n unlabeled vertices: 1, 2, 4, 11, 34, 156
        assert [len(enumerate_canonical_graphs(n)) for n in range(1, 7)] == [
            1,
            2,
            4,
            11,
            34,
            156,
        ]

    def test_invariant_under_relabeling(self):
        rng = random.Random(3)
        for n in (4, 5, 6):
            for mask in enumerate_canonical_graphs(n)[::5]:
                g = graph_from_canonical(n, mask)
                for _ in range(5):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = Graph.from_edges(
                        n, [(perm[u], perm[v]) for u, v in g.edges()]
                    )
                    assert canonical_form(h) == canonical_form(g) == mask

    def test_round_trip(self):
        for mask in enumerate_canonical_graphs(5):
            g = graph_from_canonical(5, mask)
            assert canonical_form(g) == mask


@st.composite
def closure_cases(draw):
    """A random symmetric colour class on n <= 16 vertices, a clique size of
    1 to 6 and a vertex bitset: random, or with exactly need - 1 or need
    vertices, either side of the popcount test."""
    n = draw(st.integers(1, 16))
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    need = draw(st.integers(1, 6))
    size = draw(st.sampled_from([None, need - 1, need]))
    if size is None or size > n:
        common = draw(st.integers(0, (1 << n) - 1))
    else:
        members = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        common = sum(1 << v for v in members)
    return rows, common, need


class TestClosure:
    @settings(max_examples=600, deadline=None)
    @given(closure_cases())
    def test_matches_clique_engine(self, case):
        rows, common, need = case
        engine = _clique_engine(rows, common, need - 1, need)[0] >= need
        assert _closes(rows, common, need) == engine

    def test_k4_free_tripartite_class(self):
        # 600 vertices pass the popcount; the engine's colour bound (three
        # colours) refutes a K_4 at its root
        rows = turan(600, 3).adj
        assert not _closes(rows, (1 << 600) - 1, 4)


def seeded_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(7, 10)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.75]
    )


def planted_k6(seed: int) -> Graph:
    rng = random.Random(seed)
    k6 = rng.sample(range(8), 6)
    return Graph.from_edges(
        8,
        [
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if (u in k6 and v in k6) or rng.random() < 0.4
        ],
    )


class TestFindFreeColoring:
    def test_k5_yields_pentagonlike(self):
        result = find_free_coloring(Graph.complete(5), 3, 3)
        assert result.coloring is not None and result.exhausted
        cg = ColoredGraph(Graph.complete(5), result.coloring)
        for c in (1, 2):
            assert _is_five_cycle(cg.color_class(c))

    def test_k6_exhausts_without_solution(self):
        result = find_free_coloring(Graph.complete(6), 3, 3)
        assert result.coloring is None
        assert result.exhausted
        assert result.nodes <= 1 << 15

    def test_k3_mixed_split(self):
        result = find_free_coloring(Graph.complete(3), 3, 3)
        assert result.coloring is not None
        assert sorted(result.coloring.colors.values()).count(1) in (1, 2)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            find_free_coloring(Graph.complete(3), 3, 3, budget=0)

    @pytest.mark.parametrize("budget", [True, False, 2.5, 1e6, "10", None])
    def test_non_integer_budget_rejected(self, budget):
        calls = [
            lambda: find_free_coloring(Graph.complete(4), 3, 3, budget=budget),
            lambda: ramsey_verify(3, 3, 4, budget=budget),
            lambda: RtInstance(n=4, p=3, q=3, m=1, budget=budget),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"budget must be an integer, not {budget!r}"

    def test_no_colour_allowed(self):
        # p = q = 2 forbids both colours: any edge refutes at once, with no node
        refuted = find_free_coloring(Graph.complete(3), 2, 2)
        assert (refuted.coloring, refuted.exhausted, refuted.nodes) == (None, True, 0)
        empty = find_free_coloring(Graph(3, [0, 0, 0]), 2, 2)
        assert (empty.coloring.colors, empty.exhausted, empty.nodes) == ({}, True, 0)

    def test_tiny_budget_flags_incomplete(self):
        result = find_free_coloring(Graph.complete(6), 3, 3, budget=5)
        assert result.coloring is None
        assert not result.exhausted

    @pytest.mark.parametrize(
        "graph, p, q, nodes, witness",
        [
            (seeded_graph(1), 3, 3, 274, "11122121111222111122"),
            (seeded_graph(2), 3, 3, 25, "122111121111"),
            (seeded_graph(3), 3, 4, 33, "12222111111222222222"),
            (seeded_graph(5), 4, 4, 28, "122111111111111111211121"),
            (seeded_graph(6), 4, 3, 17, "111111211111211"),
            (seeded_graph(7), 3, 5, 1286, "12221211112111122222112211211112"),
            # 18 nodes while colour 1 (need 0 at p = 2) cost a node per pair
            pytest.param(seeded_graph(8), 2, 4, 9, None, id="graph6-2-4-18-None"),
            # 1974 nodes before the colour swap halved p = q refutations
            pytest.param(Graph.complete(6), 3, 3, 987, None, id="graph7-3-3-1974-None"),
            (Graph.complete(8), 3, 4, 12466, "1112222221122212122121221121"),
            # 1686 nodes before the colour swap
            pytest.param(planted_k6(11), 3, 3, 843, None, id="graph9-3-3-1686-None"),
        ],
    )
    def test_pinned_nodes_and_witnesses(self, graph, p, q, nodes, witness):
        # the edge order, the colour order and so the witness and the node
        # count are part of the interface; the CLI prints the nodes.  A
        # re-pinned count keeps its earlier count in the test id, so the
        # test names stay stable
        result = find_free_coloring(graph, p, q)
        assert result.exhausted
        assert result.nodes == nodes
        found = result.coloring
        if witness is None:
            assert found is None
        else:
            assert "".join(str(c) for _, c in sorted(found.colors.items())) == witness

    def test_color_swap_symmetry(self):
        for mask in enumerate_canonical_graphs(5):
            g = graph_from_canonical(5, mask)
            a = find_free_coloring(g, 3, 4).coloring is not None
            b = find_free_coloring(g, 4, 3).coloring is not None
            assert a == b

    @pytest.mark.parametrize(
        "p, q, refuted",
        [(3, 3, 0), (3, 4, 0), (2, 4, 6), (4, 2, 6), (2, 5, 1), (4, 4, 0)],
    )
    def test_verdicts_match_brute_force(self, p, q, refuted):
        # every canonical class with n <= 5 against all 2^e colorings; (3,3)
        # refutes nothing since any pentagonlike coloring of K5 restricts to a
        # triangle-free coloring of each subgraph
        refuted_classes = 0
        for n in range(1, 6):
            for mask in enumerate_canonical_graphs(n):
                g = graph_from_canonical(n, mask)
                brute = brute_force_colorable(g, p, q)
                result = find_free_coloring(g, p, q)
                assert result.exhausted
                assert (result.coloring is not None) == brute
                refuted_classes += not brute
                if result.coloring is not None:
                    cg = ColoredGraph(g, result.coloring)
                    assert not naive_has_clique(cg.color_class(1), p)
                    assert not naive_has_clique(cg.color_class(2), q)
                    if p == q:
                        # the colour swap keeps the lex-least witness
                        assert result.coloring.colors == lex_least_coloring(g, p, q)
        assert refuted_classes == refuted


class TestRamseyVerify:
    def test_boundary_3_3(self):
        assert ramsey_verify(3, 3, 5) is True
        assert ramsey_verify(3, 3, 6) is False

    def test_degenerate_first_color(self):
        # a K2-free color class must be empty, so K_n works iff n < q
        for q in (3, 4):
            for n in (2, 3, 4, 5):
                assert ramsey_verify(2, q, n) == (n < q)

    def test_below_known_boundary(self):
        # r(3,4) = 9, so K8 still admits a coloring
        assert ramsey_verify(3, 4, 8) is True

    @pytest.mark.parametrize(
        "p, q, n, expected",
        # r(3,4) = 9, r(3,5) = 14 and r(4,4) = 18 (Radziszowski, "Small
        # Ramsey Numbers", EJC DS1); the caps refute (3,5,14) and (4,4,18)
        # at the root
        [(3, 4, 9, False), (3, 5, 13, True), (3, 5, 14, False), (4, 4, 18, False)],
    )
    def test_known_boundaries(self, p, q, n, expected):
        start = time.perf_counter()
        assert ramsey_verify(p, q, n) is expected
        assert time.perf_counter() - start < 1.0

    def test_agrees_with_plain_search(self):
        # the uncapped free-coloring search on K_n completes on all 81 cases
        for p in (2, 3, 4):
            for q in (2, 3, 4):
                for n in range(9):
                    plain = find_free_coloring(Graph.complete(n), p, q)
                    assert plain.exhausted
                    assert ramsey_verify(p, q, n) == (plain.coloring is not None)

    def test_budget_exhaustion_raises(self):
        # a budget below the 15 pairs of K6 cannot finish one colouring
        with pytest.raises(SearchBudgetExceeded):
            ramsey_verify(3, 3, 6, budget=3)

    def test_budget_exhaustion_inside_search(self):
        # 100 nodes cover the 36 pairs of K9 but not the refutation
        with pytest.raises(SearchBudgetExceeded):
            ramsey_verify(3, 4, 9, budget=100)


class TestRtExact:
    def test_k5_instance(self):
        result = rt_exact(RtInstance(n=5, p=3, q=3, m=1))
        assert result.value == 10
        assert result.exhausted
        cert = check_rt_witness(result.witness, 3, 3, 1)
        assert cert.passed
        assert result.witness.graph == Graph.complete(5)
        for c in (1, 2):
            assert _is_five_cycle(result.witness.color_class(c))

    def test_k6_instance_has_no_graph(self):
        result = rt_exact(RtInstance(n=6, p=3, q=3, m=1))
        assert result.value is None
        assert result.witness is None
        assert result.exhausted

    def test_triangle_instance(self):
        result = rt_exact(RtInstance(n=3, p=3, q=3, m=1))
        assert result.value == 3
        assert check_rt_witness(result.witness, 3, 3, 1).passed

    def test_value_is_tight(self):
        # independent re-verification: no graph with one more edge qualifies
        inst = RtInstance(n=6, p=3, q=3, m=2)
        result = rt_exact(inst)
        assert result.exhausted and result.value is not None
        assert check_rt_witness(result.witness, 3, 3, 2).passed
        for mask in enumerate_canonical_graphs(6):
            if mask.bit_count() != result.value + 1:
                continue
            g = graph_from_canonical(6, mask)
            alpha, _ = independence_number(g)
            if alpha > 2:
                continue
            attempt = find_free_coloring(g, 3, 3)
            assert attempt.coloring is None and attempt.exhausted

    def test_monotone_in_cap_and_clique_size(self):
        def value(n, p, q, m):
            r = rt_exact(RtInstance(n=n, p=p, q=q, m=m))
            return -1 if r.value is None else r.value

        for n in (4, 5):
            for q in (3, 4):
                vals = [value(n, 3, q, m) for m in (1, 2, 3)]
                assert vals == sorted(vals)
            for m in (1, 2):
                vals = [value(n, 3, q, m) for q in (3, 4, 5)]
                assert vals == sorted(vals)

    @pytest.mark.parametrize("p, q", [(3, 3), (3, 4), (2, 4), (2, 5), (2, 3)])
    def test_matches_canonical_oracle(self, p, q):
        # (2, 3) with m = 2 forces non-edges: caps (2, 0, 2), so each vertex
        # of K_5 needs two of them
        # the oracle never runs the edge search: canonical sweep, naive
        # independence number and 2^e brute-force colorings
        for n in range(1, 6):
            classes = colorable_classes(n, p, q)
            for m in (1, 2, 3):
                values = [e for e, alpha in classes if alpha <= m]
                expected = max(values) if values else None
                result = rt_exact(RtInstance(n=n, p=p, q=q, m=m))
                assert result.exhausted
                assert result.value == expected, (n, p, q, m)
                if expected is None:
                    assert result.witness is None
                else:
                    assert result.witness.graph.edge_count == expected
                    assert check_rt_witness(result.witness, p, q, m).passed

    @pytest.mark.parametrize(
        "n, p, q, m, value",
        [
            (7, 3, 3, 2, 19),
            (7, 3, 4, 2, 21),
            (8, 3, 3, 2, 25),
            (8, 3, 4, 2, 28),
            (9, 3, 4, 2, 35),
            (9, 3, 3, 2, 32),
        ],
    )
    def test_pinned_values(self, n, p, q, m, value):
        result = rt_exact(RtInstance(n=n, p=p, q=q, m=m))
        assert result.exhausted
        assert result.value == value
        assert result.witness.graph.edge_count == value
        assert check_rt_witness(result.witness, p, q, m).passed

    @pytest.mark.parametrize(
        "n, p, q, m, digest",
        [
            (7, 3, 3, 2, "5c353ec3af046e083720f38eb6c91adc8d271b6ed0d06ae1a708e72b950c46f1"),
            (8, 3, 3, 2, "f63ee9d40b98d93067f66dbb5b76e421a72cd8cfad0fe4201ed17b133255bb33"),
            (9, 3, 3, 2, "d3aebf51621f1ace3f680ad0d2806327324e63db906d3966bc30bdacdb7bcd7c"),
            (8, 4, 4, 3, "2f47cbebf7e402b10f02d88c979bd984443a7cf782e1dccc3c4304147392a4c8"),
        ],
    )
    def test_pinned_witnesses(self, n, p, q, m, digest):
        # the witness is the lex-least optimum in the search order, the same
        # with or without the symmetry constraints; pinned by the sha256 of
        # both colour-class rows
        result = rt_exact(RtInstance(n=n, p=p, q=q, m=m))
        assert result.exhausted
        rows = repr([list(c.adj) for c in result.witness.classes])
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_budget_limited_search_is_not_exhausted(self):
        result = rt_exact(RtInstance(n=7, p=3, q=3, m=2, budget=500))
        assert not result.exhausted
        assert result.nodes == 501
        if result.value is not None:
            assert result.value <= 19
            assert check_rt_witness(result.witness, 3, 3, 2).passed

    def test_budget_below_pair_count_returns_at_once(self):
        # 28 pairs need at least 28 nodes for a single graph
        result = rt_exact(RtInstance(n=8, p=3, q=3, m=2, budget=27))
        assert result == RtResult(None, None, False, 0)
        assert rt_exact(RtInstance(n=8, p=3, q=3, m=2, budget=28)).nodes > 0

    def test_shared_argument_messages(self):
        calls = [
            lambda p, q, budget: find_free_coloring(Graph.complete(3), p, q, budget),
            lambda p, q, budget: ramsey_verify(p, q, 3, budget),
            lambda p, q, budget: RtInstance(n=3, p=p, q=q, m=1, budget=budget),
        ]
        for call in calls:
            for p, q, budget, message in (
                (1, 3, 10, "clique sizes must be >= 2"),
                (3, 1, 0, "clique sizes must be >= 2"),
                (3, 3, 0, "budget must be positive"),
            ):
                with pytest.raises(ValueError) as err:
                    call(p, q, budget)
                assert str(err.value) == message

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            RtInstance(n=MAX_VERTICES + 1, p=3, q=3, m=1)
        with pytest.raises(ValueError):
            RtInstance(n=0, p=3, q=3, m=1)
        with pytest.raises(ValueError):
            RtInstance(n=3, p=1, q=3, m=1)
        with pytest.raises(ValueError):
            RtInstance(n=3, p=3, q=3, m=0)

    @pytest.mark.parametrize(
        "n, p, q, m, nodes",
        [
            # 713 and 4378 nodes before the colour swap (the ids keep them)
            pytest.param(7, 3, 3, 2, 699, id="7-3-3-2-713"),
            pytest.param(8, 3, 3, 2, 4344, id="8-3-3-2-4378"),
        ],
    )
    def test_pinned_node_counts(self, n, p, q, m, nodes):
        # 22,240 and 508,747 nodes without degree caps and sb_l; `rturan
        # search rt` prints the count, so a second call (with the caps
        # memoized) must repeat it
        _degree_caps.cache_clear()
        _colorable.cache_clear()
        counts = [rt_exact(RtInstance(n=n, p=p, q=q, m=m)).nodes for _ in range(2)]
        assert counts == [nodes, nodes]

    def test_r333_refuted_at_the_root(self):
        # every colour degree is at most R(3,3) - 1 = 5, and 3 * 5 < 16
        result = rt_exact(RtInstance(n=17, p=3, q=3, m=2))
        assert result == RtResult(None, None, True, 0)


class TestDegreeCaps:
    def test_triangle_free_colours(self):
        # a colour neighbourhood is a 2-colouring of its pairs without a
        # monochromatic triangle, so at most R(3,3) - 1 = 5 vertices
        for n in (6, 9, 16, 17, 40):
            assert _degree_caps((1, 1, 1), n) == (5, 5, 5)
        # below order 6 no vertex can exceed n - 1 anyway
        assert _degree_caps((1, 1, 1), 5) == (4, 4, 4)

    def test_one_k4_free_colour(self):
        # (p, q, m) = (3, 4, 2): lowering colour 0 or 1 leaves a triangle-free
        # and a K4-free colour, R(3,4) - 1 = 8; lowering colour 2 leaves
        # three triangle-free colours, R(3,3,3) = 17 > n - 1
        assert _degree_caps((1, 1, 2), 9) == (8, 8, 8)
        assert _degree_caps((1, 1, 2), 10) == (8, 8, 9)
        assert _degree_caps((1, 1, 2), 12) == (8, 8, 11)

    def test_two_colours(self):
        # m = 1: colour 0 is unusable; (3, 3) gives R(2,3) - 1 = 2 per
        # colour, (3, 4) gives R(2,4) - 1 = 3 and R(3,3) - 1 = 5
        assert _degree_caps((0, 1, 1), 9) == (0, 2, 2)
        assert _degree_caps((0, 1, 2), 9) == (0, 3, 5)
        assert _degree_caps((0, 0, 1), 9) == (0, 0, 1)

    def test_empty_host(self):
        # K_0 has no vertex to cap, so no cap is negative and its empty
        # colouring is found
        assert _degree_caps((1, 1, 1), 0) == (0, 0, 0)
        assert _colorable((0, 1, 1), 0)

    def test_colorable_boundaries(self):
        assert _colorable((0, 1, 1), 5) and not _colorable((0, 1, 1), 6)
        assert _colorable((0, 1, 2), 8) and not _colorable((0, 1, 2), 9)
        assert _colorable((1, 1, 1), 9)
