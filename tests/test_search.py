import random
from itertools import permutations

import pytest

from ramsey_turan import (
    ColoredGraph,
    Graph,
    RtInstance,
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
from ramsey_turan.constructions import _is_five_cycle

from .conftest import naive_has_clique


def brute_force_colorable(g: Graph, p: int, q: int) -> bool:
    """Try all 2^e colorings; independent of the backtracker and its engine."""
    edges = list(g.edges())
    for bits in range(1 << len(edges)):
        red = [e for i, e in enumerate(edges) if (bits >> i) & 1]
        blue = [e for i, e in enumerate(edges) if not (bits >> i) & 1]
        if not naive_has_clique(Graph.from_edges(g.n, red), p) and not (
            naive_has_clique(Graph.from_edges(g.n, blue), q)
        ):
            return True
    return False


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

    def test_tiny_budget_flags_incomplete(self):
        result = find_free_coloring(Graph.complete(6), 3, 3, budget=5)
        assert result.coloring is None
        assert not result.exhausted

    def test_color_swap_symmetry(self):
        for mask in enumerate_canonical_graphs(5):
            g = graph_from_canonical(5, mask)
            a = find_free_coloring(g, 3, 4).coloring is not None
            b = find_free_coloring(g, 4, 3).coloring is not None
            assert a == b

    @pytest.mark.parametrize(
        "p, q, refuted",
        [(3, 3, 0), (3, 4, 0), (2, 4, 6), (4, 2, 6), (2, 5, 1)],
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
        # r(3,4) = 9, so K8 still admits a coloring (proving K9 does not
        # takes ~3*10^7 nodes and stays out of the default suite)
        assert ramsey_verify(3, 4, 8) is True

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            ramsey_verify(3, 3, 6, budget=3)


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

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            RtInstance(n=0, p=3, q=3, m=1)
        with pytest.raises(ValueError):
            RtInstance(n=3, p=1, q=3, m=1)
        with pytest.raises(ValueError):
            RtInstance(n=3, p=3, q=3, m=0)
