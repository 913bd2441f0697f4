from fractions import Fraction
from unittest import mock

import pytest

from ramsey_turan import (
    ConstructionError,
    Distance,
    Graph,
    KklParams,
    RuleVariant,
    andrasfai,
    blowup,
    check_colored_free,
    check_rt_witness,
    clique_number,
    construction_37,
    f_graph,
    find_clique,
    independence_number,
    kkl_36,
    pentagonlike,
    turan,
    turan_partition,
)
from ramsey_turan.constructions import _blowup_options, turan_part_sizes
from ramsey_turan.report import bounds_36

from .conftest import assert_independent, naive_has_clique


class TestTuran:
    def test_12_6(self):
        g = turan(12, 6)
        assert g.edge_count == 60
        assert clique_number(g)[0] == 6
        assert independence_number(g)[0] == 2

    def test_7_3_sizes_and_edges(self):
        assert turan_part_sizes(7, 3) == [3, 2, 2]
        assert turan(7, 3).edge_count == 16

    def test_5_5_is_complete(self):
        assert turan(5, 5) == Graph.complete(5)

    def test_part_numbering(self):
        g = turan(7, 3)
        # first part is vertices 0..2; no edges inside it
        assert all(not g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)
        assert all(g.has_edge(0, v) for v in range(3, 7))

    def test_zero_parts_rejected(self):
        for build in (turan, turan_partition, turan_part_sizes):
            with pytest.raises(ValueError) as err:
                build(6, 0)
            assert str(err.value) == "part count must be >= 1"

    def test_more_parts_than_vertices_rejected(self):
        # checked before the size list (one entry per part) is allocated
        for build in (turan, turan_partition, turan_part_sizes):
            for n, p in ((3, 5), (4, 200000)):
                with pytest.raises(ValueError) as err:
                    build(n, p)
                assert str(err.value) == f"part count {p} exceeds vertex count {n}"

    def test_vertex_cap_checked_before_part_sizes(self):
        # the size list grows with the part count, up to n entries
        with mock.patch(
            "ramsey_turan.constructions.turan_part_sizes",
            side_effect=AssertionError("part sizes built before the cap check"),
        ):
            with pytest.raises(ValueError, match="outside"):
                turan(10**9, 10**9)


class TestAndrasfai:
    def test_smallest_is_c5(self):
        assert andrasfai(2) == Graph.cycle(5)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_family_invariants(self, k):
        g = andrasfai(k)
        assert g.n == 3 * k - 1
        assert all(g.degree(v) == k for v in range(g.n))
        assert find_clique(g, 3) is None
        size, witness = independence_number(g)
        assert size == k
        assert_independent(g, witness)

    def test_index_below_two_rejected(self):
        with pytest.raises(ValueError):
            andrasfai(1)


class TestBlowup:
    def test_c5_by_two(self):
        g = blowup(Graph.cycle(5), 2)
        assert g.n == 10
        assert all(g.degree(v) == 4 for v in range(10))
        assert find_clique(g, 3) is None
        assert independence_number(g)[0] == 4  # oracle: exact solver

    def test_k2_by_three_is_k33(self):
        assert blowup(Graph.complete(2), 3) == turan(6, 2)

    def test_factor_one_is_identity(self):
        for g in (Graph.cycle(5), Graph.complete(4), Graph.empty(3)):
            assert blowup(g, 1) == g

    def test_alpha_scales_exactly(self):
        for k in (2, 3, 4):
            for t in (2, 3):
                g = blowup(andrasfai(k), t)
                assert find_clique(g, 3) is None
                assert independence_number(g)[0] == t * k


class TestFGraph:
    def test_10_4_is_blown_up_pentagon(self):
        r = f_graph(10, 4)
        assert (r.k, r.t) == (2, 2)
        assert r.graph == blowup(Graph.cycle(5), 2)
        assert r.degree == 4 and r.alpha == 4 and r.padding == 0

    def test_5_2_is_c5(self):
        r = f_graph(5, 2)
        assert r.graph == Graph.cycle(5)
        assert r.degree == 2

    def test_4_4_falls_back_to_c4(self):
        # oracle: no blow-up order equals 4 except the complete bipartite one
        assert _blowup_options(4) == [(1, 2)]
        r = f_graph(4, 4)
        assert r.degree == 2 and r.padding == 0
        assert r.graph == turan(4, 2)

    def test_padding_reported(self):
        r = f_graph(7, 3)
        assert r.padding == 1
        assert r.degree == 3
        assert r.alpha == 4
        assert r.graph.degree(6) == 0
        assert independence_number(r.graph)[0] == r.alpha

    def test_every_output_triangle_free(self):
        for m in range(3, 30):
            for d in (1, 2, 3, m // 2):
                if d < 1:
                    continue
                r = f_graph(m, d)
                assert r.graph.n == m
                assert find_clique(r.graph, 3) is None

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            f_graph(1, 1)

    @pytest.mark.parametrize("d", [-1, -7])
    def test_negative_target_degree_rejected(self, d):
        # the closest degree to a negative target used to be the smallest one
        with pytest.raises(ValueError) as err:
            f_graph(5, d)
        assert str(err.value) == f"f-graph target degree d must be >= 0, got {d}"

    def test_zero_target_degree_takes_the_smallest(self):
        assert f_graph(5, 0).degree == 2


class TestPentagonlike:
    def test_identity_order(self):
        cg = pentagonlike((0, 1, 2, 3, 4))
        ones = {e for e, c in cg.coloring.colors.items() if c == 1}
        assert ones == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    @pytest.mark.parametrize(
        "perm", [(0, 1, 2, 3, 4), (2, 0, 3, 1, 4), (4, 3, 2, 1, 0)]
    )
    def test_no_monochromatic_triangle(self, perm):
        cg = pentagonlike(perm)
        for c in (1, 2):
            cls = cg.color_class(c)
            assert not naive_has_clique(cls, 3)
            assert cls.edge_count == 5
            assert all(cls.degree(v) == 2 for v in range(5))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            pentagonlike((0, 1, 2, 3, 3))


def kkl60(variant=RuleVariant.FIGURE):
    return kkl_36(KklParams(n=60, d1=4, m2=4, d2=2, rule_variant=variant))


class TestKkl36:
    def test_edge_count_matches_component_tally(self):
        built = kkl60()
        stats = built.stats
        # oracle tally: 1500 multipartite + 5*20 planted + 15 sixth-part inner
        assert stats["edges"] == 1500 + 100 + 15 == 1615
        assert stats["rule_edges"] == {1: 500, 2: 100, 3: 10, 4: 1005}
        target = bounds_36(Fraction(1, 15))[0] * 60 * 60
        assert target == 1652
        assert abs(stats["edges"] - target) / Fraction(3600) < Fraction(2, 100)

    def test_variants_share_skeleton(self):
        fig = kkl60(RuleVariant.FIGURE)
        txt = kkl60(RuleVariant.TEXT)
        assert fig.colored_graph.graph == txt.colored_graph.graph
        assert fig.stats["edges"] == txt.stats["edges"]
        assert fig.colored_graph.coloring != txt.colored_graph.coloring

    def test_cross_part_pairs_complete(self):
        built = kkl60()
        g = built.colored_graph.graph
        assert g.edge_count >= turan(60, 6).edge_count
        for a in range(6):
            for b in range(a + 1, 6):
                assert all(
                    g.has_edge(u, v)
                    for u in built.partition.parts[a][:3]
                    for v in built.partition.parts[b][:3]
                )

    def test_block_layout(self):
        i_sets = kkl60().stats["i_sets"]
        assert len(i_sets) == 5
        assert all(len(block) == 1 for block in i_sets)
        params = KklParams(n=60, d1=4, m2=4, d2=2)
        assert params.isolated == 3
        assert params.delta_n == 4
        assert params.delta_n - params.d2 == 2

    def test_alpha_exceeds_scale_at_toy_size(self):
        assert independence_number(kkl60().colored_graph.graph)[0] == 5

    @pytest.mark.parametrize("variant", list(RuleVariant))
    def test_stats_keys(self, variant):
        # alpha is the certifier's verdict, and the parameters are KklParams'
        assert kkl60(variant).stats.keys() == {"edges", "rule_edges", "i_sets"}

    def test_unrealizable_degree_rejected(self):
        with pytest.raises(ConstructionError):
            kkl_36(KklParams(n=60, d1=3, m2=4, d2=2))
        with pytest.raises(ConstructionError):
            kkl_36(KklParams(n=60, d1=4, m2=4, d2=3))

    def test_unrealizable_degree_messages(self):
        with pytest.raises(ConstructionError) as err:
            kkl_36(KklParams(n=60, d1=3, m2=4, d2=2))
        assert str(err.value) == "d1=3 not realizable on 10 vertices (achieved 4, padding 0)"
        with pytest.raises(ConstructionError) as err:
            kkl_36(KklParams(n=60, d1=4, m2=4, d2=3))
        assert str(err.value) == "d2=3 not realizable on 4 vertices (achieved 2, padding 0)"
        with pytest.raises(ConstructionError) as err:
            construction_37(40, 3)
        assert str(err.value) == "d=3 not realizable on 5 vertices (achieved 2, padding 0)"

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            KklParams(n=61, d1=4, m2=4, d2=2)
        with pytest.raises(ValueError):
            KklParams(n=60, d1=4, m2=10, d2=2)


class TestTallRungs:
    """The largest sizes of the construction ladder, certified exactly."""

    def test_kkl_480_witness(self):
        built = kkl_36(KklParams(n=480, d1=32, m2=32, d2=16))
        cert = check_rt_witness(built.colored_graph, 3, 6, 40)
        assert cert.passed
        assert {row.name: row.measured for row in cert.checks} == {
            "color1_max_clique": 2,
            "color2_max_clique": 5,
            "alpha": 40,
        }

    def test_c37_320_free(self):
        cg, _ = construction_37(320, 14)
        cert = check_colored_free(cg, 3, 7)
        assert cert.passed
        assert {row.name: row.measured for row in cert.checks} == {
            "color1_max_clique": 2,
            "color2_max_clique": 6,
        }

    @pytest.mark.parametrize("variant", list(RuleVariant))
    def test_i_sets_pinned(self, variant):
        # the blocks are cut from the core's independent set, so a different
        # (equally maximum) one would change the construction
        assert kkl_36(KklParams(60, 4, 4, 2, variant)).stats["i_sets"] == (
            (52,), (53,), (54,), (55,), (56,),
        )
        assert kkl_36(KklParams(120, 8, 8, 4, variant)).stats["i_sets"] == (
            (104, 105), (106, 107), (108, 109), (110, 111), (112, 113),
        )


class TestConstruction37:
    def test_edge_count(self):
        cg, part = construction_37(40, 2, Distance.CYCLIC)
        # oracle: 28 * 25 cross pairs plus 8 planted five-cycles
        assert cg.graph.edge_count == 700 + 40 == 740
        assert part.p == 8
        assert independence_number(cg.graph)[0] == 2

    def test_cyclic_reduced_pattern(self):
        cg, part = construction_37(40, 2, Distance.CYCLIC)
        reduced_edges = set()
        for a in range(8):
            for b in range(a + 1, 8):
                u = part.parts[a][0]
                v = part.parts[b][0]
                colors = {
                    cg.coloring.color(x, y)
                    for x in part.parts[a]
                    for y in part.parts[b]
                }
                assert len(colors) == 1, "cross pair not uniformly colored"
                if colors == {2}:
                    reduced_edges.add((a, b))
        expected = {
            (a, b)
            for a in range(8)
            for b in range(a + 1, 8)
            if min((a - b) % 8, (b - a) % 8) in (1, 2)
        }
        assert reduced_edges == expected
        reduced = Graph.from_edges(8, reduced_edges)
        assert clique_number(reduced)[0] == 3

    def test_literal_distance_differs(self):
        cyc, _ = construction_37(40, 2, Distance.CYCLIC)
        lit, _ = construction_37(40, 2, Distance.LITERAL)
        assert cyc.graph == lit.graph
        assert cyc.coloring != lit.coloring

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            construction_37(36, 2)

    def test_too_small_rejected_naming_n(self):
        # eight parts of one vertex leave no room for a planted f-graph
        with pytest.raises(ValueError) as err:
            construction_37(8, 1)
        assert str(err.value) == (
            "n=8 must be >= 16: each of the 8 parts needs at least 2 vertices"
            " for its f-graph"
        )

    def test_unrealizable_degree_rejected(self):
        with pytest.raises(ConstructionError):
            construction_37(40, 3)
