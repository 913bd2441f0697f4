import random
import time
from fractions import Fraction
from itertools import accumulate, combinations, permutations

import pytest

from ramsey_turan import (
    AuditConfig,
    ColoredGraph,
    EdgeColoring,
    Graph,
    IndependenceCapError,
    KklParams,
    RuleVariant,
    VertexPartition,
    audit_partition,
    bipartition_indep_search,
    check_colored_free,
    check_rt_witness,
    edge_formula_check,
    independence_number,
    kkl_36,
    mono_triangle_free_count,
    pentagonlike,
    pentagonlike_census,
    turan,
    turan_partition,
)
from ramsey_turan.certify import _ceil_sqrt_fraction, _is_five_cycle
from ramsey_turan.search import enumerate_canonical_graphs, graph_from_canonical

from .conftest import (
    assert_clique,
    assert_independent,
    naive_has_clique,
    naive_independence,
    pentagon_pattern_t12,
)


def all_one_coloring(g: Graph, c: int = 1) -> ColoredGraph:
    return ColoredGraph(g, EdgeColoring({e: c for e in g.edges()}))


def kkl60(variant=RuleVariant.FIGURE):
    return kkl_36(KklParams(n=60, d1=4, m2=4, d2=2, rule_variant=variant))


class TestCheckColoredFree:
    def test_pentagonlike_pass(self):
        cert = check_colored_free(pentagonlike(range(5)), 3, 3)
        assert cert.passed
        assert cert.witness is None

    def test_k6_monochromatic_fails_with_triangle(self):
        cert = check_colored_free(all_one_coloring(Graph.complete(6)), 3, 6)
        assert not cert.passed
        assert len(cert.witness) == 3
        assert_clique(Graph.complete(6), cert.witness)

    def test_clique_size_message(self):
        cg = pentagonlike(range(5))
        for call in (
            lambda: check_colored_free(cg, 1, 3),
            lambda: check_colored_free(cg, 3, 1),
            lambda: check_rt_witness(cg, 1, 3, 2),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "clique sizes must be >= 2"

    def test_kkl_figure_variant_passes(self):
        cert = check_colored_free(kkl60().colored_graph, 3, 6)
        assert cert.passed

    def test_kkl_text_variant_fails_across_expected_parts(self):
        built = kkl60(RuleVariant.TEXT)
        cert = check_colored_free(built.colored_graph, 3, 6)
        assert not cert.passed
        tri = cert.witness
        cls1 = built.colored_graph.color_class(1)
        assert_clique(cls1, tri)
        blocks = built.stats["i_sets"]
        inner = [v for v in tri if v >= 50]
        assert len(inner) == 1
        (b,) = [i for i, block in enumerate(blocks) if inner[0] in block]
        outer_parts = sorted((v // 10 for v in tri if v < 50))
        assert outer_parts == sorted([b, (b + 2) % 5])

    def test_matches_naive_enumeration_small(self):
        rng = random.Random(5)
        for n in range(2, 7):
            for mask in enumerate_canonical_graphs(n)[::3]:
                g = graph_from_canonical(n, mask)
                if not g.edge_count:
                    continue
                colors = {e: rng.choice((1, 2)) for e in g.edges()}
                cg = ColoredGraph(g, EdgeColoring(colors))
                for p, q in ((3, 3), (3, 4), (2, 3)):
                    naive = not naive_has_clique(cg.color_class(1), p) and (
                        not naive_has_clique(cg.color_class(2), q)
                    )
                    assert check_colored_free(cg, p, q).passed == naive

    def test_matches_naive_enumeration_n7_n8(self):
        rng = random.Random(6)
        for n in (7, 8):
            for _ in range(25):
                edges = [
                    e for e in combinations(range(n), 2) if rng.random() < 0.7
                ]
                if not edges:
                    continue
                g = Graph.from_edges(n, edges)
                cg = ColoredGraph(
                    g, EdgeColoring({e: rng.choice((1, 2)) for e in edges})
                )
                for p, q in ((3, 4), (3, 6)):
                    naive = not naive_has_clique(cg.color_class(1), p) and (
                        not naive_has_clique(cg.color_class(2), q)
                    )
                    assert check_colored_free(cg, p, q).passed == naive

    def test_size_validation(self):
        with pytest.raises(ValueError):
            check_colored_free(pentagonlike(range(5)), 1, 3)


class TestCheckRtWitness:
    def test_pentagonlike_passes_with_stats(self):
        cert = check_rt_witness(pentagonlike(range(5)), 3, 3, 1)
        assert cert.passed
        assert cert.params["edges"] == 10
        assert cert.params["alpha"] == 1

    def test_mixed_triangle(self):
        cg = ColoredGraph.from_colored_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
        cert = check_rt_witness(cg, 3, 3, 1)
        assert cert.passed
        assert cert.params["edges"] == 3

    def test_kkl_alpha_cap_fails_at_toy_scale(self):
        built = kkl60()
        cert = check_rt_witness(built.colored_graph, 3, 6, 4)
        assert not cert.passed
        assert len(cert.witness) > 4
        assert_independent(built.colored_graph.graph, cert.witness)
        names = {row.name: row.passed for row in cert.checks}
        assert names["color1_max_clique"] and names["color2_max_clique"]
        assert not names["alpha"]


class TestEdgeFormula:
    def test_kkl_n60(self):
        cert = edge_formula_check(
            kkl60().colored_graph, "kkl36", Fraction(1, 15), Fraction(2, 100)
        )
        assert cert.passed
        (row,) = cert.checks
        assert row.measured == 37
        assert row.bound == 72

    def test_c37_exact(self):
        from ramsey_turan import Distance, construction_37

        cg, _ = construction_37(40, 2, Distance.CYCLIC)
        cert = edge_formula_check(cg, "c37", Fraction(1, 20), Fraction(5, 1000))
        assert cert.passed
        assert cert.checks[0].measured == 0

    def test_turan_at_delta_zero(self):
        cg = all_one_coloring(turan(12, 6), 2)
        cert = edge_formula_check(cg, "kkl36", Fraction(0), Fraction(1, 1000))
        assert cert.passed
        assert cert.params["target"] == 60

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            edge_formula_check(pentagonlike(range(5)), "nope", Fraction(0), Fraction(1))

    @pytest.mark.parametrize("delta", [Fraction(-1, 3), Fraction(1), Fraction(5)])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=rf"^delta={delta} outside \[0, 1\)$"):
            edge_formula_check(kkl60().colored_graph, "kkl36", delta, Fraction(1))


class TestCensus:
    def test_exactly_twelve_all_pentagonlike(self):
        start = time.monotonic()
        survivors, all_pentagon = pentagonlike_census()
        assert (survivors, all_pentagon) == (12, True)
        assert time.monotonic() - start < 1.0

    def test_count_matches_five_cycle_count(self):
        # 5!/10 labeled five-cycles, each paired with its complement
        assert pentagonlike_census()[0] == 12

    def test_k6_has_none(self):
        assert mono_triangle_free_count(6) == 0

    def test_census_agrees_with_general_counter(self):
        assert mono_triangle_free_count(5) == 12

    @pytest.mark.parametrize("n", [-3, -1, 4097])
    def test_count_rejects_bad_order(self, n):
        with pytest.raises(ValueError) as err:
            mono_triangle_free_count(n)
        assert str(err.value) == f"vertex count {n} outside [0, 4096]"

    def test_five_cycle_predicate_on_all_labelled_graphs(self):
        pairs = list(combinations(range(5), 2))
        cycles = {
            frozenset(tuple(sorted((p[i], p[(i + 1) % 5]))) for i in range(5))
            for p in permutations(range(5))
        }
        accepted = set()
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for k, e in enumerate(pairs) if mask >> k & 1)
            if _is_five_cycle(Graph.from_edges(5, edges)):
                accepted.add(edges)
        assert len(cycles) == 12
        assert accepted == cycles
        assert not _is_five_cycle(Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)]))


def _alpha_table(adj) -> list[int]:
    """alpha of G[S] for every vertex mask S, by branching on the lowest vertex."""
    alpha = [0] * (1 << len(adj))
    for s in range(1, len(alpha)):
        low = s & -s
        v = low.bit_length() - 1
        alpha[s] = max(alpha[s ^ low], 1 + alpha[s & ~adj[v] & ~low])
    return alpha


def sweep_bipartition(alpha1: list[int], alpha2: list[int], bound: int):
    """Oracle: the lowest mask V1 with alpha(G1[V1]), alpha(G2[V - V1]) <= bound."""
    full = len(alpha1) - 1
    for mask in range(full + 1):
        if alpha1[mask] <= bound and alpha2[full ^ mask] <= bound:
            return mask
    return None


def assert_valid_bipartition(cg: ColoredGraph, result, alpha=naive_independence):
    v1, v2 = result.pair
    assert sorted(v1 + v2) == list(range(cg.n))
    for side, cls in ((v1, cg.color_class(1)), (v2, cg.color_class(2))):
        if side:
            assert alpha(cls.induced(side)) <= result.bound
    assert result.evaluations <= cg.n // (result.bound + 1) + 1


class TestBipartitionSearch:
    def test_pentagonlike(self):
        cg = pentagonlike(range(5))
        result = bipartition_indep_search(cg, Fraction(1, 5))
        assert result.bound == 3  # ceil(sqrt(5))
        assert_valid_bipartition(cg, result)

    def test_t12_pentagon_pattern(self):
        cg = pentagon_pattern_t12()
        result = bipartition_indep_search(cg, Fraction(1, 6))
        assert result.bound == 5
        assert_valid_bipartition(cg, result)

    def test_edgeless_vacuous(self):
        cg = ColoredGraph(Graph.empty(4), EdgeColoring({}))
        result = bipartition_indep_search(cg, Fraction(1))
        assert result.bound == 4
        assert_valid_bipartition(cg, result)

    def test_precondition_error_names_witness(self):
        cg = all_one_coloring(Graph.cycle(5))
        with pytest.raises(IndependenceCapError) as err:
            bipartition_indep_search(cg, Fraction(1, 5))
        assert_independent(Graph.cycle(5), err.value.witness)
        assert len(err.value.witness) == 2

    def test_agrees_with_sweep_oracle(self):
        # c = alpha(G)/n, the least c the precondition allows.  Random
        # colourings of K_n often leave both colour classes over the bound,
        # so neither V1 = V nor V2 = V works and the split is not trivial.
        rng = random.Random(13)
        hard = 0
        for trial in range(80):
            n = rng.randint(6, 14)
            density = rng.random() if trial % 4 == 0 else 1.0
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
            cg = ColoredGraph(
                Graph.from_edges(n, edges),
                EdgeColoring({e: rng.choice((1, 2)) for e in edges}),
            )
            c = Fraction(_alpha_table(cg.graph.adj)[-1], n)
            result = bipartition_indep_search(cg, c)
            alpha1, alpha2 = (_alpha_table(cg.color_class(k).adj) for k in (1, 2))
            assert sweep_bipartition(alpha1, alpha2, result.bound) is not None
            assert_valid_bipartition(cg, result)
            hard += min(alpha1[-1], alpha2[-1]) > result.bound
        assert hard >= 5

    def test_kkl240_peel(self):
        n = 240
        cg = kkl_36(KklParams(n=n, d1=16, m2=16, d2=8)).colored_graph
        c = Fraction(independence_number(cg.graph)[0], n)
        start = time.perf_counter()
        result = bipartition_indep_search(cg, c)
        assert time.perf_counter() - start < 1.0
        assert_valid_bipartition(cg, result, alpha=lambda g: independence_number(g)[0])


class TestCeilSqrtFraction:
    def test_matches_smallest_square_above(self):
        for q in range(1, 41):
            for p in range(401):
                b = 0
                while b * b * q < p:
                    b += 1
                assert _ceil_sqrt_fraction(Fraction(p, q)) == b, (p, q)

    def test_nonpositive_is_zero(self):
        assert _ceil_sqrt_fraction(Fraction(-3, 2)) == 0


class TestAuditPartition:
    def test_kkl_natural_partition(self):
        built = kkl60()
        cert = audit_partition(
            built.colored_graph, built.partition, AuditConfig(gamma=Fraction(1, 5))
        )
        verdicts = {row.name: row.passed for row in cert.checks}
        for name in ("P1", "P5", "P6"):
            assert verdicts[name]
        assert cert.params["x6_part"] == 5
        assert cert.params["role_parts"][:5] == [0, 1, 2, 3, 4]
        # measured margins are reported alongside thresholds
        for row in cert.checks:
            assert row.bound >= 0

    def test_relabelled_kkl60_gives_the_native_certificate(self):
        # the sixth part's rows are scored as a set, so their order is moot
        built = kkl60()
        cg, part = built.colored_graph, built.partition
        perm = random.Random(28).sample(range(60), 60)
        moved = ColoredGraph.from_colored_edges(
            60, [(perm[u], perm[v], cg.coloring.color(u, v)) for u, v in cg.graph.edges()]
        )
        moved_part = VertexPartition(60, [[perm[v] for v in p] for p in part.parts])
        for gamma in AUDIT_GAMMAS:
            native = audit_partition(cg, part, AuditConfig(gamma))
            relabelled = audit_partition(moved, moved_part, AuditConfig(gamma))
            assert relabelled.status == native.status
            assert relabelled.checks == native.checks
            assert relabelled.params == native.params

    def test_t12_pentagon_p6(self):
        cg = pentagon_pattern_t12()
        cert = audit_partition(cg, turan_partition(12, 6), AuditConfig(gamma=Fraction(3, 10)))
        p6 = next(row for row in cert.checks if row.name == "P6")
        assert p6.passed
        assert float(p6.measured) == 0.0  # crossing degree exactly n/6

    def test_p1_decided_exactly_at_the_boundary(self):
        # parts [7,1,1,1,1,1] of n=12 give P1 = 5, and the P1 bound
        # 2 * gamma**(1/4) * 12 equals 5 exactly at gamma = (5/24)**4
        cg = ColoredGraph(Graph.empty(12), EdgeColoring({}))
        part = VertexPartition(12, [range(7)] + [(v,) for v in range(7, 12)])
        gamma = Fraction(625, 331776)
        for g, want in ((gamma - Fraction(1, 10**15), False), (gamma, True)):
            cert = audit_partition(cg, part, AuditConfig(gamma=g))
            p1 = next(row for row in cert.checks if row.name == "P1")
            assert p1.measured == 5
            assert p1.passed is want

    def test_fractional_measurement_decided_exactly_at_the_boundary(self):
        # n=13 puts the target part size at 13/6: parts [8,1,1,1,1,1] give
        # P1 = 35/6, exactly the bound 2 * gamma**(1/4) * 13 at
        # gamma = (35/156)**4, and [9,1,1,1,1,0] give the next value, 41/6
        cg = ColoredGraph(Graph.empty(13), EdgeColoring({}))
        gamma = Fraction(35, 156) ** 4
        for sizes, measured, want in (((8, 1, 1, 1, 1, 1), Fraction(35, 6), True),
                                      ((9, 1, 1, 1, 1, 0), Fraction(41, 6), False)):
            ends = list(accumulate(sizes))
            part = VertexPartition(13, [range(e - s, e) for s, e in zip(sizes, ends)])
            cert = audit_partition(cg, part, AuditConfig(gamma=gamma))
            p1 = next(row for row in cert.checks if row.name == "P1")
            assert p1.measured == measured
            assert p1.passed is want

    def test_wrong_part_count(self):
        cg = pentagonlike(range(5))
        with pytest.raises(ValueError):
            audit_partition(
                cg,
                __import__("ramsey_turan").VertexPartition(5, [(v,) for v in range(5)]),
                AuditConfig(gamma=Fraction(1, 5)),
            )

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(gamma=Fraction(0))
        with pytest.raises(ValueError):
            AuditConfig(gamma=Fraction(3, 2))

    @pytest.mark.parametrize("instance", ["kkl", "t12"])
    def test_monotone_in_gamma(self, instance):
        if instance == "kkl":
            built = kkl60()
            cg, part = built.colored_graph, built.partition
        else:
            cg, part = pentagon_pattern_t12(), turan_partition(12, 6)
        grid = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)]
        results = []
        for gamma in grid:
            cert = audit_partition(cg, part, AuditConfig(gamma=gamma))
            results.append({row.name: row.passed for row in cert.checks})
        for lo, hi in zip(results, results[1:]):
            for name in ("P1", "P3", "P4", "P5"):
                assert not lo[name] or hi[name]


AUDIT_GAMMAS = [
    Fraction(1, 100),
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(3, 10),
    Fraction(1, 2),
    Fraction(99, 100),
]

AUDIT_EXPS = {
    "P1": (2, 4),
    "P2": (1, 4),
    "P3": (1, 59),
    "P3_exists": (1, 59),
    "P4": (1, 60),
    "P5": (1, 117),
    "P6": (1, 118),
    "P7": (1, 119),
    "P8_alpha": (1, 4),
    "P8_deg1_far": (1, 119),
    "P8_deg2_near": (1, 119),
}


def brute_audit_measures(cg: ColoredGraph, part: VertexPartition) -> tuple:
    """Every row of all 720 role assignments, from the definitions, plus
    the minimum crossing degree and the part sizes.

    Independence numbers come from the subset oracle and degrees from
    ``has_edge``; nothing here shares code with ``audit_partition``.
    """
    n = cg.n
    g1, g2 = cg.color_class(1), cg.color_class(2)
    parts = part.parts
    sizes = [len(p) for p in parts]

    def degrees(cls):
        return [[sum(cls.has_edge(v, u) for u in p) for p in parts] for v in range(n)]

    deg0, deg1, deg2 = degrees(cg.graph), degrees(g1), degrees(g2)
    alpha1 = [naive_independence(g1.induced(p)) for p in parts]
    alpha2 = [naive_independence(g2.induced(p)) for p in parts]
    target = Fraction(n, 6)
    p1 = max(abs(Fraction(s) - target) for s in sizes)
    p5 = max(deg0[v][j] for j in range(6) for v in parts[j])
    dcr = min(
        (deg0[v][j] for i in range(6) for v in parts[i] for j in range(6) if j != i),
        default=0,
    )
    table = []
    for x6 in range(6):
        for roles in permutations([i for i in range(6) if i != x6]):
            p3_all = p3_exists = p4 = 0
            for v in parts[x6]:
                mins = [min(deg1[v][roles[i]], deg1[v][roles[(i + 2) % 5]]) for i in range(5)]
                p3_all = max(p3_all, *mins)
                p3_exists = max(p3_exists, min(mins))
                sums = [deg1[v][roles[i]] + deg1[v][roles[(i + 1) % 5]] for i in range(5)]
                p4 = max(p4, min(sums))
            p7 = p8b = p8c = 0
            for i in range(5):
                for v in parts[roles[i]]:
                    p7 = max(p7, sizes[x6] - deg2[v][x6])
                    for d in (2, 3):
                        j = roles[(i + d) % 5]
                        p8b = max(p8b, sizes[j] - deg1[v][j])
                    for d in (1, 4):
                        j = roles[(i + d) % 5]
                        p8c = max(p8c, sizes[j] - deg2[v][j])
            meas = {
                "P1": p1,
                "P2": alpha1[x6],
                "P3": p3_all,
                "P3_exists": p3_exists,
                "P4": p4,
                "P5": p5,
                "P6": target - dcr,
                "P7": p7,
                "P8_alpha": max(alpha2[r] for r in roles),
                "P8_deg1_far": p8b,
                "P8_deg2_near": p8c,
            }
            table.append((x6, roles, meas))
    return table, dcr, sizes


def brute_audit(cg, gamma, measured) -> tuple:
    """(status, rows, params) of the best of the 720 assignments."""
    table, dcr, sizes = measured
    n = cg.n
    limit = {name: (c * n) ** k * gamma for name, (c, k) in AUDIT_EXPS.items()}
    verdicts = {}
    for name, value in {(name, v) for _, _, meas in table for name, v in meas.items()}:
        k = AUDIT_EXPS[name][1]
        verdicts[name, value] = value <= 0 or Fraction(value) ** k <= limit[name]
    best = None
    for x6, roles, meas in table:
        ok = {name: verdicts[name, value] for name, value in meas.items()}
        key = (-sum(ok.values()), meas["P2"], meas["P3"], meas["P4"], meas["P7"], x6, roles)
        if best is None or key < best[0]:
            best = (key, x6, roles, meas, ok)
    _, x6, roles, meas, ok = best
    rows = [
        (name, meas[name], c * (float(gamma) ** (1 / k) * n), "pass" if ok[name] else "fail")
        for name, (c, k) in AUDIT_EXPS.items()
    ]
    status = "pass" if all(ok.values()) else "fail"
    params = {
        "gamma": gamma,
        "n": n,
        "x6_part": x6,
        "role_parts": list(roles) + [x6],
        "min_crossing_degree": dcr,
        "part_sizes": sizes,
    }
    return status, rows, params


def assert_audit_matches_brute_force(cg, part, gammas) -> None:
    measured = brute_audit_measures(cg, part)
    for gamma in gammas:
        cert = audit_partition(cg, part, AuditConfig(gamma=gamma))
        status, rows, params = brute_audit(cg, gamma, measured)
        assert cert.status == status
        assert [
            (row.name, row.measured, row.bound, row.verdict) for row in cert.checks
        ] == rows
        assert cert.params == params


class TestAuditOracle:
    def test_random_partitions_match_all_720_assignments(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(6, 14)
            # dense mostly-color-2 graphs tell P7 apart from its value on the
            # sixth part's own vertices
            density, color1 = rng.choice([(rng.random(), rng.random()), (0.95, 0.1)])
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
            cg = ColoredGraph(
                Graph.from_edges(n, edges),
                EdgeColoring({e: 1 if rng.random() < color1 else 2 for e in edges}),
            )
            # fewer labels than parts leaves some parts empty
            labels = [rng.randrange(rng.choice((4, 6, 6))) for _ in range(n)]
            parts = [[v for v in range(n) if labels[v] == i] for i in range(6)]
            rng.shuffle(parts)
            gamma = rng.choice(AUDIT_GAMMAS)
            assert_audit_matches_brute_force(cg, VertexPartition(n, parts), [gamma])

    def test_highest_vertex_alone_carries_the_maximum(self):
        # parts {2i, 2i+1}: the highest vertices form a colour-1 K6 and the
        # lowest a colour-2 K6, so in every sixth part only the highest
        # vertex has colour-1 degree into the others (P3 = 1, P4 = 2) and a
        # score that skips it reads 0
        n = 12
        edges = {
            (u, v): 1 if u % 2 else 2
            for u, v in combinations(range(n), 2)
            if u % 2 == v % 2
        }
        cg = ColoredGraph(Graph.from_edges(n, edges), EdgeColoring(edges))
        part = VertexPartition(n, [(2 * i, 2 * i + 1) for i in range(6)])
        for gamma in AUDIT_GAMMAS:
            cert = audit_partition(cg, part, AuditConfig(gamma))
            rows = {row.name: row.measured for row in cert.checks}
            assert (rows["P3"], rows["P3_exists"], rows["P4"]) == (1, 1, 2)
        assert_audit_matches_brute_force(cg, part, AUDIT_GAMMAS)

    @pytest.mark.parametrize("variant", [RuleVariant.FIGURE, RuleVariant.TEXT])
    def test_kkl60_matches_all_720_assignments(self, variant):
        built = kkl60(variant)
        assert_audit_matches_brute_force(built.colored_graph, built.partition, AUDIT_GAMMAS)


class TestWitnessRevalidation:
    def test_every_failing_witness_rechecks(self):
        rng = random.Random(11)
        for n in (4, 5, 6):
            for _ in range(40):
                edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
                if not edges:
                    continue
                g = Graph.from_edges(n, edges)
                cg = ColoredGraph(
                    g, EdgeColoring({e: rng.choice((1, 2)) for e in edges})
                )
                cert = check_rt_witness(cg, 3, 3, 1)
                if cert.passed:
                    continue
                w = cert.witness
                # witness priority follows check order: first failing
                # monochromatic-clique check, else the oversized independent set
                first_fail = next(row.name for row in cert.checks if not row.passed)
                if first_fail.startswith("color"):
                    assert len(w) == 3
                    assert_clique(cg.color_class(int(first_fail[5])), w)
                else:
                    assert len(w) > 1
                    assert_independent(g, w)
