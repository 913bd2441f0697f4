"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.

Criterion 5's final clause (the normalized formula gap strictly shrinking
from n=60 to n=120) is implemented exactly as stated and fails honestly: the
scaled parameter set is a 2x homothety of the n=60 instance, so every edge
tally scales by 4 and the normalized gap is identical (37/3600) at both
sizes.  The analysis lives in the failure message.
"""

import itertools
import time
from fractions import Fraction as Fr

from ramsey_turan import (
    Distance,
    Graph,
    KklParams,
    QpPoint,
    RtInstance,
    RuleVariant,
    bound_gap_report,
    check_colored_free,
    check_rt_witness,
    construction_37,
    edge_formula_check,
    eval_f,
    find_clique,
    find_free_coloring,
    independence_number,
    kkl_36,
    mono_triangle_free_count,
    pentagonlike_census,
    ramsey_verify,
    reduce_f_over_y,
    rt_exact,
)
from ramsey_turan.certify import _is_five_cycle
from ramsey_turan.search import enumerate_canonical_graphs, graph_from_canonical

from .conftest import naive_has_clique, naive_independence


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    in_time = elapsed < limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {verdict} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_time, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_pentagonlike_census():
    start = time.monotonic()
    survivors, all_pentagon = pentagonlike_census()
    ok = survivors == 12 and all_pentagon
    _report(
        1,
        "pentagonlike census",
        ok,
        f"survivors={survivors} all_pentagonlike={all_pentagon}",
        time.monotonic() - start,
        1.0,
    )


def test_criterion_2_ramsey_boundary():
    start = time.monotonic()
    five = ramsey_verify(3, 3, 5)
    witness = find_free_coloring(Graph.complete(5), 3, 3)
    from ramsey_turan import ColoredGraph

    cg = ColoredGraph(Graph.complete(5), witness.coloring)
    pentagonlike_witness = all(_is_five_cycle(cg.color_class(c)) for c in (1, 2))
    six_search = find_free_coloring(Graph.complete(6), 3, 3)
    six = six_search.coloring is None and six_search.exhausted
    nodes_ok = six_search.nodes <= 1 << 15
    ok = five and pentagonlike_witness and six and nodes_ok
    _report(
        2,
        "r(3,3)=6 boundary",
        ok,
        f"K5 colorable={five} pentagonlike_witness={pentagonlike_witness} "
        f"K6 exhausted={six} nodes={six_search.nodes}<=32768",
        time.monotonic() - start,
        1.0,
    )


def test_criterion_3_appendix_maxima(f_cert, g_cert):
    start = time.monotonic()
    printed = eval_f(
        QpPoint((Fr("0.45"), Fr("0.55"), Fr("0.45"), 0, 0), (0, 0, Fr("0.55"), 1, 0))
    )
    corrected = eval_f(
        QpPoint(
            (Fr("0.45"), Fr("0.55"), Fr("0.45"), 0, 0),
            (0, 0, Fr("0.55"), 1, Fr("0.55")),
        )
    )
    ok = (
        g_cert.max_value == 2
        and g_cert.argmax.x == (Fr(1, 2),) * 5
        and f_cert.max_value == Fr(841, 400)
        and float(f_cert.max_value) == 2.1025
        and g_cert.agreement_gap <= 1e-6
        and f_cert.agreement_gap <= 1e-6
        and printed == Fr(349, 200)
        and corrected == Fr(841, 400)
    )
    _report(
        3,
        "appendix maxima",
        ok,
        f"max_g={g_cert.max_value} at {tuple(map(str, g_cert.argmax.x))}, "
        f"max_f={f_cert.max_value}, gaps=({g_cert.agreement_gap:.2e},"
        f"{f_cert.agreement_gap:.2e}), printed-point value={float(printed)}, "
        f"corrected-point value={float(corrected)}",
        time.monotonic() - start,
        30.0,
    )


def _kkl(n, d1, m2, d2, variant=RuleVariant.FIGURE):
    return kkl_36(KklParams(n=n, d1=d1, m2=m2, d2=d2, rule_variant=variant))


def test_criterion_4_kkl36_freeness():
    start = time.monotonic()
    figure = _kkl(60, 4, 4, 2)
    figure_cert = check_colored_free(figure.colored_graph, 3, 6)

    text = _kkl(60, 4, 4, 2, RuleVariant.TEXT)
    text_cert = check_colored_free(text.colored_graph, 3, 6)
    witness_ok = False
    if not text_cert.passed and text_cert.witness is not None:
        tri = text_cert.witness
        cls1 = text.colored_graph.color_class(1)
        mono = all(
            cls1.has_edge(u, v) for u, v in itertools.combinations(tri, 2)
        )
        blocks = text.stats["i_sets"]
        inner = [v for v in tri if v >= 50]
        outer = sorted(v // 10 for v in tri if v < 50)
        if mono and len(inner) == 1:
            (b,) = [i for i, blk in enumerate(blocks) if inner[0] in blk]
            witness_ok = outer == sorted([b, (b + 2) % 5])
    ok = figure_cert.passed and not text_cert.passed and witness_ok
    _report(
        4,
        "kkl36 n=60 freeness",
        ok,
        f"figure={figure_cert.status} text={text_cert.status} "
        f"text witness {text_cert.witness} spans block/part/part+2={witness_ok}",
        time.monotonic() - start,
        10.0,
    )


def test_criterion_5_kkl36_edge_formula():
    start = time.monotonic()
    small = _kkl(60, 4, 4, 2)
    e60 = small.stats["edges"]
    target60 = (Fr(5, 12) + Fr(1, 30) + 2 * Fr(1, 15) ** 2) * 3600
    cert = edge_formula_check(small.colored_graph, "kkl36", Fr(1, 15), Fr(2, 100))

    large = _kkl(120, 8, 8, 4)
    e120 = large.stats["edges"]
    target120 = (Fr(5, 12) + Fr(1, 30) + 2 * Fr(1, 15) ** 2) * 14400
    gap60 = abs(e60 - target60) / Fr(3600)
    gap120 = abs(e120 - target120) / Fr(14400)

    base_ok = e60 == 1615 and target60 == 1652 and cert.passed
    shrink_ok = gap120 < gap60
    if shrink_ok:
        shrink_note = "strict shrink holds"
    else:
        shrink_note = (
            "strict shrink FAILS: the scaled instance is an exact 2x homothety "
            "(every block doubles, every edge tally scales by 4), so the "
            "normalized gap is identical at both sizes"
        )
    elapsed = time.monotonic() - start
    _report(
        5,
        "kkl36 edge formula",
        base_ok and shrink_ok,
        f"e(60)={e60} target=1652 tol-check={cert.status}; "
        f"normalized gaps: n=60 -> {gap60} ({float(gap60):.6f}), "
        f"n=120 -> {gap120} ({float(gap120):.6f}); {shrink_note}",
        elapsed,
        10.0,
    )


def test_criterion_6_construction_37():
    start = time.monotonic()
    cyclic, cparts = construction_37(40, 2, Distance.CYCLIC)
    cyc_cert = check_colored_free(cyclic, 3, 7)
    e = cyclic.graph.edge_count
    e_ok = e == 740 == Fr(7, 16) * 1600 + 40

    literal, lparts = construction_37(40, 2, Distance.LITERAL)
    lit_cert = check_colored_free(literal, 3, 7)
    witness_ok = False
    if not lit_cert.passed and lit_cert.witness is not None:
        tri = lit_cert.witness
        cls1 = literal.color_class(1)
        mono = all(
            cls1.has_edge(u, v) for u, v in itertools.combinations(tri, 2)
        )
        parts = [v // 5 for v in tri]
        witness_ok = mono and all(
            abs(a - b) >= 3 for a, b in itertools.combinations(parts, 2)
        )
    ok = cyc_cert.passed and e_ok and not lit_cert.passed and witness_ok
    _report(
        6,
        "(3,7) construction n=40",
        ok,
        f"cyclic={cyc_cert.status} e={e} literal={lit_cert.status} "
        f"witness={lit_cert.witness} distances>=3: {witness_ok}",
        time.monotonic() - start,
        5.0,
    )


def test_criterion_7_rt_oracle():
    start = time.monotonic()
    five = rt_exact(RtInstance(n=5, p=3, q=3, m=1))
    five_ok = (
        five.value == 10
        and five.exhausted
        and five.witness.graph == Graph.complete(5)
        and all(_is_five_cycle(five.witness.color_class(c)) for c in (1, 2))
        and check_rt_witness(five.witness, 3, 3, 1).passed
    )
    six = rt_exact(RtInstance(n=6, p=3, q=3, m=1))
    six_ok = six.value is None and six.exhausted
    three = rt_exact(RtInstance(n=3, p=3, q=3, m=1))
    three_ok = (
        three.value == 3
        and three.exhausted
        and check_rt_witness(three.witness, 3, 3, 1).passed
    )
    ok = five_ok and six_ok and three_ok
    _report(
        7,
        "exact extremal oracle",
        ok,
        f"rt(5,3,3,1)={five.value} rt(6,3,3,1)={six.value}/exhausted={six.exhausted} "
        f"rt(3,3,3,1)={three.value}; witnesses certified",
        time.monotonic() - start,
        60.0,
    )


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    solver_ok = True
    for n in range(1, 7):
        for mask in enumerate_canonical_graphs(n):
            g = graph_from_canonical(n, mask)
            if independence_number(g)[0] != naive_independence(g):
                solver_ok = False
            for p in range(1, n + 1):
                if (find_clique(g, p) is not None) != naive_has_clique(g, p):
                    solver_ok = False

    import random

    rng = random.Random(20250809)
    reduction_ok = True
    worst = 0.0
    for _ in range(100):
        while True:
            x = tuple(Fr(rng.randrange(0, 101), 100) for _ in range(5))
            if all(x[i] + x[(i + 1) % 5] <= 1 for i in range(5)):
                break
        caps = [float(1 - x[i] - x[(i + 1) % 5]) for i in range(5)]
        xf = [float(v) for v in x]
        fixed = 0.3 * sum(xf) + sum(xf[i] * xf[(i + 2) % 5] for i in range(5))
        axes = [[c * j / 5 for j in range(6)] for c in caps]
        grid_best = max(
            fixed
            + 0.2 * sum(y)
            + sum(xf[i] * y[(i + 2) % 5] for i in range(5))
            for y in itertools.product(*axes)
        )
        diff = abs(grid_best - float(reduce_f_over_y(x)))
        worst = max(worst, diff)
        if diff > 1e-9:
            reduction_ok = False
    ok = solver_ok and reduction_ok
    _report(
        8,
        "oracle equivalence",
        ok,
        f"solvers vs naive on all classes n<=6: {solver_ok}; "
        f"y-elimination vs dense grid, worst diff {worst:.2e}",
        time.monotonic() - start,
        300.0,
    )


def test_criterion_9_bound_gap_report():
    start = time.monotonic()
    grid = [Fr(1, 1000), Fr(1, 100), Fr(1, 20), Fr(1, 10)]
    rows = bound_gap_report(grid)
    ok = all(gap == Fr(41, 400) * delta**2 for delta, _, _, gap in rows)
    at_001 = next(gap for delta, _, _, gap in rows if delta == Fr(1, 100))
    ok = ok and float(at_001) == 1.025e-5
    _report(
        9,
        "bound gap report",
        ok,
        f"gap(0.01)={at_001}={float(at_001)}; all gaps = (41/400) delta^2 exactly",
        time.monotonic() - start,
        1.0,
    )
