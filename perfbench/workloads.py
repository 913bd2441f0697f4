"""The benchmark's four workloads as seeded operation lists.

An operation names a public function of the package.  The function is looked
up when it is called, so the trace recorder's wrappers are seen.  Its
arguments are built outside the timed region, from the seeded inputs and
from earlier results of the same pass, and its answer is checked by the
oracle against a pinned expected value.  The package receives only the
generated inputs, never the seed.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracle
from oracle import expect, expect_equal


def _apply(fn, args):
    return fn(*args)


def _dispatch_in_memory(fn, args):
    """Run ``cli_dispatch(argv)`` with stdin, stdout and stderr in memory."""
    argv, stdin_text = args
    streams = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        code = fn(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, streams[1].getvalue(), streams[2].getvalue()


@dataclass(frozen=True)
class Op:
    label: str
    target: str  # package attribute path, e.g. "certify.check_colored_free"
    args: Callable[[dict], tuple]  # results of earlier ops -> arguments
    check: Callable[[object, dict], str]  # raises Mismatch; returns a digest
    run: Callable = _apply
    keep: bool = True  # later operations read this result from the context


@dataclass
class Workload:
    ops: list[Op]
    # untimed, once per run: computes in-process references for the checks
    prepare: Callable[[], None] = lambda: None


def resolve(pkg, target: str):
    obj = pkg
    for part in target.split("."):
        obj = getattr(obj, part)
    return obj


def interleave(ops: list[Op], batch: list[list[Op]]) -> list[Op]:
    """``ops`` with the groups of ``batch`` spread evenly after its items, in
    order, so that a batch of short operations samples the machine across
    the whole pass instead of one stretch of it."""
    after: list[list[Op]] = [[] for _ in ops]
    for j, group in enumerate(batch):
        after[j * len(ops) // len(batch)].extend(group)
    return [op for main, extra in zip(ops, after) for op in (main, *extra)]


def _const(*args):
    return lambda ctx: args


def _equal(want):
    def check(got, ctx):
        expect_equal(got, want, "answer")
        return repr(got)

    return check


# ----------------------------------------------------------------------
# certificates


def cert_digest(cert) -> str:
    rows = [(r.name, str(r.measured), str(r.bound), r.verdict) for r in cert.checks]
    return repr((cert.status, rows, cert.witness))


def _cert(status: str, measured: dict | None = None, witness=None, same_as=None):
    """Pinned status and measurements; a failing certificate's witness goes
    through ``witness(cert, ctx)``; ``same_as`` names an op whose status and
    measurements must be matched."""

    def check(cert, ctx):
        expect_equal(cert.status, status, "status")
        rows = {r.name: r for r in cert.checks}
        expect(
            all(r.verdict in ("pass", "fail") for r in cert.checks), "verdict text"
        )
        for name, value in (measured or {}).items():
            expect(name in rows, f"no check row {name}")
            expect_equal(rows[name].measured, value, name)
        if status == "pass":
            expect(cert.witness is None, "passing certificate carries a witness")
        else:
            expect(cert.witness is not None, "failing certificate has no witness")
            witness(cert, ctx)
        if same_as is not None:
            native = ctx[same_as]
            expect_equal(
                [(r.name, r.measured, r.verdict) for r in cert.checks],
                [(r.name, r.measured, r.verdict) for r in native.checks],
                f"relabelled verdicts vs {same_as}",
            )
        return cert_digest(cert)

    return check


def _color1_triangle(graph_label: str):
    def check(cert, ctx):
        cg = _colored(ctx[graph_label])
        expect(len(cert.witness) == 3, f"witness {cert.witness} is not a triangle")
        expect(
            oracle.is_mono_clique(cg, cert.witness, 1),
            f"witness {cert.witness} is not a color-1 triangle",
        )

    return check


def _colored(built):
    return built.colored_graph if hasattr(built, "colored_graph") else built[0]


# ----------------------------------------------------------------------
# blowup-certify

# edges of kkl36(n, n/15, n/15, n/30) are 1615 * (n/60)^2
KKL_EDGES = {60: 1615, 120: 6460, 240: 25840}
KKL_DELTA, FORMULA_TOL = Fraction(1, 15), Fraction(1, 50)


def _c37_edges(n: int, d: int) -> int:
    q = n // 8
    return 28 * q * q + 4 * q * d


def _kkl_built(n: int):
    def check(built, ctx):
        cg = built.colored_graph
        expect_equal(cg.n, n, "vertex count")
        expect_equal(cg.graph.edge_count, KKL_EDGES[n], "edge count")
        expect_equal(len(built.partition.parts), 6, "part count")
        return repr((cg.n, cg.graph.edge_count, built.partition.parts))

    return check


def _c37_built(n: int, d: int):
    def check(built, ctx):
        cg, part = built
        expect_equal(cg.n, n, "vertex count")
        expect_equal(cg.graph.edge_count, _c37_edges(n, d), "edge count")
        return repr((cg.n, cg.graph.edge_count, part.parts))

    return check


def _relabelled_built(native_label: str):
    def check(cg, ctx):
        native = _colored(ctx[native_label])
        expect_equal(cg.n, native.n, "vertex count")
        expect_equal(cg.graph.edge_count, native.graph.edge_count, "edge count")
        return repr((cg.n, cg.graph.edge_count))

    return check


def _formula(n: int):
    e = KKL_EDGES[n]
    target = (Fraction(5, 12) + KKL_DELTA / 2 + 2 * KKL_DELTA**2) * n * n
    verdict = "pass" if abs(e - target) <= FORMULA_TOL * n * n else "fail"
    return _cert(verdict, {"edge_count_gap": abs(e - target)})


def _relabel(native_label: str, perm: list[int]):
    def args(ctx):
        cg = _colored(ctx[native_label])
        edges = [
            (perm[u], perm[v], cg.coloring.color(u, v)) for u, v in cg.graph.edges()
        ]
        return cg.n, edges

    return args


def blowup_certify(pkg, seed: int, reduced: bool = False) -> Workload:
    C, cf = pkg.constructions, pkg.certify
    rng = random.Random(seed)
    kkl_sizes = (60,) if reduced else (60, 120, 240)
    text_n = 60 if reduced else 120
    c37_cyclic = ((40, 2),) if reduced else ((80, 4), (160, 7))
    c37_literal = (80, 4) if reduced else (160, 7)
    kkl_guard, c37_guard = kkl_sizes[-1], c37_cyclic[-1]
    ops: list[Op] = []

    for n in kkl_sizes:
        tag = f"kkl{n}"
        params = C.KklParams(n, n // 15, n // 15, n // 30)
        cg = lambda ctx, tag=tag: ctx[f"{tag}.build"].colored_graph
        ops += [
            Op(f"{tag}.build", "constructions.kkl_36", _const(params), _kkl_built(n)),
            Op(
                f"{tag}.free",
                "certify.check_colored_free",
                lambda ctx, cg=cg: (cg(ctx), 3, 6),
                _cert("pass", {"color1_max_clique": 2, "color2_max_clique": 5}),
            ),
            Op(
                f"{tag}.witness",
                "certify.check_rt_witness",
                lambda ctx, cg=cg, m=n // 12: (cg(ctx), 3, 6, m),
                _cert("pass", {"color1_max_clique": 2, "color2_max_clique": 5, "alpha": n // 12}),
            ),
            Op(
                f"{tag}.audit",
                "certify.audit_partition",
                lambda ctx, tag=tag: (
                    ctx[f"{tag}.build"].colored_graph,
                    ctx[f"{tag}.build"].partition,
                    cf.AuditConfig(Fraction(1, 5)),
                ),
                _cert("pass"),
            ),
            Op(
                f"{tag}.formula",
                "certify.edge_formula_check",
                lambda ctx, cg=cg: (cg(ctx), "kkl36", KKL_DELTA, FORMULA_TOL),
                _formula(n),
            ),
        ]

    n = text_n
    tag = f"kkl{n}text"
    ops += [
        Op(
            f"{tag}.build",
            "constructions.kkl_36",
            _const(C.KklParams(n, n // 15, n // 15, n // 30, C.RuleVariant.TEXT)),
            _kkl_built(n),
        ),
        Op(
            f"{tag}.free",
            "certify.check_colored_free",
            lambda ctx, tag=tag: (ctx[f"{tag}.build"].colored_graph, 3, 6),
            _cert("fail", {"color1_max_clique": 3}, _color1_triangle(f"{tag}.build")),
        ),
    ]

    c37_runs = [(n, d, C.Distance.CYCLIC, f"c37_{n}") for n, d in c37_cyclic]
    c37_runs.append((*c37_literal, C.Distance.LITERAL, f"c37lit_{c37_literal[0]}"))
    for n, d, distance, tag in c37_runs:
        cyclic = distance is C.Distance.CYCLIC
        # e = 28 q^2 + 4 q d with q = n/8 is (7/16 + delta/2) n^2 at delta = d/n
        ops += [
            Op(f"{tag}.build", "constructions.construction_37", _const(n, d, distance), _c37_built(n, d)),
            Op(
                f"{tag}.formula",
                "certify.edge_formula_check",
                lambda ctx, tag=tag, delta=Fraction(d, n): (ctx[f"{tag}.build"][0], "c37", delta, FORMULA_TOL),
                _cert("pass", {"edge_count_gap": 0}),
            ),
            Op(
                f"{tag}.free",
                "certify.check_colored_free",
                lambda ctx, tag=tag: (ctx[f"{tag}.build"][0], 3, 7),
                _cert(
                    "pass" if cyclic else "fail",
                    {"color1_max_clique": 2 if cyclic else 3, "color2_max_clique": 6},
                    None if cyclic else _color1_triangle(f"{tag}.build"),
                ),
            ),
        ]

    # relabelling guard: the same graphs under a seeded vertex permutation
    kkl_perm = list(range(kkl_guard))
    rng.shuffle(kkl_perm)
    c37_perm = list(range(c37_guard[0]))
    rng.shuffle(c37_perm)
    small_perms = [rng.sample(range(60), 60) for _ in range(4 if reduced else SMALL_GUARDS)]
    kkl_tag, c37_tag = f"kkl{kkl_guard}", f"c37_{c37_guard[0]}"
    from_edges = "graphs.ColoredGraph.from_colored_edges"
    ops += [
        Op(f"{kkl_tag}r.build", from_edges, _relabel(f"{kkl_tag}.build", kkl_perm), _relabelled_built(f"{kkl_tag}.build")),
        Op(
            f"{kkl_tag}r.free",
            "certify.check_colored_free",
            lambda ctx: (ctx[f"{kkl_tag}r.build"], 3, 6),
            _cert("pass", same_as=f"{kkl_tag}.free"),
        ),
        Op(
            f"{kkl_tag}r.witness",
            "certify.check_rt_witness",
            lambda ctx: (ctx[f"{kkl_tag}r.build"], 3, 6, kkl_guard // 12),
            _cert("pass", same_as=f"{kkl_tag}.witness"),
        ),
        Op(f"{c37_tag}r.build", from_edges, _relabel(f"{c37_tag}.build", c37_perm), _relabelled_built(f"{c37_tag}.build")),
        Op(
            f"{c37_tag}r.free",
            "certify.check_colored_free",
            lambda ctx: (ctx[f"{c37_tag}r.build"], 3, 7),
            _cert("pass", same_as=f"{c37_tag}.free"),
        ),
    ]
    # each copy is dropped from the context by its check, so at most one is
    # held at a time
    small = [
        [
            Op(f"kkl60r.build#{i:03d}", from_edges, _relabel("kkl60.build", perm), _relabelled_built("kkl60.build")),
            Op(
                f"kkl60r.free#{i:03d}",
                "certify.check_colored_free",
                lambda ctx, i=i: (ctx.pop(f"kkl60r.build#{i:03d}"), 3, 6),
                _cert("pass", {"color1_max_clique": 2, "color2_max_clique": 5}),
            ),
        ]
        for i, perm in enumerate(small_perms)
    ]
    return Workload(interleave(ops, small))


# Relabelled kkl n=60 copies built and certified per pass (about 2.5 ms for
# each step, against 7 ms for the native check).  Together they are about a
# tenth of the pass, but so many that both latency percentiles fall among
# them; each pass checks this many labellings.
SMALL_GUARDS = 300


# ----------------------------------------------------------------------
# exhaustive-search

# (n, p, q, m) -> exact maximum edge count; None: no graph qualifies
RT_VALUES = {
    (5, 3, 3, 1): 10,
    (6, 3, 3, 1): None,
    (6, 3, 3, 2): 14,
    (7, 3, 3, 2): 19,
    (7, 3, 4, 2): 21,
}
# (p, q, n) -> does K_n admit a (p, q)-free coloring
RAMSEY_VALUES = {(3, 3, 5): True, (3, 3, 6): False, (3, 4, 8): True}


def _check_rt(inst_key):
    n, p, q, m = inst_key
    value = RT_VALUES[inst_key]

    def check(result, ctx):
        expect(result.exhausted, "search did not complete")
        expect_equal(result.value, value, "extremal edge count")
        if value is None:
            expect(result.witness is None, "witness without a value")
        else:
            oracle.check_rt_witness_graph(result.witness, value, p, q, m)
        return repr((result.value, result.exhausted))

    return check


def five_partite_sample(rng: random.Random, n: int, keep: float):
    """Random subgraph of a complete 5-partite graph.  Coloring an edge by
    its parts' color in the pentagon coloring of K5 avoids monochromatic
    triangles, so a (3, 3)-free coloring always exists."""
    part = [rng.randrange(5) for _ in range(n)]
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if part[u] != part[v] and rng.random() < keep
    ]


def planted_k6_sample(rng: random.Random, n: int, p: float):
    """G(n, p) plus a planted K6; since R(3, 3) = 6 no (3, 3)-free coloring
    exists."""
    clique = rng.sample(range(n), 6)
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if (u in clique and v in clique) or rng.random() < p
    ]


def _check_coloring(n: int, edges, found: bool, p: int = 3, q: int = 3):
    def check(result, ctx):
        expect(result.exhausted or result.coloring is not None, "budget exhausted")
        expect_equal(result.coloring is not None, found, "coloring found")
        if found:
            expect_equal(len(result.coloring), len(edges), "colored edge count")
            oracle.check_free_coloring(n, edges, result.coloring.color, p, q)
            return repr(sorted(result.coloring.colors.items()))
        return "refuted"

    return check


def coloring_batch(rng: random.Random, count: int):
    """(n, edges, colorable): one found instance, then three refuted ones.

    The sizes keep every search far below the default budget of 10**6 nodes
    and the batch's cost nearly the same for every seed: the backtracker's
    node counts are heavy-tailed, and from 11 vertices on single seeds run
    out of budget."""
    batch = []
    for i in range(count):
        if i % 4 == 0:
            n = rng.randint(7, 9)
            batch.append((n, five_partite_sample(rng, n, 0.6), True))
        else:
            batch.append((7, planted_k6_sample(rng, 7, 0.3), False))
    return batch


def exhaustive_search(pkg, seed: int, reduced: bool = False) -> Workload:
    S, Graph = pkg.search, pkg.graphs.Graph
    rng = random.Random(seed)
    rt_keys = list(RT_VALUES)[:2] if reduced else list(RT_VALUES)
    ramsey_keys = list(RAMSEY_VALUES)[:2] if reduced else list(RAMSEY_VALUES)
    ops = [
        Op(
            "rt.{}_{}_{}_{}".format(*key),
            "search.rt_exact",
            lambda ctx, key=key: (S.RtInstance(*key),),
            _check_rt(key),
        )
        for key in rt_keys
    ]
    ops += [
        Op("ramsey.{}_{}_{}".format(*key), "search.ramsey_verify", _const(*key), _equal(RAMSEY_VALUES[key]))
        for key in ramsey_keys
    ]
    batch = [
        [
            Op(
                f"coloring#{i:03d}",
                "search.find_free_coloring",
                lambda ctx, n=n, edges=edges: (Graph.from_edges(n, edges), 3, 3),
                _check_coloring(n, edges, found),
            )
        ]
        for i, (n, edges, found) in enumerate(coloring_batch(rng, 4 if reduced else 150))
    ]
    k = 5 if reduced else 6
    ops += [
        Op("census", "certify.pentagonlike_census", _const(), _equal((12, True))),
        # two-colorings of K_n without a monochromatic triangle: 12 for n = 5,
        # none from R(3, 3) = 6 on
        Op(f"mono_triangle_free.{k}", "certify.mono_triangle_free_count", _const(k), _equal(12 if k == 5 else 0)),
    ]
    return Workload(interleave(ops, batch))


# ----------------------------------------------------------------------
# qp-constants


def random_fraction(rng: random.Random, hi: Fraction) -> Fraction:
    denom = rng.randint(1, 60)
    return Fraction(rng.randint(0, denom), denom) * hi


def random_feasible_point(rng: random.Random):
    """Rational (x, y) with x, y >= 0 and x_i + x_{i+1} + y_i <= 1."""
    x = [random_fraction(rng, Fraction(1))]
    for i in range(1, 5):
        hi = 1 - x[i - 1] if i < 4 else min(1 - x[3], 1 - x[0])
        x.append(random_fraction(rng, hi))
    y = [random_fraction(rng, slack) for slack in oracle.filled_y(x)]
    return tuple(x), tuple(y)


def _check_qp_max(value: Fraction, with_y: bool):
    def check(cert, ctx):
        expect_equal(cert.max_value, value, "certified maximum")
        x = cert.argmax.x
        if with_y:
            y = cert.argmax.y
            expect(oracle.f_feasible(x, y), "argmax infeasible")
            expect_equal(oracle.quad_f(x, y), value, "objective at argmax")
        else:
            expect(oracle.g_feasible(x), "argmax infeasible")
            expect_equal(oracle.quad_g(x), value, "objective at argmax")
        return repr((cert.max_value, cert.argmax.x, cert.argmax.y))

    return check


def _check_eval(x, y):
    want = oracle.quad_f(x, y)

    def check(value, ctx):
        expect_equal(value, want, "f at point")
        expect(value <= oracle.F_MAX, "f exceeds its certified maximum")
        return str(value)

    return check


def _check_reduced(x, eval_label: str):
    want = oracle.quad_f(x, oracle.filled_y(x))

    def check(value, ctx):
        expect_equal(value, want, "max over y of f")
        expect(value <= oracle.F_MAX, "reduced f exceeds its certified maximum")
        expect(value >= ctx[eval_label], "reduced f below f at a feasible y")
        return str(value)

    return check


def _check_gap_csv(deltas):
    def check(text, ctx):
        lines = text.splitlines()
        expect_equal(lines[0], "delta,lb,ub,gap,delta_dec,lb_dec,ub_dec,gap_dec", "header")
        expect_equal(len(lines), len(deltas) + 1, "row count")
        for delta, line in zip(deltas, lines[1:]):
            d, lb, ub, gap = (Fraction(c) for c in line.split(",")[:4])
            expect_equal(d, delta, "delta column")
            expect_equal(lb, oracle.lower_36(delta), f"lb at {delta}")
            expect_equal(gap, Fraction(41, 400) * delta * delta, f"gap at {delta}")
            expect_equal(ub - lb, gap, f"ub - lb at {delta}")
        return text

    return check


def _check_table_csv(deltas, singles):
    def check(text, ctx):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        table = {
            (int(r[0]), int(r[1])): Fraction(r[3]) for r in rows if r[5] == "Table1"
        }
        expect_equal(table, oracle.TABLE1, "Table1 constants")
        for delta in deltas:
            d = str(delta)
            expect(
                ["3", "6", d, str(oracle.lower_36(delta))] in [r[:4] for r in rows],
                f"(3,6) row at {delta}",
            )
            expect(
                ["3", "7", d, str(Fraction(7, 16) + delta / 2)] in [r[:4] for r in rows],
                f"(3,7) row at {delta}",
            )
        for p, delta in singles:
            value = str(oracle.single_clique_density(p, delta))
            expect(
                [str(p), "", str(delta), value, value] in [r[:5] for r in rows],
                f"single-clique row p={p} at {delta}",
            )
        return text

    return check


def qp_constants(pkg, seed: int, reduced: bool = False) -> Workload:
    QpPoint = pkg.qp.QpPoint
    rng = random.Random(seed)
    ops = [
        Op("qp.max_f", "qp.maximize_f", _const(), _check_qp_max(oracle.F_MAX, True)),
        Op("qp.max_g", "qp.maximize_g", _const(), _check_qp_max(oracle.G_MAX, False)),
    ]
    batch = []
    for i in range(5 if reduced else 1000):
        x, y = random_feasible_point(rng)
        unit = [Op(f"eval_f#{i:03d}", "qp.eval_f", lambda ctx, x=x, y=y: (QpPoint(x, y),), _check_eval(x, y))]
        if i % 4 == 0:
            unit.append(
                Op(f"reduce_f#{i:03d}", "qp.reduce_f_over_y", _const(x), _check_reduced(x, f"eval_f#{i:03d}"))
            )
        batch.append(unit)
    deltas = sorted({Fraction(rng.randint(1, 99), 100) for _ in range(6)})
    singles = [(p, d) for p in (4, 5) for d in deltas[:2]]
    ops += [
        Op("report.gaps", "report.gap_report_csv", _const(deltas), _check_gap_csv(deltas)),
        Op("report.table", "report.reference_table_csv", _const(deltas, singles), _check_table_csv(deltas, singles)),
    ]
    return Workload(interleave(ops, batch))


# ----------------------------------------------------------------------
# cli-roundtrip


def pentagon_blowup(rng: random.Random, n: int, keep: float, plant: bool):
    """Colored blow-up of the pentagon coloring of K5 (color 1 between
    cyclically adjacent parts, color 2 at distance two); free of
    monochromatic triangles.  ``plant`` adds one color-1 edge inside a part,
    which closes a color-1 triangle.  Every part gets at least two of the
    n >= 10 vertices.  Returns (n, {(u, v): color}, part sizes)."""
    if n < 10:
        raise ValueError("pentagon blow-ups here need n >= 10")
    while True:
        part = [rng.randrange(5) for _ in range(n)]
        sizes = [part.count(i) for i in range(5)]
        if min(sizes) >= 2:
            break
    colors = {}
    for u, v in combinations(range(n), 2):
        gap = (part[u] - part[v]) % 5
        if gap and (rng.random() < keep or plant):
            colors[(u, v)] = 1 if gap in (1, 4) else 2
    if plant:
        a, b = rng.sample([v for v in range(n) if part[v] == 0], 2)
        colors[(min(a, b), max(a, b))] = 1
    return n, colors, sizes


def colored_doc(n: int, colors: dict) -> str:
    edges = sorted([u, v, c] for (u, v), c in colors.items())
    return json.dumps({"n": n, "edges": edges})


def _strip_params(text: str) -> str:
    """Certificate JSON without its free-form ``params`` (search statistics
    may land there); status, checks and witness must match exactly."""
    doc = json.loads(text)
    doc.pop("params", None)
    return json.dumps(doc, sort_keys=True)


class CliCase:
    """One distinct command: argv, stdin, pinned exit code, the package's
    in-process reference for stdout, and an own check of stdout."""

    def __init__(self, key, argv, stdin="", code=0, reference=None, inspect=None, cert=False):
        self.key = key
        self.argv = [str(a) for a in argv]
        self.stdin = stdin
        self.code = code
        self.reference = reference
        self.inspect = inspect
        self.cert = cert
        self.expected = None

    def check(self, result, ctx):
        code, out, err = result
        expect_equal(code, self.code, f"exit code (stderr {err.strip()!r})")
        norm = _strip_params(out) if self.cert else out
        expect_equal(norm, self.expected, "stdout vs in-process reference")
        if self.inspect is not None:
            self.inspect(out)
        return repr((code, norm))


def _graph6_inspect(n_want, edges_want=None, triangle_free=False, regular=None):
    def inspect(out):
        n, edges = oracle.graph6_decode(out)
        expect_equal(n, n_want, "graph6 vertex count")
        if edges_want is not None:
            expect_equal(len(edges), edges_want, "graph6 edge count")
        if triangle_free:
            expect(not oracle.has_clique(n, edges, 3), "graph has a triangle")
        if regular is not None:
            degree = [0] * n
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            expect(set(degree) == {regular}, f"graph is not {regular}-regular")

    return inspect


def _turan_edges(n: int, parts: int) -> int:
    sizes = [n // parts + (i < n % parts) for i in range(parts)]
    return (n * n - sum(s * s for s in sizes)) // 2


def _colored_graph_inspect(n_want, edges_want, parts_want=None):
    def inspect(out):
        doc = json.loads(out)
        expect_equal(doc["n"], n_want, "vertex count")
        expect_equal(len(doc["edges"]), edges_want, "edge count")
        expect({c for _, _, c in doc["edges"]} <= {1, 2}, "colors")
        if parts_want is not None:
            expect_equal(len(doc["parts"]), parts_want, "part count")

    return inspect


def _cert_inspect(colors: dict, status: str, witness_kind: str | None = None):
    """Own check of a certificate printed for the colored graph ``colors``."""

    def inspect(out):
        doc = json.loads(out)
        expect_equal(doc["status"], status, "status")
        w = doc["witness"]
        if witness_kind == "clique":
            color = {colors.get(pair) for pair in combinations(sorted(w), 2)}
            expect(len(color) == 1 and None not in color, f"witness {w} is not a monochromatic clique")
        elif witness_kind == "independent":
            expect(
                all(pair not in colors for pair in combinations(sorted(w), 2)),
                f"witness {w} is not independent",
            )

    return inspect


def _coloring_inspect(n: int, edges, found: bool):
    def inspect(out):
        doc = json.loads(out)
        if not found:
            expect(doc.get("found") is False and doc.get("exhausted") is True, "not a refutation")
            return
        expect_equal(doc["n"], n, "vertex count")
        colors = {(u, v): c for u, v, c in doc["edges"]}
        expect_equal(sorted(colors), sorted(edges), "colored edge set")
        oracle.check_free_coloring(n, edges, lambda u, v: colors[(u, v)], 3, 3)

    return inspect


def cli_cases(pkg, rng: random.Random, reduced: bool) -> list[CliCase]:
    C, cf, jsonio, graph6, S = (
        pkg.constructions, pkg.certify, pkg.jsonio, pkg.graph6, pkg.search,
    )
    cases: list[CliCase] = []

    def certificate_ref(check, text, *args):
        def ref():
            cert = check(jsonio.colored_graph_from_dict(json.loads(text)), *args)
            return _strip_params(jsonio.dumps(jsonio.certificate_to_dict(cert)))

        return ref

    kkl_docs = {}
    for n in (60,) if reduced else (60, 120):
        params = C.KklParams(n, n // 15, n // 15, n // 30)

        def kkl_ref(params=params, n=n):
            built = C.kkl_36(params)
            kkl_docs[n] = jsonio.dumps(jsonio.colored_graph_to_dict(built.colored_graph, built.partition))
            return kkl_docs[n]

        cases.append(CliCase(
            f"construct.kkl{n}",
            ["construct", "kkl36", "--n", n, "--d1", n // 15, "--m2", n // 15, "--d2", n // 30, "--with-parts"],
            reference=kkl_ref,
            inspect=_colored_graph_inspect(n, KKL_EDGES[n], 6),
        ))
    for n, d, dist in ((40, 2, "cyclic"), (80, 4, "literal")):
        cases.append(CliCase(
            f"construct.c37_{n}_{dist}",
            ["construct", "c37", "--n", n, "--d", d, "--distance", dist],
            reference=lambda n=n, d=d, dist=dist: jsonio.dumps(
                jsonio.colored_graph_to_dict(C.construction_37(n, d, C.Distance(dist))[0])
            ),
            inspect=_colored_graph_inspect(n, _c37_edges(n, d)),
        ))
    for _ in range(4):
        n, parts = rng.randint(8, 40), rng.randint(2, 8)
        cases.append(CliCase(
            f"construct.turan_{n}_{parts}",
            ["construct", "turan", "--n", n, "--parts", parts],
            reference=lambda n=n, parts=parts: graph6.encode(C.turan(n, parts)) + "\n",
            inspect=_graph6_inspect(n, _turan_edges(n, parts)),
        ))
    for k in rng.sample(range(2, 9), 2):
        cases.append(CliCase(
            f"construct.andrasfai_{k}",
            ["construct", "andrasfai", "--k", k],
            reference=lambda k=k: graph6.encode(C.andrasfai(k)) + "\n",
            inspect=_graph6_inspect(3 * k - 1, triangle_free=True, regular=k),
        ))
    for _ in range(3):
        m = rng.randint(10, 40)
        d = rng.randint(2, m // 3)
        cases.append(CliCase(
            f"construct.fgraph_{m}_{d}",
            ["construct", "fgraph", "--m", m, "--d", d],
            reference=lambda m=m, d=d: graph6.encode(C.f_graph(m, d).graph) + "\n",
            inspect=_graph6_inspect(m, triangle_free=True),
        ))

    for i in range(4):
        n, colors, _ = pentagon_blowup(rng, rng.randint(10, 20), 0.8, plant=i % 2 == 1)
        text = colored_doc(n, colors)
        formula = rng.choice(["kkl36", "c37"])
        delta = Fraction(rng.randint(1, 20), 100)
        tol = Fraction(rng.randint(1, 40), 200)
        base = oracle.lower_36(delta) if formula == "kkl36" else Fraction(7, 16) + delta / 2
        ok = abs(len(colors) - base * n * n) <= tol * n * n
        cases.append(CliCase(
            f"verify.formula_{i}",
            ["verify", "formula", "--formula", formula, "--delta", delta, "--tol", tol],
            stdin=text,
            code=0 if ok else 1,
            reference=certificate_ref(cf.edge_formula_check, text, formula, delta, tol),
            inspect=_cert_inspect(colors, "pass" if ok else "fail"),
            cert=True,
        ))
    for i in range(6):
        plant = i % 2 == 1
        q = 3 if i < 4 else 6
        n, colors, _ = pentagon_blowup(rng, rng.randint(10, 18), 0.8, plant)
        text = colored_doc(n, colors)
        cases.append(CliCase(
            f"verify.free_{i}",
            ["verify", "free", "--p", 3, "--q", q],
            stdin=text,
            code=1 if plant else 0,
            reference=certificate_ref(cf.check_colored_free, text, 3, q),
            inspect=_cert_inspect(colors, "fail" if plant else "pass", "clique" if plant else None),
            cert=True,
        ))
    for i in range(4):
        n, colors, sizes = pentagon_blowup(rng, rng.randint(10, 18), 1.0, plant=False)
        m = max(sizes) - (i % 2)
        ok = m >= max(sizes)
        text = colored_doc(n, colors)
        cases.append(CliCase(
            f"verify.witness_{i}",
            ["verify", "witness", "--p", 3, "--q", 3, "--m", m],
            stdin=text,
            code=0 if ok else 1,
            reference=certificate_ref(cf.check_rt_witness, text, 3, 3, m),
            inspect=_cert_inspect(colors, "pass" if ok else "fail", None if ok else "independent"),
            cert=True,
        ))

    audit = CliCase("verify.audit_kkl60", ["verify", "audit", "--gamma", "1/5"], code=0, cert=True)

    def audit_ref():
        # the audit reads the construct.kkl60 reference, made just before it
        audit.stdin = kkl_docs[60]
        doc = json.loads(kkl_docs[60])
        cert = cf.audit_partition(
            jsonio.colored_graph_from_dict(doc), jsonio.partition_from_dict(doc),
            cf.AuditConfig(Fraction(1, 5)),
        )
        return _strip_params(jsonio.dumps(jsonio.certificate_to_dict(cert)))

    audit.reference = audit_ref
    audit.inspect = lambda out: expect_equal(json.loads(out)["status"], "pass", "status")
    cases.append(audit)

    for i, (n, edges, found) in enumerate(coloring_batch(rng, 6)):
        line = oracle.graph6_encode(n, edges)

        def coloring_ref(n=n, line=line):
            g = graph6.decode(line)
            result = S.find_free_coloring(g, 3, 3)
            if result.coloring is None:
                doc = {"found": False, "exhausted": result.exhausted, "nodes": result.nodes}
            else:
                doc = jsonio.colored_graph_to_dict(pkg.graphs.ColoredGraph(g, result.coloring))
            return jsonio.dumps(doc)

        cases.append(CliCase(
            f"search.coloring_{i}",
            ["search", "coloring", "--p", 3, "--q", 3, "--g6", line],
            reference=coloring_ref,
            inspect=_coloring_inspect(n, edges, found),
        ))
    for i in range(2):
        deltas = sorted({Fraction(rng.randint(1, 99), 1000) for _ in range(4)})
        argv = ["report", "gaps"]
        for d in deltas:
            argv += ["--delta", d]
        cases.append(CliCase(
            f"report.gaps_{i}",
            argv,
            reference=lambda deltas=deltas: pkg.report.gap_report_csv(deltas),
            inspect=lambda out, deltas=deltas: _check_gap_csv(deltas)(out, {}),
        ))
    cases.append(CliCase(
        "verify.census",
        ["verify", "census"],
        reference=lambda: '{"all_pentagonlike":true,"survivors":12}\n',
    ))
    return cases


# operations per case kind in one pass (200 in all); a kind's count is shared
# out evenly over its cases, so every seed gives the same mix.  audit is the
# one heavy command (about a quarter second) and stays occasional.
CLI_COUNTS = {
    "construct.kkl60": 30, "construct.kkl120": 10, "construct.c37": 16,
    "construct.turan": 16, "construct.andrasfai": 10, "construct.fgraph": 10,
    "verify.formula": 18, "verify.free": 24, "verify.witness": 16,
    "verify.audit": 2, "search.coloring": 24, "report.gaps": 12, "verify.census": 12,
}


def cli_roundtrip(pkg, seed: int, reduced: bool = False) -> Workload:
    rng = random.Random(seed)
    cases = cli_cases(pkg, rng, reduced)
    if reduced:
        drawn = list(cases)
    else:
        drawn = []
        for kind, count in CLI_COUNTS.items():
            group = [c for c in cases if c.key.startswith(kind)]
            drawn += [group[i % len(group)] for i in range(count)]
    rng.shuffle(drawn)

    def prepare():
        for case in cases:
            case.expected = case.reference()

    ops = [
        Op(
            f"{case.key}#{i:03d}",
            "cli.cli_dispatch",
            lambda ctx, case=case: (case.argv, case.stdin),
            case.check,
            _dispatch_in_memory,
            keep=False,
        )
        for i, case in enumerate(drawn)
    ]
    return Workload(ops, prepare)


WORKLOADS = {
    "blowup-certify": blowup_certify,
    "exhaustive-search": exhaustive_search,
    "qp-constants": qp_constants,
    "cli-roundtrip": cli_roundtrip,
}
