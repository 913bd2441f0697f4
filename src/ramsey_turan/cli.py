"""Command-line front end.

Exit codes: 0 all checks passed, 1 an emitted certificate failed, 2 usage or
input error.  Colored graphs travel as canonical JSON on stdin/stdout;
uncolored graphs as graph6 lines; reports as CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import graph6, jsonio, report
from .certify import (
    AuditConfig,
    audit_partition,
    check_colored_free,
    check_rt_witness,
    edge_formula_check,
    pentagonlike_census,
)
from .constructions import (
    Distance,
    KklParams,
    RuleVariant,
    andrasfai,
    construction_37,
    f_graph,
    kkl_36,
    turan,
)
from .graphs import ColoredGraph, Graph
from .qp import maximize_f, maximize_g
from .search import (
    RtInstance,
    SearchBudgetExceeded,
    find_free_coloring,
    ramsey_verify,
    rt_exact,
)

USAGE_ERROR = 2
CERT_FAIL = 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _read_doc(path: str | None) -> dict:
    if path in (None, "-"):
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.loads(fh.read())


def _emit_certificate(cert) -> int:
    sys.stdout.write(jsonio.dumps(jsonio.certificate_to_dict(cert)))
    return 0 if cert.passed else CERT_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rturan",
        description="exact constructions, certificates and brute-force "
        "oracles for two-colored clique-avoidance extremal problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="emit a construction")
    con_sub = con.add_subparsers(dest="what", required=True)

    kkl = con_sub.add_parser("kkl36", help="six-part colored construction")
    kkl.add_argument("--n", type=int, required=True)
    kkl.add_argument("--d1", type=int, required=True)
    kkl.add_argument("--m2", type=int, required=True)
    kkl.add_argument("--d2", type=int, required=True)
    kkl.add_argument("--variant", choices=["text", "figure"], default="figure")
    kkl.add_argument("--format", choices=["json", "graph6"], default="json")
    kkl.add_argument("--with-parts", action="store_true")

    c37 = con_sub.add_parser("c37", help="eight-part colored construction")
    c37.add_argument("--n", type=int, required=True)
    c37.add_argument("--d", type=int, required=True)
    c37.add_argument("--distance", choices=["cyclic", "literal"], default="cyclic")
    c37.add_argument("--format", choices=["json", "graph6"], default="json")
    c37.add_argument("--with-parts", action="store_true")

    tur = con_sub.add_parser("turan", help="balanced complete multipartite graph")
    tur.add_argument("--n", type=int, required=True)
    tur.add_argument("--parts", type=int, required=True)

    andr = con_sub.add_parser("andrasfai", help="triangle-free circulant")
    andr.add_argument("--k", type=int, required=True)

    fg = con_sub.add_parser("fgraph", help="regular triangle-free graph")
    fg.add_argument("--m", type=int, required=True)
    fg.add_argument("--d", type=int, required=True)

    ver = sub.add_parser("verify", help="emit a certificate")
    ver_sub = ver.add_subparsers(dest="what", required=True)

    free = ver_sub.add_parser("free", help="monochromatic-clique freeness")
    free.add_argument("--p", type=int, required=True)
    free.add_argument("--q", type=int, required=True)
    free.add_argument("--input", default=None)

    wit = ver_sub.add_parser("witness", help="freeness plus independence cap")
    wit.add_argument("--p", type=int, required=True)
    wit.add_argument("--q", type=int, required=True)
    wit.add_argument("--m", type=int, required=True)
    wit.add_argument("--input", default=None)

    form = ver_sub.add_parser("formula", help="edge-count formula check")
    form.add_argument("--formula", choices=["kkl36", "c37"], required=True)
    form.add_argument("--delta", type=_fraction, required=True)
    form.add_argument("--tol", type=_fraction, required=True)
    form.add_argument("--input", default=None)

    aud = ver_sub.add_parser("audit", help="six-part partition property audit")
    aud.add_argument("--gamma", type=_fraction, required=True)
    aud.add_argument("--input", default=None)

    ver_sub.add_parser("census", help="triangle-free coloring census of K5")

    sea = sub.add_parser("search", help="run a brute-force search")
    sea_sub = sea.add_subparsers(dest="what", required=True)

    rt = sea_sub.add_parser("rt", help="exact extremal edge count")
    rt.add_argument("--n", type=int, required=True)
    rt.add_argument("--p", type=int, required=True)
    rt.add_argument("--q", type=int, required=True)
    rt.add_argument("--m", type=int, required=True)
    rt.add_argument("--budget", type=int, default=10**6)

    col = sea_sub.add_parser("coloring", help="free coloring of a given graph")
    col.add_argument("--p", type=int, required=True)
    col.add_argument("--q", type=int, required=True)
    col.add_argument("--budget", type=int, default=10**6)
    col.add_argument("--g6", default=None, help="graph6 line (default: stdin)")

    ram = sea_sub.add_parser("ramsey", help="does K_n admit a free coloring?")
    ram.add_argument("--p", type=int, required=True)
    ram.add_argument("--q", type=int, required=True)
    ram.add_argument("--n", type=int, required=True)
    ram.add_argument("--budget", type=int, default=10**6)

    qp = sub.add_parser("qp", help="certified quadratic maxima")
    qp_sub = qp.add_subparsers(dest="what", required=True)
    qp_sub.add_parser("f", help="ten-variable objective")
    qp_sub.add_parser("g", help="five-variable objective")

    rep = sub.add_parser("report", help="density tables")
    rep_sub = rep.add_subparsers(dest="what", required=True)
    tab = rep_sub.add_parser("table", help="reference density constants")
    tab.add_argument("--delta", type=_fraction, action="append", default=[])
    tab.add_argument(
        "--clique",
        type=int,
        action="append",
        default=[],
        help="single-clique sizes to tabulate at each --delta",
    )
    gaps = rep_sub.add_parser("gaps", help="lower/upper bound gap per delta")
    gaps.add_argument("--delta", type=_fraction, action="append", required=True)

    parser.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_construct(args) -> int:
    if args.what == "kkl36":
        params = KklParams(
            n=args.n,
            d1=args.d1,
            m2=args.m2,
            d2=args.d2,
            rule_variant=RuleVariant(args.variant),
        )
        built = kkl_36(params)
        if args.format == "graph6":
            sys.stdout.write(graph6.encode(built.colored_graph.graph) + "\n")
        else:
            parts = built.partition if args.with_parts else None
            sys.stdout.write(
                jsonio.dumps(jsonio.colored_graph_to_dict(built.colored_graph, parts))
            )
        return 0
    if args.what == "c37":
        cg, partition = construction_37(args.n, args.d, Distance(args.distance))
        if args.format == "graph6":
            sys.stdout.write(graph6.encode(cg.graph) + "\n")
        else:
            parts = partition if args.with_parts else None
            sys.stdout.write(jsonio.dumps(jsonio.colored_graph_to_dict(cg, parts)))
        return 0
    if args.what == "turan":
        sys.stdout.write(graph6.encode(turan(args.n, args.parts)) + "\n")
        return 0
    if args.what == "andrasfai":
        sys.stdout.write(graph6.encode(andrasfai(args.k)) + "\n")
        return 0
    if args.what == "fgraph":
        result = f_graph(args.m, args.d)
        sys.stdout.write(graph6.encode(result.graph) + "\n")
        sys.stderr.write(
            f"achieved degree {result.degree}, alpha {result.alpha}, "
            f"padding {result.padding} (k={result.k}, t={result.t})\n"
        )
        return 0
    raise AssertionError(args.what)


def _cmd_verify(args) -> int:
    if args.what == "census":
        survivors, all_pentagon = pentagonlike_census()
        sys.stdout.write(
            jsonio.dumps(
                {"survivors": survivors, "all_pentagonlike": all_pentagon}
            )
        )
        return 0
    doc = _read_doc(args.input)
    cg = jsonio.colored_graph_from_dict(doc)
    if args.what == "free":
        return _emit_certificate(check_colored_free(cg, args.p, args.q))
    if args.what == "witness":
        return _emit_certificate(check_rt_witness(cg, args.p, args.q, args.m))
    if args.what == "formula":
        return _emit_certificate(
            edge_formula_check(cg, args.formula, args.delta, args.tol)
        )
    if args.what == "audit":
        part = jsonio.partition_from_dict(doc)
        cfg = AuditConfig(gamma=args.gamma)
        return _emit_certificate(audit_partition(cg, part, cfg))
    raise AssertionError(args.what)


def _cmd_search(args) -> int:
    if args.what == "rt":
        inst = RtInstance(n=args.n, p=args.p, q=args.q, m=args.m, budget=args.budget)
        result = rt_exact(inst)
        doc = {
            "value": result.value,
            "exhausted": result.exhausted,
            "nodes": result.nodes,
            "witness": (
                jsonio.colored_graph_to_dict(result.witness)
                if result.witness is not None
                else None
            ),
        }
        sys.stdout.write(jsonio.dumps(doc))
        return 0
    if args.what == "coloring":
        line = args.g6 if args.g6 is not None else sys.stdin.readline()
        g = graph6.decode(line.strip())
        result = find_free_coloring(g, args.p, args.q, args.budget)
        if result.coloring is None:
            sys.stdout.write(
                jsonio.dumps(
                    {"found": False, "exhausted": result.exhausted, "nodes": result.nodes}
                )
            )
        else:
            sys.stdout.write(
                jsonio.dumps(
                    jsonio.colored_graph_to_dict(ColoredGraph(g, result.coloring))
                )
            )
        return 0
    if args.what == "ramsey":
        answer = ramsey_verify(args.p, args.q, args.n, args.budget)
        sys.stdout.write("true\n" if answer else "false\n")
        return 0
    raise AssertionError(args.what)


def _cmd_qp(args) -> int:
    cert = maximize_f() if args.what == "f" else maximize_g()
    doc = {
        "max": str(cert.max_value),
        "max_decimal": float(cert.max_value),
        "argmax": {
            "x": [str(v) for v in cert.argmax.x],
            "y": [str(v) for v in cert.argmax.y] if cert.argmax.y else None,
        },
        "method": cert.method,
        "agreement_gap": cert.agreement_gap,
        "implied_bound": cert.implied_bound,
        "faces": cert.faces,
        "candidates": cert.candidates,
    }
    sys.stdout.write(jsonio.dumps(doc))
    return 0


def _cmd_report(args) -> int:
    if args.what == "table":
        if args.clique and not args.delta:
            raise ValueError("--clique needs at least one --delta")
        singles = [(p, d) for p in args.clique for d in args.delta]
        sys.stdout.write(report.reference_table_csv(args.delta, singles))
        return 0
    if args.what == "gaps":
        sys.stdout.write(report.gap_report_csv(args.delta))
        return 0
    raise AssertionError(args.what)


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "qp":
            return _cmd_qp(args)
        if args.command == "report":
            return _cmd_report(args)
    except (ValueError, OSError, KeyError, SearchBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    raise AssertionError(args.command)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
