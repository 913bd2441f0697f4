"""Command-line front end.

Exit codes: 0 all checks passed, 1 an emitted certificate failed, 2 usage or
input error.  Colored graphs travel as canonical JSON on stdin/stdout;
uncolored graphs as graph6 lines; reports as CSV.

Each leaf command ``rturan <group> <name>`` is declared once, in
``_LEAVES``, with its help, its handler and its flags; a handler takes the
parsed arguments and returns the exit code.  ``cli_dispatch`` looks up the
first two words of argv there and parses the rest with that leaf's own
parser, built alone on first use.  The whole tree is built from the same
table only when argv names no leaf (top-level or group help, an unknown
command, options before the command) or the leaf meets an argument it does
not know, so every help text and error message is the tree's.
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
from .graphs import ColoredGraph
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


def _write(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _colored(build):
    """Handler printing the colored graph and partition ``build(args)`` as
    canonical JSON (with the parts under ``--with-parts``) or as graph6."""

    def run(args) -> int:
        if args.with_parts and args.format == "graph6":
            raise ValueError("--with-parts needs --format json")
        cg, partition = build(args)
        if args.format == "graph6":
            return _write(graph6.encode(cg.graph) + "\n")
        parts = partition if args.with_parts else None
        return _write(jsonio.colored_graph_json(cg, parts))

    return run


def _certificate(check):
    """Handler printing the certificate ``check(args, doc, cg)`` of the
    colored-graph document read from ``--input`` (stdin when absent or
    ``-``); exit 1 when it fails."""

    def run(args) -> int:
        if args.input in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("JSON document nested too deeply") from None
        cert = check(args, doc, jsonio.colored_graph_from_dict(doc))
        _write(jsonio.dumps(jsonio.certificate_to_dict(cert)))
        return 0 if cert.passed else CERT_FAIL

    return run


def _kkl36(args):
    variant = RuleVariant(args.variant)
    built = kkl_36(KklParams(args.n, args.d1, args.m2, args.d2, rule_variant=variant))
    return built.colored_graph, built.partition


def _fgraph(args) -> int:
    result = f_graph(args.m, args.d)
    _write(graph6.encode(result.graph) + "\n")
    sys.stderr.write(
        f"achieved degree {result.degree}, alpha {result.alpha}, "
        f"padding {result.padding} (k={result.k}, t={result.t})\n"
    )
    return 0


def _census(args) -> int:
    survivors, all_pentagon = pentagonlike_census()
    return _write(jsonio.dumps({"survivors": survivors, "all_pentagonlike": all_pentagon}))


def _rt(args) -> int:
    inst = RtInstance(n=args.n, p=args.p, q=args.q, m=args.m, budget=args.budget)
    result = rt_exact(inst)
    witness = result.witness
    return _write(jsonio.dumps({
        "value": result.value,
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "witness": jsonio.colored_graph_to_dict(witness) if witness is not None else None,
    }))


def _coloring(args) -> int:
    line = args.g6 if args.g6 is not None else sys.stdin.readline()
    g = graph6.decode(line.strip())
    result = find_free_coloring(g, args.p, args.q, args.budget)
    if result.coloring is None:
        doc = {"found": False, "exhausted": result.exhausted, "nodes": result.nodes}
        return _write(jsonio.dumps(doc))
    return _write(jsonio.colored_graph_json(ColoredGraph(g, result.coloring)))


def _qp(solve) -> int:
    cert = solve()
    return _write(jsonio.dumps({
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
    }))


def _table(args) -> int:
    if args.clique and not args.delta:
        raise ValueError("--clique needs at least one --delta")
    singles = [(p, d) for p in args.clique for d in args.delta]
    return _write(report.reference_table_csv(args.delta, singles))


_INT = {"type": int, "required": True}

# flags that several leaves share, each declared here once
_FLAGS = {
    "n": _INT,
    "d": _INT,
    "m": _INT,
    "p": _INT,
    "q": _INT,
    "format": {"choices": ["json", "graph6"], "default": "json"},
    "with-parts": {"action": "store_true"},
    "input": {"default": None},
    "budget": {"type": int, "default": 10**6},
}


def _rational(name):
    return (name, {"type": _fraction, "required": True})


_GROUPS = {
    "construct": "emit a construction",
    "verify": "emit a certificate",
    "search": "run a brute-force search",
    "qp": "certified quadratic maxima",
    "report": "density tables",
}

# (group, name) -> (help, handler, flags); each flag is a name in ``_FLAGS``
# or a pair (name, spec) of a flag that this leaf alone has
_LEAVES = {
    ("construct", "kkl36"): (
        "six-part colored construction", _colored(_kkl36),
        ("n", ("d1", _INT), ("m2", _INT), ("d2", _INT),
         ("variant", {"choices": ["text", "figure"], "default": "figure"}),
         "format", "with-parts")),
    ("construct", "c37"): (
        "eight-part colored construction",
        _colored(lambda a: construction_37(a.n, a.d, Distance(a.distance))),
        ("n", "d", ("distance", {"choices": ["cyclic", "literal"], "default": "cyclic"}),
         "format", "with-parts")),
    ("construct", "turan"): (
        "balanced complete multipartite graph",
        lambda a: _write(graph6.encode(turan(a.n, a.parts)) + "\n"), ("n", ("parts", _INT))),
    ("construct", "andrasfai"): (
        "triangle-free circulant",
        lambda a: _write(graph6.encode(andrasfai(a.k)) + "\n"), (("k", _INT),)),
    ("construct", "fgraph"): ("regular triangle-free graph", _fgraph, ("m", "d")),
    ("verify", "free"): (
        "monochromatic-clique freeness",
        _certificate(lambda a, doc, cg: check_colored_free(cg, a.p, a.q)),
        ("p", "q", "input")),
    ("verify", "witness"): (
        "freeness plus independence cap",
        _certificate(lambda a, doc, cg: check_rt_witness(cg, a.p, a.q, a.m)),
        ("p", "q", "m", "input")),
    ("verify", "formula"): (
        "edge-count formula check",
        _certificate(lambda a, doc, cg: edge_formula_check(cg, a.formula, a.delta, a.tol)),
        (("formula", {"choices": ["kkl36", "c37"], "required": True}),
         _rational("delta"), _rational("tol"), "input")),
    ("verify", "audit"): (
        "six-part partition property audit",
        _certificate(lambda a, doc, cg: audit_partition(
            cg, jsonio.partition_from_dict(doc), AuditConfig(gamma=a.gamma))),
        (_rational("gamma"), "input")),
    ("verify", "census"): ("triangle-free coloring census of K5", _census, ()),
    ("search", "rt"): ("exact extremal edge count", _rt, ("n", "p", "q", "m", "budget")),
    ("search", "coloring"): (
        "free coloring of a given graph", _coloring,
        ("p", "q", "budget", ("g6", {"default": None, "help": "graph6 line (default: stdin)"}))),
    ("search", "ramsey"): (
        "does K_n admit a free coloring?",
        lambda a: _write("true\n" if ramsey_verify(a.p, a.q, a.n, a.budget) else "false\n"),
        ("p", "q", "n", "budget")),
    ("qp", "f"): ("ten-variable objective", lambda a: _qp(maximize_f), ()),
    ("qp", "g"): ("five-variable objective", lambda a: _qp(maximize_g), ()),
    ("report", "table"): (
        "reference density constants", _table,
        (("delta", {"type": _fraction, "action": "append", "default": []}),
         ("clique", {"type": int, "action": "append", "default": [],
                     "help": "single-clique sizes to tabulate at each --delta"}))),
    ("report", "gaps"): (
        "lower/upper bound gap per delta",
        lambda a: _write(report.gap_report_csv(a.delta)),
        (("delta", {"type": _fraction, "action": "append", "required": True}),)),
}


def _fill_leaf(parser: argparse.ArgumentParser, run, flags) -> argparse.ArgumentParser:
    for flag in flags:
        flag, spec = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
        parser.add_argument(f"--{flag}", **spec)
    parser.set_defaults(run=run)
    return parser


@functools.cache
def _leaf_parser(group: str, name: str) -> argparse.ArgumentParser:
    """The parser of one leaf alone, built once per process; it is the
    tree's subparser of that leaf, with the same prog, flags and handler."""
    _, run, flags = _LEAVES[group, name]
    return _fill_leaf(argparse.ArgumentParser(prog=f"rturan {group} {name}"), run, flags)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rturan",
        description="exact constructions, certificates and brute-force "
        "oracles for two-colored clique-avoidance extremal problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {
        group: sub.add_parser(group, help=help).add_subparsers(dest="what", required=True)
        for group, help in _GROUPS.items()
    }
    for (group, name), (help, run, flags) in _LEAVES.items():
        _fill_leaf(groups[group].add_parser(name, help=help), run, flags)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` as the tree would, building only the leaf it names.

    Every argument after ``<group> <name>`` reaches that leaf's subparser
    unchanged, so the leaf parser prints the same help and the same errors.
    Arguments it does not know are an error of the top-level parser, so that
    case, and every argv that names no leaf, goes to the tree.
    """
    leaf = tuple(argv[:2])
    if leaf in _LEAVES:
        args, extra = _leaf_parser(*leaf).parse_known_args(argv[2:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def cli_dispatch(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, OSError, KeyError, SearchBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
