"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the package from the outside.  A
function is rebound under every name a package module holds for it (for
example ``ramsey_turan.certify.clique_number`` as well as
``ramsey_turan.graphs.clique_number``), so calls between modules are recorded
where the caller imported them; methods are rebound on their class.  Each
call becomes a span (name, start, end, parent id) kept in flat arrays in
memory, and counts are taken from arguments and results at the same
boundary.  Spans are written out once, when the benchmark ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict


def _vertices_in(args, result):
    return {"vertices_in": args[0].n}


def _coloring_outcome(args, result):
    found = result.coloring is not None
    return {
        "nodes": result.nodes,
        "found": int(found),
        "budget_exhausted": int(not found and not result.exhausted),
    }


def _nodes(args, result):
    return {"nodes": result.nodes}


def _classes(args, result):
    return {"classes": len(result)}


def _text_bytes(args, result):
    return {"bytes": len(result)}


def _line_bytes(args, result):
    return {"bytes": len(args[0])}


# (span name, module, attribute path, counter taken at the boundary)
TARGETS = (
    ("graphs.clique_number", "graphs", "clique_number", _vertices_in),
    ("graphs.independence_number", "graphs", "independence_number", None),
    ("graphs.color_class", "graphs", "ColoredGraph.color_class", None),
    ("graphs.Graph_init", "graphs", "Graph.__init__", None),
    ("graphs.ColoredGraph_init", "graphs", "ColoredGraph.__init__", None),
    ("constructions.kkl_36", "constructions", "kkl_36", None),
    ("constructions.construction_37", "constructions", "construction_37", None),
    ("constructions.f_graph", "constructions", "f_graph", None),
    ("certify.check_colored_free", "certify", "check_colored_free", None),
    ("certify.check_rt_witness", "certify", "check_rt_witness", None),
    ("certify.audit_partition", "certify", "audit_partition", None),
    ("certify.edge_formula_check", "certify", "edge_formula_check", None),
    ("certify.pentagonlike_census", "certify", "pentagonlike_census", None),
    ("certify.mono_triangle_free_count", "certify", "mono_triangle_free_count", None),
    ("search.canonical_form", "search", "canonical_form", None),
    ("search.enumerate_canonical_graphs", "search", "enumerate_canonical_graphs", _classes),
    ("search.find_free_coloring", "search", "find_free_coloring", _coloring_outcome),
    ("search.rt_exact", "search", "rt_exact", _nodes),
    ("search.ramsey_verify", "search", "ramsey_verify", None),
    ("qp.maximize_f", "qp", "maximize_f", None),
    ("qp.maximize_g", "qp", "maximize_g", None),
    ("qp.eval_f", "qp", "eval_f", None),
    ("report.gap_report_csv", "report", "gap_report_csv", None),
    ("report.reference_table_csv", "report", "reference_table_csv", None),
    ("jsonio.colored_graph_to_dict", "jsonio", "colored_graph_to_dict", None),
    ("jsonio.colored_graph_from_dict", "jsonio", "colored_graph_from_dict", None),
    ("jsonio.certificate_to_dict", "jsonio", "certificate_to_dict", None),
    ("jsonio.dumps", "jsonio", "dumps", _text_bytes),
    ("graph6.encode", "graph6", "encode", _text_bytes),
    ("graph6.decode", "graph6", "decode", _line_bytes),
    ("cli.cli_dispatch", "cli", "cli_dispatch", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Recorder:
    """Spans of one traced pass, in start order, as parallel arrays."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        # spans whose counter could not read the result (an API change)
        self.uncounted: set[str] = set()
        self._stack = [-1]

    def wrap(self, name_id: int, fn, counter):
        name = SPAN_NAMES[name_id]
        clock = time.perf_counter_ns
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, uncounted = self._stack, self.counts, self.uncounted

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                try:
                    taken = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    uncounted.add(name)
                else:
                    for key, value in taken.items():
                        counts[(name, key)] += value
            return result

        return traced

    def __len__(self) -> int:
        return len(self.name)


def _resolve(modules: dict, module: str, path: str):
    owner = modules.get(module)
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, None
    return owner, getattr(owner, path.split(".")[-1], None)


class installed:
    """Context manager: rebind every target to a recording wrapper, and put
    the originals back on exit.  Targets the package no longer has are
    skipped and listed in ``missing``."""

    def __init__(self, package: str, recorder: Recorder):
        self.package = package
        self.recorder = recorder
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        prefix = self.package + "."
        modules = {
            name[len(prefix):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        }
        namespaces = list(modules.values()) + [sys.modules[self.package]]
        for name_id, (span, module, path, counter) in enumerate(TARGETS):
            owner, fn = _resolve(modules, module, path)
            if fn is None:
                self.missing.append(span)
                continue
            wrapper = self.recorder.wrap(name_id, fn, counter)
            if "." in path:
                holders = [(owner, path.split(".")[-1])]
            else:
                holders = [
                    (ns, key)
                    for ns in namespaces
                    for key, value in list(vars(ns).items())
                    if value is fn
                ]
            for holder, key in holders:
                self._undo.append((holder, key, fn))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()
        return False


def self_times(rec: Recorder) -> list[int]:
    """Per span: duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = defaultdict(list)
    for sid, parent in enumerate(rec.parent):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid in range(len(rec)):
        start, end = rec.start[sid], rec.end[sid]
        covered = 0
        reach = start
        for child in sorted(children.get(sid, ()), key=rec.start.__getitem__):
            lo = max(rec.start[child], reach)
            hi = min(rec.end[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by metric name."""
    ids = {name: i for i, name in enumerate(SPAN_NAMES)}
    self_ns = [0] * len(SPAN_NAMES)
    calls = [0] * len(SPAN_NAMES)
    for sid, own in enumerate(self_times(rec)):
        self_ns[rec.name[sid]] += own
        calls[rec.name[sid]] += 1

    # find_free_coloring and independence_number calls made below rt_exact
    rt_id = ids["search.rt_exact"]
    under_rt = array("b", bytes(len(rec)))
    attempts = {ids["search.find_free_coloring"]: 0, ids["graphs.independence_number"]: 0}
    for sid in range(len(rec)):
        parent = rec.parent[sid]
        if parent >= 0 and (under_rt[parent] or rec.name[parent] == rt_id):
            under_rt[sid] = 1
            if rec.name[sid] in attempts:
                attempts[rec.name[sid]] += 1

    def count(span: str, key: str) -> int:
        return rec.counts.get((span, key), 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{name}.self_s": self_ns[i] / 1e9 for i, name in enumerate(SPAN_NAMES)}
    out.update({f"{name}.calls": calls[i] for i, name in enumerate(SPAN_NAMES)})
    ffc = "search.find_free_coloring"
    out.update(
        {
            "graphs.clique_number.vertices_in": count("graphs.clique_number", "vertices_in"),
            "search.enumerate_canonical_graphs.classes": count(
                "search.enumerate_canonical_graphs", "classes"
            ),
            f"{ffc}.nodes": count(ffc, "nodes"),
            f"{ffc}.found_ratio": ratio(count(ffc, "found"), calls[ids[ffc]]),
            f"{ffc}.budget_exhausted": count(ffc, "budget_exhausted"),
            "search.rt_exact.nodes": count("search.rt_exact", "nodes"),
            "search.rt_exact.coloring_attempt_ratio": ratio(
                attempts[ids[ffc]], attempts[ids["graphs.independence_number"]]
            ),
            "jsonio.dumps.bytes": count("jsonio.dumps", "bytes"),
            "graph6.bytes": count("graph6.encode", "bytes") + count("graph6.decode", "bytes"),
        }
    )
    return out


def write_spans(rec: Recorder, path) -> None:
    """One CSV row per span: id, parent id, name, start and end in ns."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for sid in range(len(rec)):
            fh.write(
                f"{sid},{rec.parent[sid]},{SPAN_NAMES[rec.name[sid]]},"
                f"{rec.start[sid]},{rec.end[sid]}\n"
            )


# per-layer metrics the benchmark reports, with their units
LAYER_METRICS = (
    ("graphs.clique_number.self_s", "s"),
    ("graphs.clique_number.calls", "count"),
    ("graphs.clique_number.vertices_in", "count"),
    ("graphs.independence_number.self_s", "s"),
    ("graphs.independence_number.calls", "count"),
    ("graphs.color_class.self_s", "s"),
    ("graphs.color_class.calls", "count"),
    ("graphs.Graph_init.self_s", "s"),
    ("graphs.Graph_init.calls", "count"),
    ("graphs.ColoredGraph_init.self_s", "s"),
    ("constructions.kkl_36.self_s", "s"),
    ("constructions.construction_37.self_s", "s"),
    ("constructions.f_graph.self_s", "s"),
    ("certify.check_colored_free.self_s", "s"),
    ("certify.check_rt_witness.self_s", "s"),
    ("certify.audit_partition.self_s", "s"),
    ("certify.edge_formula_check.self_s", "s"),
    ("certify.pentagonlike_census.self_s", "s"),
    ("certify.mono_triangle_free_count.self_s", "s"),
    ("search.canonical_form.self_s", "s"),
    ("search.canonical_form.calls", "count"),
    ("search.enumerate_canonical_graphs.classes", "count"),
    ("search.find_free_coloring.self_s", "s"),
    ("search.find_free_coloring.calls", "count"),
    ("search.find_free_coloring.nodes", "count"),
    ("search.find_free_coloring.found_ratio", "ratio"),
    ("search.find_free_coloring.budget_exhausted", "count"),
    ("search.rt_exact.self_s", "s"),
    ("search.rt_exact.nodes", "count"),
    ("search.rt_exact.coloring_attempt_ratio", "ratio"),
    ("search.ramsey_verify.self_s", "s"),
    ("qp.maximize_f.self_s", "s"),
    ("qp.maximize_g.self_s", "s"),
    ("qp.eval_f.calls", "count"),
    ("report.gap_report_csv.self_s", "s"),
    ("report.reference_table_csv.self_s", "s"),
    ("jsonio.colored_graph_to_dict.self_s", "s"),
    ("jsonio.colored_graph_from_dict.self_s", "s"),
    ("jsonio.certificate_to_dict.self_s", "s"),
    ("jsonio.dumps.self_s", "s"),
    ("jsonio.dumps.bytes", "B"),
    ("graph6.encode.self_s", "s"),
    ("graph6.decode.self_s", "s"),
    ("graph6.bytes", "B"),
    ("cli.cli_dispatch.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def module_shares(rec: Recorder, wall_ns: int) -> dict[str, tuple[float, float]]:
    """Per module: (self-time share, share of time spent under any span of
    that module) of one pass's wall time."""
    mod_of = [name.split(".")[0] for name in SPAN_NAMES]
    modules = sorted(set(mod_of))
    own = dict.fromkeys(modules, 0)
    under = dict.fromkeys(modules, 0)
    above: list[frozenset] = []
    for sid, self_ns in enumerate(self_times(rec)):
        mod = mod_of[rec.name[sid]]
        parent = rec.parent[sid]
        outer = frozenset() if parent < 0 else above[parent] | {mod_of[rec.name[parent]]}
        above.append(outer)
        own[mod] += self_ns
        if mod not in outer:
            under[mod] += rec.end[sid] - rec.start[sid]
    return {m: (own[m] / wall_ns, under[m] / wall_ns) for m in modules}
