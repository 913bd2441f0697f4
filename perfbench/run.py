"""Benchmark of the ramsey_turan package.

Usage, from the repository root:

    python3 perfbench/run.py --workload blowup-certify --seed 1 --seconds 22 --trace 0

One process with one thread drives the package through its public functions
and ``cli.cli_dispatch`` in a closed loop: each operation starts when the
previous one has returned.  A pass runs the workload's operation list once;
a run makes as many passes as fit in ``--seconds`` at reference speed.  Every
answer is checked by the oracle.  Latencies are reported at a fixed
reference host speed (see ``speed.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.
Diagnostics go to stdout before the result, which is the last line: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, resolve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "ramsey_turan"
# set-up is measured in this many fresh processes and reported as the median
SETUP_PROBES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: package source {init} not found")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    for sub in ("cli", "jsonio"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported {pkg.__file__}, expected {init}")
    return pkg


def set_up(workload: str, seed: int):
    """Import the package and generate the seeded inputs."""
    pkg = import_package()
    return pkg, WORKLOADS[workload](pkg, seed)


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up of one fresh interpreter, measured inside it: seconds as
    measured and at reference speed, and the probe time around it."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    measured, normalised, probe = (float(v) for v in out.split()[-3:])
    return {"measured_s": measured, "reference_s": normalised, "probe_ms": probe * 1e3}


def reset_caches() -> None:
    """Empty every functools cache of the package, so each pass starts from
    the state of a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_op(pkg, op, ctx: dict):
    """(start, seconds, digest, error) of one operation; only the call is
    timed."""
    try:
        args = op.args(ctx)
        fn = resolve(pkg, op.target)
    except Exception:  # a missing input or target fails this operation only
        return time.perf_counter(), 0.0, None, "inputs: " + traceback.format_exc()
    start = time.perf_counter()
    try:
        result = op.run(fn, args)
    except Exception:  # raising is one of the ways an operation fails
        return start, time.perf_counter() - start, None, "raised: " + traceback.format_exc()
    elapsed = time.perf_counter() - start
    if op.keep:
        ctx[op.label] = result
    try:
        return start, elapsed, op.check(result, ctx), None
    except Exception:  # a mismatch, or an answer of the wrong shape
        return start, elapsed, None, "check: " + traceback.format_exc()


class Pass:
    """One run of the operation list; a traced pass keeps its spans.

    ``raw`` holds each operation's measured seconds less the probes that ran
    inside it, ``times`` the same at reference host speed.  An untraced pass
    probes from a timer; a traced one probes between operations only, so
    that no span holds a probe."""

    def __init__(self, pkg, workload, recorder=None):
        reset_caches()
        gc.collect()
        self.traced = recorder is not None
        self.recorder = recorder
        self.probes = speed.Probes()
        starts, elapsed_all, self.digests, self.errors = [], [], [], []
        ctx: dict = {}
        tracing = nullcontext() if recorder is None else spans.installed(PACKAGE, recorder)
        probing = speed.timer(self.probes) if recorder is None else nullcontext()
        with tracing as installed, probing:
            for op in workload.ops:
                if recorder is not None:
                    self.probes.take()
                start, elapsed, digest, error = run_op(pkg, op, ctx)
                starts.append(start)
                elapsed_all.append(elapsed)
                # a hash, so that what the run keeps does not grow the
                # process's peak memory with every pass
                self.digests.append(None if digest is None else hashlib.sha256(digest.encode()).hexdigest())
                self.errors.append(error)
        self.probes.take()
        self.raw, self.times = [], []
        for start, elapsed in zip(starts, elapsed_all):
            own, normalised = self.probes.normalise(start, elapsed)
            self.raw.append(own)
            self.times.append(normalised)
        self.missing = [] if recorder is None else installed.missing
        self.wall = sum(self.times)
        self.raw_wall = sum(self.raw)
        self.layers = None if recorder is None else spans.layer_metrics(recorder)


def pass_count(first: Pass, seconds: float, traced: bool) -> int:
    """As many passes as the operations of the first one, at reference
    speed, fit in ``seconds``, to the nearest whole number; at least one, and
    in a traced run at least one untraced and one traced.  The count follows
    the program's speed and not the host's, so runs of the same code on a
    drifting host give each operation the same number of samples (a median
    of fewer samples sits higher in a skewed distribution)."""
    return max(2 if traced else 1, round(seconds / max(first.wall, 1e-3)))


def run_passes(pkg, workload, seconds: float, traced: bool) -> list[Pass]:
    passes = [Pass(pkg, workload)]
    count = pass_count(passes[0], seconds, traced)
    start = time.perf_counter()
    # a safety stop should the operations take far longer than they measure
    while len(passes) < count and time.perf_counter() - start < 3 * seconds:
        recorder = spans.Recorder() if traced and len(passes) % 2 else None
        if recorder is not None:
            for p in passes:  # keep only the newest spans in memory
                p.recorder = None
        passes.append(Pass(pkg, workload, recorder))
    return passes


def check_repeatable(passes: list[Pass]) -> None:
    """Every pass, traced or not, must give the first pass's answers."""
    first = passes[0].digests
    for p in passes[1:]:
        for i, digest in enumerate(p.digests):
            if p.errors[i] is None and digest != first[i]:
                p.errors[i] = "output differs from the first pass"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def row_key(label: str) -> str:
    """Diagnostic row of an operation: members of a batch (``name#index``)
    share one row."""
    return label.split("#")[0]


def op_rows(workload, passes: list[Pass]) -> list[dict]:
    rows: dict[str, tuple[list[float], list[float]]] = {}
    for p in passes:
        if not p.traced:
            for op, t, raw in zip(workload.ops, p.times, p.raw):
                row = rows.setdefault(row_key(op.label), ([], []))
                row[0].append(t)
                row[1].append(raw)
    per_pass = sum(not p.traced for p in passes)
    return [
        {
            "op": key,
            "samples": len(ts),
            "median_ms": statistics.median(ts) * 1e3,
            "raw_median_ms": statistics.median(raws) * 1e3,
            "raw_max_ms": max(raws) * 1e3,
            "per_pass_s": sum(ts) / per_pass,
        }
        for key, (ts, raws) in rows.items()
    ]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def end_to_end(workload, passes: list[Pass], setup_s: float) -> dict:
    """Each operation's latency is its median at reference speed over the
    untraced passes; ``wall_s`` sums them and the percentiles are taken
    across them."""
    plain = [p for p in passes if not p.traced]
    latency = [statistics.median(ts) * 1e3 for ts in zip(*(p.times for p in plain))]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(e is not None for p in passes for e in p.errors)
    return {
        "wall_s": sum(latency) / 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
        "op_p50_ms": statistics.median(latency),
        "op_p90_ms": quantile(latency, 90),
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [p.layers for p in traced]
    # median_low keeps every value one a traced pass measured (counts stay whole)
    out = {
        name: statistics.median_low(layer[name] for layer in layers)
        for name, _ in spans.LAYER_METRICS
        if name != "trace.overhead_frac"
    }
    # walls at reference speed, so a host slowing between passes cancels
    out["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
    )
    return out


def print_diagnostics(args, workload, passes: list[Pass], rows: list[dict], report: dict) -> None:
    print(f"env {json.dumps(report['env'])}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(workload.ops)} ops")
    print(f"  probe median {report['probe_ms']:.4f} ms, reference {speed.REFERENCE_PROBE_S * 1e3:.4f} ms")
    for row in rows:
        print(
            f"  {row['op']:<28} n={row['samples']:<5} median {row['median_ms']:10.3f} ms"
            f"  (measured {row['raw_median_ms']:10.3f}, max {row['raw_max_ms']:10.3f})"
            f"  per pass {row['per_pass_s']:8.4f} s"
        )
    if not args.trace:
        plain = sum(not p.traced for p in passes)
        print(f"  op latency: {len(workload.ops)} operations x {plain} passes")
        return
    last = next(p for p in reversed(passes) if p.recorder is not None)
    shares = spans.module_shares(last.recorder, int(last.raw_wall * 1e9))
    report["module_shares"] = shares
    for mod, (own, under) in shares.items():
        print(f"  layer {mod:<14} self {own:6.1%}  under {under:6.1%}")
    top = sorted(
        ((v / last.raw_wall, k[: -len(".self_s")]) for k, v in last.layers.items() if k.endswith(".self_s")),
        reverse=True,
    )[:5]
    print("  largest self time: " + ", ".join(f"{name} {share:.1%}" for share, name in top))
    if last.missing or last.recorder.uncounted:
        print(f"  not traced: {last.missing}; not counted: {sorted(last.recorder.uncounted)}")
    spans.write_spans(last.recorder, OUT / f"{args.workload}.spans.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(*speed.normalised_setup(lambda: set_up(args.workload, args.seed)))
        return 0

    env = environment()
    # one CPU for the whole run (set-up probes inherit it): the benchmark is
    # single-threaded, and migrations between CPUs only add noise
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    start = time.perf_counter()
    pkg, workload = set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - start
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - start

    passes = run_passes(pkg, workload, args.seconds, bool(args.trace))
    check_repeatable(passes)
    errors = [(op.label, e) for p in passes for op, e in zip(workload.ops, p.errors) if e]

    if args.trace:
        values, units = per_layer(passes), dict(spans.LAYER_METRICS)
    else:
        setup_s = statistics.median(probe["reference_s"] for probe in probes)
        values, units = end_to_end(workload, passes, setup_s), dict(END_TO_END)

    rows = op_rows(workload, passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "setup_s": {"fresh_interpreters": probes, "this_process": own_setup},
        "prepare_s": prepare_s,
        "probe_ms": statistics.median(s for p in passes for s in p.probes.seconds) * 1e3,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall, "raw_wall_s": p.raw_wall, "probes": len(p.probes.seconds)}
            for p in passes
        ],
        "ops": rows,
        "metrics": values,
        "errors": errors[:20],
    }
    OUT.mkdir(exist_ok=True)
    print_diagnostics(args, workload, passes, rows, report)
    (OUT / f"{args.workload}.json").write_text(json.dumps(report, indent=1, default=str))
    for label, error in errors[:3]:
        print(f"FAILED {label}: {error}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    result = {
        "correct": not errors,
        "attempted": sum(len(p.times) for p in passes),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
