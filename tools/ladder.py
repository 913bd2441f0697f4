"""End-to-end size ladder of the real ``rturan`` pipelines.

Every step is a fresh ``python -m ramsey_turan.cli`` process with
``PYTHONPATH`` set to this checkout's ``src``:

  * ``construct kkl36`` at n = 60, 120, 240, 480 (d1 = m2 = n/15,
    d2 = n/30, with parts), its output piped into ``verify free --p 3 --q 6``,
    ``verify witness --p 3 --q 6 --m n/12`` and ``verify audit --gamma 1/5``;
  * ``construct c37`` at (n, d) = (80, 4), (160, 7), (320, 14), piped into
    ``verify free --p 3 --q 7``;
  * ``search rt --p 3 --q 3 --m 2`` at n = 6..9;
  * ``qp f`` and ``qp g``.

Each step runs three times.  The record keeps the median wall time and, for
every run, the child's peak resident set (from ``os.wait4``), its exit code
and the length of its stdout.  A verify step reads the stdout of its
construct step's last run.  Stdlib only:

    python tools/ladder.py [--out BENCH_ladder.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3


def kkl_rung(n: int) -> list:
    """(name, cli argv, name of the step whose stdout is stdin, or None)."""
    build = f"kkl{n}.construct"
    return [
        (build, ["construct", "kkl36", "--n", str(n), "--d1", str(n // 15),
                 "--m2", str(n // 15), "--d2", str(n // 30), "--with-parts"], None),
        (f"kkl{n}.free", ["verify", "free", "--p", "3", "--q", "6"], build),
        (f"kkl{n}.witness", ["verify", "witness", "--p", "3", "--q", "6", "--m", str(n // 12)],
         build),
        (f"kkl{n}.audit", ["verify", "audit", "--gamma", "1/5"], build),
    ]


def c37_rung(n: int, d: int) -> list:
    build = f"c37_{n}.construct"
    return [
        (build, ["construct", "c37", "--n", str(n), "--d", str(d)], None),
        (f"c37_{n}.free", ["verify", "free", "--p", "3", "--q", "7"], build),
    ]


def ladder() -> list:
    steps = [s for n in (60, 120, 240, 480) for s in kkl_rung(n)]
    steps += [s for n, d in ((80, 4), (160, 7), (320, 14)) for s in c37_rung(n, d)]
    steps += [(f"rt{n}", ["search", "rt", "--n", str(n), "--p", "3", "--q", "3", "--m", "2"],
               None) for n in range(6, 10)]
    return steps + [("qp.f", ["qp", "f"], None), ("qp.g", ["qp", "g"], None)]


def run_child(argv: list, stdin: bytes, workdir: Path) -> tuple[dict, bytes]:
    """One CLI process: (wall_s, peak_rss_mib, exit_code, stdout_bytes), stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    src, out = workdir / "stdin", workdir / "stdout"
    src.write_bytes(stdin)
    with open(src, "rb") as fin, open(out, "wb") as fout:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "ramsey_turan.cli", *argv], env=env,
                                 stdin=fin, stdout=fout, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    data = out.read_bytes()
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024,
            "exit_code": child.returncode, "stdout_bytes": len(data)}, data


def measure(steps: list, runs: int = RUNS) -> list:
    """Run every step ``runs`` times in order; one record per step."""
    records, outputs = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, source in steps:
            stdin = outputs[source] if source else b""
            results = []
            for _ in range(runs):
                result, outputs[name] = run_child(argv, stdin, Path(tmp))
                results.append(result)
            records.append({
                "step": name,
                "argv": argv,
                "stdin_from": source,
                "wall_s": statistics.median(r["wall_s"] for r in results),
                "runs": results,
            })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_ladder.json", help="output path")
    args = parser.parse_args(argv)
    record = {
        "host": {"python": f"{platform.python_implementation()} {platform.python_version()}",
                 "system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "runs_per_step": RUNS,
        "steps": measure(ladder()),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
