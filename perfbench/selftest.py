"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs on a reduced operation list, untraced and traced, and must
finish with no failed operation and identical answers; the self-time
arithmetic is checked on a synthetic span tree and the normalisation to
reference speed on synthetic probes; ``BENCHMARK.json`` must name
exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PKG = run.import_package()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_has_no_failures(name):
    workload = workloads.WORKLOADS[name](PKG, seed=3, reduced=True)
    workload.prepare()
    plain = run.Pass(PKG, workload)
    traced = run.Pass(PKG, workload, spans.Recorder())
    passes = [plain, traced]
    run.check_repeatable(passes)
    errors = [e for p in passes for e in p.errors if e]
    assert errors == []
    metrics = run.end_to_end(workload, passes, setup_s=0.1)
    assert metrics["ok_frac"] == 1.0
    assert metrics["wall_s"] > 0
    assert traced.recorder is not None and len(traced.recorder) > 0
    assert traced.missing == []


def test_wrong_answer_counts_as_failure():
    workload = workloads.WORKLOADS["exhaustive-search"](PKG, seed=3, reduced=True)
    bad = workloads.Op("bad", "search.ramsey_verify", lambda ctx: (3, 3, 6), workloads._equal(True))
    workload.ops.append(bad)
    result = run.Pass(PKG, workload)
    assert result.errors[-1] is not None and "Mismatch" in result.errors[-1]
    assert all(e is None for e in result.errors[:-1])


def test_tracing_wraps_every_import_and_restores_it():
    clique_number = PKG.graphs.clique_number
    init = PKG.graphs.Graph.__init__
    with spans.installed(run.PACKAGE, spans.Recorder()):
        # the name certify imported is wrapped, with the same wrapper
        assert PKG.certify.clique_number is not clique_number
        assert PKG.certify.clique_number is PKG.graphs.clique_number
        assert PKG.graphs.Graph.__init__ is not init
    assert PKG.certify.clique_number is clique_number
    assert PKG.graphs.clique_number is clique_number
    assert PKG.graphs.Graph.__init__ is init


def _tree(rows):
    """rows: (name, parent, start, end) with parents listed first."""
    rec = spans.Recorder()
    ids = {name: i for i, name in enumerate(spans.SPAN_NAMES)}
    for name, parent, start, end in rows:
        rec.name.append(ids[name])
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_on_a_synthetic_tree():
    rec = _tree(
        [
            ("search.rt_exact", -1, 0, 100),  # 0
            ("graphs.independence_number", 0, 10, 20),  # 1
            ("search.find_free_coloring", 0, 30, 70),  # 2
            ("graphs.Graph_init", 2, 40, 45),  # 3
            ("graphs.independence_number", 0, 80, 90),  # 4
            ("search.find_free_coloring", -1, 200, 260),  # 5, outside rt_exact
        ]
    )
    assert spans.self_times(rec) == [100 - 10 - 40 - 10, 10, 40 - 5, 5, 10, 60]
    layers = spans.layer_metrics(rec)
    assert layers["search.rt_exact.self_s"] == 40e-9
    assert layers["search.find_free_coloring.self_s"] == 95e-9
    assert layers["search.find_free_coloring.calls"] == 2
    assert layers["graphs.independence_number.calls"] == 2
    # one coloring attempt per two independence computations below rt_exact
    assert layers["search.rt_exact.coloring_attempt_ratio"] == 0.5


def test_overlapping_children_are_counted_once():
    rec = _tree(
        [
            ("cli.cli_dispatch", -1, 0, 100),
            ("jsonio.dumps", 0, 10, 50),
            ("jsonio.dumps", 0, 40, 60),
            ("jsonio.dumps", 0, 45, 55),
        ]
    )
    assert spans.self_times(rec)[0] == 100 - 50


def test_module_shares_count_nested_time_once():
    rec = _tree(
        [
            ("search.rt_exact", -1, 0, 100),
            ("search.find_free_coloring", 0, 10, 60),
            ("graphs.Graph_init", 1, 20, 30),
        ]
    )
    shares = spans.module_shares(rec, wall_ns=200)
    assert shares["search"] == ((100 - 10) / 200, 100 / 200)
    assert shares["graphs"] == (10 / 200, 10 / 200)


def test_normalisation_on_synthetic_probes():
    probes = speed.Probes()
    # probes of 2 ms every 0.1 s from t = 0 to 3; the host is twice as slow
    # as the reference from t = 2 on
    for i in range(31):
        probes.at.append(i / 10)
        probes.seconds.append(2 * speed.REFERENCE_PROBE_S if i >= 20 else speed.REFERENCE_PROBE_S)
    # an operation from 0.55 to 1.55 s holds ten probes of 1 ms
    own, normalised = probes.normalise(0.55, 1.0)
    assert own == pytest.approx(1.0 - 10 * speed.REFERENCE_PROBE_S)
    assert normalised == pytest.approx(own)
    # on the slow stretch the same measured time is worth half as much
    own, normalised = probes.normalise(2.55, 0.2)
    assert own == pytest.approx(0.2 - 2 * 2 * speed.REFERENCE_PROBE_S)
    assert normalised == pytest.approx(own / 2)
    # far from every probe, the nearest one sets the speed
    assert probes.local(10.0, 10.1) == 2 * speed.REFERENCE_PROBE_S


def test_timer_probes_during_an_operation_and_is_removed():
    probes = speed.Probes()
    with speed.timer(probes):
        end = time.perf_counter() + 4 * speed.PROBE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(probes.seconds) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_oracle_catches_a_bad_coloring():
    n, edges = 3, [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(oracle.Mismatch):
        oracle.check_free_coloring(n, edges, lambda u, v: 1, 3, 3)
    oracle.check_free_coloring(n, edges, lambda u, v: 1 if u == 0 else 2, 3, 3)


def test_graph6_codec_matches_the_package():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        line = oracle.graph6_encode(n, edges)
        assert line == PKG.graph6.encode(PKG.graphs.Graph.from_edges(n, edges))
        assert oracle.graph6_decode(line) == (n, sorted(edges, key=lambda e: (e[1], e[0])))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
