import importlib.util
import sys
from pathlib import Path

from .test_stdlib_only import absolute_imports

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kkl60_rung_runs_through_the_cli():
    ladder = load_ladder()
    records = ladder.measure(ladder.kkl_rung(60), runs=1)
    assert [r["step"] for r in records] == [
        "kkl60.construct", "kkl60.free", "kkl60.witness", "kkl60.audit"]
    assert [r["stdin_from"] for r in records] == [None] + ["kkl60.construct"] * 3
    assert [r["runs"][0]["exit_code"] for r in records] == [0, 0, 0, 0]
    for r in records:
        (run,) = r["runs"]
        assert r["wall_s"] == run["wall_s"] > 0
        assert run["peak_rss_mib"] > 0
        assert run["stdout_bytes"] > 0


def test_ladder_covers_every_rung():
    names = [name for name, _, _ in load_ladder().ladder()]
    assert len(names) == len(set(names)) == 4 * 4 + 3 * 2 + 4 + 2
    assert names[-2:] == ["qp.f", "qp.g"]


def test_ladder_imports_only_the_standard_library():
    assert absolute_imports(LADDER) - sys.stdlib_module_names == set()
