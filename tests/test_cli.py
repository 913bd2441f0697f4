import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_turan import ColoredGraph, Graph, graph6, pentagonlike
from ramsey_turan.cli import cli_dispatch
from ramsey_turan.jsonio import (
    certificate_from_dict,
    certificate_to_dict,
    colored_graph_from_dict,
    colored_graph_to_dict,
    dumps,
)
from ramsey_turan.certify import check_rt_witness


def run(capsys, *argv) -> tuple[int, str]:
    code = cli_dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestJsonRoundTrip:
    def test_colored_graph(self):
        cg = pentagonlike((2, 0, 3, 1, 4))
        doc = colored_graph_to_dict(cg)
        assert doc["n"] == 5
        assert doc["edges"] == sorted(doc["edges"])
        assert colored_graph_from_dict(json.loads(dumps(doc))) == cg

    def test_certificate(self):
        cert = check_rt_witness(pentagonlike(range(5)), 3, 3, 1)
        doc = json.loads(dumps(certificate_to_dict(cert)))
        back = certificate_from_dict(doc)
        assert back.status == cert.status
        assert [c.name for c in back.checks] == [c.name for c in cert.checks]
        assert back.witness == cert.witness


class TestCliCommands:
    def test_census(self, capsys):
        code, out = run(capsys, "verify", "census")
        assert code == 0
        assert json.loads(out) == {"survivors": 12, "all_pentagonlike": True}

    def test_qp_f(self, capsys):
        code, out = run(capsys, "qp", "f")
        assert code == 0
        doc = json.loads(out)
        assert doc["max"] == "841/400"
        assert doc["max_decimal"] == 2.1025
        assert doc["agreement_gap"] <= 1e-6
        assert doc["argmax"]["y"] is not None

    def test_ramsey_boundary(self, capsys):
        code, out = run(capsys, "search", "ramsey", "--p", "3", "--q", "3", "--n", "6")
        assert code == 0
        assert out.strip() == "false"
        code, out = run(capsys, "search", "ramsey", "--p", "3", "--q", "3", "--n", "5")
        assert out.strip() == "true"

    def test_construct_verify_pipeline(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "construct",
            "kkl36",
            "--n", "60", "--d1", "4", "--m2", "4", "--d2", "2",
            "--with-parts",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 60 and len(doc["parts"]) == 6
        path = tmp_path / "kkl.json"
        path.write_text(out)

        code, out = run(
            capsys, "verify", "free", "--p", "3", "--q", "6", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

        code, out = run(
            capsys,
            "verify", "formula",
            "--formula", "kkl36", "--delta", "1/15", "--tol", "1/50",
            "--input", str(path),
        )
        assert code == 0

        code, out = run(
            capsys, "verify", "audit", "--gamma", "1/5", "--input", str(path)
        )
        assert code == 0
        assert json.loads(out)["params"]["x6_part"] == 5

    def test_verify_witness_alpha_failure(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "construct", "kkl36",
            "--n", "60", "--d1", "4", "--m2", "4", "--d2", "2",
        )
        path = tmp_path / "kkl.json"
        path.write_text(out)
        code, out = run(
            capsys,
            "verify", "witness",
            "--p", "3", "--q", "6", "--m", "4", "--input", str(path),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert len(doc["witness"]) == 5

    def test_seed_flag_accepted_globally(self, capsys):
        code, out = run(capsys, "--seed", "7", "verify", "census")
        assert code == 0 and json.loads(out)["survivors"] == 12

    def test_failing_certificate_exit_code(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "construct", "kkl36",
            "--n", "60", "--d1", "4", "--m2", "4", "--d2", "2",
            "--variant", "text",
        )
        path = tmp_path / "text.json"
        path.write_text(out)
        code, out = run(
            capsys, "verify", "free", "--p", "3", "--q", "6", "--input", str(path)
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert len(doc["witness"]) == 3

    def test_construct_graph6_and_coloring_search(self, capsys):
        code, out = run(capsys, "construct", "turan", "--n", "12", "--parts", "6")
        assert code == 0
        line = out.strip()
        code, out = run(
            capsys,
            "search", "coloring", "--p", "3", "--q", "7", "--g6", line,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc.get("found", True)

    def test_search_rt(self, capsys):
        code, out = run(
            capsys,
            "search", "rt", "--n", "5", "--p", "3", "--q", "3", "--m", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 10 and doc["exhausted"]
        witness = colored_graph_from_dict(doc["witness"])
        assert check_rt_witness(witness, 3, 3, 1).passed

    def test_report_gaps(self, capsys):
        code, out = run(capsys, "report", "gaps", "--delta", "1/100")
        assert code == 0
        assert "41/4000000" in out

    def test_report_table(self, capsys):
        code, out = run(capsys, "report", "table", "--delta", "1/10", "--clique", "5")
        assert code == 0
        assert "5/12" in out and "Formula" in out

    def test_usage_errors(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2
        capsys.readouterr()
        assert cli_dispatch(["construct", "turan", "--n", "5", "--parts", "0"]) == 2
        capsys.readouterr()
        assert cli_dispatch(["verify", "formula", "--formula", "kkl36",
                             "--delta", "x", "--tol", "1/50"]) == 2
        capsys.readouterr()
        assert cli_dispatch(["search", "rt", "--n", "5000", "--p", "3", "--q", "3",
                             "--m", "2"]) == 2

    @pytest.mark.parametrize(
        "what, doc",
        [
            ("free", {"n": "3", "edges": []}),
            ("free", {"n": 3, "edges": [[0, "1", 1]]}),
            ("audit", {"n": 6, "edges": [], "parts": 5}),
        ],
    )
    def test_malformed_documents_exit_2(self, capsys, tmp_path, what, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        extra = ["--p", "3", "--q", "3"] if what == "free" else ["--gamma", "1/5"]
        code = cli_dispatch(["verify", what, *extra, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_fgraph_stats_on_stderr(self, capsys):
        code = cli_dispatch(["construct", "fgraph", "--m", "10", "--d", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "achieved degree 4" in captured.err


class TestCliContract:
    def test_budget_exhaustion_exits_2(self, capsys):
        code = cli_dispatch(["search", "ramsey", "--p", "3", "--q", "3", "--n", "6",
                             "--budget", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_vertex_cap_checked_before_building(self, capsys):
        start = time.perf_counter()
        code = cli_dispatch(["construct", "andrasfai", "--k", "2000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert elapsed < 1.0
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_coloring_of_deep_input(self, capsys):
        # T(80, 2) has 1600 edges, one recursion level each in the old search
        code, out = run(capsys, "construct", "turan", "--n", "80", "--parts", "2")
        assert code == 0
        code, out = run(capsys, "search", "coloring", "--p", "3", "--q", "3",
                        "--g6", out.strip())
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 80 and len(doc["edges"]) == 1600


def _dispatch_quietly(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli_dispatch(argv)


@st.composite
def graph6_lines(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
        return graph6.encode(Graph.from_edges(n, edges))
    return draw(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130),
                        max_size=12))


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(line=graph6_lines(), p=st.integers(0, 5), q=st.integers(0, 5))
    def test_coloring_exit_codes(self, line, p, q):
        code = _dispatch_quietly(["search", "coloring", "--p", str(p), "--q", str(q),
                                  "--budget", "50", "--g6", line])
        assert code in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        what=st.sampled_from(["ramsey", "rt"]),
        n=st.integers(-1, 9),
        p=st.integers(0, 5),
        q=st.integers(0, 5),
        m=st.integers(-1, 4),
        budget=st.integers(-2, 200),
    )
    def test_search_exit_codes(self, what, n, p, q, m, budget):
        argv = ["search", what, "--n", str(n), "--p", str(p), "--q", str(q),
                "--budget", str(budget)]
        if what == "rt":
            argv += ["--m", str(m)]
        assert _dispatch_quietly(argv) in (0, 2)
