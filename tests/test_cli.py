import argparse
import hashlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction as Fr
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_turan import ColoredGraph, Graph, VertexPartition, graph6, jsonio, pentagonlike
from ramsey_turan.constructions import Distance, KklParams, construction_37, kkl_36
from ramsey_turan.cli import _build_parser, cli_dispatch
from ramsey_turan.jsonio import (
    _int_lists,
    _is_int,
    certificate_to_dict,
    colored_graph_from_dict,
    colored_graph_json,
    colored_graph_to_dict,
    dumps,
    partition_from_dict,
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

    @staticmethod
    def per_edge_edges(cg):
        """The edge list as a walk over ``graph.edges()`` that tests each
        edge's colour bit."""
        two = cg.color_class(2).adj
        return [[u, v, 2 if two[u] >> v & 1 else 1] for u, v in cg.graph.edges()]

    def test_edges_match_per_edge_walk(self):
        rng = random.Random(12)
        graphs = [
            kkl_36(KklParams(n=60, d1=4, m2=4, d2=2)).colored_graph,
            construction_37(40, 2, Distance.CYCLIC)[0],
            ColoredGraph.from_colored_edges(0, []),
            ColoredGraph.from_colored_edges(1, []),
            # the widest row: edges at vertex 4095 of a 4096-vertex graph
            ColoredGraph.from_colored_edges(
                4096, [(0, 1, 1), (0, 4095, 2), (17, 4095, 1), (4094, 4095, 2)]
            ),
            # trailing isolated vertices
            ColoredGraph.from_colored_edges(12, [(0, 1, 2), (1, 3, 1), (2, 4, 2)]),
            # colour-2 neighbours before and after colour-1 ones, and rows of
            # one colour only (row 1 colour 1, row 2 colour 2)
            ColoredGraph.from_colored_edges(
                9,
                [(0, 1, 2), (0, 2, 1), (0, 3, 2), (0, 4, 1), (0, 5, 1), (0, 8, 2),
                 (1, 6, 1), (1, 7, 1), (2, 5, 2), (2, 6, 2)],
            ),
        ]
        for n in (2, 5, 9, 40, 70):
            triples = [
                (u, v, rng.choice((1, 2)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            graphs.append(ColoredGraph.from_colored_edges(n, triples))
            one_colour = [(u, v, 2) for u, v, _ in triples]
            graphs.append(ColoredGraph.from_colored_edges(n, one_colour))
        for cg in graphs:
            expected = {"n": cg.n, "edges": self.per_edge_edges(cg)}
            assert colored_graph_json(cg) == dumps(expected)
            assert colored_graph_to_dict(cg) == expected
            assert json.loads(colored_graph_json(cg)) == colored_graph_to_dict(cg)
            parts = VertexPartition(cg.n, [range(0, cg.n, 2), range(1, cg.n, 2)])
            expected["parts"] = [list(p) for p in parts.parts]
            assert colored_graph_json(cg, parts) == dumps(expected)
            assert colored_graph_to_dict(cg, parts) == expected

    def test_certificate(self):
        cert = check_rt_witness(pentagonlike(range(5)), 3, 3, 1)
        doc = json.loads(dumps(certificate_to_dict(cert)))
        assert doc["status"] == cert.status
        assert [c["name"] for c in doc["checks"]] == [c.name for c in cert.checks]
        assert doc["witness"] == (None if cert.witness is None else list(cert.witness))

    @pytest.mark.parametrize("doc", [[], "x", 5, ["parts"]])
    def test_partition_of_non_object_rejected(self, doc):
        # the CLI reads the colored graph first; this is the library path
        with pytest.raises(ValueError, match="partition document must be a JSON object"):
            partition_from_dict(doc)

    def test_partition_without_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="partition document missing field: 'n'"):
            partition_from_dict({"parts": []})


class Colour(IntEnum):
    RED = 1


def int_lists_per_entry(value, what, width=None):
    """Reference: ``_is_int`` called on every entry."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and all(map(_is_int, row)) and width in (None, len(row))
        for row in value
    ):
        raise ValueError(f"{what} must be a list of integer lists")
    return [tuple(row) for row in value]


def int_lists_outcome(check, value, width):
    try:
        return [tuple(row) for row in check(value, "'edges'", width)]
    except ValueError as exc:
        return str(exc)


def parent_int_lists(value, what, width=None):
    """Reference: the row-by-row check that copied every row into a tuple."""
    if (
        not isinstance(value, list)
        or not all(isinstance(row, list) and width in (None, len(row)) for row in value)
        or not all(
            issubclass(kind, int) and kind is not bool
            for kind in set(map(type, chain.from_iterable(value)))
        )
    ):
        raise ValueError(f"{what} must be a list of integer lists")
    return [tuple(row) for row in value]


def read_outcome(read, doc):
    try:
        return read(doc)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)


# JSON values an edge or part row may hold: vertices in and out of range,
# bools, floats, nested lists, huge vertices and non-numbers
json_entries = st.one_of(
    st.integers(-2, 12),
    st.booleans(),
    st.floats(allow_nan=False),
    st.just(10**30),
    st.lists(st.integers(0, 3), max_size=3),
    st.text(max_size=2),
    st.none(),
)


@st.composite
def json_rows(draw, n):
    """A row list: mostly well-formed colour edges or vertex lists, some of
    the wrong width, some with a stray entry, some not lists at all."""
    rows = []
    kinds = ["edge"] if draw(st.booleans()) else ["edge"] * 3 + ["list", "entries", "scalar"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "edge" and n >= 2:
            u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            rows.append([u, v, draw(st.sampled_from([1, 2]))])
        elif kind == "list":
            rows.append(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)))
        elif kind == "scalar":
            rows.append(draw(json_entries))
        else:
            rows.append(draw(st.lists(json_entries, min_size=2, max_size=4)))
    return rows


@st.composite
def json_documents(draw):
    """Mostly valid vertex counts and row lists, with parts that cover the
    vertices about half the time they are drawn."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6] * 3 + [True, 2.0, -1]))
    size = n if type(n) is int and n > 0 else 3
    doc = {"n": n}
    edges = draw(st.sampled_from(["rows"] * 8 + ["entry", "none"]))
    if edges != "none":
        doc["edges"] = draw(json_rows(size) if edges == "rows" else json_entries)
    kind = draw(st.sampled_from(["cover", "rows", "entry", "none"]))
    if kind == "cover":
        order = draw(st.permutations(range(size)))
        cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
        doc["parts"] = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, size])]
    elif kind == "rows":
        doc["parts"] = draw(json_rows(size))
    elif kind == "entry":
        doc["parts"] = draw(json_entries)
    # what the reader sees is what a JSON text decodes to
    return json.loads(json.dumps(doc))


class TestIntLists:
    ENTRIES = [True, False, 0, -3, 7, 1.0, "1", None, Colour.RED, [1], [], (1,)]

    def test_matches_per_entry_check_on_mixed_lists(self):
        rng = random.Random(5)
        accepted = rejected = 0
        for _ in range(3000):
            rows = []
            for _ in range(rng.randint(0, 4)):
                pool = self.ENTRIES if rng.random() < 0.3 else [0, -3, 7, Colour.RED]
                row = [rng.choice(pool) for _ in range(rng.choice([2, 3, 3, 3, 4]))]
                rows.append(row if rng.random() < 0.95 else tuple(row))
            value = rows if rng.random() < 0.97 else tuple(rows)
            width = rng.choice([None, 3])
            expected = int_lists_outcome(int_lists_per_entry, value, width)
            assert int_lists_outcome(_int_lists, value, width) == expected
            if isinstance(expected, str):
                rejected += 1
            else:
                accepted += 1
        assert accepted > 300 and rejected > 300

    @settings(max_examples=400, deadline=None)
    @given(json_documents())
    def test_documents_read_as_with_row_copies(self, doc):
        # the same graph or partition, or the same exception type and text,
        # as the reader that validated row by row and copied every row
        for read in (colored_graph_from_dict, partition_from_dict):
            outcome = read_outcome(read, doc)
            with mock.patch.object(jsonio, "_int_lists", parent_int_lists):
                assert outcome == read_outcome(read, doc)

    def test_rows_returned_without_copies(self):
        edges = [[0, 1, 1], [1, 2, 2]]
        assert _int_lists(edges, "'edges'", 3) is edges


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

    def test_ramsey_capped_search(self, capsys):
        code, out = run(capsys, "search", "ramsey", "--p", "3", "--q", "4", "--n", "9")
        assert (code, out) == (0, "false\n")
        code, out = run(capsys, "search", "ramsey", "--p", "3", "--q", "4", "--n", "0")
        assert (code, out) == (0, "true\n")

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

    def test_seed_flag_is_a_usage_error(self, capsys):
        # there are no global options
        code = cli_dispatch(["--seed", "7", "verify", "census"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

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

    @pytest.mark.parametrize("delta", ["2", "0"])
    def test_report_table_rejects_delta_outside_unit_interval(self, capsys, delta):
        code = cli_dispatch(["report", "table", "--delta", delta, "--clique", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("delta", ["-1/3", "1", "5"])
    def test_verify_formula_rejects_delta_outside_unit_interval(self, capsys, tmp_path, delta):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1]]}))
        # --delta=X, since argparse reads a bare -1/3 as an option
        code = cli_dispatch(["verify", "formula", "--formula", "kkl36", f"--delta={delta}",
                             "--tol", "1", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: delta={delta} outside [0, 1)\n"

    def test_c37_too_small_exits_2(self, capsys):
        code = cli_dispatch(["construct", "c37", "--n", "8", "--d", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: n=8 must be >= 16: each of the 8 parts needs at least 2"
            " vertices for its f-graph\n"
        )

    def test_report_table_clique_needs_delta(self, capsys):
        assert cli_dispatch(["report", "table", "--clique", "5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_qp_prints_face_counts(self, capsys):
        code, out = run(capsys, "qp", "g")
        assert code == 0
        doc = json.loads(out)
        assert (doc["faces"], doc["candidates"]) == (153, 12)
        assert doc["method"] == "kkt-faces + lattice-pattern-ascent"

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
            ("audit", {"n": 12, "edges": [],
                       "parts": [[0, 0, 0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]}),
            ("free", []),
            ("free", "x"),
            ("audit", 5),
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
        if not isinstance(doc, dict):
            assert err == "error: colored-graph document must be a JSON object\n"

    def test_successive_dispatches_are_independent(self, capsys):
        code, first = run(capsys, "report", "table", "--delta", "1/10")
        assert code == 0 and ",1/10," in first
        code, second = run(capsys, "report", "table", "--delta", "1/5")
        assert code == 0 and ",1/5," in second and ",1/10," not in second
        assert cli_dispatch(["report", "table", "--delta"]) == 2
        assert capsys.readouterr().out == ""
        assert run(capsys, "report", "table", "--delta", "1/10") == (0, first)

    @pytest.mark.parametrize(
        "argv, build",
        [
            (["kkl36", "--n", "60", "--d1", "4", "--m2", "4", "--d2", "2"],
             lambda: kkl_36(KklParams(n=60, d1=4, m2=4, d2=2)).colored_graph),
            (["c37", "--n", "40", "--d", "2"],
             lambda: construction_37(40, 2, Distance.CYCLIC)[0]),
        ],
        ids=["kkl36", "c37"],
    )
    def test_colored_construction_as_graph6(self, capsys, argv, build):
        code, out = run(capsys, "construct", *argv, "--format", "graph6")
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        assert graph6.decode(out.strip()) == build().graph

        code = cli_dispatch(["construct", *argv, "--format", "graph6", "--with-parts"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --with-parts needs --format json\n"

    def test_verify_reads_stdin_for_dash(self, capsys):
        text = dumps(colored_graph_to_dict(pentagonlike(range(5))))
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            code, out = run(capsys, "verify", "free", "--p", "3", "--q", "3", "--input", "-")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_huge_vertex_index_rejected_at_once(self, capsys):
        # a builder that shifted by the vertex before checking it would
        # allocate a 10**12-bit integer here
        doc = {"n": 3, "edges": [[0, 1000000000000, 1]]}
        start = time.perf_counter()
        with pytest.raises(ValueError, match="out of range"):
            ColoredGraph.from_colored_edges(doc["n"], doc["edges"])
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
            code = cli_dispatch(["verify", "free", "--p", "3", "--q", "3", "--input", "-"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: edge (0,1000000000000) out of range for n=3\n"
        assert elapsed < 1.0

    def test_every_leaf_binds_a_handler(self):
        def leaves(parser, path=()):
            groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not groups:
                yield " ".join(path), parser
                return
            for name, child in groups[0].choices.items():
                yield from leaves(child, (*path, name))

        found = dict(leaves(_build_parser()))
        assert len(found) == 17
        assert {"construct kkl36", "verify census", "search rt", "qp g", "report gaps"} <= set(found)
        for path, parser in found.items():
            assert callable(parser.get_default("run")), path

    def test_fgraph_negative_degree_exits_2(self, capsys):
        code = cli_dispatch(["construct", "fgraph", "--m", "5", "--d", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: f-graph target degree d must be >= 0, got -1\n"

    def test_fgraph_stats_on_stderr(self, capsys):
        code = cli_dispatch(["construct", "fgraph", "--m", "10", "--d", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "achieved degree 4" in captured.err


# stdout of colored-graph commands, pinned as (bytes, sha256) of the output
# printed when the document was still built as per-edge lists and encoded by json
GOLDEN_CONSTRUCTIONS = {
    "construct kkl36 --n 60 --d1 4 --m2 4 --d2 2 --with-parts": (
        15821, "dbe367dabd8de26b6fae71e896e7be949f337cf5a50e3c66ecff17b6558baa84"),
    "construct kkl36 --n 480 --d1 32 --m2 32 --d2 16 --with-parts": (
        1194652, "18f6150f7a859001ea5ae2669dae8c1e4e19384520c48ff3696276f7d2cbf2e7"),
    "construct kkl36 --n 120 --d1 8 --m2 8 --d2 4 --variant text": (
        65660, "810aa5199c240a9c2752054c3b7854b9e598e7519ad7733d7c8610340698b2f0"),
    "construct c37 --n 160 --d 7 --distance literal": (
        124970, "bf0530a5bb6d3e8d22b849990a9ecd4d3e03c023f396df2773892d0fa470bf45"),
}

GOLDEN_SEARCHES = {
    # C5 has a (3,3)-free colouring; K6 has none
    "search coloring --p 3 --q 3 --g6 Dhc":
        '{"edges":[[0,1,1],[0,4,1],[1,2,1],[2,3,1],[3,4,1]],"n":5}\n',
    # 1974 nodes before the colour swap
    "search coloring --p 3 --q 3 --g6 E~~w":
        '{"exhausted":true,"found":false,"nodes":987}\n',
    # 24 nodes while colour 0 (need 0 at m = 1) cost a node per attempt
    "search rt --n 5 --p 3 --q 3 --m 1":
        '{"exhausted":true,"nodes":21,"value":10,"witness":{"edges":[[0,1,1],[0,2,1],'
        '[0,3,2],[0,4,2],[1,2,2],[1,3,1],[1,4,2],[2,3,2],[2,4,1],[3,4,1]],"n":5}}\n',
    "search rt --n 6 --p 3 --q 3 --m 1":
        '{"exhausted":true,"nodes":0,"value":null,"witness":null}\n',
}

# stdout of `qp f` and `qp g`, pinned as sha256 from when the lattice ascent
# also drew 50 seeded uniform starts, none of which ranked among its 25 starts
GOLDEN_QP = {
    "qp f": "64ca4874d29f673c3a6f3c5ddf536d68c86c012d7557608866037c961b7be13e",
    "qp g": "4de7456a77ea1fa8124b9cc64c90de6b75ff1e0851a860606a15a837be934335",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("command", list(GOLDEN_CONSTRUCTIONS))
    def test_construction_bytes(self, capsys, command):
        code, out = run(capsys, *command.split())
        assert code == 0
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_CONSTRUCTIONS[command]

    @pytest.mark.parametrize("command", list(GOLDEN_SEARCHES))
    def test_search_output(self, capsys, command):
        assert run(capsys, *command.split()) == (0, GOLDEN_SEARCHES[command])

    @pytest.mark.parametrize("command", list(GOLDEN_QP))
    def test_qp_output(self, capsys, command):
        code, out = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_QP[command]


class TestCliContract:
    @pytest.mark.parametrize("text", [
        "[" * 100000,
        '{"n": 3, "edges": [], "parts": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["unclosed", "deep-parts"])
    @pytest.mark.parametrize("argv", [
        ["free", "--p", "3", "--q", "3"],
        ["witness", "--p", "3", "--q", "3", "--m", "2"],
        ["formula", "--formula", "kkl36", "--delta", "1/10", "--tol", "1/10"],
        ["audit", "--gamma", "1/5"],
    ], ids=lambda argv: argv[0])
    def test_deeply_nested_json_exits_2(self, capsys, argv, text):
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            code = cli_dispatch(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: JSON document nested too deeply\n"

    def test_budget_exhaustion_exits_2(self, capsys):
        code = cli_dispatch(["search", "ramsey", "--p", "3", "--q", "3", "--n", "6",
                             "--budget", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["andrasfai", "--k", "2000"],
            # these three cost seconds of work linear in n before any row list
            ["fgraph", "--m", "100000000", "--d", "3"],
            ["kkl36", "--n", "600000000", "--d1", "2", "--m2", "2", "--d2", "1"],
            ["c37", "--n", "800000000", "--d", "2"],
        ],
        ids=["andrasfai", "fgraph", "kkl36", "c37"],
    )
    def test_vertex_cap_checked_before_building(self, capsys, argv):
        start = time.perf_counter()
        code = cli_dispatch(["construct", *argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert elapsed < 1.0
        assert captured.err.startswith("error: ") and "outside [0, 4096]" in captured.err
        assert "Traceback" not in captured.err

    def test_coloring_of_deep_input(self, capsys):
        # T(80, 2) has 1600 edges, one recursion level each in the old search
        code, out = run(capsys, "construct", "turan", "--n", "80", "--parts", "2")
        assert code == 0
        code, out = run(capsys, "search", "coloring", "--p", "3", "--q", "3",
                        "--g6", out.strip())
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 80 and len(doc["edges"]) == 1600

    def test_witness_of_deep_input(self, capsys, tmp_path):
        # alpha of 1200 isolated vertices is a clique of depth 1200 in the
        # complement
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 1200, "edges": []}))
        code = cli_dispatch(["verify", "witness", "--p", "3", "--q", "3", "--m", "5",
                             "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        alpha = [row for row in doc["checks"] if row["name"] == "alpha"]
        assert alpha == [{"bound": 5, "measured": 1200, "name": "alpha", "verdict": "fail"}]
        assert len(doc["witness"]) == 1200


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


RATIONALS = ["0", "1/5", "1/2", "99/100", "1", "-1/3", "3/2"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 14) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "parts", "x"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def verify_documents(draw):
    """JSON text for ``verify``: well-formed colored graphs with random
    6-partitions (some parts empty), the same with one field broken, or
    arbitrary JSON and non-JSON text."""
    kind = draw(st.sampled_from(["graph", "graph", "broken", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "json":
        return json.dumps(draw(json_values))
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [[u, v, draw(st.sampled_from([1, 2]))] for (u, v), k in zip(pairs, keep) if k]
    labels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    doc = {"n": n, "edges": edges, "parts": [
        [v for v in range(n) if labels[v] == i] for i in range(6)
    ]}
    if kind == "broken":
        # replace a whole field, one of its entries, or one number in an entry
        field = draw(st.sampled_from(["n", "edges", "parts"]))
        holder, key = doc, field
        if field != "n" and doc[field] and draw(st.booleans()):
            holder, key = doc[field], draw(st.integers(0, len(doc[field]) - 1))
            if holder[key] and draw(st.booleans()):
                holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
        holder[key] = draw(json_values)
    return json.dumps(doc)


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

    @settings(max_examples=150, deadline=None)
    @given(what=st.sampled_from(["free", "witness", "formula", "audit"]),
           text=verify_documents(), p=st.integers(0, 5), q=st.integers(0, 5),
           m=st.integers(-1, 4), rational=st.sampled_from(RATIONALS))
    def test_verify_exit_codes(self, what, text, p, q, m, rational):
        argv = {
            "free": ["--p", str(p), "--q", str(q)],
            "witness": ["--p", str(p), "--q", str(q), "--m", str(m)],
            "formula": ["--formula", "kkl36", "--delta", rational, "--tol", rational],
            "audit": ["--gamma", rational],
        }[what]
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            assert _dispatch_quietly(["verify", what, *argv]) in (0, 1, 2)
