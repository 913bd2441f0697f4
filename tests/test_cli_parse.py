"""The CLI parses a leaf command with that leaf's own parser and the whole
tree only when argv names no leaf; both give the tree's help, errors and
exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ramsey_turan import cli
from ramsey_turan.cli import _LEAVES, _build_parser, _leaf_parser, _parse, cli_dispatch

# stdout, stderr and exit code of help, missing-flag, bad-value and
# unknown-argument calls of every leaf, and of argvs that name no leaf,
# recorded with COLUMNS=80 while every call still parsed with the whole tree
GOLDENS = json.loads((Path(__file__).parent / "cli_usage_goldens.json").read_text())


def case_id(record) -> str:
    return " ".join(record["argv"]) or "<empty>"


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps help and usage at the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def captured(call, argv):
    """(exit code, stdout, stderr, result) of ``call(argv)``; the exit code
    is that of a SystemExit raised inside, else None."""
    out, err = io.StringIO(), io.StringIO()
    code, result = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


def tree_parse(argv) -> argparse.Namespace:
    args = _build_parser().parse_args(argv)
    # the tree alone records the group and leaf names
    del args.command, args.what
    return args


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="goldens hold the help layout of CPython 3.11's argparse")
@pytest.mark.parametrize("record", GOLDENS, ids=case_id)
def test_usage_goldens(record):
    code, out, err, result = captured(cli_dispatch, record["argv"])
    assert (result, out, err) == (record["code"], record["out"], record["err"])


@pytest.mark.parametrize("record", GOLDENS, ids=case_id)
def test_leaf_parse_equals_tree_parse(record):
    argv = record["argv"]
    assert captured(_parse, argv) == captured(tree_parse, argv)


def test_goldens_cover_every_leaf():
    calls = {}
    for record in GOLDENS:
        leaf = tuple(record["argv"][:2])
        if leaf in _LEAVES:
            calls.setdefault(leaf, []).append(record)
    assert set(calls) == set(_LEAVES)
    for leaf, records in calls.items():
        assert [*leaf, "--help"] in [r["argv"] for r in records], leaf
        # help, then usage errors: missing flags, bad values, unknown arguments
        assert sum(r["code"] == 2 for r in records) >= 2, leaf


def tree_leaves(parser, path=()):
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
        return
    for name, child in groups[0].choices.items():
        yield from tree_leaves(child, (*path, name))


def test_dispatch_table_and_help_tree_list_the_same_leaves():
    tree = dict(tree_leaves(_build_parser()))
    assert list(tree) == list(_LEAVES)
    assert len(tree) == 17
    for leaf, parser in tree.items():
        alone = _leaf_parser(*leaf)
        assert alone.prog == parser.prog == f"rturan {' '.join(leaf)}"
        assert alone.format_help() == parser.format_help()
        assert alone.get_default("run") is parser.get_default("run") is _LEAVES[leaf][1]


def test_a_leaf_call_builds_no_tree():
    _build_parser.cache_clear()
    try:
        code, out, err, result = captured(cli_dispatch, ["verify", "census"])
        assert (result, err) == (0, "")
        assert _build_parser.cache_info().currsize == 0
        captured(cli_dispatch, ["verify"])
        assert _build_parser.cache_info().currsize == 1
    finally:
        _build_parser.cache_clear()


def test_import_builds_no_parser():
    probe = (
        "from ramsey_turan import cli; "
        "print(cli._build_parser.cache_info().currsize, cli._leaf_parser.cache_info().currsize)"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "0 0\n"
