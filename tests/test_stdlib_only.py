"""The package keeps zero runtime dependencies: it imports only the standard
library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ramsey_turan").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    imported = set().union(*map(absolute_imports, SOURCES))
    assert imported - sys.stdlib_module_names == set()
    # guard against a parse that finds nothing
    assert {"fractions", "json", "argparse"} <= imported


def test_certify_has_no_randomized_search():
    # the package issues verdicts; a seeded heuristic in it would make a "not
    # found" prove nothing.  The QP float cross-check starts from the
    # coordinate lattice alone, so no module draws random numbers
    imported = {path.name: absolute_imports(path) for path in SOURCES}
    assert "fractions" in imported["certify.py"]
    assert {name for name, names in imported.items() if "random" in names} == set()
