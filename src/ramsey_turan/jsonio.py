"""Canonical JSON forms for colored graphs and certificates.

The colored-graph document is ``{"n": int, "edges": [[u, v, c], ...]}`` with
0-indexed u < v, colors in {1, 2}, and edges sorted lexicographically, so two
equal values serialize to identical bytes and certificates can be diffed.
Exact rationals are rendered as fraction strings.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, compress

from .certify import Certificate
from .graphs import MAX_VERTICES, ColoredGraph, VertexPartition


# '0'/'1' digits to the bytes 0/1, the selectors of ``compress``
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def colored_graph_json(cg: ColoredGraph, parts: VertexPartition | None = None) -> str:
    """The canonical document of ``cg`` (with ``parts`` if given) as text,
    trailing newline included, written straight from the class rows.

    ``tails[2v + c - 1]`` is the text ``v,c]`` of an edge to v in colour c.
    For the higher neighbours of row u, the class-one and class-two digits
    (lowest vertex first) are interleaved into one selector per tail, so
    ``compress`` picks each edge's tail in order of v and ``join`` writes the
    row; no per-edge list or encoder call is made.
    """
    tails = [f"{v},{c}]" for v in range(cg.n) for c in (1, 2)]
    ones, twos = (c.adj for c in cg.classes)
    rows = []
    for u, (one, two) in enumerate(zip(ones, twos)):
        one >>= u + 1
        two >>= u + 1
        width = (one | two).bit_length()
        if width:
            digits = bytearray(2 * width)
            digits[0::2] = format(one, f"0{width}b")[::-1].encode()
            digits[1::2] = format(two, f"0{width}b")[::-1].encode()
            edges = compress(tails[2 * u + 2:], digits.translate(_DIGITS))
            rows.append(f"[{u}," + f",[{u},".join(edges))
    text = '{"edges":[' + ",".join(rows) + '],"n":' + str(cg.n)
    if parts is not None:
        text += ',"parts":' + json.dumps(parts.parts, separators=(",", ":"))
    return text + "}\n"


def colored_graph_to_dict(cg: ColoredGraph, parts: VertexPartition | None = None) -> dict:
    return json.loads(colored_graph_json(cg, parts))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_lists(value, what: str, width: int | None = None) -> list[list[int]]:
    """Validate a list of integer lists (each of ``width`` entries if given)
    and return it as it is.

    Row types, row lengths and entry types are each checked once over the
    set of values that occur, built by C loops (``bool`` is an ``int``
    subclass but not an integer here), so no Python code runs per row.
    """
    if (
        not isinstance(value, list)
        or not all(issubclass(kind, list) for kind in set(map(type, value)))
        or (width is not None and not set(map(len, value)) <= {width})
        or not all(
            issubclass(kind, int) and kind is not bool
            for kind in set(map(type, chain.from_iterable(value)))
        )
    ):
        raise ValueError(f"{what} must be a list of integer lists")
    return value


def _vertex_count(doc: dict) -> int:
    n = doc["n"]
    if not _is_int(n) or not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"'n' must be an integer in [0, {MAX_VERTICES}]")
    return n


def _check_object(doc, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")


@contextmanager
def _fields(what: str):
    """A missing field read in the block raises ``ValueError`` naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} document missing field: {exc}") from exc


def colored_graph_from_dict(doc: dict) -> ColoredGraph:
    _check_object(doc, "colored-graph")
    with _fields("colored-graph"):
        n = _vertex_count(doc)
        edges = doc["edges"]
    return ColoredGraph.from_colored_edges(n, _int_lists(edges, "'edges'", 3))


def partition_from_dict(doc: dict) -> VertexPartition:
    _check_object(doc, "partition")
    if "parts" not in doc:
        raise ValueError("document carries no 'parts' field")
    with _fields("partition"):
        n = _vertex_count(doc)
    return VertexPartition(n, _int_lists(doc["parts"], "'parts'"))


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "status": cert.status,
        "checks": [
            {
                "name": row.name,
                "measured": _jsonable(row.measured),
                "bound": _jsonable(row.bound),
                "verdict": row.verdict,
            }
            for row in cert.checks
        ],
        "witness": list(cert.witness) if cert.witness is not None else None,
        "params": _jsonable(cert.params),
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
