import hashlib
import random
import time
from itertools import combinations

import pytest

from ramsey_turan import Graph, Graph6Error, turan
from ramsey_turan.graph6 import decode, encode
from ramsey_turan.search import graph_from_canonical

from .conftest import petersen


def random_graph(n: int, density: float, rng: random.Random) -> Graph:
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < density]
    )


# Reference codec, bit by bit: the triangle is the pairs (i, j), i < j, in
# column order (j outer, i inner), first pair most significant.


def reference_encode(g: Graph) -> str:
    out = [chr(g.n + 63)] if g.n <= 62 else [
        "~", chr(((g.n >> 12) & 0x3F) + 63), chr(((g.n >> 6) & 0x3F) + 63), chr((g.n & 0x3F) + 63)
    ]
    group = filled = 0
    for j in range(1, g.n):
        for i in range(j):
            group = (group << 1) | ((g.adj[j] >> i) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def reference_rows(n: int, bit) -> list[int]:
    """Rows of the n-vertex triangle whose t-th pair is present iff ``bit(t)``."""
    rows = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bit(t):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return rows


def reference_decode(line: str) -> Graph:
    """Decode a well-formed graph6 line."""
    if line[0] == "~":
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        data = [ord(ch) - 63 for ch in line[4:]]
    else:
        n = ord(line[0]) - 63
        data = [ord(ch) - 63 for ch in line[1:]]
    return Graph(n, reference_rows(n, lambda t: data[t // 6] >> (5 - t % 6) & 1))


def test_k3_matches_format_definition():
    # hand-encoded: n=3 -> 'B'; triangle bits 111 padded to 111000 -> 'w'
    assert encode(Graph.complete(3)) == "Bw"


def test_single_vertex():
    assert encode(Graph.empty(1)) == "@"
    assert decode("@") == Graph.empty(1)


def test_petersen_round_trip():
    g = petersen()
    assert decode(encode(g)) == g


def test_round_trip_1000_random_graphs():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 60)
        g = random_graph(n, rng.random(), rng)
        line = encode(g)
        assert line == reference_encode(g)
        assert decode(line) == reference_decode(line) == g


def test_large_round_trip_is_fast():
    g = turan(1000, 6)
    start = time.perf_counter()
    assert decode(encode(g)) == g
    assert time.perf_counter() - start < 3


def test_turan_lines_pinned():
    # sha256 of the lines the bit-by-bit codec wrote
    for n, digest in (
        (240, "fbd4f51922758ad8232a392ad252d31ae3da8d638300ebbd5354692703c4859e"),
        (1000, "eb37dfb16485568012fc133a04aa464f6646ae2bdeb8285f93f03f3fc6901114"),
    ):
        assert hashlib.sha256(encode(turan(n, 6)).encode()).hexdigest() == digest


def test_long_form_vertex_count():
    rng = random.Random(7)
    for n in (0, 1, 62, 63, 64, 100):
        g = random_graph(n, 0.2, rng)
        line = encode(g)
        assert line.startswith("~") == (n > 62)
        assert line == reference_encode(g)
        assert decode(line) == reference_decode(line) == g


def test_canonical_masks_match_reference():
    for n in range(6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            rows = reference_rows(n, lambda t: (mask >> (nbits - 1 - t)) & 1)
            assert graph_from_canonical(n, mask).adj == tuple(rows)
    for mask in (-1, 1 << 10):
        with pytest.raises(ValueError, match="outside"):
            graph_from_canonical(5, mask)


def test_empty_line_rejected():
    with pytest.raises(Graph6Error) as err:
        decode("")
    assert str(err.value) == "empty graph6 line (byte offset 0)"


def test_byte_out_of_range_reports_offset():
    with pytest.raises(Graph6Error) as err:
        decode("B" + chr(20))
    assert err.value.offset == 1
    assert str(err.value) == "byte 20 outside graph6 range (byte offset 1)"


def test_wrong_length_rejected():
    with pytest.raises(Graph6Error) as err:
        decode("Bww")
    assert str(err.value) == "expected 1 adjacency bytes for n=3, got 2 (byte offset 2)"
    with pytest.raises(Graph6Error) as err:
        decode("B")
    assert str(err.value) == "expected 1 adjacency bytes for n=3, got 0 (byte offset 1)"


def test_nonzero_padding_rejected():
    # K3 uses bits 111000; flip a padding bit: 111001 -> 57 + 63 = 'x'
    with pytest.raises(Graph6Error) as err:
        decode("Bx")
    assert str(err.value) == "nonzero padding bits (byte offset 1)"


@pytest.mark.parametrize("line, message", [
    ("~~", "graph6 counts above 2^18 are not supported (byte offset 1)"),
    ("~?", "truncated vertex count (byte offset 2)"),
    ("~@?@", "vertex count 4097 exceeds cap 4096 (byte offset 0)"),
    ("~??~", "expected 326 adjacency bytes for n=63, got 0 (byte offset 4)"),
])
def test_long_form_header_errors(line, message):
    with pytest.raises(Graph6Error) as err:
        decode(line)
    assert str(err.value) == message


def test_decoded_graphs_equal_validated_graphs():
    # decode and graph_from_canonical skip Graph's validation of the rows
    rng = random.Random(5150)
    for _ in range(300):
        n = rng.randint(0, 70)
        g = random_graph(n, rng.random(), rng)
        decoded = decode(encode(g))
        checked = Graph(decoded.n, decoded.adj)
        assert decoded == checked == g and hash(decoded) == hash(checked) == hash(g)
        assert type(decoded.adj) is tuple
        if n <= 12:
            nbits = n * (n - 1) // 2
            mask = rng.getrandbits(nbits) if nbits else 0
            h = graph_from_canonical(n, mask)
            checked = Graph(h.n, h.adj)
            assert h == checked and hash(h) == hash(checked)
            assert encode(h) == encode(checked)


def test_graph_from_canonical_rejects_bad_order():
    with pytest.raises(ValueError) as err:
        graph_from_canonical(-1, 0)
    assert str(err.value) == "vertex count -1 outside [0, 4096]"
    with pytest.raises(ValueError, match="outside"):
        graph_from_canonical(-1, 5)


def test_against_networkx_reference():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.random(), rng)
        ours = encode(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(g.edges())
