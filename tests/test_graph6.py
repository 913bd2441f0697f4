import random
import time
from itertools import combinations

import pytest

from ramsey_turan import Graph, Graph6Error, turan
from ramsey_turan.graph6 import decode, encode, read_lines, write_lines

from .conftest import petersen


def random_graph(n: int, density: float, rng: random.Random) -> Graph:
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < density]
    )


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
        assert decode(encode(g)) == g


def test_large_round_trip_is_fast():
    g = turan(1000, 6)
    start = time.perf_counter()
    assert decode(encode(g)) == g
    assert time.perf_counter() - start < 3


def test_long_form_vertex_count():
    rng = random.Random(7)
    for n in (63, 64, 100):
        g = random_graph(n, 0.2, rng)
        line = encode(g)
        assert line.startswith("~")
        assert decode(line) == g


def test_empty_line_rejected():
    with pytest.raises(Graph6Error):
        decode("")


def test_byte_out_of_range_reports_offset():
    with pytest.raises(Graph6Error) as err:
        decode("B" + chr(20))
    assert err.value.offset == 1


def test_wrong_length_rejected():
    with pytest.raises(Graph6Error):
        decode("Bww")
    with pytest.raises(Graph6Error):
        decode("B")


def test_nonzero_padding_rejected():
    # K3 uses bits 111000; flip a padding bit: 111001 -> 57 + 63 = 'x'
    with pytest.raises(Graph6Error):
        decode("Bx")


def test_multi_line_io():
    graphs = [Graph.complete(3), Graph.cycle(5), petersen()]
    assert read_lines(write_lines(graphs)) == graphs


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
