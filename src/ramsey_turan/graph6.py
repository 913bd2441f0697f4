"""graph6 codec: compact ASCII encoding of undirected simple graphs.

One graph per text line.  The vertex count is encoded first (one byte for
n <= 62, '~' plus three bytes for larger n), then the upper triangle of the
adjacency matrix in column order, packed big-endian into 6-bit groups offset
by 63.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _triangle_bits(g: Graph):
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            yield (col >> i) & 1


def encode(g: Graph) -> str:
    """Encode a graph as a graph6 line (without trailing newline)."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph too large to encode: n={g.n}")
    out = []
    if g.n <= 62:
        out.append(chr(g.n + 63))
    else:
        out.append("~")
        out.append(chr(((g.n >> 12) & 0x3F) + 63))
        out.append(chr(((g.n >> 6) & 0x3F) + 63))
        out.append(chr((g.n & 0x3F) + 63))
    group = 0
    filled = 0
    for bit in _triangle_bits(g):
        group = (group << 1) | bit
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out)


def decode(line: str) -> Graph:
    """Decode one graph6 line; raises Graph6Error with a byte offset."""
    s = line.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 line", 0)
    for pos, ch in enumerate(s):
        code = ord(ch)
        if code < 63 or code > 126:
            raise Graph6Error(f"byte {code!r} outside graph6 range", pos)
    idx = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 counts above 2^18 are not supported", 1)
        if len(s) < 4:
            raise Graph6Error("truncated vertex count", len(s))
        n = 0
        for pos in range(1, 4):
            n = (n << 6) | (ord(s[pos]) - 63)
        idx = 4
    else:
        n = ord(s[0]) - 63
        idx = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - idx != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(s) - idx}",
            min(len(s), idx + nbytes),
        )
    data = [ord(ch) - 63 for ch in s[idx:]]
    if data and data[-1] & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    rows = [0] * n
    t = 0
    for j in range(1, n):  # column by column, in _triangle_bits order
        for i in range(j):
            if data[t // 6] >> (5 - t % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return Graph(n, rows)


def write_lines(graphs) -> str:
    return "".join(encode(g) + "\n" for g in graphs)


def read_lines(text: str) -> list[Graph]:
    return [decode(line) for line in text.splitlines() if line.strip()]
