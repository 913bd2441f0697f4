"""graph6 codec: compact ASCII encoding of undirected simple graphs.

One graph per text line.  The vertex count is encoded first (one byte for
n <= 62, '~' plus three bytes for larger n), then the upper triangle of the
adjacency matrix in column order, first pair most significant, packed into
6-bit groups offset by 63.  ``_triangle`` and ``_triangle_rows`` are the one
writer and reader of that bit string; ``search``'s canonical masks are the
same string read as one integer.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, _transpose

_CHARS = {format(k, "06b"): chr(k + 63) for k in range(64)}
_BITS = {k + 63: format(k, "06b") for k in range(64)}


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _triangle(rows) -> str:
    """The upper triangle of the symmetric ``rows`` as '0'/'1' text: column
    j lists pairs (0, j), ..., (j - 1, j), which are row j's low j bits."""
    return "".join([format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, len(rows))])


def _triangle_rows(n: int, bits: str) -> list[int]:
    """Symmetric adjacency rows of the n-vertex triangle text ``bits``
    (inverse of ``_triangle``; text past the n(n-1)/2 pairs is ignored).

    The rows are valid ``Graph`` rows by construction, so callers build with
    ``Graph._unchecked``: row j's low part holds only the j pairs (i, j) with
    i < j, so no bit reaches the diagonal or n, and OR-ing the lower
    triangle with its transpose makes the rows symmetric.  ``bits`` must
    hold only '0' and '1' and at least n(n-1)/2 of them.
    """
    lower = [0] * n
    start = 0
    for j in range(1, n):
        lower[j] = int(bits[start:start + j][::-1], 2)
        start += j
    w = max(8, 1 << (n - 1).bit_length())
    size = w // 8
    packed = int.from_bytes(b"".join([r.to_bytes(size, "little") for r in lower]), "little")
    data = (packed | _transpose(packed, w)).to_bytes(n * size, "little")
    return [int.from_bytes(data[k:k + size], "little") for k in range(0, n * size, size)]


def encode(g: Graph) -> str:
    """Encode a graph as a graph6 line (without trailing newline)."""
    n = g.n
    if n > MAX_VERTICES:
        raise ValueError(f"graph too large to encode: n={n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    bits = _triangle(g.adj)
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_CHARS[bits[k:k + 6]] for k in range(0, len(bits), 6)])


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
    bits = s[idx:].translate(_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    return Graph._unchecked(n, _triangle_rows(n, bits))
