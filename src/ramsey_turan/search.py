"""Brute-force oracles: canonical small-graph enumeration, edge-coloring
backtracking, and exact extremal edge counts at desk scale.

Everything here is self-contained exhaustive search — no heuristics and no
external canonical-labeling dependency — so results double as independent
checks of the construction and certification modules.  A canonical mask is
the graph6 triangle bit string read as one integer, so ``graph6``'s reader
decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .graph6 import _triangle_rows
from .graphs import (
    MAX_VERTICES, ColoredGraph, EdgeColoring, Graph, _check_clique_sizes, _check_order,
    _clique_engine,
)


class SearchBudgetExceeded(RuntimeError):
    """The node-expansion budget ran out before the search completed."""


def canonical_form(g: Graph) -> int:
    """Lex-min adjacency bitstring over all vertex relabelings.

    The string lists the upper triangle in column order (the graph6 bit
    order); earlier bits are more significant, so comparing encoded integers
    of equal-order graphs is the same as comparing the strings.  Backtracking
    over partial labelings prunes any prefix that already exceeds the best.
    """
    n = g.n
    nbits = n * (n - 1) // 2
    if n <= 1:
        return 0
    adj = g.adj
    best: int | None = None

    def extend(chosen: list[int], used: int, prefix: int, length: int):
        nonlocal best
        k = len(chosen)
        if k == n:
            if best is None or prefix < best:
                best = prefix
            return
        for v in range(n):
            if (used >> v) & 1:
                continue
            chunk = 0
            row = adj[v]
            for u in chosen:
                chunk = (chunk << 1) | ((row >> u) & 1)
            new_prefix = (prefix << k) | chunk
            new_length = length + k
            if best is not None and new_prefix > (best >> (nbits - new_length)):
                continue
            extend(chosen + [v], used | (1 << v), new_prefix, new_length)

    extend([], 0, 0, 0)
    return best


def graph_from_canonical(n: int, mask: int) -> Graph:
    """Inverse of the canonical bit layout: ``mask`` is the graph6 triangle
    (column-major upper triangle) read as one integer."""
    nbits = n * (n - 1) // 2
    if mask < 0 or mask >> nbits:
        raise ValueError(f"mask {mask} outside [0, 2^{nbits})")
    _check_order(n)
    return Graph._unchecked(n, _triangle_rows(n, format(mask, f"0{nbits}b")))


@lru_cache(maxsize=None)
def enumerate_canonical_graphs(n: int) -> tuple[int, ...]:
    """All isomorphism classes of n-vertex graphs as canonical masks.

    Built by appending every possible column (the neighborhood of a new
    last vertex) to the mask of each (n-1)-vertex class and canonicalizing;
    practical for n <= 8.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (0,)
    found = set()
    for mask in enumerate_canonical_graphs(n - 1):
        for column in range(1 << (n - 1)):
            found.add(canonical_form(graph_from_canonical(n, (mask << (n - 1)) | column)))
    return tuple(sorted(found))


def _closes(rows, common, need):
    """Does the colour class ``rows`` hold a K_need inside the bitset
    ``common``?  Placing a pair uv in that class closes a K_{need + 2} iff it
    does, with ``common`` the class's common neighbourhood of u and v.  A
    K_need needs ``need`` vertices, so a popcount below ``need`` settles
    the answer without a search; a K_2 is any vertex with a neighbour in
    ``common``; other cliques go to the shared clique engine (the edge
    search tests need 1, a non-empty ``common``, before calling)."""
    if common.bit_count() < need:
        return False
    if need == 2:
        rest = common
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & common:
                return True
            rest ^= low
        return False
    return _clique_engine(rows, common, need - 1, need)[0] >= need


def _column_pairs(n):
    """The pairs of K_n in column order: pair (k, v), k < v, has index
    v(v-1)/2 + k."""
    return [(k, v) for v in range(n) for k in range(v)]


# the order in which ``_edge_search`` tries the colours: edge colours first,
# non-edges last; sb_l compares rows by the rank of their entries in it
_COLORS = (1, 2, 0)
_RANK = (2, 0, 1)
# node budget of one sub-search behind a degree cap; an undecided one gives
# no cap
_CAP_BUDGET = 10**4


def _edge_search(n, pairs, needs, budget, caps=None, floor=0):
    """Iterative backtracking over the colours of ``pairs``.

    Pair i gets the colours of ``_COLORS`` in order: 1, 2, then 0.
    Colour c is allowed on uv iff ``needs[c] > 0`` and colour c has no
    K_{needs[c]} in the common neighbourhood of u and v, i.e. placing uv
    closes no K_{needs[c] + 2}.  For need 1 that is an empty common
    neighbourhood, tested inline; larger needs go to ``_closes`` (a popcount,
    then a bit test for need 2 and the clique engine above).  Colour 0
    stands for a non-edge and is tried only while it keeps the count of
    zeros below the best completed assignment (branch and bound); a
    completed assignment becomes the new best, and one with at most
    ``floor`` zeros ends the search.  Each attempted assignment counts one
    node; a colour with need 0 is never tried.

    When ``needs[1] == needs[2]`` colours 1 and 2 are interchangeable, and
    colour 2 is skipped (and not counted) while every pair placed so far is
    a non-edge: the first pair that is not a non-edge takes colour 1.

    With ``caps`` (one degree cap per colour) the pairs are all pairs of K_n
    in column order and the search adds three exact prunes:

    - no vertex gets more than ``caps[c]`` pairs of colour c (caps that sum
      to less than n - 1 leave no colouring; the caller ends at the root);
    - each vertex needs at least n - 1 - caps[1] - caps[2] non-edges, and a
      colour-0 placement must leave room for those of every vertex below the
      best count of zeros;
    - the lex-leader constraints sb_l of Codish, Miller, Prosser and Stuckey
      (Constraints 2019) for consecutive rows: row j - 1 is at most row j in
      lexicographic order of the ``_RANK`` of its entries, ignoring columns
      j - 1 and j.  Each entry is compared when its pair is placed, so a
      violated prefix prunes.

    The colour swap and sb_l are sound together.  Order assignments x (one
    colour per pair, in the order of ``pairs``) lexicographically by the
    ``_RANK`` of their entries, the order in which ``_COLORS`` tries them.

    1. sb_l on rows j - 1 and j is x <= tau(x) for the vertex transposition
       tau = (j - 1 j).  tau fixes the pair (j - 1, j) and exchanges (k, j - 1)
       with (k, j) for k < j - 1 and (j - 1, v) with (j, v) for v > j.  In
       column order the first pair where x and tau(x) can differ is in column
       j - 1, where (k, j - 1) compares row j - 1 with row j at column k; if
       all of column j - 1 ties, so does column j, which holds the same
       entries exchanged.  Each later column v then compares (j - 1, v), that
       is row j - 1 with row j at column v, before its mirror (j, v).  So the
       comparison runs over columns k < j - 1, then j + 1, ..., n - 1: the
       row comparison of sb_l.
    2. swap exchanges colours 1 and 2 and fixes non-edges, so x and swap(x)
       first differ at the first pair of x that is not a non-edge, and
       x <= swap(x) iff that pair has colour 1, of lower rank than colour 2.
    3. Colours are tried in increasing rank, so assignments are completed in
       increasing lex order.  Apart from the two constraints the search
       prunes only assignments that break a need or a cap (both exact, so no
       valid assignment breaks them) and prefixes whose lower bound on the
       zeros reaches the best count so far.  Suppose a valid assignment
       exists, let t be the larger of ``floor`` and the fewest zeros of one,
       and let w be the lex-least valid assignment with at most t zeros that
       passes the constraints.  Every completion before w has more than t
       zeros, so the best count stays above t and the bound never prunes a
       prefix of w; once w completes it ends the search (at most ``floor``
       zeros) or has the fewest zeros and is never replaced.  So the search
       returns w.  The valid assignments with at most t zeros are closed
       under Sym(n) x <swap>: relabelling the vertices of K_n keeps needs,
       caps and zeros, and swap keeps them when needs[1] == needs[2], since
       then caps[1] == caps[2].  So the lex-least of them is the least of its
       orbit: x <= tau(x) and x <= swap(x) hold for it, and it is w.
    4. Hence a completed search returns the lex-least valid assignment with
       at most t zeros, or None when there is no valid assignment, with or
       without either constraint (without caps only the swap applies, and
       the same argument runs with <swap> alone); only node counts fall.

    Returns (best assignment as a colour list or None, search completed,
    nodes).
    """
    layers = [[0] * n, [0] * n, [0] * n]
    bits = [1 << x for x in range(n)]
    total = len(pairs)
    # a colour with need 0 is never placed, so it is never tried
    colors = [c for c in _COLORS if needs[c] > 0]
    if pairs and not colors:
        return None, True, 0
    ncolors = len(colors)
    placed = [0] * total
    # choice[i]: index in colors of the next colour to try at pair i
    choice = [0] * total
    best = None
    best_zeros = total + 1
    zeros = nodes = i = k = 0
    # low: non-edges each vertex needs; twice_lb: the sum over the vertices
    # of max(non-edges so far, low), twice a lower bound on the final zeros;
    # lb = (twice_lb + 1) >> 1, the bound itself, updated with twice_lb
    low = twice_lb = lb = 0
    if caps is not None:
        low = max(0, n - 1 - caps[1] - caps[2])
        twice_lb = n * low
        lb = (twice_lb + 1) >> 1
        floor = max(floor, lb)
        # lex[i] = (index of pair (k, v - 1) or -1, row v, row k) for pair (k, v)
        lex = [
            ((v - 1) * (v - 2) // 2 + k if k < v - 1 else -1, v, k)
            for k, v in pairs
        ]
        # decided[j] = index of the pair that made row j - 1 < row j in the
        # current branch; any value >= the current index means "tied so far"
        decided = [total] * n
    zero_rows = layers[0]
    swap = needs[1] == needs[2]
    while True:
        if i == total:
            best = placed[:]
            best_zeros = zeros
            if zeros <= floor:
                return best, True, nodes
        elif lb < best_zeros:
            u, v = pairs[i]
            while k < ncolors:
                c = colors[k]
                k += 1
                if c == 2 and swap and zeros == i:
                    continue
                if not c:
                    step = (zero_rows[u].bit_count() >= low) + (zero_rows[v].bit_count() >= low)
                    if (twice_lb + step + 1) >> 1 >= best_zeros:
                        continue
                nodes += 1
                if nodes > budget:
                    return best, False, nodes
                rows = layers[c]
                if caps is not None:
                    cap = caps[c]
                    if rows[u].bit_count() >= cap or rows[v].bit_count() >= cap:
                        continue
                    a, row_a, row_b = lex[i]
                    rank = _RANK[c]
                    if a >= 0 and decided[row_a] >= i:
                        other = _RANK[placed[a]]
                        if other > rank:
                            continue
                        decided[row_a] = i if other < rank else total
                    if row_b and decided[row_b] >= i:
                        other = _RANK[placed[i - 1]]
                        if other > rank:
                            continue
                        decided[row_b] = i if other < rank else total
                common = rows[u] & rows[v]
                if common:
                    need = needs[c]
                    if need == 1 or _closes(rows, common, need):
                        continue
                rows[u] |= bits[v]
                rows[v] |= bits[u]
                placed[i] = c
                choice[i] = k
                if not c:
                    zeros += 1
                    twice_lb += step
                    lb = (twice_lb + 1) >> 1
                i += 1
                k = 0
                break
            if not k:  # placed a colour and moved on to the next pair
                continue
        # pair i is exhausted (or cannot beat the best): undo pair i - 1
        i -= 1
        if i < 0:
            return best, True, nodes
        u, v = pairs[i]
        c = placed[i]
        rows = layers[c]
        # both bits were set when the pair was placed
        rows[u] ^= bits[v]
        rows[v] ^= bits[u]
        if not c:
            zeros -= 1
            twice_lb -= (rows[u].bit_count() >= low) + (rows[v].bit_count() >= low)
            lb = (twice_lb + 1) >> 1
        k = choice[i]


def _complete_search(n, needs, budget, floor=0):
    """``_edge_search`` over all pairs of K_n in column order, edge colours
    first, with the exact degree caps of ``needs``.  A completed assignment
    costs at least one node per pair, so a budget below the pair count
    returns incomplete at once with 0 nodes; caps that sum to less than
    n - 1 refute K_n at the root, before any pair is listed."""
    if n * (n - 1) // 2 > budget:
        return None, False, 0
    caps = _degree_caps(needs, n)
    if sum(caps) < n - 1:
        return None, True, 0
    return _edge_search(n, _column_pairs(n), needs, budget, caps, floor)


@lru_cache(maxsize=None)
def _colorable(needs, n, budget=_CAP_BUDGET):
    """Does K_n have a 3-colouring of its pairs in which colour c closes no
    K_{needs[c] + 2}?  None when the search runs out of budget."""
    found, exhausted, _ = _complete_search(n, needs, budget, n * (n - 1) // 2)
    if found is not None:
        return True
    return False if exhausted else None


@lru_cache(maxsize=None)
def _degree_caps(needs, n):
    """Exact caps on the colour-c degree of any vertex in such a colouring of
    K_n, one per colour.

    The colour-c neighbourhood of a vertex is itself such a colouring with
    needs[c] lowered by one, so its order is below the least order N that has
    none, and the cap is N - 1.  N is searched upwards, up to order n - 1;
    when it lies beyond, or a sub-search does not complete, the cap is n - 1
    (0 on K_0, which has no vertex to cap).  A colour with need 0 gets cap 0.
    """
    caps = []
    for c, need in enumerate(needs):
        if need <= 0:
            caps.append(0)
            continue
        cap = max(n - 1, 0)
        lowered = tuple(sorted(needs[:c] + (need - 1,) + needs[c + 1 :]))
        # nested blow-ups of cliques colour K_N with N = prod(need + 1), so
        # the scan starts above it
        for order in range(prod(x + 1 for x in lowered) + 1, n):
            found = _colorable(lowered, order)
            if found is None:
                break
            if not found:
                cap = order - 1
                break
        caps.append(cap)
    return tuple(caps)


@dataclass
class ColoringSearch:
    """Outcome of the free-coloring backtracker.

    ``coloring is None`` with ``exhausted=True`` is a proof that no coloring
    exists; with ``exhausted=False`` the budget ran out first.
    """

    coloring: EdgeColoring | None
    exhausted: bool
    nodes: int


def _check_search_args(p: int, q: int, budget: int):
    _check_clique_sizes(p, q)
    # bool is an int subclass, but True is no node count
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"budget must be an integer, not {budget!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")


def find_free_coloring(
    g: Graph, p: int, q: int, budget: int = 10**6
) -> ColoringSearch:
    """Backtracking search for a 2-coloring with no K_p in color 1 and no K_q
    in color 2.

    Edges are processed by descending endpoint degree sum (ties by vertex
    pair) and color 1 is tried first, so witnesses are reproducible: the
    witness is the lexicographically least coloring in that order.  When
    p = q the colors are interchangeable and the first edge takes color 1
    only, which halves the nodes of a refutation and keeps the witness.
    Each attempted edge-color assignment counts one node against the budget.
    """
    _check_search_args(p, q, budget)
    degree = [row.bit_count() for row in g.adj]
    edges = sorted(g.edges(), key=lambda e: (-(degree[e[0]] + degree[e[1]]), e))
    # a K_p (K_q) through uv is a K_{p-2} (K_{q-2}) in their common
    # neighbourhood; need 0 keeps colour 0 (non-edge) off every edge
    found, exhausted, nodes = _edge_search(g.n, edges, (0, p - 2, q - 2), budget)
    if found is None:
        return ColoringSearch(None, exhausted, nodes)
    return ColoringSearch(EdgeColoring(dict(zip(edges, found))), True, nodes)


def ramsey_verify(p: int, q: int, n: int, budget: int = 10**6) -> bool:
    """Does K_n admit a coloring with no K_p in color 1 and no K_q in color 2?

    This is ``rt_exact``'s edge search with no non-edges allowed: exact color
    degree caps and lex-leader symmetry breaking over the pairs of K_n, with
    the color swap when p = q.  A False answer is a completed capped search,
    so it is a proof; running out of budget (or a budget below the pair
    count) raises instead of guessing.
    """
    _check_order(n)
    _check_search_args(p, q, budget)
    found = _colorable((0, p - 2, q - 2), n, budget)
    if found is None:
        raise SearchBudgetExceeded(
            f"budget {budget} exhausted before deciding ({p},{q}) on K_{n}"
        )
    return found


@dataclass(frozen=True)
class RtInstance:
    """``budget`` caps the node count of the whole search."""

    n: int
    p: int
    q: int
    m: int
    budget: int = 10**6

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"n must be in [1, {MAX_VERTICES}]")
        _check_search_args(self.p, self.q, self.budget)
        if self.m < 1:
            raise ValueError("independence cap must be >= 1")


@dataclass
class RtResult:
    """value is the exact maximum edge count, or None when no n-vertex graph
    satisfies both constraints (only trustworthy when ``exhausted``); a
    non-exhausted value is a lower bound.  ``nodes`` counts search nodes."""

    value: int | None
    witness: ColoredGraph | None
    exhausted: bool
    nodes: int


def rt_exact(inst: RtInstance) -> RtResult:
    """Exact maximum edge count over all n-vertex graphs with independence
    at most m that admit a (p, q)-free coloring.

    Such a graph with its coloring is a 3-coloring of the pairs of K_n with
    no K_p in color 1, no K_q in color 2 and no K_{m+1} among the non-edges
    (color 0).  The edge search branches on the pairs in column order, edge
    colors first, and bounds on the number of non-edges, so the first
    assignment found is a dense lower bound and a completed search proves the
    fewest non-edges.  Three exact prunes keep it small (see
    ``_edge_search``): a cap on every color degree (the least order of the
    smaller problem on a color neighbourhood, found by the same search, minus
    one; R(3,3) - 1 = 5 for p = q = 3 and m = 2, so n = 17 is refuted at the
    root), a bound on the non-edges each vertex still needs, and the
    lex-leader row constraints sb_l, which keep one labelling of each graph.
    When p = q colors 1 and 2 are interchangeable, and the first pair that
    is not a non-edge takes color 1.  Neither symmetry constraint changes the
    value or the witness, the lex-least optimum in the search order (proof
    in ``_edge_search``).  ``nodes`` does not count the searches behind the
    caps.
    """
    n = inst.n
    needs = (inst.m - 1, inst.p - 2, inst.q - 2)
    best, exhausted, nodes = _complete_search(n, needs, inst.budget)
    if best is None:
        return RtResult(None, None, exhausted, nodes)
    colored = [(u, v, c) for (u, v), c in zip(_column_pairs(n), best) if c]
    witness = ColoredGraph.from_colored_edges(n, colored)
    return RtResult(len(colored), witness, exhausted, nodes)
