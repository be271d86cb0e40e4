"""Matching computation, enumeration, counting, edge classification.

Edges are classified from the strong components of the derived digraph
of one maximum matching (see ``extendability.elementary_components``);
the enumeration- and deletion-based definitions survive only as test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from math import prod
from operator import getitem, or_, xor
from typing import Iterator

from .core import BipartiteGraph, Matching


# ---------------------------------------------------------------------------
# maximum matching (augmenting paths; deterministic scan order)


def _augment(adj, match_w, i, seen) -> bool:
    """Depth-first search for an augmenting path from row i, entering each
    column once, in adjacency order, and adding it to seen; on success the
    rows on the path shift columns.  Iterative: no recursion limit on paths."""
    below = []  # (row, its scan, column taken) for each row below the current one
    scan = iter(adj[i])
    while True:
        for j in scan:
            if j in seen:
                continue
            seen.add(j)
            if match_w.get(j) is None:
                match_w[j] = i
                for row, _, col in below:
                    match_w[col] = row
                return True
            below.append((i, scan, j))
            i = match_w[j]
            scan = iter(adj[i])
            break
        else:
            if not below:
                return False
            i, scan, _ = below.pop()


def max_matching_pairs(g: BipartiteGraph,
                       dead_u: frozenset = frozenset(),
                       dead_w: frozenset = frozenset()) -> dict[int, int]:
    """u -> w pairing of a maximum matching, optionally avoiding vertices.
    Deterministic for a fixed graph."""
    adj = []
    for i in range(g.n):
        if i in dead_u:
            adj.append(())
        else:
            adj.append(tuple(j for j in g.u_neighbors(i) if j not in dead_w))
    match_w: dict[int, int] = {}
    for i in range(g.n):
        if i not in dead_u:
            _augment(adj, match_w, i, set())
    return {i: j for j, i in match_w.items()}


def max_matching(g: BipartiteGraph) -> Matching:
    """A maximum matching of g; perfect exactly when its size is n."""
    pairs = max_matching_pairs(g)
    return Matching(frozenset(pairs.items()), g)


def has_perfect_matching(g: BipartiteGraph,
                         dead_u: frozenset = frozenset(),
                         dead_w: frozenset = frozenset()) -> bool:
    """Whether the graph minus the given vertices has a matching that
    saturates every remaining vertex (requires |dead_u| == |dead_w|)."""
    if len(dead_u) != len(dead_w):
        return False
    pairs = max_matching_pairs(g, dead_u, dead_w)
    return len(pairs) == g.n - len(dead_u)


# memoised variant keyed by vertex masks; used heavily by the extension oracle
@lru_cache(maxsize=1 << 18)
def _has_pm_masked(g: BipartiteGraph, dead_u_mask: int, dead_w_mask: int) -> bool:
    dead_u = frozenset(i for i in range(g.n) if dead_u_mask >> i & 1)
    dead_w = frozenset(j for j in range(g.n) if dead_w_mask >> j & 1)
    return has_perfect_matching(g, dead_u, dead_w)


def matching_extends(g: BipartiteGraph, matching: Matching) -> bool:
    """Whether the matching is contained in some perfect matching of g."""
    um = wm = 0
    for i, j in matching.edges:
        um |= 1 << i
        wm |= 1 << j
    return _has_pm_masked(g, um, wm)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_matchings(g: BipartiteGraph, k: int) -> Iterator[Matching]:
    """Stream every matching of size k, each exactly once, in lexicographic
    order of the sorted edge list."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in 0..{g.n}, got {k}")
    edges = g.sorted_edges()

    def rec(start: int, chosen: list, used_u: int, used_w: int):
        if len(chosen) == k:
            yield Matching(frozenset(chosen), g)
            return
        for idx in range(start, len(edges)):
            if len(edges) - idx < k - len(chosen):
                break
            i, j = edges[idx]
            if used_u >> i & 1 or used_w >> j & 1:
                continue
            chosen.append((i, j))
            yield from rec(idx + 1, chosen, used_u | 1 << i, used_w | 1 << j)
            chosen.pop()

    yield from rec(0, [], 0, 0)


def perfect_matchings(g: BipartiteGraph) -> Iterator[Matching]:
    return enumerate_matchings(g, g.n)


def first_perfect_matching(g: BipartiteGraph, pairs: dict | None = None) -> Matching | None:
    """The lexicographically first perfect matching, or None.  Greedy: for
    u_1, u_2, ... take the smallest w that still leaves a perfect matching
    of the rest.  A trial gives u_i the column w_j and lets w_j's owner
    augment (``_augment``) to u_i's old column, with the columns of
    u_1..u_i seen, so only the rows after u_i move.  A failed search
    leaves the matching untouched, so two entries undo the trial.  The
    result does not depend on the maximum matching it starts from: pairs,
    as ``max_matching_pairs`` returns it, when the caller holds one."""
    if pairs is None:
        pairs = max_matching_pairs(g)
    if len(pairs) < g.n:
        return None
    adj = [g.u_neighbors(i) for i in range(g.n)]
    match_w = {j: i for i, j in pairs.items()}
    fixed: set = set()
    for i in range(g.n):
        c = next(j for j in adj[i] if match_w[j] == i)
        for j in adj[i]:
            if j == c:
                break
            r = match_w[j]
            if r > i:
                match_w[j] = i
                del match_w[c]
                if _augment(adj, match_w, r, fixed | {j}):
                    break
                match_w[j], match_w[c] = r, i
        fixed.add(j)
    return Matching(frozenset((i, j) for j, i in match_w.items()), g)


COUNT_BUDGET = 24  # largest elementary component order whose matchings are counted


def count_perfect_matchings(g: BipartiteGraph, comap=None) -> int:
    """Exact count: 0 without a perfect matching, else the product of the
    counts of the elementary components, each by Glynn's formula.

    Product rule.  Every perfect matching uses only allowed edges, and
    each allowed edge is a fixed double edge or lies inside one elementary
    component (``extendability.elementary_components``).  So a perfect
    matching of G is a choice of one perfect matching per elementary
    component, plus every fixed double edge, and #PM(G) is the product of
    the components' counts; a fixed double singleton counts 1.

    Glynn's identity.  For the c x c 0-1 matrix A of one component, with
    rows indexed from 0,

        sum over d in {+1, -1}^c with d_0 = +1 of
            (d_0 d_1 ... d_(c-1)) * prod_j (sum_i d_i a_ij)  =  2^(c-1) perm A.

    Expanding the product over the columns gives one term per map f from
    columns to rows, sign prod_i d_i^(1 + m_i) with m_i = |f^-1(i)|.
    Summed over d_i = +-1, a row i >= 1 gives 2 when m_i is odd and 0
    otherwise.  The c - 1 odd m_i with i >= 1 sum to at most c and to
    c - 1 mod 2, so m_0 = 1 and every m_i = 1: only the c! bijections
    survive, each 2^(c-1) times.  The sum is 2^(c-1) perm A, so the final
    shift by c - 1 is exact.  ``_glynn`` visits the 2^(c-1) sign vectors
    a block at a time, the blocks in Gray-code order (Nijenhuis & Wilf),
    and multiplies out only the terms without a zero column sum.

    comap is ``elementary_components(g, m)`` for a perfect matching m,
    when the caller holds one.  Time: per elementary component of order c,
    2^(c-1) terms, of which only the survivors cost a product of c column
    sums, plus O(c) big-int operations per block of 2^b terms, b about
    c/2 (``_inner_rows``).  Memory: O(2^b c^2) bytes per component."""
    if comap is None:
        from .extendability import elementary_components

        m = max_matching(g)
        if not m.is_perfect:
            return 0
        comap = elementary_components(g, m)
    return prod(_glynn(piece) for piece in comap.elementary)


# A column sum s of an order c <= 127 is held as the byte 127 + s.
_ABS = bytes(range(127, 0, -1)) + bytes(range(129))  # 127 + s -> |s|
_IS_ZERO = bytes(127) + b"\x01" + bytes(128)  # s == 0 -> 1
_IS_NEG = b"\x01" * 127 + bytes(129)  # s < 0 -> 1
_HALF = bytes(v // 2 for v in range(256))
_NONZERO = b"\x00" + b"\x01" * 255
_ODD = b"\x00\x01" * 128
_SWAP01 = b"\x01\x00" + bytes(254)


def _inner_rows(c: int) -> int:
    """b, the rows after row 0 that form ``_glynn``'s inner block: all of
    them up to order 8, then about half.  A wider block costs 2^b set-up,
    a narrower one more outer steps of c mask lookups each; this split was
    at or near the fastest measured at each order from 2 to 20."""
    return min(c - 1, max(7, c // 2 + 1))


def _glynn(piece) -> int:
    """perm A for the c x c matrix A of one elementary piece, by the sum in
    ``count_perfect_matchings``, a block of sign vectors at a time.

    Packing.  Column sum j, offset by 127, is byte j of one int; flipping
    d_k subtracts twice row k packed the same way (``step[k]``).  A sum
    stays in [127 - c, 127 + c], so no byte borrows up to c = 127; a
    larger order would need 2^127 or more terms.

    Blocking.  Rows 1..b, b = ``_inner_rows(c)``, form the inner block, and
    the outer loop visits the sign vectors of rows b+1..c-1 in Gray-code
    order.  Flipping the inner rows of a set x turns column sum S_j (every
    inner d_i = +1) into S_j - 2 f_j(x), f_j(x) the rows of x adjacent to
    column j.  So term x has a zero sum when some f_j(x) = S_j / 2, and
    its sign is (-1)^|x| times the outer sign times -1 per column with
    f_j(x) > S_j / 2.  S_j is column j's degree less twice the number g_j
    of its outer rows flipped, so per column and per g_j the dead and the
    negative states are a fixed mask over x, one byte per state; all of
    them are tabulated once from the packed sums of every block state.
    Each outer step ORs the c dead masks and XORs the c sign masks of its
    g_j, and only the surviving terms pay a ``to_bytes``, a ``translate``
    to absolute values and a product, added or subtracted by their sign
    mask.  Up to order 8 the block is every row but row 0, so there is a
    single step, and the zero and negative sums of each state are counted
    over all columns at once instead of per column.

    2^(c-1) terms, products only for the survivors, 2^(c-1-b) outer steps;
    the block's 2^b packed offsets and at most 2c (c - b) masks of 2^b
    bytes, O(2^b c^2) bytes of memory."""
    c = len(piece.scc)
    if c > 127:
        raise ValueError(f"elementary component of order {c}: "
                         f"Glynn's sum would need 2^{c - 1} terms")
    row = dict(zip(sorted(piece.u_vertices), range(c)))
    bit = dict(zip(sorted(piece.w_vertices), [2 << s for s in range(0, 8 * c, 8)]))
    step = [0] * c
    for i, j in piece.edges:
        step[row[i]] += bit[j]
    col0 = col = sum(step) // 2 + int.from_bytes(b"\x7f" * c, "little")  # every d_i = +1
    b = _inner_rows(c)
    # deltas[x]: the packed offset of inner state x; flat: all of them, c
    # bytes each; rep: a 1 in the first byte of each; odd: 1 for odd |x|
    deltas, flat, rep, odd = [0], 0, 1, b"\x00"
    for s in step[1:b + 1]:
        w = 8 * c * len(deltas)
        flat |= (flat + s * rep) << w
        rep |= rep << w
        deltas += [d + s for d in deltas]
        odd += odd.translate(_SWAP01)
    size = len(deltas)
    n = size * c
    full = int.from_bytes(b"\x01" * size, "little")
    sums = (col0 * rep - flat).to_bytes(n, "little")  # every state's sums, c bytes each
    odd = int.from_bytes(odd, "little")
    if b == c - 1:
        # one block: multiplying by ones adds up each state's c bytes into
        # its last one, which counts its zero and its negative sums
        ones = int.from_bytes(b"\x01" * c, "little")
        zeros = int.from_bytes(sums.translate(_IS_ZERO), "little") * ones
        negs = int.from_bytes(sums.translate(_IS_NEG), "little") * ones
        dead = int.from_bytes(zeros.to_bytes(n + c, "little")[c - 1:n:c].translate(_NONZERO),
                              "little")
        odd ^= int.from_bytes(negs.to_bytes(n + c, "little")[c - 1:n:c].translate(_ODD), "little")
        dead_by = neg_by = ()
    else:
        # per column, its dead and negative masks indexed by g_j
        outer = (sum(step[b + 1:]) // 2).to_bytes(c, "little")  # outer rows per column
        by_g = [sums]
        for g in range(1, max(outer) + 1):
            capped = outer.translate(bytes(range(g)) + bytes([g]) * (256 - g))
            colg = col0 - 2 * int.from_bytes(capped, "little")
            by_g.append((colg * rep - flat).to_bytes(n, "little"))
        cols = [[s[j::c] for s in by_g[:outer[j] + 1]] for j in range(c)]
        dead_by = [[int.from_bytes(p.translate(_IS_ZERO), "little") for p in per] for per in cols]
        neg_by = [[int.from_bytes(p.translate(_IS_NEG), "little") for p in per] for per in cols]
        dead = 0
    signs = (odd, odd ^ full)  # negative terms after an even, an odd number of outer flips
    total = 0
    for t in range(1 << (c - 1 - b)):
        if t:
            k = b + (t & -t).bit_length()  # Gray code: flip d_k, an outer row
            col -= step[k]
            step[k] = -step[k]
        flips = (col0 - col).to_bytes(c, "little").translate(_HALF)  # g_j per column
        alive = full ^ reduce(or_, map(getitem, dead_by, flips), dead)
        neg = alive & reduce(xor, map(getitem, neg_by, flips), signs[t & 1])
        total += sum([prod((col - d).to_bytes(c, "little").translate(_ABS))
                      for d in compress(deltas, (alive ^ neg).to_bytes(size, "little"))])
        total -= sum([prod((col - d).to_bytes(c, "little").translate(_ABS))
                      for d in compress(deltas, neg.to_bytes(size, "little"))])
    return total >> (c - 1)


# ---------------------------------------------------------------------------
# fixed / non-fixed edge classification


@dataclass(frozen=True)
class EdgeClassification:
    """Partition of E(G) into fixed-single, fixed-double and non-fixed edges.

    A fixed single edge lies in no perfect matching, a fixed double edge in
    all of them.
    """

    graph: BipartiteGraph
    fixed_single: frozenset
    fixed_double: frozenset
    nonfixed: frozenset

    @property
    def counts(self) -> dict[str, int]:
        return {
            "fixed_single": len(self.fixed_single),
            "fixed_double": len(self.fixed_double),
            "allowed_nonfixed": len(self.nonfixed),
        }


def classify_edges(g: BipartiteGraph) -> EdgeClassification:
    """Classify every edge.  Requires at least one perfect matching.

    Read off the elementary components: the fixed double edges are the
    singleton pieces, the non-fixed edges are the edges of the elementary
    pieces, and the fixed single edges are the rest.
    """
    from .extendability import elementary_components

    cm = elementary_components(g)
    double = frozenset().union(*(p.edges for p in cm.fixed_double_singletons))
    nonfixed = frozenset().union(*(p.edges for p in cm.elementary))
    return EdgeClassification(g, cm.fixed_single_edges, double, nonfixed)


# ---------------------------------------------------------------------------
# unique perfect matching => derived digraph is acyclic


@dataclass(frozen=True)
class AcyclicCheckReport:
    graph: BipartiteGraph
    acyclic: bool
    topological_order: tuple


def unique_pm_acyclic_check(g: BipartiteGraph) -> AcyclicCheckReport:
    """For a graph with exactly one perfect matching, derive the digraph and
    certify it acyclic with a topological order of its vertices.

    One maximum matching M and one D(G, M) serve: by the paper's
    correspondence the perfect matching is unique iff M is perfect and
    every strong component of D(G, M), which has no loops, is a single
    vertex, and those components, taken once, are the topological order.
    Only a failing check builds the component map, for its error message:
    the count runs only while every elementary component is within
    ``COUNT_BUDGET``; past it the message names the largest order
    instead."""
    from .connectivity import strong_components
    from .correspond import digraph_of
    from .extendability import elementary_components

    m = max_matching(g)
    if m.is_perfect:
        d, _ = digraph_of(g, m)
        comps = strong_components(d)
        if all(len(c) == 1 for c in comps):
            return AcyclicCheckReport(g, True, tuple(min(c) for c in comps))
    comap = elementary_components(g, m) if m.is_perfect else None
    order = 0 if comap is None else max(len(p.scc) for p in comap.elementary)
    if order > COUNT_BUDGET:
        count = f"more than one perfect matching (elementary component of order {order})"
    else:
        count = f"{0 if comap is None else count_perfect_matchings(g, comap)} perfect matchings"
    raise ValueError(f"graph has {count}, expected exactly 1")


# ---------------------------------------------------------------------------
# symmetric difference of two matchings


@dataclass(frozen=True)
class AltComponent:
    """One component of M1 (symmetric difference) M2: an alternating cycle
    or path, as a tagged vertex walk with its edge sequence."""

    kind: str  # "cycle" | "path"
    vertices: tuple
    edges: tuple


def symmetric_difference(m1: Matching, m2: Matching) -> tuple[AltComponent, ...]:
    """Decompose M1 (symmetric difference) M2 into alternating cycles and paths.

    Every vertex of the difference subgraph has degree at most 2, so the
    components are exactly paths and even cycles.
    """
    if m1.host != m2.host:
        raise ValueError("matchings have different host graphs")
    diff = m1.edges ^ m2.edges
    if not diff:
        return ()
    adj: dict[tuple, list] = {}
    for i, j in sorted(diff):
        adj.setdefault(("u", i), []).append(("w", j))
        adj.setdefault(("w", j), []).append(("u", i))

    def edge_of(a, b):
        return (a[1], b[1]) if a[0] == "u" else (b[1], a[1])

    visited = set()

    def fresh(v):
        return any(frozenset((v, nb)) not in visited for nb in adj[v])

    def walk_from(start):
        walk = [start]
        while True:
            here = walk[-1]
            nxt = None
            for nb in adj[here]:
                if frozenset((here, nb)) not in visited:
                    nxt = nb
                    break
            if nxt is None:
                return walk
            visited.add(frozenset((here, nxt)))
            walk.append(nxt)

    comps = []
    # paths start at degree-1 endpoints; whatever remains closes into cycles
    for start in sorted(adj):
        if len(adj[start]) == 1 and fresh(start):
            walk = walk_from(start)
            comps.append(AltComponent(
                "path", tuple(walk),
                tuple(edge_of(walk[t], walk[t + 1]) for t in range(len(walk) - 1))))
    for start in sorted(adj):
        if fresh(start):
            walk = walk_from(start)
            comps.append(AltComponent(
                "cycle", tuple(walk),
                tuple(edge_of(walk[t], walk[t + 1]) for t in range(len(walk) - 1))))
    return tuple(comps)


def flip_alternating_cycle(m: Matching, cycle_edges) -> Matching:
    """Symmetric difference of a perfect matching with one alternating cycle;
    yields another perfect matching."""
    edges = set(m.edges)
    for e in cycle_edges:
        e = tuple(e)
        if e in edges:
            edges.remove(e)
        else:
            edges.add(e)
    return Matching(frozenset(edges), m.host)
