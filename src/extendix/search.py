"""Exhaustive searches for minimal instances and for the one-way failure of
minimality transfer.

One sweep over digraphs serves all three.  B(D), the graph with the
canonical matching whose derived digraph is D, is k-extendable iff D is
k-strong, and deleting its non-matching edge u_a w_b deletes the arc
(a, b) of D.  So B(D) is minimal k-extendable iff D is minimal k-strong
and no matching edge of B(D) is deletable; a deletable one shows that
minimality does not transfer back from D to B(D).

The sweep works on neighbourhood bitmasks, and every reach in it is
``connectivity._reach``, the search ``strong_components`` runs; what it
finds leaves as the ordinary types.  It picks the out-neighbourhood rows of D one vertex at
a time, each of at least k bits, and prunes on the running arc count (at
most 2(n-1) arcs for k = 1) and, for k = 1, on rows that close a
transitive triangle; a leaf that leaves some in-degree below k is
dropped before any strongness test.  For k = 1 minimality costs one
reach per arc (``_is_minimal_k_strong``).  Whether a matching edge u_i w_i
of B(D) is deletable is decided without a flow or a matching: B(D) - u_i
w_i has a perfect matching rotated along a cycle of D through i, and its
digraph is k-strong iff the graph is k-extendable
(``_extendable_without_matching_edge``).  At n = 5, k = 1 the sweep
tests 8,109 sets of rows and keeps 1,069 digraphs, and the transfer
makes 3,265 ``_mask_k_strong`` calls on them, at most n per digraph.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from .connectivity import _reach, _rows
from .core import BipartiteGraph, Digraph, TooLargeError, _off_diagonal_cells
from .correspond import bipartite_of_digraph

# Without an arc cap (k >= 2) the sweep stops at n = 4; for k = 1 the cap
# of 2(n-1) arcs lets it reach n = 5.
_MASK_N_MAX = 4


def _largest_n(k: int) -> int:
    return _MASK_N_MAX + 1 if k == 1 else _MASK_N_MAX


# ---------------------------------------------------------------------------
# bitmask k-strong connectivity


def _mask_k_strong(outs: list[int], ins: list[int], k: int) -> bool:
    """For the small k used in sweeps: n >= k + 1 and D - S strong for every
    vertex set S of size below k, so no mask is 0.  O(n^(k-1) (n + m))."""
    n = len(outs)
    if n < k + 1 or 0 in outs or 0 in ins:
        return False
    for size in range(k):
        for removed in combinations(range(n), size):
            keep = (1 << n) - 1 - sum(1 << v for v in removed)
            start = (keep & -keep).bit_length() - 1
            if (_reach(outs, start, keep) != keep
                    or _reach(ins, start, keep) != keep):
                return False
    return True


def _in_rows(outs: list[int]) -> list[int]:
    """The in-neighbourhood rows of the digraph with out-rows ``outs``."""
    ins = [0] * len(outs)
    for a, row in enumerate(outs):
        while row:
            bit = row & -row
            row ^= bit
            ins[bit.bit_length() - 1] |= 1 << a
    return ins


def _is_minimal_k_strong(outs: list[int], k: int) -> bool:
    """k-strong, and not k-strong after any single-arc deletion, which
    clears one bit of ``outs`` and sets it back.

    For k = 1 each deletion costs one reach, by a lemma: if D is strong,
    D - (a, b) is strong iff b is reachable from a in D - (a, b).  The
    condition is needed, and if a path P from a to b avoids (a, b), every
    walk of D through (a, b) can take P instead, so D - (a, b) keeps the
    reachability of D.  Such a path rules D out whether or not D is
    strong, so the backward half of the strongness test waits until every
    arc has failed it.  For k >= 2 the deletion also flips one bit of
    ``ins``, and ``_mask_k_strong`` decides; there a leaf with an
    in-degree below k is dropped first."""
    full = (1 << len(outs)) - 1
    if k == 1:
        if _reach(outs, 0, full) != full:
            return False
    else:
        ins = _in_rows(outs)
        if min(row.bit_count() for row in ins) < k or not _mask_k_strong(outs, ins, k):
            return False
    for a, row in enumerate(outs):
        rest = row
        while rest:
            bit = rest & -rest
            rest ^= bit
            outs[a] = row ^ bit
            if k == 1:
                deletable = _reach(outs, a, full) & bit
            else:
                b = bit.bit_length() - 1
                ins[b] ^= 1 << a
                deletable = _mask_k_strong(outs, ins, k)
                ins[b] ^= 1 << a
            outs[a] = row
            if deletable:
                return False
    return k > 1 or _reach(_in_rows(outs), 0, full) == full


def _extendable_without_matching_edge(outs: list[int], i: int, k: int) -> bool:
    """Whether G' = B(D) - u_i w_i is k-extendable, for D strong with
    out-rows ``outs``, decided on one rotated digraph and no flow.

    Let C be a shortest cycle of D through i (breadth-first from i, with
    parents), and sigma the permutation that moves each vertex of C to its
    successor on C and fixes the rest.  Then M_C = {u_a w_sigma(a)} is a
    perfect matching of G': for a on C, u_a w_sigma(a) is the edge of the
    arc (a, sigma(a)), and for a off C it is the matching edge u_a w_a,
    a != i.  In D(G', M_C) vertex a stands for u_a w_sigma(a), and a -> b
    (b != a) is an arc iff u_a is adjacent in G' to w_sigma(b), the
    partner of u_b; so the out-row of a is sigma^-1(N_G'(u_a)) - {a},
    where N_G'(u_a) is outs[a] plus a itself unless a = i.  G' is
    k-extendable iff D(G', M_C) is k-strong, by the paper's theorem that
    holds for every perfect matching.  O(n^2) for the rotation, then one
    ``_mask_k_strong``."""
    n = len(outs)
    parent = [-1] * n
    seen = 1 << i
    queue = [i]
    for v in queue:
        if outs[v] >> i & 1:
            break
        rest = outs[v] & ~seen
        seen |= rest
        while rest:
            bit = rest & -rest
            rest ^= bit
            parent[bit.bit_length() - 1] = v
            queue.append(bit.bit_length() - 1)
    back = list(range(n))  # sigma^-1
    back[i] = v
    while v != i:
        back[v] = parent[v]
        v = parent[v]
    rotated = [0] * n
    for a in range(n):
        nbrs = outs[a] if a == i else outs[a] | 1 << a
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            rotated[a] |= 1 << back[bit.bit_length() - 1]
        rotated[a] &= ~(1 << a)
    return _mask_k_strong(rotated, _in_rows(rotated), k)


# ---------------------------------------------------------------------------
# the sweep


def minimal_k_strong_digraphs(n: int, k: int) -> Iterator[Digraph]:
    """All minimal k-strong digraphs on n labelled vertices, exhaustively.

    The rows outs[0..n-1] are picked depth first, each a set of at least
    k other vertices.  The running arc count prunes: the rows still to
    pick need k arcs each, and for k = 1 the total is capped at 2(n-1),
    since a minimal strong digraph admits no single-arc ear, so every ear
    beyond the base cycle brings a new vertex.

    For k = 1 no row is taken that closes a transitive triangle a -> c,
    c -> b, a -> b with the rows already fixed.  The detour a -> c -> b
    makes the arc (a, b) deletable (the lemma in
    ``_is_minimal_k_strong``), and later rows only add arcs, so the
    detour stays in every completion and none of them is minimal.  At
    the node of vertex v two masks find such rows: the union of outs[a]
    over the fixed a with a -> v (triangles a -> v -> b), and for each c
    in the row, outs[c] (triangles v -> c -> b).  Rows of vertices not
    yet fixed are 0, since each node clears its row when its loop ends.
    k >= 2 has no such rule: a minimal 2-strong digraph can hold a
    transitive triangle.

    A leaf whose rows leave some vertex without an in-arc is dropped
    before ``_is_minimal_k_strong`` runs.  The hits are sorted
    into the order of the exhaustive walks: the mask order of
    ``iter_digraphs`` up to n = 4 (where the tests corroborate the cap
    against every digraph), and at n = 5 (arc count, lexicographic cell
    tuple), the order of ``combinations`` over the off-diagonal cells.
    At n = 5, k = 1, 16,789 triangle-free sets of rows fit the cap, 8,109
    give every vertex an in-arc, and 1,069 are minimal strong.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n > _largest_n(k):
        raise TooLargeError(f"exhaustive sweep for k {'= 1' if k == 1 else '>= 2'} "
                            f"is guarded to n <= {_largest_n(k)}")
    if n <= k:
        return
    cap = 2 * (n - 1) if k == 1 else n * (n - 1)
    full = (1 << n) - 1
    choices = [sorted(((row.bit_count(), row, [c for c in range(n) if row >> c & 1])
                       for row in range(1 << n)
                       if not row >> v & 1 and row.bit_count() >= k))
               for v in range(n)]
    outs = [0] * n  # rows not yet picked stay 0
    hits = []

    def pick(v: int, arcs: int, union: int) -> None:
        spare = cap - arcs - k * (n - 1 - v)
        ban = 0  # k = 1: the heads b of the triangles a -> v -> b, a -> b
        if k == 1:
            for a in range(v):
                if outs[a] >> v & 1:
                    ban |= outs[a]
        for size, row, heads in choices[v]:
            if size > spare:
                break
            if k == 1:
                shut = ban  # ... and of the triangles v -> c -> b, v -> b
                for c in heads:
                    shut |= outs[c]
                if shut & row:
                    continue
            outs[v] = row
            if v < n - 1:
                pick(v + 1, arcs + size, union | row)
            elif union | row == full and _is_minimal_k_strong(outs, k):
                hits.append([(a, b) for a in range(n) for b in range(n)
                             if outs[a] >> b & 1])
        outs[v] = 0

    pick(0, 0, 0)
    del pick  # pick holds itself through its closure; free the sweep's lists now
    if n > _MASK_N_MAX:  # each arc list is in cell order already
        hits.sort(key=lambda arcs: (len(arcs), arcs))
    else:
        index = {c: b for b, c in enumerate(_off_diagonal_cells(n))}
        hits.sort(key=lambda arcs: sum(1 << index[c] for c in arcs))
    for arcs in hits:
        yield Digraph(n, frozenset(arcs))


def _transfers(n: int, k: int) -> Iterator[tuple]:
    """(D, edge) for every minimal k-strong D on n vertices: edge is the
    first matching edge (i, i) whose deletion leaves B(D) k-extendable, or
    None when B(D) is minimal k-extendable.  No non-matching edge is
    deletable, so this is the first deletable edge of B(D) overall.  Each
    matching edge costs one ``_extendable_without_matching_edge``, so at
    most n ``_mask_k_strong`` calls per D; B(D) itself is left to the
    callers, which build it only for the digraphs they list."""
    for d in minimal_k_strong_digraphs(n, k):
        outs = _rows(d)[0]
        edge = next(((i, i) for i in range(n)
                     if _extendable_without_matching_edge(outs, i, k)), None)
        yield d, edge


def minimal_k_extendable_graphs(n: int, k: int) -> Iterator[BipartiteGraph]:
    """All minimal k-extendable graphs on n+n vertices that contain the
    canonical matching, in the order of ``iter_bipartite_with_canonical``.
    Every graph with a perfect matching is a W-relabelling of such a graph,
    so degree-profile audits lose nothing.
    """
    if n > _MASK_N_MAX:
        raise TooLargeError(f"exhaustive bipartite sweep is guarded to n <= {_MASK_N_MAX}")
    for d, edge in _transfers(n, k):
        if edge is None:
            yield bipartite_of_digraph(d)[0]


def find_minimality_counterexamples(n_max: int, k: int = 1,
                                    limit: int = 1) -> list[tuple]:
    """Minimal k-strong digraphs D whose bipartite graph B(D) is not
    minimal k-extendable, listed as (digraph, graph, deletable matching
    edge).  Sizes beyond the sweep guard are skipped silently (the small
    hits appear long before it binds).
    """
    hits = (hit for n in range(2, min(n_max, _largest_n(k)) + 1)
            for hit in _transfers(n, k) if hit[1] is not None)
    return [(d, bipartite_of_digraph(d)[0], edge) for d, edge in islice(hits, limit)]
