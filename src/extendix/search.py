"""Exhaustive searches for minimal instances and for the one-way failure of
minimality transfer.

One sweep over digraphs serves all three.  B(D), the graph with the
canonical matching whose derived digraph is D, is k-extendable iff D is
k-strong, and deleting its non-matching edge u_a w_b deletes the arc
(a, b) of D.  So B(D) is minimal k-extendable iff D is minimal k-strong
and no matching edge of B(D) is deletable; a deletable one shows that
minimality does not transfer back from D to B(D).  The sweep works on
neighbourhood bitmasks; what it finds leaves as the ordinary types.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from .core import BipartiteGraph, Digraph, TooLargeError, _off_diagonal_cells
from .correspond import bipartite_of_digraph
from .extendability import is_k_extendable

# The walk over all 2^(n^2-n) arc sets stops at n = 4; for k = 1 the sweep
# reaches n = 5 by enumerating only n..2(n-1) arcs.
_MASK_N_MAX = 4


def _largest_n(k: int) -> int:
    return _MASK_N_MAX + 1 if k == 1 else _MASK_N_MAX


# ---------------------------------------------------------------------------
# bitmask k-strong connectivity


def _mask_reach(nbrs: list[int], start: int, keep: int) -> int:
    """The vertices of ``keep`` reachable from ``start`` inside ``keep``."""
    reach = frontier = 1 << start
    while frontier:
        new = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new |= nbrs[bit.bit_length() - 1]
        frontier = new & keep & ~reach
        reach |= frontier
    return reach


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
            if (_mask_reach(outs, start, keep) != keep
                    or _mask_reach(ins, start, keep) != keep):
                return False
    return True


def _is_minimal_k_strong_arcs(n: int, arcs, k: int) -> bool:
    """k-strong, and not k-strong after any single-arc deletion, which flips
    one bit of ``outs`` and one of ``ins`` and then flips them back."""
    outs = [0] * n
    ins = [0] * n
    for a, b in arcs:
        outs[a] |= 1 << b
        ins[b] |= 1 << a
    if not _mask_k_strong(outs, ins, k):
        return False
    for a, b in arcs:
        outs[a] ^= 1 << b
        ins[b] ^= 1 << a
        deletable = _mask_k_strong(outs, ins, k)
        outs[a] ^= 1 << b
        ins[b] ^= 1 << a
        if deletable:
            return False
    return True


# ---------------------------------------------------------------------------
# the sweep


def minimal_k_strong_digraphs(n: int, k: int) -> Iterator[Digraph]:
    """All minimal k-strong digraphs on n labelled vertices, exhaustively.

    For k = 1 and n = 5 the sweep enumerates arc sets of size n..2(n-1)
    only: a minimal strong digraph admits no single-arc ear, so every ear
    beyond the base cycle brings a new vertex, which caps the arc count at
    2(n-1).  Up to n = 4 it walks all 2^(n^2-n) digraphs in the order of
    ``iter_digraphs`` (and corroborates the cap in the tests).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n > _largest_n(k):
        raise TooLargeError(f"exhaustive sweep for k {'= 1' if k == 1 else '>= 2'} "
                            f"is guarded to n <= {_largest_n(k)}")
    cells = _off_diagonal_cells(n)
    if n > _MASK_N_MAX:
        arc_sets = (chosen for m in range(n, 2 * n - 1)
                    for chosen in combinations(cells, m))
    else:
        arc_sets = (tuple(c for b, c in enumerate(cells) if mask >> b & 1)
                    for mask in range(1 << len(cells)))
    for chosen in arc_sets:
        if _is_minimal_k_strong_arcs(n, chosen, k):
            yield Digraph(n, frozenset(chosen))


def _transfers(n: int, k: int) -> Iterator[tuple]:
    """(D, B(D), edge) for every minimal k-strong D on n vertices: edge is
    the first matching edge (i, i) whose deletion leaves B(D) k-extendable,
    or None when B(D) is minimal k-extendable.  No non-matching edge is
    deletable, so this is the first deletable edge of B(D) overall."""
    for d in minimal_k_strong_digraphs(n, k):
        g, _, _ = bipartite_of_digraph(d)
        edge = next(((i, i) for i in range(n)
                     if is_k_extendable(g.without_edge((i, i)), k)), None)
        yield d, g, edge


def minimal_k_extendable_graphs(n: int, k: int) -> Iterator[BipartiteGraph]:
    """All minimal k-extendable graphs on n+n vertices that contain the
    canonical matching, in the order of ``iter_bipartite_with_canonical``.
    Every graph with a perfect matching is a W-relabelling of such a graph,
    so degree-profile audits lose nothing.
    """
    if n > _MASK_N_MAX:
        raise TooLargeError(f"exhaustive bipartite sweep is guarded to n <= {_MASK_N_MAX}")
    for _, g, edge in _transfers(n, k):
        if edge is None:
            yield g


def find_minimality_counterexamples(n_max: int, k: int = 1,
                                    limit: int = 1) -> list[tuple]:
    """Minimal k-strong digraphs D whose bipartite graph B(D) is not
    minimal k-extendable, listed as (digraph, graph, deletable matching
    edge).  Sizes beyond the sweep guard are skipped silently (the small
    hits appear long before it binds).
    """
    hits = (hit for n in range(2, min(n_max, _largest_n(k)) + 1)
            for hit in _transfers(n, k) if hit[2] is not None)
    return list(islice(hits, limit))
