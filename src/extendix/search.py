"""Exhaustive searches for minimal instances and for the one-way failure of
minimality transfer.

One sweep over digraphs serves all three.  B(D), the graph with the
canonical matching whose derived digraph is D, is k-extendable iff D is
k-strong, and deleting its non-matching edge u_a w_b deletes the arc
(a, b) of D.  So B(D) is minimal k-extendable iff D is minimal k-strong
and no matching edge of B(D) is deletable; a deletable one shows that
minimality does not transfer back from D to B(D).

The sweep works on neighbourhood bitmasks and defines no decision of
its own: every reach in it is ``connectivity._reach``, the search
``strong_components`` runs, every minimality test of D is
``connectivity._minimal_k_strong``, the body of ``is_minimal_k_strong``
on rows, and every matching-edge test is
``extendability._extendable_without_matching_edge``, the one that
``is_minimal_k_extendable`` runs.  For k = 1 it
builds every minimal strong digraph as a smaller one plus one ear
through new vertices, and accepts or rejects each ear with one bit test
(``_ear_ends``, ``_minimal_strong_rows``): at n = 5 it reads the 1,069
digraphs off 355 smaller ones with 3,400 reaches, and at n = 6 the
27,816 off 7,405 with 96,180 reaches.  For k >= 2 it picks the
out-neighbourhood rows of D one vertex at a time, each of at least k
bits; a row set that leaves some in-degree below k is dropped before
its minimality test.  Whether a matching edge u_i w_i of B(D) is
deletable is decided without a matching, and at k = 1 without a flow.
It is not when u_i or w_i keeps k or fewer edges in B(D) - u_i w_i.
Otherwise B(D) - u_i w_i has a perfect matching rotated along a cycle of
D through i, and its digraph is k-strong iff the graph is k-extendable
(``_extendable_without_matching_edge``, one ``_k_strong`` on the rotated
rows).  At n = 5, k = 1 the transfer
makes 845 ``_k_strong`` calls on the 1,069 digraphs, at most n per
digraph.  The sweep is guarded by the ``sweep_k1`` budget (n <= 6) for
k = 1 and by ``sweep`` (n <= 4) for k >= 2 and for the graph target.

Each hit leaves the sweep as the tuple of D's out-rows, in listing order
(``_minimal_k_strong_rows``, ``_minimal_k_extendable_rows``,
``_counterexample_rows``); B(D) is the same rows with the diagonal bit
set (``_with_diagonal``).  The ``search`` command prints every hit from
its rows; only the public functions build the ordinary types.
"""

from __future__ import annotations

from itertools import islice, permutations, product
from typing import Iterator

from .connectivity import _bits, _minimal_k_strong, _reach
from .core import BipartiteGraph, Digraph, TooLargeError, check_budget
from .extendability import _extendable_without_matching_edge


# ---------------------------------------------------------------------------
# rows


def _in_rows(outs: list[int]) -> list[int]:
    """The in-neighbourhood rows of the digraph with out-rows ``outs``."""
    ins = [0] * len(outs)
    for a, row in enumerate(outs):
        while row:
            bit = row & -row
            row ^= bit
            ins[bit.bit_length() - 1] |= 1 << a
    return ins


def _bit_lists(n: int) -> list[list[int]]:
    """``_bits(row)`` for every row on n vertices, indexed by the row."""
    return [_bits(row) for row in range(1 << n)]


# ---------------------------------------------------------------------------
# the sweep


def _ear_ends(outs: list[int], ins: list[int], keep: int) -> list[int]:
    """For a minimal strong digraph D' on the vertex set ``keep`` (rows of
    other vertices 0): ``forbidden[x]``, the mask of the ends y for which
    D' plus an ear x -> t_1 -> ... -> t_r -> y through new vertices is not
    minimal strong.

    For each arc e = (a, b) of D', A_e is what a reaches in D' - e and B_e
    what reaches b there; every x in A_e forbids every y in B_e.  Exact
    (see ``_minimal_strong_rows``).  Two reaches per arc, so O(m'(n + m'))."""
    forbidden = [0] * len(outs)
    for a, row in enumerate(outs):
        rest = row
        while rest:
            bit = rest & -rest
            rest ^= bit
            b = bit.bit_length() - 1
            outs[a] = row ^ bit
            ins[b] ^= 1 << a
            tails = _reach(outs, a, keep)
            heads = _reach(ins, b, keep)
            ins[b] ^= 1 << a
            outs[a] = row
            while tails:
                x = tails & -tails
                tails ^= x
                forbidden[x.bit_length() - 1] |= heads
    return forbidden


def _minimal_strong_rows(n: int) -> set[tuple[int, ...]]:
    """The out-row tuples of all minimal strong digraphs on {0..n-1}, built
    by ears, for n >= 2.

    Every minimal strong D on a vertex set S, |S| >= 2, is D' + P: D' a
    minimal strong digraph on a proper subset S' of S, and P an ear
    x -> t_1 -> ... -> t_r -> y with x, y in S' (x = y allowed) whose inner
    vertices are S - S' in some order, r >= 1.  The bases D' are taken
    bottom-up by vertex set, from the single vertices, and each ear is
    accepted iff bit y of ``_ear_ends``'s ``forbidden[x]`` is clear.  A
    digraph with several removable last ears is built once per ear, so
    the digraphs of each vertex set are collected as a set.

    Lemma A: if D is strong, D - (a, b) is strong iff b is reachable from
    a in D - (a, b).  The condition is needed, and if a path Q from a to b
    avoids (a, b), every walk of D through (a, b) can take Q instead.

    Every D arises.  Take an ear decomposition of D.  Its last ear has an
    inner vertex, since a one-arc ear would be a deletable arc.  Removing
    those inner vertices leaves D', which is strong, and minimal: were
    D' - e strong, D - e would be D' - e plus an ear, strong too.

    The bit test is exact.  D' + P is strong.  Each arc of P is
    essential, since each inner vertex has in- and out-degree 1.  For an
    arc e = (a, b) of D', a path from a to b in D - e cannot stay in D' - e,
    because e is essential in D' (Lemma A).  So it runs through P,
    entering only at x and leaving only at y, which it can iff x is in A_e
    and y in B_e; by Lemma A again, e is deletable from D' + P exactly
    then.

    Time: summed over the bases D' on S', with c = n - |S'|, 2 m' reaches
    of O(n + m') and at most e c! |S'|^2 bit tests (c!/(c - r)! orders of r
    inner vertices, for each r <= c), each accepted ear an O(n) copy of
    the rows.  Exponential in n, so guarded by the ``sweep_k1`` budget:
    0.2 s at n = 6 on a Xeon vCPU with Python 3.11."""
    full = (1 << n) - 1
    found = {1 << v: {(0,) * n} for v in range(n)}  # by vertex set
    for keep in sorted(range(1, full), key=int.bit_count):
        spare = full ^ keep
        ears = []  # (vertex set, first inner vertex's bit, last inner vertex, path rows)
        inner = spare
        while inner:  # every nonempty subset of the vertices not in keep
            vertices = [v for v in range(n) if inner >> v & 1]
            for order in permutations(vertices):
                ears.append((keep | inner, 1 << order[0], order[-1],
                             [(t, 1 << u) for t, u in zip(order, order[1:])]))
            inner = (inner - 1) & spare
        ends = [x for x in range(n) if keep >> x & 1]
        for base in found.pop(keep):
            outs = list(base)
            forbidden = _ear_ends(outs, _in_rows(outs), keep)
            allowed = [(x, outs[x], [y for y in ends if not forbidden[x] >> y & 1])
                       for x in ends]
            for into, first, last, path in ears:
                built = found.setdefault(into, set())
                rows = list(base)
                for t, row in path:
                    rows[t] = row
                for x, row, ys in allowed:
                    rows[x] = row | first
                    for y in ys:
                        rows[last] = 1 << y
                        built.add(tuple(rows))
                    rows[x] = row
    return found[full]


def _row_walk(n: int, k: int) -> list[tuple[int, ...]]:
    """The out-rows of all minimal k-strong digraphs on {0..n-1}, for
    k >= 2, in no particular order: every choice of rows of at least k
    other vertices that gives every vertex an in-arc.  A row set that
    leaves some in-degree below k is dropped; the rest are tested by
    ``connectivity._minimal_k_strong``."""
    full = (1 << n) - 1
    choices = [[row for row in range(1 << n) if not row >> v & 1 and row.bit_count() >= k]
               for v in range(n)]
    hits = []
    for outs in product(*choices):
        union = 0
        for row in outs:
            union |= row
        if union == full:
            ins = _in_rows(outs)
            if min(map(int.bit_count, ins)) >= k and _minimal_k_strong(outs, ins, k).holds:
                hits.append(outs)
    return hits


def _listing_key(n: int):
    """The sort key of out-row tuples on n vertices that
    ``minimal_k_strong_digraphs`` documents.

    Above n = 4 it is (arc count, arc list): of two sorted arc lists of one
    length, the smaller holds the least cell in which they differ, which
    is the lowest differing bit of the first row in which they differ; bit
    reversal makes that bit the highest, so the row whose reversal is
    larger comes first.  Up to n = 4 it is the mask over the off-diagonal
    cells, row a holding bits a(n - 1) on with its own bit a left out."""
    if n > 4:
        full = (1 << n) - 1
        flip = [full - int(f"{row:0{n}b}"[::-1], 2) for row in range(1 << n)]
        return lambda outs: (sum(map(int.bit_count, outs)), [flip[row] for row in outs])
    return lambda outs: sum(((row & (1 << a) - 1) | (row >> a + 1) << a) << a * (n - 1)
                            for a, row in enumerate(outs))


def _minimal_k_strong_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """The out-row tuples of all minimal k-strong digraphs on {0..n-1} in
    the order of ``minimal_k_strong_digraphs``, after the budget check."""
    if k < 1:
        raise ValueError("k must be at least 1")
    check_budget("sweep_k1" if k == 1 else "sweep", n,
                 f"exhaustive sweep for k {'= 1' if k == 1 else '>= 2'}")
    if n <= k:
        return []
    hits = list(_minimal_strong_rows(n) if k == 1 else _row_walk(n, k))
    hits.sort(key=_listing_key(n))
    return hits


def _with_diagonal(outs) -> list[int]:
    """The u-rows of B(D) for D's out-rows, and its w-rows for D's in-rows:
    each row with its own bit set, the edge of the canonical matching."""
    return [row | 1 << a for a, row in enumerate(outs)]


def _pairs(rows) -> frozenset:
    """(a, b) for every bit b of rows[a]: D's arcs for its out-rows, B(D)'s
    edges for its u-rows."""
    return frozenset((a, b) for a, row in enumerate(rows) for b in _bits(row))


def minimal_k_strong_digraphs(n: int, k: int) -> Iterator[Digraph]:
    """All minimal k-strong digraphs on n labelled vertices, exhaustively:
    by ears for k = 1 (``_minimal_strong_rows``), by a walk over the
    out-neighbourhood rows for k >= 2 (``_row_walk``).

    The hits are sorted into the order of the exhaustive walks: the mask
    order of ``iter_digraphs`` up to n = 4 (where the tests corroborate
    both routes against every digraph), and above it (arc count,
    lexicographic cell tuple), the order of ``combinations`` over the
    off-diagonal cells.
    """
    for outs in _minimal_k_strong_rows(n, k):
        yield Digraph(n, _pairs(outs))


def _transfers(n: int, k: int) -> Iterator[tuple]:
    """(outs, edge) for every minimal k-strong D on n vertices, outs its
    out-rows: edge is the first matching edge (i, i) whose deletion leaves
    B(D) k-extendable, or None when B(D) is minimal k-extendable.  No
    non-matching edge is deletable, so this is the first deletable edge of
    B(D) overall.  Each i costs one ``_extendable_without_matching_edge``,
    the test ``is_minimal_k_extendable`` runs on its matching edges, which
    answers at once for an i of out- or in-degree at most k.

    Time: after the sweep, O(n + m) per D for its in-rows and at most n
    ``_extendable_without_matching_edge`` calls, so at most n
    ``_k_strong`` calls; one table of 2^n bit lists per call."""
    hits = _minimal_k_strong_rows(n, k)
    bits = _bit_lists(n)
    for outs in hits:
        ins = _in_rows(outs)
        edge = next(((i, i) for i in range(n)
                     if _extendable_without_matching_edge(outs, ins, i, k, bits)), None)
        yield outs, edge


def _minimal_k_extendable_rows(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The out-rows of every minimal k-strong D whose B(D) is minimal
    k-extendable, in the order of ``minimal_k_strong_digraphs``."""
    check_budget("sweep", n, "exhaustive bipartite sweep")
    return (outs for outs, edge in _transfers(n, k) if edge is None)


def _counterexample_rows(n: int, k: int) -> Iterator[tuple]:
    """(outs, edge) for every minimal k-strong D whose B(D) is not minimal
    k-extendable, outs its out-rows and edge the first deletable matching
    edge, in the order of ``minimal_k_strong_digraphs``."""
    return ((outs, edge) for outs, edge in _transfers(n, k) if edge is not None)


def minimal_k_extendable_graphs(n: int, k: int) -> Iterator[BipartiteGraph]:
    """All minimal k-extendable graphs on n+n vertices that contain the
    canonical matching, in the order of ``iter_bipartite_with_canonical``.
    Every graph with a perfect matching is a W-relabelling of such a graph,
    so degree-profile audits lose nothing.
    """
    for outs in _minimal_k_extendable_rows(n, k):
        yield BipartiteGraph(n, _pairs(_with_diagonal(outs)))


def minimality_counterexamples(n: int, k: int) -> Iterator[tuple]:
    """(D, edge) for every minimal k-strong digraph D on n vertices whose
    B(D) is not minimal k-extendable, edge being its first deletable
    matching edge, in the order of ``minimal_k_strong_digraphs``."""
    return ((Digraph(n, _pairs(outs)), edge) for outs, edge in _counterexample_rows(n, k))


def find_minimality_counterexamples(n_max: int, k: int = 1,
                                    limit: int = 1) -> list[tuple]:
    """Minimal k-strong digraphs D whose bipartite graph B(D) is not
    minimal k-extendable, listed as (digraph, graph, deletable matching
    edge).  Sizes beyond the sweep guard are skipped silently (the small
    hits appear long before it binds).
    """
    def hits():
        for n in range(2, n_max + 1):
            try:
                yield from _counterexample_rows(n, k)
            except TooLargeError:  # the first size past the guard ends the sweep
                return

    return [(Digraph(len(outs), _pairs(outs)),
             BipartiteGraph(len(outs), _pairs(_with_diagonal(outs))), edge)
            for outs, edge in islice(hits(), limit)]
