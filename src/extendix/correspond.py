"""The two-way translation between bipartite graphs with a perfect matching
and digraphs, plus the matrix forms on both sides.

Given G and a perfect matching M, the derived digraph has one vertex per
matching edge and one arc per non-matching edge: orient every edge of G
towards W, then contract all of M.  Equivalently, permute W so that M
becomes the main diagonal of the reduced adjacency matrix A and take the
digraph of A - I; the tests hold the contraction to that matrix route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BipartiteGraph, Digraph, Matching, ZeroOneMatrix


# ---------------------------------------------------------------------------
# matrix <-> bipartite graph


def reduced_adjacency(g: BipartiteGraph) -> ZeroOneMatrix:
    """Matrix A with a_ij = 1 iff u_i w_j is an edge, filled in one pass
    over the edges.  Time: O(n^2)."""
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        rows[i][j] = 1
    return ZeroOneMatrix(tuple(map(tuple, rows)))


def bipartite_of_matrix(a: ZeroOneMatrix) -> BipartiteGraph:
    """Inverse of reduced_adjacency.  The graph's rows are left to their
    first reader, as m2g has none.  Time: O(n^2)."""
    edges = frozenset((i, j) for i in range(a.n) for j in range(a.n)
                      if a.rows[i][j])
    return BipartiteGraph(a.n, edges)


# ---------------------------------------------------------------------------
# matrix <-> digraph (loops encode diagonal entries)


def digraph_of_matrix(a: ZeroOneMatrix) -> Digraph:
    """Digraph with arc (i, j) per one-entry a_ij; diagonal ones become loops."""
    arcs = frozenset((i, j) for i in range(a.n) for j in range(a.n)
                     if a.rows[i][j])
    return Digraph(a.n, arcs, loops_allowed=True)


def matrix_of_digraph(d: Digraph) -> ZeroOneMatrix:
    rows = tuple(
        tuple(1 if (i, j) in d.arcs else 0 for j in range(d.n))
        for i in range(d.n))
    return ZeroOneMatrix(rows)


# ---------------------------------------------------------------------------
# the correspondence map


@dataclass(frozen=True)
class CorrespondenceMap:
    """Bijections M <-> V(D) and E(G)\\M <-> A(D) for one derived digraph.

    ``w_relabel`` records the W-permutation that carried M onto the main
    diagonal: digraph vertex i stands for the matching edge
    (i, w_relabel[i]) of the original graph.
    """

    n: int
    w_relabel: tuple

    def vertex_of_matching_edge(self, edge) -> int:
        i, j = edge
        if self.w_relabel[i] != j:
            raise KeyError(f"{edge} is not a matching edge of this map")
        return i

    def matching_edge_of_vertex(self, v: int) -> tuple[int, int]:
        return (v, self.w_relabel[v])

    def arc_of_nonmatching_edge(self, edge) -> tuple[int, int]:
        i, j = edge
        t = self._w_inverse()[j]
        if t == i:
            raise KeyError(f"{edge} is a matching edge, not a non-matching one")
        return (i, t)

    def nonmatching_edge_of_arc(self, arc) -> tuple[int, int]:
        t, h = arc
        if t == h:
            raise KeyError(f"loop {arc} has no edge counterpart")
        return (t, self.w_relabel[h])

    def _w_inverse(self) -> dict[int, int]:
        return {orig: new for new, orig in enumerate(self.w_relabel)}

    def matching_edges(self) -> list[tuple[int, int]]:
        return [(i, self.w_relabel[i]) for i in range(self.n)]


# ---------------------------------------------------------------------------
# bipartite graph + perfect matching -> digraph


def digraph_of(g: BipartiteGraph, m: Matching) -> tuple[Digraph, CorrespondenceMap]:
    """Derive the digraph of (G, M) together with its correspondence map.

    Raises ValueError unless M is a perfect matching of G.  Different
    perfect matchings of the same graph may yield non-isomorphic digraphs.
    The out-row of vertex i is the u-row i relabelled through M^-1, less
    the bit of i itself, and the in-row of h is the w-row of M(h) less the
    bit of h.  One pass over the edges makes the arcs and both rows, and
    the new digraph is handed the rows, so its ``_masks`` are never
    rebuilt from the arcs.
    Time: O(n + m)."""
    if m.host != g:
        raise ValueError("matching belongs to a different graph")
    if not m.is_perfect:
        raise ValueError(f"matching has size {m.size}, needs {g.n} to be perfect")
    pairing = m.pairing()
    relabel = tuple(pairing[i] for i in range(g.n))
    w_new = [0] * g.n
    for new, orig in enumerate(relabel):
        w_new[orig] = new
    arcs, outs, ins = [], [0] * g.n, [0] * g.n
    for i, j in g.edges:
        h = w_new[j]
        if h != i:
            arcs.append((i, h))
            outs[i] |= 1 << h
            ins[h] |= 1 << i
    return (Digraph._with_masks(g.n, frozenset(arcs), tuple(outs), tuple(ins)),
            CorrespondenceMap(g.n, relabel))


def bipartite_of_digraph(d: Digraph) -> tuple[BipartiteGraph, Matching, CorrespondenceMap]:
    """The unique bipartite graph with canonical matching whose derived
    digraph is exactly D.  Raises ValueError if D has loops."""
    if d.has_loops():
        raise ValueError("digraph has loops; the translation needs a loop-free digraph")
    edges = frozenset((i, i) for i in range(d.n)) | frozenset(d.arcs)
    g = BipartiteGraph(d.n, edges)
    m = Matching(frozenset((i, i) for i in range(d.n)), g)
    return g, m, CorrespondenceMap(d.n, tuple(range(d.n)))


# ---------------------------------------------------------------------------
# pullbacks of digraph walks to alternating walks in G


def alternating_path_from_digraph_path(cmap: CorrespondenceMap, dpath) -> tuple:
    """Tagged vertex walk in G for a digraph path (i_0, ..., i_m).

    The walk runs from u_{i_0} to the W-end of i_m's matching edge and
    alternates non-matching / matching edges, starting and ending with
    non-matching ones.  Interior digraph vertices expand into both ends of
    their matching edges.
    """
    dpath = tuple(dpath)
    if len(dpath) < 2:
        raise ValueError("digraph path needs at least two vertices")
    walk = [("u", dpath[0])]
    for v in dpath[1:-1]:
        walk.append(("w", cmap.w_relabel[v]))
        walk.append(("u", v))
    walk.append(("w", cmap.w_relabel[dpath[-1]]))
    return tuple(walk)
