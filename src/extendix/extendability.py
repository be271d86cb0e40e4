"""k-extendability of balanced bipartite graphs by three independent routes,
minimality, bipartite ear decomposition, alternating path systems, and the
decomposition into elementary components.

A connected graph is k-extendable when it has a matching of size k and
every size-k matching extends to a perfect matching.  The production route
decides this through the derived digraph (k-extendable iff the digraph of
(G, M) is k-strong, for any perfect matching M); the enumeration oracle and
the neighborhood-count criterion exist as independent checks.

Minimality runs on the D(G, M) that its decision builds: a non-matching
edge is an arc of D, settled by the arc lemma's pair flow
(``connectivity._arc_test``), and a matching edge by one decision on a
rotated D (``_extendable_without_matching_edge``), the test the
``search`` sweep runs on the matching edges of B(D).

Conventions at the margins:

* 0-extendable means "has a perfect matching" (no connectivity demand).
* a disconnected graph is never k-extendable for k >= 1.
* the single edge K2 is reported 1-extendable by the oracle (it has a
  perfect matching and its edge lies in one) although the definitional
  size cap 2k+1 <= 2n excludes it; the cap violation is flagged, never
  hidden.  The digraph route keeps its literal answer (a one-vertex
  digraph is not 1-strong), so the two routes are compared on n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (BipartiteGraph, Digraph, Matching, _bfs_path, check_budget, connected,
                   u_label, w_label)
from .correspond import alternating_path_from_digraph_path, digraph_of
from .matching import (_augment, _match_w, enumerate_matchings, has_perfect_matching,
                       matching_extends, max_matching, max_matching_pairs)
from .connectivity import (ear_decomposition_digraph, is_k_strong,
                           is_minimal_k_strong, strong_components, MinimalityResult,
                           vertex_connectivity, _anti_directed_trail, _arc_test,
                           _bipartite_cycle, _bits, _k_strong, _out_lists, _path_systems,
                           _rows, _shortest_cycle_through, _sink_component)


# ---------------------------------------------------------------------------
# the production decision route


def is_k_extendable(g: BipartiteGraph, k: int) -> bool:
    """The fast decision: no deficient set (see ``_deficient_set``).
    O(n^2) mask operations for the matching plus one ``is_k_strong`` call."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return k <= g.n - 1 and _deficient_set(g, k) is None


def _deficient_set(g: BipartiteGraph, k: int, pairs: dict | None = None,
                   d: Digraph | None = None, proof: list | None = None) -> list | None:
    """For 0 <= k <= n-1: None when G is k-extendable, else a sorted X in
    U (vertex i is u_i) with 1 <= |X| <= n-k and |N(X)| < |X| + k.

    Without a perfect matching (Koenig): X is the set of rows reached by
    alternating paths from the first unmatched row, and the failed
    augmenting search from it has seen exactly N(X), |X| - 1 columns.
    Keeping the n-k smallest drops at most k rows, so |N(X)| stays below
    |X| + k.

    With a perfect matching M and k >= 1, G is k-extendable iff D = D(G, M)
    is k-strong (which forces G connected).  Otherwise let S (|S| < k) be
    the separator ``is_k_strong`` finds and X the last strong component of
    D - S.  Every arc leaving X ends in S, so N(U_X) lies in M(U_X) and
    M(U_S): |N(U_X)| <= |X| + |S| < |X| + k.  For X', the n-k smallest of
    X, N(U_X') still misses the partners of the rest of D - S, so
    |N(U_X')| <= n - 1 < |X'| + k.

    pairs is a maximum matching of G as ``max_matching_pairs`` returns
    it, computed here when the caller holds none, and d is D(G, M) for
    that matching, when it is perfect and the caller holds D; proof, a
    list, receives the proof of a holding ``is_k_strong`` decision.
    Time: O(n^2) mask operations for that matching, then one augmenting
    search of O(n) mask operations, or D(G, M) in O(n + m), one
    ``is_k_strong`` call (O(n) mask operations at k = 1, else at most
    k(k-1) + 2(n-k) flows of O(k (n + m))) and one strong-component pass
    of O(n^2) mask operations.
    """
    if pairs is None:
        pairs = max_matching_pairs(g)
    if len(pairs) < g.n:
        match_w = _match_w(g, pairs)
        root = min(i for i in range(g.n) if i not in pairs)
        seen = _augment(g._u_rows, match_w, root, 0)
        x = sorted([root] + [match_w[j] for j in _bits(seen)])
    elif k == 0:
        return None
    else:
        d = d or digraph_of(g, Matching(frozenset(pairs.items()), g))[0]
        verdict = is_k_strong(d, k, proof)
        if verdict.holds:
            return None
        x = _sink_component(d, verdict.separator)
    return x[:g.n - k]


def is_k_extendable_via_digraph(g: BipartiteGraph, m: Matching, k: int) -> bool:
    """Literally: is the digraph of (G, M) k-strong?  Independent of the
    choice of perfect matching M."""
    d, _ = digraph_of(g, m)
    return is_k_strong(d, k).holds


def max_extendability(g: BipartiteGraph) -> int:
    """Largest k with G k-extendable; 0 when there is none (no perfect
    matching, or disconnected on n >= 2).  With a perfect matching M, every
    arc of D(G, M) joins two pairs of M that an edge of G joins, so a
    disconnected G gives a D(G, M) that is not even weakly connected, whose
    vertex connectivity is already 0."""
    m = max_matching(g)
    if not m.is_perfect:
        return 0
    d, _ = digraph_of(g, m)
    return vertex_connectivity(d)


# ---------------------------------------------------------------------------
# enumeration oracle


@dataclass(frozen=True)
class ExtendabilityVerdict:
    holds: bool
    witness: Matching | None = None  # a non-extendable size-k matching
    cap_violated: bool = False
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


def is_k_extendable_oracle(g: BipartiteGraph, k: int) -> ExtendabilityVerdict:
    """Definitional check: connectivity, existence of a size-k matching,
    then extension of every enumerated size-k matching.

    Exhaustive in the number of size-k matchings, hence guarded to small n.
    The size cap (k <= n-1 for n >= 2) is reported via ``cap_violated``
    rather than forced into the verdict.
    """
    check_budget("oracle", g.n, f"the matching-enumeration oracle at n={g.n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        ok = has_perfect_matching(g)
        return ExtendabilityVerdict(ok, reason="" if ok else "no perfect matching")
    cap = 2 * k + 1 > 2 * g.n - 1
    if not connected(g):
        return ExtendabilityVerdict(False, cap_violated=cap, reason="disconnected")
    any_matching = False
    for m0 in enumerate_matchings(g, k):
        any_matching = True
        if not matching_extends(g, m0):
            return ExtendabilityVerdict(False, m0, cap,
                                        "matching does not extend to a perfect one")
    if not any_matching:
        return ExtendabilityVerdict(False, cap_violated=cap,
                                    reason=f"no matching of size {k}")
    return ExtendabilityVerdict(True, cap_violated=cap)


# ---------------------------------------------------------------------------
# neighborhood route


@dataclass(frozen=True)
class NeighborhoodVerdict:
    holds: bool
    deficient_set: tuple | None = None  # X in U with |N(X)| < |X| + k
    cap_violated: bool = False
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


def is_k_extendable_via_neighborhood(g: BipartiteGraph, k: int) -> NeighborhoodVerdict:
    """Neighborhood-count criterion: G connected and |N(X)| >= |X| + k for
    every nonempty X in U with |X| <= n - k.  Subset-exhaustive."""
    n = g.n
    check_budget("neighborhood", n, f"the neighborhood audit at n={n}")
    if k < 1:
        raise ValueError("k must be at least 1 for the neighborhood route")
    cap = 2 * k + 1 > 2 * n - 1
    if not connected(g):
        return NeighborhoodVerdict(False, cap_violated=cap, reason="disconnected")
    nbr = [0] * n
    for i, j in g.edges:
        nbr[i] |= 1 << j
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size > n - k:
            continue
        union = 0
        mm = mask
        while mm:
            bit = mm & -mm
            union |= nbr[bit.bit_length() - 1]
            mm ^= bit
        if bin(union).count("1") < size + k:
            x = tuple(i for i in range(n) if mask >> i & 1)
            return NeighborhoodVerdict(False, x, cap,
                                       f"|N(X)| = {bin(union).count('1')} < {size + k}")
    return NeighborhoodVerdict(True, cap_violated=cap)


# ---------------------------------------------------------------------------
# minimality


def is_minimal_k_extendable(g: BipartiteGraph, k: int) -> MinimalityResult:
    """k-extendable, and every single-edge deletion destroys that; when not
    minimal, the witness is the first deletable edge in sorted order.

    The decision builds D = D(G, M) for a maximum matching M, when M is
    perfect and k <= n - 1, and is ``_k_strong`` on D's rows for k >= 1.
    Every edge is then settled on that D.  G - e keeps G's 2n vertices,
    so k <= n - 1 still holds for it.

    * A non-matching edge e = u_a w_M(b), b != a, is the arc ab of D.  M is
      a perfect matching of G - e, and D(G - e, M) = D - ab.  At k = 0,
      G - e is 0-extendable.  At k >= 1, G - e is k-extendable iff
      D - ab is k-strong (the paper's theorem, for any perfect matching),
      and, D being k-strong, iff the pair flow from a to b on D reaches k
      (the arc lemma, ``connectivity._arc_test``).
    * A matching edge e = u_a w_M(a).  If M' is a perfect matching of
      G - e, M xor M' is a union of disjoint M-alternating cycles of G,
      each the pullback of a cycle of D, and the one through u_a gives a
      cycle of D through a.  Conversely, a cycle C of D through a rotates M
      into a perfect matching M_C of G - e.  So at k = 0, e is deletable
      iff some cycle of D passes through a.  At k >= 1, D is strong and
      such a C exists; G - e is k-extendable iff D(G - e, M_C) is
      k-strong.  Relabelled through M, G is B(D), the graph with the
      canonical matching whose digraph is D, so this is the rotation test
      of the ``search`` sweep, ``_extendable_without_matching_edge``, on
      D's rows.

    Time: one decision (O(n^2) mask operations for the matching, O(n + m)
    for D and one ``_k_strong`` on it), O(m log m) to sort the edges, then
    at most m seeded pair flows of O(k (n + m)) on one net and at most n
    rotated decisions, each O(n + m) and one ``_k_strong``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _minimal_k_extendable(g, k)[0]


def _minimal_k_extendable(g: BipartiteGraph, k: int) -> tuple:
    """The body of is_minimal_k_extendable for k >= 0: its result, and the
    out- and in-rows of the D(G, M) it decided on (None when G has no
    perfect matching or k > n - 1)."""
    failed = MinimalityResult(False, None, f"not {k}-extendable")
    if k > g.n - 1 or len(pairs := max_matching_pairs(g)) < g.n:
        return failed, None
    outs, ins = rows = _rows(digraph_of(g, Matching(frozenset(pairs.items()), g))[0])
    if k and not _k_strong(outs, ins, k).holds:
        return failed, rows
    deletable, owner = _arc_test(outs, ins, k), _match_w(g, pairs)
    bits = {row: _bits(row) for a, out in enumerate(outs) for row in (out, out | 1 << a)}
    for a, j in g.sorted_edges():
        b = owner[j]
        if deletable(a, b) if b != a else _extendable_without_matching_edge(outs, ins, a, k, bits):
            return MinimalityResult(False, (a, j), "edge is deletable"), rows
    return MinimalityResult(True), rows


def _extendable_without_matching_edge(outs, ins, i: int, k: int, bits) -> bool:
    """Whether G' = B(D) - u_i w_i is k-extendable, for a k-extendable
    B(D), the graph with the canonical matching whose digraph D has out-
    and in-rows ``outs`` and ``ins``: decided on one rotated digraph with
    no matching, and at k = 1 with no flow.  ``bits[row]`` is
    ``_bits(row)`` for every outs[a] and outs[a] | 1 << a: the sweep
    passes its table of 2^n bit lists, ``is_minimal_k_extendable`` a dict
    of those 2n rows.

    In G', u_i keeps d+(i) edges and w_i keeps d-(i).  If G' is
    k-extendable, D(G', M) is k-strong for a perfect matching M, so each
    of its n >= k + 1 vertices has in- and out-degree at least k; the
    vertex of the edge at u_i has out-degree deg(u_i) - 1, and the one at
    w_i in-degree deg(w_i) - 1.  So an i with d+(i) <= k or d-(i) <= k
    answers False at once; the bound is Plummer's, "On n-extendable
    graphs" (1980): a k-extendable graph on at least 2k + 2 vertices is
    (k+1)-connected.

    Otherwise let C be a cycle of D through i (the shortest, by
    ``core._bfs_path``; any would do); G' has no perfect matching when
    there is none (``is_minimal_k_extendable``).  Let sigma be the
    permutation that moves each vertex of C to its successor on C and fixes
    the rest.  Then M_C = {u_a w_sigma(a)} is a perfect matching of G':
    for a on C, u_a w_sigma(a) is the edge of the arc (a, sigma(a)), and
    for a off C it is the matching edge u_a w_a, a != i.  In D(G', M_C)
    vertex a stands for u_a w_sigma(a), and a -> b (b != a) is an arc iff
    u_a is adjacent in G' to w_sigma(b), the partner of u_b; so the
    out-row of a is sigma^-1(N_G'(u_a)) - {a}, where N_G'(u_a) is outs[a]
    plus a itself unless a = i, and the in-row of b is
    N_G'(w_sigma(b)) - {b}, where N_G'(w_c) is ins[c] plus c itself unless
    c = i.  G' is k-extendable iff D(G', M_C) is k-strong, by the paper's
    theorem that holds for every perfect matching, and at k = 0 it is.

    Time: O(n + m) for the search and the rotation, each bit of a row read
    off its bit list, then one ``connectivity._k_strong`` for k >= 1."""
    if outs[i].bit_count() <= k or ins[i].bit_count() <= k:
        return False
    cycle = _bfs_path(i, lambda v: bits[outs[v]], lambda v: v == i)
    if cycle is None or k == 0:
        return cycle is not None
    ahead = list(range(len(outs)))  # sigma
    moved = [1 << v for v in ahead]  # the bit of sigma^-1(v)
    for a, b in zip(cycle, cycle[1:]):
        ahead[a] = b
        moved[b] = 1 << a
    rotated_outs = [sum([moved[b] for b in bits[row if a == i else row | 1 << a]]) & ~(1 << a)
                    for a, row in enumerate(outs)]
    rotated_ins = [(ins[c] if c == i else ins[c] | 1 << c) & ~(1 << b)
                   for b, c in enumerate(ahead)]
    return _k_strong(rotated_outs, rotated_ins, k).holds


@dataclass(frozen=True)
class TransferReport:
    ok: bool
    digraph: Digraph
    digraph_minimality: MinimalityResult


def minimality_transfer_check(g: BipartiteGraph, m: Matching, k: int) -> TransferReport:
    """For a minimal k-extendable G, the digraph of (G, M) must be minimal
    k-strong.  The converse direction is not asserted anywhere: a minimal
    digraph may sit above a non-minimal graph (deleting a matching edge is
    invisible on the arc side).
    Time: one ``is_minimal_k_extendable``, then O(n + m) for D(G, M) and
    one ``is_minimal_k_strong`` on it: one decision and at most m seeded
    pair flows of O(k (n + m))."""
    verdict = is_minimal_k_extendable(g, k)
    if not verdict.holds:
        raise ValueError(f"graph is not minimal {k}-extendable: {verdict.reason}")
    d, _ = digraph_of(g, m)
    res = is_minimal_k_strong(d, k)
    return TransferReport(res.holds, d, res)


# ---------------------------------------------------------------------------
# bipartite ear decomposition


@dataclass(frozen=True)
class EarDecompositionB:
    """Base edge plus odd ears, with the induced perfect matching.

    Each ear is a tagged vertex walk ((side, index), ...) of odd edge
    length whose endpoints lie in opposite colour classes of the graph
    built so far; the induced matching restricts to a perfect matching of
    every prefix.
    """

    base_edge: tuple
    ears: tuple
    matching: Matching

    @property
    def ear_count(self) -> int:
        return len(self.ears)


def _walk_edges(walk) -> list:
    out = []
    for a, b in zip(walk, walk[1:]):
        out.append((a[1], b[1]) if a[0] == "u" else (b[1], a[1]))
    return out


def check_bipartite_ear_decomposition(g: BipartiteGraph, dec: EarDecompositionB) -> list[str]:
    """Structural verification of the ear rules, exact coverage, and the
    prefix property of the induced matching."""
    problems = []
    base = tuple(dec.base_edge)
    if base not in g.edges:
        problems.append(f"base edge {base} missing from graph")
    covered = {base}
    vertices = {("u", base[0]), ("w", base[1])}
    if base not in dec.matching.edges:
        problems.append("induced matching misses the base edge")
    for idx, ear in enumerate(dec.ears):
        edges = _walk_edges(ear)
        if len(edges) % 2 == 0 or not edges:
            problems.append(f"ear {idx} has even length {len(edges)}")
        if ear[0][0] == ear[-1][0]:
            problems.append(f"ear {idx} endpoints lie in the same class")
        for v in (ear[0], ear[-1]):
            if v not in vertices:
                problems.append(f"ear {idx} endpoint {v} is new")
        for v in ear[1:-1]:
            if v in vertices:
                problems.append(f"ear {idx} interior vertex {v} is old")
        if len(set(ear)) != len(ear):
            problems.append(f"ear {idx} repeats a vertex")
        for e in edges:
            if e not in g.edges:
                problems.append(f"ear {idx} uses missing edge {e}")
            if e in covered:
                problems.append(f"ear {idx} repeats edge {e}")
        # the even-position edges cover the ear interior within the matching
        for pos, e in enumerate(edges):
            in_m = e in dec.matching.edges
            if pos % 2 == 1 and not in_m:
                problems.append(f"ear {idx} interior edge {e} not in induced matching")
            if pos % 2 == 0 and in_m:
                problems.append(f"ear {idx} boundary edge {e} lies in induced matching")
        covered.update(edges)
        vertices.update(ear)
    if covered != set(g.edges):
        problems.append("edges not exactly covered")
    return problems


def bipartite_ear_decomposition(g: BipartiteGraph, start_edge) -> EarDecompositionB:
    """Grow G from any starting edge by attaching odd ears; possible exactly
    when G is 1-extendable.

    Rides the digraph ear decomposition: pick a perfect matching M through
    the starting edge, decompose the digraph of (G, M) starting from a
    cycle through the edge's vertex, and pull every ear back.  The induced
    matching is exactly M.
    """
    start_edge = tuple(start_edge)
    if start_edge not in g.edges:
        raise ValueError(f"{start_edge} is not an edge")
    if not is_k_extendable(g, 1) and not (g.n == 1 and g.m == 1):
        raise ValueError("graph is not 1-extendable")
    m = _pm_through_edge(g, start_edge)
    if g.n == 1:
        return EarDecompositionB(start_edge, (), m)
    d, cmap = digraph_of(g, m)
    hub = cmap.vertex_of_matching_edge(start_edge)
    cycle = _shortest_cycle_through(_out_lists(d), hub)
    ddec = ear_decomposition_digraph(d, cycle)

    # the base cycle's pullback runs from the u-side to the w-side of the
    # starting edge, which is exactly the first odd ear; later ears pull
    # back the same way
    ears = tuple(alternating_path_from_digraph_path(cmap, ear)
                 for ear in ddec.ears)
    dec = EarDecompositionB(start_edge, ears, m)
    problems = check_bipartite_ear_decomposition(g, dec)
    if problems:
        raise AssertionError(f"invalid bipartite ear decomposition: {problems}")
    return dec


def _pm_through_edge(g: BipartiteGraph, edge) -> Matching:
    i, j = edge
    pairs = max_matching_pairs(g, frozenset({i}), frozenset({j}))
    if len(pairs) != g.n - 1:
        raise ValueError(f"edge {edge} lies in no perfect matching")
    pairs[i] = j
    return Matching(frozenset(pairs.items()), g)


# ---------------------------------------------------------------------------
# alternating path systems


@dataclass(frozen=True)
class AltPathSystem:
    """Internally disjoint alternating paths between u in U and w in W,
    each starting and ending with non-matching edges."""

    paths: tuple
    matching: Matching
    u: int
    w: int


def check_alternating_path_system(g: BipartiteGraph, system: AltPathSystem) -> list[str]:
    """Structural verification; returns a list of problems (empty = valid),
    naming vertices and edges by label and paths 1-based, as certificates do.
    An empty path is a problem by itself, and no other check reads it."""
    problems = []
    m_edges = system.matching.edges
    interiors, walks = [], []
    for i, walk in enumerate(system.paths, 1):
        if not walk:
            problems.append(f"path {i} is empty")
            continue
        walks.append(walk)
        if walk[0] != ("u", system.u) or walk[-1] != ("w", system.w):
            problems.append(f"path {i} does not join "
                            f"{u_label(system.u)} and {w_label(system.w)}")
        if len(set(walk)) != len(walk):
            problems.append(f"path {i} repeats a vertex")
        edges = _walk_edges(walk)
        if len(edges) % 2 == 0:
            problems.append(f"path {i} has even length")
        for pos, e in enumerate(edges, 1):
            if e not in g.edges:
                problems.append(f"path {i} uses missing edge {_edge_text(e)}")
            if pos % 2 and e in m_edges:
                problems.append(f"edge {pos} of path {i}, {_edge_text(e)}, lies in the matching")
            if not pos % 2 and e not in m_edges:
                problems.append(f"edge {pos} of path {i}, {_edge_text(e)}, is not a matching edge")
        interiors.append((i, set(walk[1:-1])))
    for x, (a, inner) in enumerate(interiors):
        for b, other in interiors[x + 1:]:
            shared = inner & other
            if shared:
                problems.append(f"paths {a} and {b} share interior "
                                f"{_walk_text(sorted(shared))}")
    if len(set(walks)) != len(walks):
        problems.append("duplicate path")
    return problems


def _walk_text(walk) -> str:
    return " ".join((u_label(v) if side == "u" else w_label(v)) for side, v in walk)


def _edge_text(edge) -> str:
    return f"{u_label(edge[0])} {w_label(edge[1])}"


def alternating_path_system(g: BipartiteGraph, m: Matching, u: int, w: int,
                            k: int) -> AltPathSystem:
    """k internally disjoint alternating u-w paths with non-matching first
    and last edges; exists for every vertex pair whenever G is k-extendable.

    For a non-matching pair the paths are pullbacks of disjoint digraph
    paths between the two matching-edge vertices; for a matching pair they
    come from cycles meeting only at that edge's vertex, opened up.
    """
    if not (0 <= u < g.n and 0 <= w < g.n):
        raise ValueError("vertex index out of range")
    if not m.is_perfect or m.host != g:
        raise ValueError("need a perfect matching of the graph")
    if not is_k_extendable(g, k):
        raise ValueError(f"graph is not {k}-extendable")
    d, cmap = digraph_of(g, m)
    owner = {j: i for i, j in m.edges}
    ends = (cmap.vertex_of_matching_edge((u, m.pairing()[u])),
            cmap.vertex_of_matching_edge((owner[w], w)))
    system = AltPathSystem(tuple(alternating_path_from_digraph_path(cmap, p)
                                 for p in _path_systems(d, [ends], k)[0].paths), m, u, w)
    problems = check_alternating_path_system(g, system)
    if problems:
        raise AssertionError(f"invalid alternating path system: {problems}")
    return system


# ---------------------------------------------------------------------------
# elementary components versus strong components


@dataclass(frozen=True)
class ComponentPiece:
    kind: str  # "elementary" | "fixed_double"
    u_vertices: frozenset
    w_vertices: frozenset
    edges: frozenset
    matching_part: frozenset
    scc: frozenset  # the digraph strong component this piece stands for


@dataclass(frozen=True)
class ComponentMap:
    graph: BipartiteGraph
    matching: Matching
    digraph: Digraph
    pieces: tuple
    fixed_single_edges: frozenset

    @property
    def elementary(self) -> tuple:
        return tuple(p for p in self.pieces if p.kind == "elementary")

    @property
    def fixed_double_singletons(self) -> tuple:
        return tuple(p for p in self.pieces if p.kind == "fixed_double")


def elementary_components(g: BipartiteGraph, matching: Matching | None = None) -> ComponentMap:
    """Split G into elementary components plus one singleton piece per
    fixed double edge: one piece per strong component of the digraph of
    (G, M), in order of its smallest vertex.

    The Dulmage-Mendelsohn rule does the work.  For any perfect matching
    M, a non-matching edge lies in some perfect matching iff its arc stays
    inside one strong component, and a matching edge lies in every perfect
    matching iff its vertex is a singleton strong component.  So a
    singleton component C is a fixed double piece, any other is the
    elementary piece with U = C, W = M(C), and as edges the matching edges
    plus the non-matching edges whose arcs stay inside C; every arc
    between components is a fixed single edge.  M defaults to a maximum
    matching of G.
    The arcs are read off D's out-rows, each within or outside its tail's
    component, and an arc t -> h is the edge u_t w_M(h).
    Time: O(n^2) mask operations for that matching, O(n + m) for D(G, M)
    and the pieces, and O(n^2) mask operations for the strong components.
    """
    if matching is None:
        matching = max_matching(g)
    if not matching.is_perfect:
        raise ValueError("graph has no perfect matching")
    d, cmap = digraph_of(g, matching)
    outs, w_of = _rows(d)[0], cmap.w_relabel
    pieces, fixed_single = [], []
    for c in sorted(strong_components(d), key=min):
        inside = sum(1 << v for v in c)
        mpart = frozenset((v, w_of[v]) for v in c)
        edges = set(mpart)
        for t in c:
            edges.update((t, w_of[h]) for h in _bits(outs[t] & inside))
            fixed_single += [(t, w_of[h]) for h in _bits(outs[t] & ~inside)]
        kind = "fixed_double" if len(c) == 1 else "elementary"
        pieces.append(ComponentPiece(kind, frozenset(c), frozenset(w_of[v] for v in c),
                                     frozenset(edges), mpart, c))
    return ComponentMap(g, matching, d, tuple(pieces), frozenset(fixed_single))


# ---------------------------------------------------------------------------
# degree audits for minimal k-extendable graphs


@dataclass(frozen=True)
class BipartiteDegreeAuditReport:
    ok: bool
    k: int
    degree_k_plus_1_total: int
    degree_k_plus_1_u: int
    degree_k_plus_1_w: int


def minimal_k_extendable_degree_audit(g: BipartiteGraph, k: int) -> BipartiteDegreeAuditReport:
    """A minimal k-extendable graph carries at least 2k+2 vertices of degree
    k+1, at least k+1 of them in each colour class.
    Time: one ``is_minimal_k_extendable``, then O(n) popcounts."""
    verdict = is_minimal_k_extendable(g, k)
    if not verdict.holds:
        raise ValueError(f"graph is not minimal {k}-extendable: {verdict.reason}")
    return _degree_audit_bipartite(g._u_rows, g._w_rows, k)


def _degree_audit_bipartite(u_rows, w_rows, k: int) -> BipartiteDegreeAuditReport:
    """The body of minimal_k_extendable_degree_audit on G's u- and w-rows,
    for a minimal G: ``search`` prints it for hits it knows minimal."""
    u_count = list(map(int.bit_count, u_rows)).count(k + 1)
    w_count = list(map(int.bit_count, w_rows)).count(k + 1)
    total = u_count + w_count
    ok = total >= 2 * k + 2 and u_count >= k + 1 and w_count >= k + 1
    return BipartiteDegreeAuditReport(ok, k, total, u_count, w_count)


@dataclass(frozen=True)
class ForestCheckReport:
    ok: bool
    k: int
    qualifying_edges: frozenset
    cycle_edges: tuple | None
    digraph_trail: tuple | None  # pullback cross-check, expected absent


def high_degree_subgraph_forest_check(g: BipartiteGraph, k: int) -> ForestCheckReport:
    """In a minimal k-extendable graph, the edges whose two endpoints both
    have degree at least k+2 must induce a forest.

    Cross-check through the correspondence: an anti-directed trail among
    the high-degree arcs of the derived digraph would pull back to a closed
    trail inside the qualifying edges, so a passing forest check forces the
    digraph-side search to come up empty as well, run on the D(G, M) that
    the minimality decision built.
    Time: one ``is_minimal_k_extendable``, then O(m log m) for each of the
    two cycle searches.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    verdict, d_rows = _minimal_k_extendable(g, k)
    if not verdict.holds:
        raise ValueError(f"graph is not minimal {k}-extendable: {verdict.reason}")
    qual, cycle, trail = _forest_check(g._u_rows, g._w_rows, d_rows, k)
    return ForestCheckReport(cycle is None, k, frozenset(qual), cycle, trail)


def _forest_check(u_rows, w_rows, d_rows, k: int) -> tuple:
    """The body of high_degree_subgraph_forest_check for a minimal G, on its
    u- and w-rows and on d_rows, the out- and in-rows of its digraph under
    any perfect matching: (the qualifying edges in sorted order, the first
    cycle among them, the digraph-side trail).  ``search`` reads its
    verdict for hits it knows minimal."""
    heads = sum(1 << j for j, row in enumerate(w_rows) if row.bit_count() >= k + 2)
    qual = [(i, j) for i, row in enumerate(u_rows) if row.bit_count() >= k + 2
            for j in _bits(row & heads)]
    cycle = _bipartite_cycle(qual)
    trail = _anti_directed_trail(*d_rows, k)
    if cycle is None and trail is not None:
        raise AssertionError("digraph search found a trail the forest check missed")
    return qual, cycle, trail

