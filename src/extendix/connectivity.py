"""Digraph connectivity: strong components, k-strong tests, disjoint path
systems, ear decompositions, minimality and degree audits.

Loops never influence anything here; every computation works on the
loop-free view of its input, so callers pass digraphs with loops as they
are.  Disjoint paths come from one flow kernel, ``_FlowNet``, at
O(k (n + m)) per flow and O(n) memory, which runs on a digraph's out- and
in-rows, builds its own out-lists at its first search, and leaves the arc
s->t out, so every cut is vertices.  Three functions build it:
``_k_strong``, the body of ``is_k_strong`` and the sweep's decision, which
decides with the pairs among 0..k-1 no arc joins and 2(n-k) fans for
k >= 2 (k = 1 is two reaches) and gives the separators;
``_arc_test``, which settles whether an arc of a k-strong D is
deletable with one pair flow on D itself (the arc lemma), for
``_minimal_k_strong``, the body of ``is_minimal_k_strong``, and for the
non-matching edges of ``extendability.is_minimal_k_extendable``; and
``_path_systems``, which adds the arc s->t as a path of its own.  The
first and the last turn a failing flow's minimum cut into its witness.
Each decision flow first picks a greedy seed of short disjoint paths on
neighbourhood bitmasks and augments along shortest paths only when the
seed falls short; the bound per flow is unchanged.
``vertex_connectivity`` makes at most delta - kappa + 1 ``is_k_strong``
calls (delta the least in- or out-degree), one in the common case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from .core import Digraph, ExtendixError, _bfs_path, check_budget


class InsufficientPathsError(ExtendixError):
    """Fewer disjoint paths exist than requested; carries the best
    achievable count and a cut witness."""

    def __init__(self, requested: int, achievable: int, cut: tuple):
        self.requested = requested
        self.achievable = achievable
        self.cut = cut
        super().__init__(
            f"only {achievable} of {requested} requested disjoint paths exist; "
            f"cut witness {list(cut)}")


# ---------------------------------------------------------------------------
# strong components


def _rows(d: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D's out- and in-neighbourhoods as bitmasks, one int per vertex,
    loops left out: ``Digraph._masks``, built once per instance, so every
    kernel run on one digraph shares a single pass over its arcs."""
    return d._masks


def _bits(mask: int) -> list[int]:
    """The vertices of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(rows: list[int], start: int, keep: int) -> int:
    """The vertices of ``keep`` reachable from ``start`` inside ``keep``,
    as a mask with ``start`` in it; each vertex reached costs one OR of
    its row."""
    reach = frontier = 1 << start
    while frontier:
        new = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new |= rows[bit.bit_length() - 1]
        frontier = new & keep & ~reach
        reach |= frontier
    return reach


def _reach_tree(rows: list[int], start: int, keep: int) -> tuple[int, list[int]]:
    """``_reach`` with the breadth-first tree it grows: the same mask, and
    parent[v] for each vertex v reached but start (-1 elsewhere), a vertex
    of the level before v whose row holds v.  Each level is expanded
    lowest bit first, so parent[v] is the least such vertex.
    Time: O(n) mask operations and one step per vertex reached."""
    parent = [-1] * len(rows)
    reach = frontier = 1 << start
    while frontier:
        new = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            u = bit.bit_length() - 1
            fresh = rows[u] & keep & ~(reach | new)
            new |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                parent[low.bit_length() - 1] = u
        frontier = new
        reach |= new
    return reach, parent


def strong_components(d: Digraph, removed=()) -> tuple:
    """Partition of V(D) - removed into strong components, ordered
    topologically in the condensation; ties broken by smallest contained
    vertex.

    The component of the smallest unassigned vertex v is what v reaches
    among the vertices that reach v, both reaches (``_reach``) kept to the
    unassigned vertices outside removed, so D - removed is never built.
    That is exact: a path between two members of a strong component never
    leaves it.  Two reaches per component, each of at most n steps (one OR
    of a row): O(n) steps when every arc runs up the vertex order, as each
    backward reach stops at once, and O(n^2) in the worst case, every arc
    running down it, as each backward reach takes every vertex left.

    Components are then placed one at a time, each time the first listed
    (the one with the smallest vertex) whose in-mask, the OR of its
    members' in-rows less itself, misses every unplaced vertex outside
    removed.  One always exists, the condensation being acyclic, and this
    is the order of Kahn's algorithm with a min-vertex heap: the heap holds
    exactly the unplaced components with no unplaced predecessor, and pops
    the first listed.
    Time: O(n^2) mask operations, and O(c^2) to order c components."""
    n = d.n
    outs, ins = _rows(d)
    rest = (1 << n) - 1
    for v in removed:
        rest &= ~(1 << v)
    unplaced = rest
    comps = []
    while rest:
        v = (rest & -rest).bit_length() - 1
        comp = _reach(outs, v, _reach(ins, v, rest))
        rest ^= comp
        members = _bits(comp)
        into = 0
        for w in members:
            into |= ins[w]
        comps.append((frozenset(members), comp, into & ~comp))
    ordered = []
    while comps:
        i = next(i for i, (_, _, into) in enumerate(comps) if not into & unplaced)
        members, comp, _ = comps.pop(i)
        unplaced ^= comp
        ordered.append(members)
    return tuple(ordered)


def is_strong(d: Digraph) -> bool:
    """True iff D has exactly one strong component (single vertex counts):
    vertex 0 reaches every vertex and is reached by every vertex.
    Time: O(n) mask operations (two ``_reach``es) once the masks exist."""
    outs, ins = _rows(d)
    full = (1 << d.n) - 1
    return d.n > 0 and _reach(outs, 0, full) == full == _reach(ins, 0, full)


def _sink_component(d: Digraph, removed) -> list:
    """The last strong component of D - removed, sorted: every arc leaving
    it ends in removed."""
    return sorted(strong_components(d, removed)[-1])


# ---------------------------------------------------------------------------
# unit-capacity flow with vertex splitting


def _split_lists(rows) -> tuple[list[int], ...]:
    """For each vertex v, 2b for every b in row v with 2v merged in at its
    place, in increasing order: the heads of v_out's residual edges in the
    split-vertex network of ``_FlowNet``, node 2b being b_in.
    Time: O(n + m)."""
    lists = []
    for v, row in enumerate(rows):
        row |= 1 << v
        heads = []
        while row:
            low = row & -row
            heads.append(2 * low.bit_length() - 2)
            row ^= low
        lists.append(heads)
    return tuple(lists)


class _FlowNet:
    """Disjoint-path flows on a digraph's split-vertex network, reused for
    every source/sink pair.  Node 2v is "into v" (v_in), 2v+1 "out of v"
    (v_out), joined by a split edge of capacity 1; arcs are uncapped, and
    the arc s->t is left out, so a flow counts the s->t paths of length at
    least 2 and its minimum cuts are vertices.  From node 2s+1 to node 2s
    the paths are cycles through s, meeting only there.

    The network is never stored.  Every arc of a path of length at least 2
    has an interior end, so the flow on it also passes a split edge and is
    at most 1, an uncapped arc always has residual capacity, and the flow
    alone gives every residual edge.  v_out has one to b_in for each b in
    N+(v), and one to v_in when v carries flow.  v_in has one only: to
    v_out when v is free, else back to a_out for the tail a of the flow arc
    into v.  So a flow is ``back``, that out-node per vertex, and ``ends``,
    the tails of the flow arcs into t.  ``succ[v]`` lists 2b for b in N+(v)
    with 2v merged in at its place, so a scan meets v_out's residual edges
    by head, the order of a stored network whose edge lists are sorted by
    head, and searches visit nodes in that network's order.  The scan needs
    no test of whether v carries flow: the v_out of a free v was reached
    from v_in.  Only the source leaves out 2s and 2t, by hand.

    The net runs on the out- and in-rows it is given (``_rows``, or a
    sweep's own rows), loops left out; the reverse digraph's net is
    ``_FlowNet(ins, outs)``.  ``succ`` is ``_split_lists`` of the out-rows,
    built in O(n + m) by the net's first search and kept for its later
    ones, so a net whose every flow the greedy seed settles (``_seed``,
    ``_fan_seed``) builds none, and such a flow costs a few word
    operations."""

    keep = False  # whether a check that reaches its limit leaves its paths in ``kept``
    kept = ()

    def __init__(self, outs, ins):
        self.n, self.outs, self.ins = len(outs), outs, ins
        self.succ = None

    def flow(self, s: int, t: int, limit: int, *, seeded: bool = True) -> int:
        """Disjoint s->t paths of length at least 2 up to limit; leaves the
        flow in ``back`` and ``ends`` and, when it searched, the last reach
        in ``via``, each reached node's parent.  Seeded (see ``_seed``), a
        pair whose short paths reach limit returns at once and leaves all
        three as they were; otherwise the seed's paths are pushed and
        shortest augmenting paths take the flow on.  An unseeded flow
        always starts afresh, also at limit 0, so ``paths()`` after it
        reads its own flow; as ``_path_systems`` runs unseeded, its paths
        come from shortest augmenting paths alone.  On a net that keeps
        paths (``keep``), a flow that reaches limit leaves its paths, the
        seed's when they settle it, in ``kept``, as ``paths()`` gives them.

        Seeding cannot change the value or ``cut()``.  ``cut()`` is read
        only after a flow that stopped below its limit: such a flow ran a
        search, so ``via`` is its own, and it is maximum.  Every maximum
        flow leaves the same residual reach from the source: the minimum
        cut closest to s.  So the value, ``cut()`` and every
        ``KStrongResult`` are those of the unseeded flow.
        Time: O(n) to start, then at most limit searches of O(n + m)."""
        value, paths = self._seed(s, t, limit) if seeded else (0, ())
        if paths is None:
            return limit
        value = self._augment(s, t, value, limit, paths)
        if self.keep and value == limit:
            self.kept = self.paths(s, t)
        return value

    def fan(self, j: int, limit: int) -> int:
        """Paths from distinct vertices of {0..j-1} to j, disjoint but at j,
        up to limit: a flow from j_out, which no path into j uses, joined by
        an edge to b_in for each b < j, so the fan is a set of cycles
        through j (a pair flow with s = t = j and these heads for j_out).
        Its minimum cuts are vertices: each arc into j leaves an out-node
        whose split edge is on the path, and never hold j, the sink.  Seeded
        by ``_fan_seed``, which, as ``_seed`` does, leaves the value and
        ``cut()`` unchanged.  On a net that keeps paths, a fan that reaches
        limit leaves in ``kept`` the paths that the arcs into j from
        {0..j-1}, its direct tails, leave to prove (``_fan_cut``), none
        when they alone reach limit.
        Time: that of ``flow``."""
        value, paths = self._fan_seed(j, limit)
        if paths is None:
            return limit
        value = self._augment(j, j, value, limit, paths, range(0, 2 * j, 2))
        if self.keep and value == limit:
            self.kept = self._fan_cut(j, limit)
        return value

    def _fan_cut(self, j: int, limit: int) -> list:
        """The paths of the fan into j, which reached limit with fewer
        direct tails (in-neighbours of j below j): each flow path cut at
        its last vertex below j, so the rest of it lies above j; a path
        whose cut starts at a direct tail dropped, as that arc counts it;
        and the first limit - |direct tails| of the others, in order.
        Time: O(n), the paths being disjoint but at j."""
        direct = self.ins[j] & ((1 << j) - 1)
        cut = []
        for path in self.paths(j, j):  # (j, b, ..., j), b the path's first vertex
            i = max(i for i in range(1, len(path) - 1) if path[i] < j)
            if not direct >> path[i] & 1:
                cut.append(path[i:])
        return sorted(cut)[:limit - direct.bit_count()]

    def _augment(self, s: int, t: int, value: int, limit: int, paths, heads=None) -> int:
        """The flow of ``value`` disjoint paths, pushed, taken on to limit by
        shortest augmenting paths from s_out to t_in; heads, by default s's
        out-list, are the heads of s_out's edges.  A path alternates out-
        and in-nodes, and augmenting it sets ``back`` of each in-node on it
        to the out-node before it: a new tail, or v_out itself when v is
        freed."""
        if self.succ is None:
            self.succ = _split_lists(self.outs)
        succ = self.succ
        back = self.back = list(range(1, 2 * self.n, 2))
        ends = self.ends = []
        for path in paths:
            ends.append(path[-2])
            for a, b in zip(path, path[1:-1]):
                back[b] = 2 * a + 1
        src, snk = 2 * s + 1, 2 * t
        heads = succ[s] if heads is None else heads
        for value in range(value, limit):
            via = self.via = [None] * (2 * self.n)
            via[src] = -1
            queue = [y for y in heads if y != src - 1 and y != snk]
            for y in queue:
                via[y] = src
            for x in queue:
                if via[snk] is not None:
                    break
                if x & 1:
                    for y in succ[x >> 1]:
                        if via[y] is None:
                            via[y] = x
                            queue.append(y)
                elif via[back[x >> 1]] is None:
                    via[back[x >> 1]] = x
                    queue.append(back[x >> 1])
            if via[snk] is None:
                return value
            x = via[snk]
            ends.append(x >> 1)
            while x != src:
                y = via[x]
                x = back[y >> 1] = via[y]
        return limit

    def _seed(self, s: int, t: int, limit: int) -> tuple:
        """A greedy set of disjoint short s->t paths, read off the masks:
        every s->x->t, then one s->x->y->t for each x still unused, x and y
        lowest first among the unused interior vertices, stopping at limit.
        Returns (limit, None) when these reach limit, so a settled pair
        lists no paths (a net that keeps paths keeps them, sorted);
        otherwise the value and the paths as vertex tuples.
        The paths of length 2 are counted by popcount, so a pair they settle
        costs a few word operations; each x tried costs a few more.  A y,
        having an arc to t, is never a later x: such an x would be the
        middle of a path of length 2, already taken."""
        outs, ins = self.outs, self.ins
        used = 1 << s | 1 << t
        mids = outs[s] & ins[t] & ~used
        value = mids.bit_count()
        if value >= limit:
            if self.keep:
                self.kept = [(s, x, t) for x in _bits(mids)[:limit]]
            return limit, None
        used |= mids
        firsts, lasts = outs[s] & ~used, ins[t] & ~used
        paths = []
        while firsts and value < limit:
            low = firsts & -firsts
            firsts ^= low
            x = low.bit_length() - 1
            seconds = outs[x] & lasts
            if seconds:
                second = seconds & -seconds
                lasts ^= second
                paths.append((s, x, second.bit_length() - 1, t))
                value += 1
        paths += [(s, x, t) for x in _bits(mids)]
        if value == limit:
            if self.keep:
                self.kept = sorted(paths)
            return limit, None
        return value, paths

    def _fan_seed(self, j: int, limit: int) -> tuple:
        """``_seed`` for the fan into j: the in-neighbours of j below j, each
        a path by itself, then x->y->j for each y > j in N-(j), lowest
        first, from the lowest x < j still unused with an arc to y,
        stopping at limit.  Paths are written from j, the flow's source.
        Returns (limit, None) when these reach limit (a net that keeps
        paths keeps the 2-paths, as ``_fan_cut`` cuts them: x->y->j), else
        the value and the paths; a fan they settle costs a popcount, or a
        few word operations per y tried."""
        ins = self.ins
        inside = (1 << j) - 1
        direct = ins[j] & inside
        value = direct.bit_count()
        if value >= limit:
            return limit, None
        starts, mids = inside & ~direct, ins[j] & ~inside
        paths = []
        while mids and value < limit:
            low = mids & -mids
            mids ^= low
            firsts = ins[low.bit_length() - 1] & starts
            if firsts:
                first = firsts & -firsts
                starts ^= first
                paths.append((j, first.bit_length() - 1, low.bit_length() - 1, j))
                value += 1
        if value == limit:
            if self.keep:
                self.kept = sorted(path[1:] for path in paths)
            return limit, None
        return value, paths + [(j, x, j) for x in _bits(direct)]

    def cut(self) -> tuple:
        """After a flow below its limit: the vertices whose split edge
        leaves the source side, a minimum cut."""
        via = self.via
        return tuple(v for v in range(self.n)
                     if via[2 * v] is not None and via[2 * v + 1] is None)

    def paths(self, s: int, t: int) -> list:
        """The s->t paths of the last flow, smallest next vertex first,
        each walked back from its end along ``back``.
        Time: O(n), the paths being internally disjoint."""
        paths = []
        for a in self.ends:
            path = [t]
            while a != s:
                path.append(a)
                a = self.back[a] >> 1
            paths.append((s, *reversed(path)))
        return sorted(paths)


# ---------------------------------------------------------------------------
# k-strong connectivity


def vertex_connectivity(d: Digraph) -> int:
    """The largest k for which D is k-strong: at least k+1 vertices and no
    separator of order below k.  A complete digraph has connectivity n-1
    because no separator exists and the vertex-count clause caps k.

    The out- (in-) neighbours of a vertex of degree below n-1 separate it
    from another vertex, so kappa is at most the least in- or out-degree
    delta.  k starts there, and each decision ``is_k_strong(d, k)`` that
    fails sets k to the order of its separator, below k and at least kappa;
    the first k that holds is kappa, after at most delta - kappa + 1
    decisions.  That order is the value of the failing check's flow
    (Menger), so the decision is ``_short_check``, which reads no cut and
    words no reason.  The strongness pass comes first because it answers 0
    without flows, and a strong D with n >= 2 is 1-strong, so k = 1 needs
    no decision.

    Time: O((delta - kappa + 1) (k^2 + n) k (n + m)), decisions of at most
    k(k-1) + 2(n-k) flows of O(k (n + m)) at k <= delta.
    """
    if d.n == 1 or not is_strong(d):
        return 0
    outs, ins = _rows(d)
    k = min(row.bit_count() for rows in (outs, ins) for row in rows)
    while k > 1 and (short := _short_check(outs, ins, k)):
        k = short[1]
    return k


@dataclass(frozen=True)
class KStrongResult:
    holds: bool
    separator: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


def is_k_strong(d: Digraph, k: int, proof: list | None = None) -> KStrongResult:
    """Decide k-strong connectivity; on failure carry a separator of order
    below k (or the vertex-count obstruction).  Given a list, proof, a
    holding decision at k >= 2 also leaves there the paths of every check
    that the arcs do not settle (``_short_check``), a whole proof of the
    verdict by the argument below.

    The checks are S. Even's, "An algorithm for determining whether the
    connectivity of a graph is at least k" (SIAM J. Comput. 1975): the
    ordered pairs (s, t) among 0..k-1 that no arc s->t joins, seeded flows
    on one ``_FlowNet``, then, for j = k..n-1, the in-fan {0..j-1} -> j and
    the out-fan j -> {0..j-1} (``_FlowNet.fan``, the out-fan on a net over
    the swapped rows).  The separator is the minimum cut of the first check
    that falls short.  Each check starts from a greedy seed of short
    disjoint paths on the masks, which leaves value and cut unchanged
    (``_FlowNet.flow``); one the seed settles touches no flow list, and
    each net builds its out-lists once, at its first search.

    Such a cut C, |C| = v < k, is a separator.  A pair's cut holds neither
    s nor t and, as no arc joins them, meets every s->t path.  A fan's cut
    never holds j, and the set has j >= k > v vertices, one of them
    outside C and cut off from j (or j from it) in D - C.

    If every check holds, D is k-strong.  Otherwise take a separator S,
    |S| < k, a split of D - S into X and Y with no arc from X to Y, and the
    least vertex v outside S, so v < k.  Say v is in X, and let j be the
    least vertex of Y.  If j < k, the pair (v, j) has no arc and S cuts it.
    If j >= k, {0..j-1} lies in S + X, every path from it to j meets S, and
    the in-fan of j has at most |S| disjoint paths.  v in Y is the mirror
    case, with the pair (j, v) or the out-fan of j, j the least vertex of X.
    So some check fails.

    At k = 1 no flow is needed: the failing pair named, with the empty cut,
    is (0, t) for the least t that 0 does not reach, else (s, 0) for the
    least s that does not reach 0, read off the out- and in-reach of 0.
    Time: O(n) mask operations at k = 1, else at most k(k-1) + 2(n-k)
    flows of O(k (n + m)).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _k_strong(*_rows(d), k, proof)


# the reason a failing check gives, by its name in a proof and a certificate
_SHORT = {"pair": "from {} to {}", "in-fan": "into {} from 0..{}",
          "out-fan": "from {} into 0..{}"}


def _k_strong(outs, ins, k: int, proof: list | None = None) -> KStrongResult:
    """The body of is_k_strong on D's out- and in-rows, loops left out, for
    k >= 1: the decision of the library and of the ``search`` sweep."""
    n = len(outs)
    if n < k + 1:
        return KStrongResult(False, None, f"needs at least {k + 1} vertices, has {n}")
    if k == 1:
        full = (1 << n) - 1
        for rows, pair in ((outs, "from 0 to {}"), (ins, "from {} to 0")):
            missed = full & ~_reach(rows, 0, full)
            if missed:
                v = (missed & -missed).bit_length() - 1
                return KStrongResult(False, (), "only 0 disjoint paths " + pair.format(v))
        return KStrongResult(True)
    short = _short_check(outs, ins, k, proof)
    if short is None:
        return KStrongResult(True)
    net, value, (name, *ends) = short
    ends = ends if name == "pair" else (ends[0], ends[0] - 1)
    return KStrongResult(False, net.cut(),
                         f"only {value} disjoint paths " + _SHORT[name].format(*ends))


def _short_check(outs, ins, k: int, proof: list | None = None) -> tuple | None:
    """The first check of S. Even's schedule (``is_k_strong``) that falls
    short of k, as (its net, its flow value, the check), for k >= 2 and
    n >= k + 1; None when every check holds.  A check is ("pair", s, t),
    ("in-fan", j) or ("out-fan", j).  The value is the order of the net's
    ``cut()``, a minimum cut.

    Given a list, proof, each check that holds and that the arcs do not
    settle appends (the check, its paths), in schedule order: a pair's k
    internally disjoint s->t paths; a fan's ``kept`` paths, the in-fan's
    as paths into j and the out-fan's, found on the reverse net, turned
    round to run from j.  So a seed's short paths are listed when they
    settle a check, and a decision-only call builds no path.
    Time: at most k(k-1) + 2(n-k) flows of O(k (n + m)), and with proof
    O(n) more per check listed."""
    keep = proof is not None
    forward, backward = _FlowNet(outs, ins), _FlowNet(ins, outs)
    forward.keep = backward.keep = keep
    for s in range(k):
        for t in range(k):
            if s != t and not outs[s] >> t & 1:
                if (value := forward.flow(s, t, k)) < k:
                    return forward, value, ("pair", s, t)
                if keep:
                    proof.append((("pair", s, t), forward.kept))
    fans = ((forward, "in-fan", 1), (backward, "out-fan", -1))
    for j in range(k, len(outs)):
        for net, name, way in fans:
            net.kept = ()
            if (value := net.fan(j, k)) < k:
                return net, value, (name, j)
            if net.kept:
                proof.append(((name, j), [path[::way] for path in net.kept]))
    return None


# ---------------------------------------------------------------------------
# path systems


@dataclass(frozen=True)
class PathSystem:
    """Directed paths, either internally disjoint with shared endpoints
    (cycles through one vertex when the endpoints coincide) or fully
    vertex-disjoint between sources and sinks."""

    paths: tuple
    mode: str  # "internally_disjoint_same_endpoints" | "independent_multi_endpoint"
    sources: tuple
    sinks: tuple


def check_path_system(d: Digraph, system: PathSystem) -> list[str]:
    """Structural verification; returns a list of problems (empty = valid),
    naming vertices and paths 1-based, as a certificate does.  An empty
    path is a problem by itself, and no other check reads it."""
    problems = []
    cycles = system.sources == system.sinks and system.mode != "independent_multi_endpoint"
    paths = []  # (1-based place, path) of every nonempty path
    for i, path in enumerate(system.paths, 1):
        if not path:
            problems.append(f"path {i} is empty")
            continue
        paths.append((i, path))
        for x, y in zip(path, path[1:]):
            if x == y or (x, y) not in d.arcs:
                problems.append(f"missing arc {x + 1} -> {y + 1} in path {i}")
        if len(set(path)) != len(path) - (cycles and len(path) > 2):
            problems.append(f"repeated vertex in path {i}")
    if system.mode == "internally_disjoint_same_endpoints":
        s, t = system.sources[0], system.sinks[0]
        interior = []
        for i, path in paths:
            if path[0] != s or path[-1] != t:
                problems.append(f"path {i} does not run {s + 1} -> {t + 1}")
            interior.append((i, set(path[1:-1])))
        for x, (a, inner) in enumerate(interior):
            for b, other in interior[x + 1:]:
                shared = inner & other
                if shared:
                    problems.append(f"paths {a} and {b} share interior "
                                    f"{sorted(v + 1 for v in shared)}")
        if len({path for _, path in paths}) != len(paths):
            problems.append("duplicate path")
    else:
        used_sources, used_sinks, all_vertices = [], [], set()
        for _, path in paths:
            used_sources.append(path[0])
            used_sinks.append(path[-1])
            overlap = all_vertices & set(path)
            if overlap:
                problems.append(f"paths share vertices {sorted(v + 1 for v in overlap)}")
            all_vertices |= set(path)
        if sorted(used_sources) != sorted(system.sources):
            problems.append("sources not used exactly once each")
        if sorted(used_sinks) != sorted(system.sinks):
            problems.append("sinks not used exactly once each")
    return problems


def menger_paths(d: Digraph, s: int, t: int, k: int) -> PathSystem:
    """k internally vertex-disjoint s->t paths.

    Exists whenever D is k-strong; raises InsufficientPathsError with the
    achievable count and a cut witness otherwise.
    """
    if s == t:
        raise ValueError("endpoints must be distinct")
    if not (0 <= s < d.n and 0 <= t < d.n):
        raise ValueError("endpoint out of range")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _path_systems(d, [(s, t)], k)[0]


def _path_systems(d: Digraph, pairs, k: int) -> list:
    """One PathSystem of k internally disjoint s->t paths per (s, t) in
    pairs, all read off one ``_FlowNet``; for s == t, k cycles through s
    meeting only there.  The arc s->t, when there is one, is a path of its
    own, and the flow, which leaves it out, gives the rest.  Each flow
    starts afresh, so earlier pairs do not change the paths.  Raises
    InsufficientPathsError at the first pair with fewer than k.
    Time: O(k (n + m)) per pair, one unseeded flow and its check."""
    net = _FlowNet(*_rows(d))
    systems = []
    for s, t in pairs:
        direct = k > 0 and net.outs[s] >> t & 1
        value = direct + net.flow(s, t, k - direct, seeded=False)
        if value < k:
            raise InsufficientPathsError(k, value, net.cut())
        system = PathSystem(tuple(sorted(net.paths(s, t) + [(s, t)] * direct)),
                            "internally_disjoint_same_endpoints", (s,), (t,))
        problems = check_path_system(d, system)
        if problems:
            raise AssertionError(f"invalid path system produced: {problems}")
        systems.append(system)
    return systems


def independent_path_system(d: Digraph, sources, sinks) -> PathSystem:
    """k vertex-disjoint paths, each from one source to one sink, every
    source and sink used exactly once.  Exists whenever D is k-strong and
    the 2k endpoints are distinct.  One flow from a super source, with an
    arc to each source, to a super sink, with an arc from each sink."""
    sources, sinks = tuple(sources), tuple(sinks)
    k = len(sources)
    if k == 0 or len(sinks) != k:
        raise ValueError("need equally many sources and sinks, at least one each")
    endpoints = sources + sinks
    if len(set(endpoints)) != 2 * k:
        raise ValueError("sources and sinks must be 2k distinct vertices")
    if not all(0 <= v < d.n for v in endpoints):
        raise ValueError("endpoint out of range")

    top, bottom = d.n, d.n + 1
    wired = Digraph(d.n + 2, d.arcs | {(top, x) for x in sources}
                    | {(y, bottom) for y in sinks})
    wide = _path_systems(wired, [(top, bottom)], k)[0]
    system = PathSystem(tuple(path[1:-1] for path in wide.paths),
                        "independent_multi_endpoint", sources, sinks)
    problems = check_path_system(d, system)
    if problems:
        raise AssertionError(f"invalid path system produced: {problems}")
    return system


def cycles_through_vertex(d: Digraph, x: int, k: int) -> tuple:
    """k cycles, any two of which intersect exactly in {x}.

    Construction: k internally disjoint paths from "out of x" to "into x"
    in the split-vertex network, that is, from x back to itself.  Requires
    D k-strong.
    """
    if not 0 <= x < d.n:
        raise ValueError("vertex out of range")
    verdict = is_k_strong(d, k)
    if not verdict.holds:
        raise ValueError(f"digraph is not {k}-strong: {verdict.reason}")
    return _path_systems(d, [(x, x)], k)[0].paths


# ---------------------------------------------------------------------------
# ear decomposition


@dataclass(frozen=True)
class EarDecompositionD:
    """Ears as vertex sequences; cycles are closed (first == last)."""

    ears: tuple

    @property
    def ear_count(self) -> int:
        return len(self.ears)

    def arcs(self) -> set:
        out = set()
        for ear in self.ears:
            out.update(zip(ear, ear[1:]))
        return out


def check_ear_decomposition_digraph(d: Digraph, dec: EarDecompositionD) -> list[str]:
    """Verify arc-disjointness, the attachment rules, and exact coverage, on
    masks of the vertices met and, per tail, of the arcs covered so far.  An
    ear that is empty, holds a non-vertex of D, such as 1.0, or is no
    sequence, such as a set, is reported alone; a later ear of one vertex
    has no arc and is a problem.
    Time: O(n + m + L) mask operations, L the total length of the ears: one
    condition for each single-arc ear that passes and is a tuple, as every
    builder writes one, and O(1) per vertex of the others, each vertex
    tested as it is shifted in; only a non-vertex costs a second pass
    (``_non_vertex_ear``), to name its ear."""
    if not dec.ears:
        return ["empty decomposition"]
    try:
        return _ear_problems(d, dec.ears)
    except (TypeError, ValueError, LookupError):
        # the mask loop is the vertex test: a non-vertex fails a shift (1.0,
        # -1) or a bound test (n), and an ear that is no sequence fails len
        # or its first index
        problem = _non_vertex_ear(dec.ears, d.n)
        if problem is None:
            raise
        return [problem]


def _non_vertex_ear(ears, n: int) -> str | None:
    """The problem of the first ear that is not a non-empty sequence of int
    vertices 0..n-1, or None."""
    vertices = set(range(n))
    return next((f"ear {idx} {ear} is not a sequence of vertices of D"
                 for idx, ear in enumerate(ears)
                 if not isinstance(ear, Sequence) or not ear
                 or not all(isinstance(v, int) for v in ear)
                 or not vertices.issuperset(ear)), None)


def _ear_problems(d: Digraph, ears) -> list[str]:
    """The problems of ``check_ear_decomposition_digraph``; a LookupError,
    TypeError or ValueError when an ear is not a non-empty sequence of
    vertices of D."""
    n, outs = d.n, _rows(d)[0]
    problems = []
    first = ears[0]
    if len(first) < 3 or first[0] != first[-1] or len(set(first[:-1])) != len(first) - 1:
        problems.append(f"initial ear {first} is not a cycle")
    covered, seen = [0] * n, 0
    for idx, ear in enumerate(ears):
        if idx and len(ear) == 2 and type(ear) is tuple:
            # one arc, new and between old vertices, passes in one condition,
            # b tested by a right shift before 1 << b; any other, and any
            # two-vertex ear that is no tuple, such as a dict keyed 0 and 1,
            # goes on to the checks of a longer ear
            a, b = ear[0], ear[1]
            if (outs[a] & ~covered[a] & seen) >> b & 1 and seen >> a & 1:
                covered[a] |= 1 << b
                continue
        if len(ear) == 1:
            if ear[0] not in range(n):
                raise LookupError(ear[0])
            if idx:
                problems.append(f"ear {idx} {ear} has no arc")
                continue
        x, inner, bit = ear[0], 0, 0
        for y in ear[1:]:
            inner |= bit  # every head but the last: the interior
            if not outs[x] >> y & 1:  # y is a vertex before 1 << y
                if y >= n:
                    raise LookupError(y)
                if (x, y) not in d.arcs:
                    problems.append(f"ear {idx} uses missing arc {(x, y)}")
            bit = 1 << y
            if covered[x] & bit:
                problems.append(f"ear {idx} repeats arc {(x, y)}")
            covered[x] |= bit
            x = y
        a, b, ends = ear[0], x, 1 << ear[0] | 1 << x
        if idx:
            kind = "cycle" if a == b else "path"
            if not (seen >> a & 1 and seen >> b & 1):
                problems.append(_attach_problem(idx, a, b))
            if inner & seen:
                problems.append(f"{kind} ear {idx} re-enters old vertices {_bits(inner & seen)}")
            # the vertices of a path ear, or of a cycle ear but its last, are distinct
            if (inner | ends).bit_count() != len(ear) - (a == b):
                problems.append(f"{kind} ear {idx} repeats a vertex")
        seen |= inner | ends
    if seen != (1 << n) - 1:
        problems.append("vertices not fully covered")
    if tuple(covered) != outs:
        problems.append("arcs not exactly covered")
    return problems


def _attach_problem(idx: int, a: int, b: int) -> str:
    """The problem of ear idx, from a to b, not ending at old vertices."""
    return (f"cycle ear {idx} attaches at a new vertex" if a == b else
            f"path ear {idx} endpoints must be distinct old vertices")


def _out_lists(d: Digraph) -> list[list[int]]:
    """D's sorted out-neighbour lists, read off the masks."""
    return [_bits(row) for row in _rows(d)[0]]


def _shortest_cycle_through(adj, v: int) -> tuple | None:
    """Shortest directed cycle through v as an open vertex tuple starting at
    v, ties broken by the smaller tuple, over the out-neighbour lists adj
    (``_out_lists``); None when there is none.  It is the first return to v
    of a breadth-first search (``core._bfs_path``).
    Time: O(n + m)."""
    cycle = _bfs_path(v, adj.__getitem__, lambda y: y == v)
    return None if cycle is None else tuple(cycle[:-1])


def _shortest_cycle(adj) -> tuple | None:
    """Shortest directed cycle under the same order, or None: a later start
    wins only by being shorter, so the first 2-cycle ends the scan."""
    best = None
    for v in range(len(adj)):
        cycle = _shortest_cycle_through(adj, v)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
            if len(best) == 2:
                break
    return best


def ear_decomposition_digraph(d: Digraph, start_cycle=None) -> EarDecompositionD:
    """Build an ear decomposition of a strong digraph; exists iff D is
    strong.  Any directed cycle may serve as the starting ear; by default
    the shortest (``_ear_decomposition``).
    Time: O(n (n + m)), that of ``_ear_decomposition``: at most n searches
    for the start cycle, then O(n) mask steps per ear run, and a search
    only for a path ear whose new vertex has no old out-neighbour."""
    if d.has_loops():
        raise ValueError("ear decomposition requires a loop-free digraph")
    if d.n < 2:
        raise ValueError("ear decomposition needs at least two vertices")
    if not is_strong(d):
        raise ValueError("digraph is not strong")
    if start_cycle is not None:
        start_cycle = tuple(start_cycle)
        if not all(isinstance(v, int) for v in start_cycle):
            raise ValueError(f"start cycle {start_cycle} is not a sequence of vertices of D")
        if len(start_cycle) >= 2 and start_cycle[0] == start_cycle[-1]:
            start_cycle = start_cycle[:-1]
        if len(set(start_cycle)) != len(start_cycle) or len(start_cycle) < 2:
            raise ValueError(f"{start_cycle} is not a simple cycle")
        closed = start_cycle + (start_cycle[0],)
        for arc in zip(closed, closed[1:]):
            if arc not in d.arcs:
                raise ValueError(f"start cycle uses missing arc {arc}")
    return _ear_decomposition(d, start_cycle)


def _ear_decomposition(d: Digraph, start_cycle=None) -> EarDecompositionD:
    """The ear decomposition from start_cycle, an open simple cycle of D,
    or the shortest cycle (``_shortest_cycle``), of a loop-free strong D
    with n >= 2, which the caller has checked.

    Each next ear is the smallest uncovered arc (u, v) with u already in,
    then, when v is new, the breadth-first path from v to the first old
    vertex met (``core._bfs_path``).  Each vertex x in keeps its uncovered
    out-arcs as a mask pending[x], and ``active`` marks the x whose mask is
    not empty.  Arcs compare by tail first, so the lowest bit of pending[u]
    for the lowest active u is the smallest such arc, the minimum a heap of
    them would give; as D is strong, no active vertex means every arc is
    covered.  An ear (u, v) to an old v changes no mask but pending[u], so
    the ears (u, v) for the old v below the least new one in pending[u]
    come next, one after another, and are taken in one step.

    A path ear whose new v has an old out-neighbour is (u, v, y), y the
    lowest bit of outs[v] & members, with no search: the search pops v
    first and scans v's sorted out-list before any other vertex's, and it
    stops at the first old vertex it meets there, which is y (v is new and
    D has no loop, so no earlier entry stops it).  Only the other path
    ears search, all on one set of ``_out_lists``.
    Time: O(n (n + m)) for the start cycle, at most n searches of
    O(n + m); then O(n) mask steps per path ear, which adds a vertex, and
    per run of single arcs or per arc otherwise, plus a search of
    O(n + m) only for a path ear whose new vertex has no old
    out-neighbour.
    """
    adj, outs = _out_lists(d), _rows(d)[0]
    start_cycle = _shortest_cycle(adj) if start_cycle is None else start_cycle
    ears = []
    ear = start_cycle + (start_cycle[0],)
    pending = list(outs)
    members = active = 0
    while ear:
        ears.append(ear)
        for x, y in zip(ear, ear[1:]):
            members |= 1 << x
            pending[x] ^= 1 << y
            active = active | 1 << x if pending[x] else active & ~(1 << x)
        ear = None
        while active and ear is None:
            u = (active & -active).bit_length() - 1
            new = pending[u] & ~members
            # the arcs to old vertices below the least new one; all, if none
            old = pending[u] & (new & -new) - 1
            pending[u] ^= old
            # _bits inlined: no call and no list per run
            while old:
                low = old & -old
                ears.append((u, low.bit_length() - 1))
                old ^= low
            if new:
                v = (new & -new).bit_length() - 1
                hit = outs[v] & members
                ear = ((u, v, (hit & -hit).bit_length() - 1) if hit else
                       (u, *_bfs_path(v, adj.__getitem__, lambda y: members >> y & 1)))
            else:
                active ^= 1 << u
    dec = EarDecompositionD(tuple(ears))
    problems = check_ear_decomposition_digraph(d, dec)
    if problems:
        raise AssertionError(f"invalid ear decomposition produced: {problems}")
    return dec


# ---------------------------------------------------------------------------
# minimality


@dataclass(frozen=True)
class MinimalityResult:
    holds: bool
    witness: tuple | None = None  # a deletable arc/edge when not minimal
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


def is_minimal_k_strong(d: Digraph, k: int) -> MinimalityResult:
    """k-strong, and every single-arc deletion destroys that; when not
    minimal, the witness is the first deletable arc in sorted order.

    Arc lemma: for D k-strong and an arc ab, D - ab is k-strong iff D - ab
    has k internally disjoint a->b paths.  (=>) is Menger's theorem.  (<=)
    D - ab keeps the n >= k + 1 vertices.  Take S, |S| < k, with D - ab - S
    not strong.  D - S is strong, so a and b lie outside S, and b is cut
    off from a in D - S - ab (Lemma A of ``search``).  Yet S misses one of
    the k paths, which runs from a to b there.
    ``_FlowNet.flow(a, b, k)`` leaves the arc a->b out, so on D itself it
    counts the a->b paths of D - ab, and ab is deletable iff it reaches k.
    Time: one ``is_k_strong`` decision, then at most m seeded pair flows of
    O(k (n + m)), all on one net.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _minimal_k_strong(*_rows(d), k)


def _minimal_k_strong(outs, ins, k: int) -> MinimalityResult:
    """The body of is_minimal_k_strong on D's out- and in-rows, loops left
    out, for k >= 1: one ``_k_strong`` decision, then one pair flow per
    arc, in row order, then bit order, which is sorted order."""
    if not _k_strong(outs, ins, k).holds:
        return MinimalityResult(False, None, f"not {k}-strong")
    deletable = _arc_test(outs, ins, k)
    for a, row in enumerate(outs):
        for b in _bits(row):
            if deletable(a, b):
                return MinimalityResult(False, (a, b), "arc is deletable")
    return MinimalityResult(True)


def _arc_test(outs, ins, k: int):
    """deletable(a, b), whether D - ab is k-strong, for an arc ab of a
    k-strong D with out- and in-rows ``outs`` and ``ins``: the arc lemma
    (``is_minimal_k_strong``), one seeded pair flow per call, all on one
    net.  At k = 0 every arc is deletable, and the flow returns at once."""
    net = _FlowNet(outs, ins)
    return lambda a, b: net.flow(a, b, k) >= k


# ---------------------------------------------------------------------------
# one-way pairs


@dataclass(frozen=True)
class OneWayPair:
    """Disjoint nonempty X, Y with no arc from X to Y; h = |V - X - Y|."""

    x: tuple
    y: tuple
    h: int


def one_way_pair_audit(d: Digraph, k: int):
    """Exhaustively check h(X, Y) >= k over all one-way pairs.

    For k <= n-1 this is equivalent to k-strong connectivity.  Returns
    (True, None) or (False, violating pair).
    """
    n = d.n
    check_budget("one_way_pairs", n, f"the one-way pair audit at n={n}")
    arcs = [a for a in d.arcs if a[0] != a[1]]
    vertices = list(range(n))
    for xm in range(1, 1 << n):
        rest = [v for v in vertices if not xm >> v & 1]
        if not rest:
            continue
        for ym_bits in range(1, 1 << len(rest)):
            ym = 0
            for idx, v in enumerate(rest):
                if ym_bits >> idx & 1:
                    ym |= 1 << v
            if any(xm >> a & 1 and ym >> b & 1 for a, b in arcs):
                continue
            h = n - bin(xm).count("1") - bin(ym).count("1")
            if h < k:
                pair = OneWayPair(
                    tuple(v for v in vertices if xm >> v & 1),
                    tuple(v for v in vertices if ym >> v & 1),
                    h)
                return False, pair
    return True, None


# ---------------------------------------------------------------------------
# anti-directed trails


def is_anti_directed_trail(arcs_seq) -> bool:
    """Check the closed alternation pattern: an even sequence of distinct
    arcs pairing up alternately at heads and at tails, indices cyclic."""
    seq = [tuple(a) for a in arcs_seq]
    m = len(seq)
    if m < 2 or m % 2 != 0 or len(set(seq)) != m:
        return False

    def matches(head_first: bool) -> bool:
        for i in range(m):
            a, b = seq[i], seq[(i + 1) % m]
            share_head = (i % 2 == 0) == head_first
            if share_head:
                if a[1] != b[1]:
                    return False
            else:
                if a[0] != b[0]:
                    return False
        return True

    return matches(True) or matches(False)


def _bipartite_cycle(pairs) -> tuple | None:
    """The first cycle closed when the edges (a, b) of a bipartite graph, a
    on one side and b on the other, are added in the order given: its edges
    (a, b), from the closing edge's a along the forest path to its b and
    back by that edge; None when the edges form a forest.  a is node 2a
    and b node 2b + 1 of one union-find forest.
    Time: O(m log m) for m edges, plus O(m) for the forest path."""
    leader: dict = {}
    forest: dict = {}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for a, b in pairs:
        x, y = 2 * a, 2 * b + 1
        leader.setdefault(x, x)
        leader.setdefault(y, y)
        if find(x) == find(y):
            nodes = _bfs_path(x, lambda z: forest.get(z, ()), lambda z: z == y) + [x]
            return tuple((p >> 1, q >> 1) if p & 1 == 0 else (q >> 1, p >> 1)
                         for p, q in zip(nodes, nodes[1:]))
        leader[find(x)] = find(y)
        forest.setdefault(x, []).append(y)
        forest.setdefault(y, []).append(x)
    return None


def anti_directed_trail_find(d: Digraph, k: int):
    """Search the arcs whose tail has out-degree >= k+1 and whose head has
    in-degree >= k+1 for an anti-directed trail; None when there is none.

    Two arcs sharing a head (tail) are adjacent edges of an auxiliary
    bipartite graph on tail- and head-slots, so an anti-directed trail
    exists exactly when that auxiliary graph has a cycle
    (``_bipartite_cycle`` on the arcs in sorted order).
    Time: O(m log m) for m arcs, degrees read off the masks.
    """
    return _anti_directed_trail(*_rows(d), k)


def _anti_directed_trail(outs, ins, k: int):
    """The body of anti_directed_trail_find on D's out- and in-rows: row
    order, then bit order, is the sorted order of the arcs."""
    heads = sum(1 << b for b, row in enumerate(ins) if row.bit_count() > k)
    trail = _bipartite_cycle([(a, b) for a, row in enumerate(outs) if row.bit_count() > k
                              for b in _bits(row & heads)])
    if trail is not None and not is_anti_directed_trail(trail):
        raise AssertionError("auxiliary cycle is not an anti-directed trail")
    return trail


# ---------------------------------------------------------------------------
# degree audit for minimal k-strong digraphs


@dataclass(frozen=True)
class DegreeAuditReport:
    ok: bool
    k: int
    out_degree_k_count: int
    in_degree_k_count: int


def minimal_k_strong_degree_audit(d: Digraph, k: int) -> DegreeAuditReport:
    """In a minimal k-strong digraph, count the vertices of out-degree
    exactly k and of in-degree exactly k; both counts must reach k."""
    verdict = is_minimal_k_strong(d, k)
    if not verdict.holds:
        raise ValueError(f"digraph is not minimal {k}-strong: {verdict.reason}")
    return _degree_audit(*_rows(d), k)


def _degree_audit(outs, ins, k: int) -> DegreeAuditReport:
    """The body of minimal_k_strong_degree_audit on D's out- and in-rows,
    with no minimality check: ``search`` prints it for hits it knows
    minimal."""
    out_count = list(map(int.bit_count, outs)).count(k)
    in_count = list(map(int.bit_count, ins)).count(k)
    return DegreeAuditReport(out_count >= k and in_count >= k, k, out_count, in_count)
