"""Shared instances, seeded suites and definitional oracles.

The named small graphs are hand-checkable: every expected value asserted
against them in the tests was derived by hand from the definitions
(matchings enumerated, blocks located by eye) before the library existed.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix,
                      random_bipartite_with_pm)
from extendix.connectivity import _bits, _rows
from extendix.search import _minimal_k_strong_rows, minimal_k_strong_digraphs


def make_c6() -> BipartiteGraph:
    """The 6-cycle u1 w1 ... : edges u_i w_i and u_i w_{i+1}."""
    from extendix import cycle_bipartite

    return cycle_bipartite(3)


def make_p4() -> BipartiteGraph:
    """The path w1 - u1 - w2 - u2 (edges u1w1, u1w2, u2w2); unique
    perfect matching {u1w1, u2w2}."""
    return BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 1)}))


def make_c4_pendant() -> BipartiteGraph:
    """A 4-cycle on u1,u2,w1,w2 plus the pendant matching edge u3w3 hung
    on u2 through the fixed single edge u2w3."""
    return BipartiteGraph(3, frozenset({(0, 0), (1, 1), (2, 2),
                                        (0, 1), (1, 0), (1, 2)}))


def make_two_fans() -> Digraph:
    """Two 2-cycles sharing vertex 0: a minimal strong digraph whose
    bipartite graph is not minimal 1-extendable."""
    return Digraph(3, frozenset({(0, 1), (1, 0), (0, 2), (2, 0)}))


@pytest.fixture
def c6():
    return make_c6()


@pytest.fixture
def p4():
    return make_p4()


@pytest.fixture
def k33():
    from extendix import complete_bipartite

    return complete_bipartite(3)


@pytest.fixture
def c4_pendant():
    return make_c4_pendant()


# ---------------------------------------------------------------------------
# seeded suites (deterministic; shared by the acceptance criteria)


def random_graph_suite(count: int = 500) -> list:
    ns = [2, 3, 4, 5, 6, 7]
    ps = [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    return [random_bipartite_with_pm(ns[i % 6], ps[i % 7], seed=9000 + i)
            for i in range(count)]


@functools.lru_cache(maxsize=None)
def minimal_strong(n: int, k: int) -> tuple:
    """The minimal k-strong digraph sweep, run once per session."""
    return tuple(minimal_k_strong_digraphs(n, k))


@functools.lru_cache(maxsize=None)
def minimal_strong_rows(n: int, k: int) -> tuple:
    """The out-rows of ``minimal_strong(n, k)``, in its order, from the row
    sweep itself: a test that patches ``search._minimal_k_strong_rows`` with
    this still reaches the sweep."""
    return tuple(_minimal_k_strong_rows(n, k))


def reference_mask_k_strong(outs: list[int], ins: list[int], k: int) -> bool:
    """The sweep's k-strong test before it took ``connectivity._k_strong``,
    moved unchanged but for its name: for the small k used in sweeps,
    n >= k + 1 and D - S strong for every vertex set S of size below k, so
    no mask is 0.  O(n^(k-1) (n + m))."""
    from itertools import combinations

    from extendix.connectivity import _reach

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


def reference_is_minimal_k_strong(d: Digraph, k: int):
    """``is_minimal_k_strong`` as the library had it before the arc lemma,
    unchanged but for its name and import line: k-strong, and every
    single-arc deletion destroys that, one new digraph and one decision
    per arc."""
    from extendix.connectivity import MinimalityResult, is_k_strong

    if not is_k_strong(d, k).holds:
        return MinimalityResult(False, None, f"not {k}-strong")
    for arc in d.sorted_arcs():
        if arc[0] == arc[1]:
            continue
        if is_k_strong(d.without_arc(arc), k).holds:
            return MinimalityResult(False, arc, "arc is deletable")
    return MinimalityResult(True)


def reference_is_minimal_k_extendable(g: BipartiteGraph, k: int):
    """``is_minimal_k_extendable`` as the library had it before it ran on
    D(G, M), unchanged but for its name and import line: k-extendable, and
    every single-edge deletion destroys that, one new graph and one
    decision per edge."""
    from extendix.connectivity import MinimalityResult
    from extendix.extendability import is_k_extendable

    if not is_k_extendable(g, k):
        return MinimalityResult(False, None, f"not {k}-extendable")
    for edge in g.sorted_edges():
        if is_k_extendable(g.without_edge(edge), k):
            return MinimalityResult(False, edge, "edge is deletable")
    return MinimalityResult(True)


def minimal_strong_by_arc_sets(n: int, k: int) -> list:
    """Minimal k-strong digraphs by the walk the sweep used to take: every
    arc set in ``combinations`` order over the off-diagonal cells, by size
    n..2(n-1) for k = 1, filtered by ``reference_mask_k_strong`` on the set
    and on each single-arc deletion.  About a second at n = 5."""
    from itertools import combinations

    from extendix.core import _off_diagonal_cells

    cells = _off_diagonal_cells(n)
    found = []
    for m in range(n, 2 * n - 1):
        for chosen in combinations(cells, m):
            outs, ins = [0] * n, [0] * n
            for a, b in chosen:
                outs[a] |= 1 << b
                ins[b] |= 1 << a
            if not reference_mask_k_strong(outs, ins, k):
                continue
            for a, b in chosen:
                outs[a] ^= 1 << b
                ins[b] ^= 1 << a
                deletable = reference_mask_k_strong(outs, ins, k)
                outs[a] ^= 1 << b
                ins[b] ^= 1 << a
                if deletable:
                    break
            else:
                found.append(Digraph(n, frozenset(chosen)))
    return found


def random_matrix_suite(count: int = 300) -> list:
    import random

    out = []
    ns = [2, 3, 4, 5, 6]
    ps = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    for i in range(count):
        rng = random.Random(5000 + i)
        n = ns[i % 5]
        p = ps[i % 7]
        rows = tuple(tuple(1 if rng.random() < p else 0 for _ in range(n))
                     for _ in range(n))
        out.append(ZeroOneMatrix(rows))
    return out


def random_digraph_suite(count: int = 120, n_lo: int = 5, n_hi: int = 6) -> list:
    from extendix import random_digraph

    out = []
    ps = [0.2, 0.3, 0.4, 0.5, 0.6]
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        out.append(random_digraph(n, ps[i % 5], seed=7000 + i))
    return out


# ---------------------------------------------------------------------------
# the ear decomposition one ear at a time


def ear_decomposition_per_ear(d: Digraph, start_cycle=None):
    """The digraph ear decomposition as the library built it before it took
    runs of single arcs in one step, unchanged but for its name and this
    line: each loop appends one ear, the smallest uncovered arc (u, v) with
    u already in, or the path ear from it when v is new."""
    from extendix.connectivity import (EarDecompositionD, _out_lists, _rows,
                                       _shortest_cycle, check_ear_decomposition_digraph,
                                       is_strong)
    from extendix.core import _bfs_path

    if d.has_loops():
        raise ValueError("ear decomposition requires a loop-free digraph")
    if d.n < 2:
        raise ValueError("ear decomposition needs at least two vertices")
    if not is_strong(d):
        raise ValueError("digraph is not strong")
    adj = _out_lists(d)
    if start_cycle is None:
        start_cycle = _shortest_cycle(adj)
    start_cycle = tuple(start_cycle)
    if len(start_cycle) >= 2 and start_cycle[0] == start_cycle[-1]:
        start_cycle = start_cycle[:-1]
    if len(set(start_cycle)) != len(start_cycle) or len(start_cycle) < 2:
        raise ValueError(f"{start_cycle} is not a simple cycle")
    closed = start_cycle + (start_cycle[0],)
    for arc in zip(closed, closed[1:]):
        if arc not in d.arcs:
            raise ValueError(f"start cycle uses missing arc {arc}")

    ears = [closed]
    pending = list(_rows(d)[0])
    members = active = 0
    while True:
        for x, y in zip(ears[-1], ears[-1][1:]):
            members |= 1 << x
            pending[x] ^= 1 << y
            active = active | 1 << x if pending[x] else active & ~(1 << x)
        if not active:
            break
        u = (active & -active).bit_length() - 1
        v = (pending[u] & -pending[u]).bit_length() - 1
        ears.append((u, v) if members >> v & 1 else
                    (u, *_bfs_path(v, adj.__getitem__, lambda y: members >> y & 1)))
    dec = EarDecompositionD(tuple(ears))
    problems = check_ear_decomposition_digraph(d, dec)
    if problems:
        raise AssertionError(f"invalid ear decomposition produced: {problems}")
    return dec


def ear_decomposition_by_runs(d: Digraph, start_cycle=None):
    """The ear loop as the library ran it before a path ear with an old
    out-neighbour skipped its search, unchanged but for its name and this
    line: runs of single arcs in one step, and a breadth-first search for
    every path ear.  The caller has checked D and start_cycle."""
    from extendix.connectivity import EarDecompositionD, _out_lists, _shortest_cycle
    from extendix.core import _bfs_path

    adj = _out_lists(d)
    start_cycle = _shortest_cycle(adj) if start_cycle is None else start_cycle
    ears = []
    ear = start_cycle + (start_cycle[0],)
    pending = list(_rows(d)[0])
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
            ears += [(u, v) for v in _bits(old)]
            pending[u] ^= old
            if new:
                v = (new & -new).bit_length() - 1
                ear = (u, *_bfs_path(v, adj.__getitem__, lambda y: members >> y & 1))
            else:
                active ^= 1 << u
    return EarDecompositionD(tuple(ears))


def reference_check_ear_decomposition(d: Digraph, dec) -> list[str]:
    """The mask checker before single-arc ears took one condition, unchanged
    but for its name and this line: it passes a later ear of one vertex,
    and a vertex equal to an int but of another type (1.0) raises."""
    from extendix.connectivity import _attach_problem

    if not dec.ears:
        return ["empty decomposition"]
    n, outs = d.n, _rows(d)[0]
    vertices = set(range(n))
    if not all(dec.ears) or not set().union(*dec.ears) <= vertices:
        idx = next(idx for idx, ear in enumerate(dec.ears)
                   if not ear or not vertices.issuperset(ear))
        return [f"ear {idx} {dec.ears[idx]} is not a sequence of vertices of D"]
    problems = []
    first = dec.ears[0]
    if len(first) < 3 or first[0] != first[-1] or len(set(first[:-1])) != len(first) - 1:
        problems.append(f"initial ear {first} is not a cycle")
    covered, seen = [0] * n, 0
    for idx, ear in enumerate(dec.ears):
        if idx and len(ear) == 2:
            # one arc: no interior, and two vertices or a loop, so only the
            # arc and attachment rules can fail
            a, b = ear
            bit = 1 << b
            if not outs[a] & bit and (a, b) not in d.arcs:
                problems.append(f"ear {idx} uses missing arc {(a, b)}")
            if covered[a] & bit:
                problems.append(f"ear {idx} repeats arc {(a, b)}")
            covered[a] |= bit
            if not (seen >> a & 1 and seen & bit):
                problems.append(_attach_problem(idx, a, b))
            seen |= 1 << a | bit
            continue
        x, inner, bit = ear[0], 0, 0
        for y in ear[1:]:
            inner |= bit  # every head but the last: the interior
            bit = 1 << y
            if not outs[x] & bit and (x, y) not in d.arcs:
                problems.append(f"ear {idx} uses missing arc {(x, y)}")
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
            if len(ear) > 1 and (inner | ends).bit_count() != len(ear) - (a == b):
                problems.append(f"{kind} ear {idx} repeats a vertex")
        seen |= inner | ends
    if seen != (1 << n) - 1:
        problems.append("vertices not fully covered")
    if tuple(covered) != outs:
        problems.append("arcs not exactly covered")
    return problems


# ---------------------------------------------------------------------------
# the reference flow kernel: a stored network that still counts the arc s->t


_BIG = 1 << 20


class _ReferenceFlowNet:
    """The flow kernel the library replaced, kept as the reference for
    ``_FlowNet``: the split-vertex network stored as flat int lists.

    A digraph's out- and in-neighbourhoods as bitmasks, one int per
    vertex, and, built on demand, its split-vertex network as flat int
    lists; both are reused for every source/sink pair.  Node 2v is "into
    v", 2v+1 "out of v", joined by a split edge of capacity 1; arcs are
    uncapped, so minimum cuts are vertices, except the direct arc s->t,
    capped at 1 as that path counts once.  Edges e and e ^ 1 are a
    forward/reverse pair; each node's edges are sorted by head node.  From
    node 2s+1 to node 2s the paths are cycles through s, meeting only
    there.

    The masks are ``_rows``, the ones ``strong_components`` reaches
    over, and take one pass over the arcs.  The network (``head``,
    ``base``, ``adj``, ``arc_edge``) takes O(n + m) and is built by
    the first flow whose seed falls short of its limit; a pair the greedy
    seed settles (see ``_seed``) costs a few word operations on the masks
    and never builds, copies or touches it."""

    def __init__(self, d: Digraph):
        self.n = d.n
        self.outs, self.ins = _rows(d)
        self.head = None

    def _build(self) -> None:
        """The split-vertex network, read off the masks: edge 2v is v's
        split edge, then one edge per arc in sorted order.  Tails are
        walked in increasing order, so node 2a gets its split edge after
        the arcs into a from smaller tails and before those from larger
        ones, and node 2a+1 gets a's arcs by head with the reverse split
        edge (head 2a) put in at the count of a's smaller out-neighbours:
        every node's edges come sorted by head, with no sort."""
        n, outs = self.n, self.outs
        head = [z for v in range(n) for z in (2 * v + 1, 2 * v)]
        base = [1, 0] * n
        adj: list[list[int]] = [[] for _ in range(2 * n)]
        arc_edge = {}
        for a in range(n):
            adj[2 * a].append(2 * a)
            out_a = adj[2 * a + 1]
            for b in _bits(outs[a]):
                e = arc_edge[a, b] = len(head)
                head += (2 * b, 2 * a + 1)
                base += (_BIG, 0)
                out_a.append(e)
                adj[2 * b].append(e + 1)
            out_a.insert((outs[a] & (1 << a) - 1).bit_count(), 2 * a + 1)
        self.head, self.base, self.adj, self.arc_edge = head, base, adj, arc_edge

    def flow(self, s: int, t: int, limit: int, *, seeded: bool = True) -> int:
        """Disjoint s->t paths up to limit; leaves the residual network in
        ``cap`` and, when it searched, the last reach in ``via``.  Seeded
        (see ``_seed``), a pair whose short paths reach limit returns at
        once, with no array built, copied or touched, and leaves ``cap``
        and ``via`` as they were; otherwise the network is built if
        missing, the base capacities are copied, the seed's paths are
        pushed, and shortest augmenting paths take the flow on from there,
        still at most limit searches of O(n + m).  An unseeded flow always
        builds and copies, also at limit 0, so ``paths()`` after it reads
        its own residual network.  ``_path_systems`` runs unseeded, so the
        paths read off the flow are those of shortest augmenting paths
        alone.

        Seeding cannot change the value or ``cut()``.  ``cut()`` is read
        only after a flow that stopped below its limit: such a flow ran a
        search, so the network exists and ``via`` is its own, and it is
        maximum.  Every maximum flow leaves the same residual reach from
        the source: the minimum cut closest to s.  So the value, ``cut()``
        and every ``KStrongResult`` are those of the unseeded flow."""
        value, paths = self._seed(s, t, limit) if seeded else (0, ())
        if paths is None:
            return limit
        if self.head is None:
            self._build()
        cap = self.cap = self.base[:]
        head, adj, arc_edge = self.head, self.adj, self.arc_edge
        if (s, t) in arc_edge:
            cap[arc_edge[s, t]] = 1
        for path in paths:
            for x, y in zip(path, path[1:]):
                e = arc_edge[x, y]
                cap[e] -= 1
                cap[e ^ 1] += 1
            for x in path[1:-1]:
                cap[2 * x] -= 1
                cap[2 * x + 1] += 1
        src, snk = 2 * s + 1, 2 * t
        for value in range(value, limit):
            via = self.via = [None] * len(adj)
            via[src] = -1
            queue = [src]
            for x in queue:
                for e in adj[x]:
                    if cap[e] and via[head[e]] is None:
                        via[head[e]] = e
                        queue.append(head[e])
                if via[snk] is not None:
                    break
            if via[snk] is None:
                return value
            y = snk
            while y != src:
                cap[via[y]] -= 1
                cap[via[y] ^ 1] += 1
                y = head[via[y] ^ 1]
        return limit

    def _seed(self, s: int, t: int, limit: int) -> tuple:
        """A greedy set of disjoint short s->t paths, read off the masks:
        the direct arc, then every s->x->t, then one s->x->y->t for each x
        still unused, x and y lowest first among the unused interior
        vertices, stopping at limit.  Returns (limit, None) when these
        reach limit, so a settled pair lists no paths; otherwise the value
        and the paths as vertex tuples.  The direct arc and the paths of
        length 2 are counted by popcount, so a pair they settle costs a
        few word operations; each x tried costs a few more.  A y, having
        an arc to t, is never a later x: such an x would be the middle of
        a path of length 2, already taken."""
        outs, ins = self.outs, self.ins
        direct = outs[s] >> t & 1
        used = 1 << s | 1 << t
        mids = outs[s] & ins[t] & ~used
        value = direct + mids.bit_count()
        if value >= limit:
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
        if value == limit:
            return limit, None
        if direct:
            paths.append((s, t))
        return value, paths + [(s, x, t) for x in _bits(mids)]

    def cut(self) -> tuple:
        """After a flow below its limit: the vertices whose split edge
        leaves the source side, a minimum cut."""
        via = self.via
        return tuple(v for v in range(self.n)
                     if via[2 * v] is not None and via[2 * v + 1] is None)

    def paths(self, s: int, t: int) -> list:
        """The s->t paths of the last flow, smallest next vertex first."""
        head, cap = self.head, self.cap
        used = [[head[e] >> 1 for e in self.adj[2 * a + 1] if not e & 1 and cap[e ^ 1]]
                for a in range(self.n)]
        paths = []
        while used[s]:
            path = [s, used[s].pop(0)]
            while path[-1] != t:
                path.append(used[path[-1]].pop(0))
            paths.append(tuple(path))
        return paths


# ---------------------------------------------------------------------------
# the k-strong decision on the pair scan


def k_strong_pair_scan(d: Digraph, k: int):
    """``is_k_strong`` as the library had it before it ran S. Even's
    schedule, unchanged but for its name, its import line and its flow
    kernel, which is ``_ReferenceFlowNet`` in place of ``_FlowNet``: decide
    k-strong connectivity; on failure carry a separator of order below k
    (or the vertex-count obstruction).

    A violating pair joined by a direct arc yields a cut containing that
    arc, so the scan goes on until a pair fails with a cut of vertices
    only.  It takes the ordered pairs (s, t) with s < k or t < k in
    lexicographic order: 2k(n-1) - k(k-1) flows of O(k (n + m)).  Each
    flow starts from a greedy seed of disjoint paths of length at most 3
    (``_ReferenceFlowNet._seed``) on neighbourhood bitmasks.  A pair the seed
    settles touches no flow list, and the out-lists are read, once, only
    when some pair falls short, so on dense digraphs most calls never read
    them.  The seed leaves value and separator unchanged (see
    ``_ReferenceFlowNet.flow``).

    At k = 1 the scan needs no flow: a pair fails iff t is not reached
    from s, with the empty cut.  The first failing pair is (0, t) for the
    least t that 0 does not reach, else (s, 0) for the least s that does
    not reach 0, read off the out- and in-reach of 0.

    The scan over all n(n-1) pairs stops at the same pair.  Let (s, t) be
    its pair, S its separator (|S| < k), X what s reaches in D - S and Y
    the rest.  Some v_i with i < k is not in S.  If s, t >= k, then
    (v_i, t) for v_i in X, or (s, v_i) for v_i in Y, is non-adjacent and
    separated by S, so its cut is vertices only, and it comes before
    (s, t): a contradiction.  Likewise no failing scheduled pair means D
    is k-strong.
    Time: O(n) mask operations at k = 1, else O(k^2 n (n + m)).
    """
    from extendix.connectivity import KStrongResult, _reach

    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if d.n < k + 1:
        return KStrongResult(False, None, f"needs at least {k + 1} vertices, has {d.n}")
    if k == 1:
        full = (1 << d.n) - 1
        for rows, pair in zip(_rows(d), ("from 0 to {}", "from {} to 0")):
            missed = full & ~_reach(rows, 0, full)
            if missed:
                v = (missed & -missed).bit_length() - 1
                return KStrongResult(False, (), "only 0 disjoint paths " + pair.format(v))
        return KStrongResult(True)
    net = _ReferenceFlowNet(d)
    impure = None
    for s in range(d.n):
        for t in range(d.n) if s < k else range(k):
            if s == t:
                continue
            value = net.flow(s, t, k)
            if value < k:
                sep = net.cut()
                if len(sep) == value:
                    return KStrongResult(False, sep,
                                         f"only {value} disjoint paths from {s} to {t}")
                impure = (s, t, value)
    if impure is None:
        return KStrongResult(True)
    raise AssertionError(f"no vertex separator recovered although pair {impure} violates")


# ---------------------------------------------------------------------------
# perfect-matching count oracle


def count_by_row_dp(g) -> int:
    """#PM(G) by dynamic programming over the column sets that the first i
    rows can cover, one row at a time, with two layers of sets held:
    O(2^n n) time, O(C(n, n/2)) memory.  The whole-graph count the library
    used before it counted per elementary component."""
    masks = [0] * g.n
    for i, j in g.edges:
        masks[i] |= 1 << j
    layer = {0: 1}
    for row in masks:
        nxt: dict = {}
        for used, count in layer.items():
            avail = row & ~used
            while avail:
                bit = avail & -avail
                avail ^= bit
                nxt[used | bit] = nxt.get(used | bit, 0) + count
        layer = nxt
    return layer.get((1 << g.n) - 1, 0)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_ref():
    """``perfbench/ref.py``, the benchmark's reference code, which never
    imports extendix; loaded read-only, with its directory on ``sys.path``
    for its own ``gen`` import.  Skips without networkx."""
    pytest.importorskip("networkx")
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_ref", PERFBENCH / "ref.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


# ---------------------------------------------------------------------------
# definitional oracles for the edge classes and the elementary pieces


def classify_by_enumeration(g) -> tuple:
    """(fixed single, fixed double, non-fixed) edges, tagged by membership
    across all perfect matchings."""
    from extendix import perfect_matchings

    pms = [m.edges for m in perfect_matchings(g)]
    single, double, nonfixed = set(), set(), set()
    for e in g.edges:
        holding = sum(1 for pm in pms if e in pm)
        if holding == 0:
            single.add(e)
        elif holding == len(pms):
            double.add(e)
        else:
            nonfixed.add(e)
    return frozenset(single), frozenset(double), frozenset(nonfixed)


def classify_by_deletion(g) -> tuple:
    """The same classes from two deletion criteria per edge: uw lies in
    some perfect matching iff G - {u, w} has one, and in every perfect
    matching iff G - uw has none."""
    from extendix import has_perfect_matching

    single, double, nonfixed = set(), set(), set()
    for i, j in g.sorted_edges():
        if not has_perfect_matching(g, frozenset({i}), frozenset({j})):
            single.add((i, j))
        elif not has_perfect_matching(g.without_edge((i, j))):
            double.add((i, j))
        else:
            nonfixed.add((i, j))
    return frozenset(single), frozenset(double), frozenset(nonfixed)


def components_by_enumeration(g) -> tuple:
    """(pieces, fixed single edges) by the enumeration classes.  The pieces
    are (kind, U, W, edges): the components of the non-fixed subgraph plus
    one singleton per fixed double edge."""
    single, double, nonfixed = classify_by_enumeration(g)
    adj: dict = {}
    for i, j in nonfixed:
        adj.setdefault(("u", i), []).append(("w", j))
        adj.setdefault(("w", j), []).append(("u", i))
    pieces, seen = [], set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        us = frozenset(v[1] for v in comp if v[0] == "u")
        ws = frozenset(v[1] for v in comp if v[0] == "w")
        edges = frozenset(e for e in nonfixed if e[0] in us)
        pieces.append(("elementary", us, ws, edges))
    for i, j in double:
        pieces.append(("fixed_double", frozenset({i}), frozenset({j}),
                       frozenset({(i, j)})))
    return pieces, single


def assert_components_match(cm, oracle) -> None:
    """The component map cm of (G, M) has exactly the pieces and fixed
    single edges of ``components_by_enumeration(G)``, and the pieces'
    digraph vertex sets are exactly the strong components of D(G, M)."""
    oracle_pieces, single = oracle
    from extendix import digraph_of, strong_components

    g, m = cm.graph, cm.matching
    d, cmap = digraph_of(g, m)
    assert cm.digraph == d
    expected = []
    for kind, us, ws, edges in oracle_pieces:
        mpart = frozenset(e for e in m.edges if e[0] in us)
        assert frozenset(e[1] for e in mpart) == ws
        scc = frozenset(cmap.vertex_of_matching_edge(e) for e in mpart)
        expected.append((kind, us, ws, edges, mpart, scc))
    expected.sort(key=lambda p: min(p[5]))
    assert {p[5] for p in expected} == set(strong_components(d))
    got = [(p.kind, p.u_vertices, p.w_vertices, p.edges, p.matching_part, p.scc)
           for p in cm.pieces]
    assert got == expected
    assert cm.fixed_single_edges == single


# ---------------------------------------------------------------------------
# correspondence checks on the map of one derived digraph


def check_bijections(cmap, g: BipartiteGraph, m, d: Digraph) -> bool:
    """Whether the two maps of cmap are inverse bijections covering exactly
    M <-> V(D) and E(G)\\M <-> A(D)."""
    if sorted(cmap.w_relabel) != list(range(cmap.n)):
        return False
    if frozenset(cmap.matching_edges()) != m.edges:
        return False
    seen_vertices = set()
    for e in m.edges:
        v = cmap.vertex_of_matching_edge(e)
        if cmap.matching_edge_of_vertex(v) != tuple(e):
            return False
        seen_vertices.add(v)
    if seen_vertices != set(range(d.n)):
        return False
    seen_arcs = set()
    for e in sorted(g.edges - m.edges):
        arc = cmap.arc_of_nonmatching_edge(e)
        if cmap.nonmatching_edge_of_arc(arc) != tuple(e):
            return False
        seen_arcs.add(arc)
    return seen_arcs == set(d.arcs)


def alternating_cycle_edges_from_digraph_cycle(cmap, dcycle) -> tuple:
    """Edge sequence of the alternating cycle in G above a directed cycle.

    ``dcycle`` is a closed vertex sequence (first == last).  The result
    alternates non-matching and matching edges and has even length.
    """
    dcycle = tuple(dcycle)
    if len(dcycle) < 2 or dcycle[0] != dcycle[-1]:
        raise ValueError("expected a closed vertex sequence (first == last)")
    edges = []
    for t in range(len(dcycle) - 1):
        a, b = dcycle[t], dcycle[t + 1]
        edges.append((a, cmap.w_relabel[b]))   # non-matching edge of the arc
        edges.append((b, cmap.w_relabel[b]))   # matching edge of the head
    return tuple(edges)


# ---------------------------------------------------------------------------
# the text readers as they were before the label table: one is_int_token
# and int per token, one generator per matrix row


def reference_parse_instance(text: str):
    """``fileio.parse_instance`` before vertex numbers were read through a
    ``LabelIndex``, unchanged but for its name and its line-by-line pair
    and row readers inlined."""
    from collections import Counter

    from extendix.core import is_int_token
    from extendix.fileio import ParseError

    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    head = lines[0].split()
    if not head:
        raise ParseError(1, "blank header line")
    if head[0] in ("bg", "dg"):
        noun = "edge" if head[0] == "bg" else "arc"
        if len(head) != 3 or not is_int_token(head[1]) or not is_int_token(head[2]):
            raise ParseError(1, f"malformed header {lines[0]!r}")
        n, m = int(head[1]), int(head[2])
        if n < 1:
            raise ParseError(1, "n must be at least 1")
        if len(lines) - 1 != m:
            raise ParseError(1, f"header promises {m} {noun}s, file has {len(lines) - 1}")
        pairs = []
        for line_no, line in enumerate(lines[1:], 2):
            parts = line.split()
            if len(parts) != 2 or not (is_int_token(parts[0], True)
                                       and is_int_token(parts[1], True)):
                raise ParseError(line_no, f"expected two integers, got {line!r}")
            a, b = int(parts[0]), int(parts[1])
            if not (1 <= a <= n and 1 <= b <= n):
                raise ParseError(line_no, f"index out of range 1..{n} in {(a, b)}")
            pairs.append((a - 1, b - 1))
        pair_set = frozenset(pairs)
        if len(pair_set) != len(pairs):
            dup = min(p for p, count in Counter(pairs).items() if count > 1)
            raise ParseError(1, f"duplicate {noun} {dup[0] + 1} {dup[1] + 1}")
        if head[0] == "bg":
            return BipartiteGraph(n, pair_set)
        return Digraph(n, pair_set, loops_allowed=any(a == b for a, b in pairs))
    if head[0] == "mat":
        if len(head) != 2 or not is_int_token(head[1]):
            raise ParseError(1, f"malformed header {lines[0]!r}")
        n = int(head[1])
        if n < 1:
            raise ParseError(1, "n must be at least 1")
        if len(lines) - 1 != n:
            raise ParseError(1, f"header promises {n} rows, file has {len(lines) - 1}")
        rows = []
        for i in range(n):
            row = lines[1 + i].strip()
            if len(row) != n or any(c not in "01" for c in row):
                raise ParseError(2 + i, f"expected {n} characters from 0/1, got {row!r}")
            rows.append(tuple(int(c) for c in row))
        return ZeroOneMatrix(tuple(rows))
    raise ParseError(1, f"unknown header {head[0]!r} (expected bg, dg or mat)")


def reference_numbers(tokens, *where) -> list[int]:
    """``certify._numbers``, the witness number reader that pair and path
    lines went through before the label index: 1-based numbers as 0-based
    indices, or a ValueError naming the first token that is no number."""
    from extendix.core import is_int_token

    for token in tokens:
        if not is_int_token(token, True):
            raise ValueError(f"{' '.join(map(str, where))} has {token!r}, which is not a number")
    return [int(token) - 1 for token in tokens]


def reference_parse_edges(text: str) -> frozenset:
    """``certify._parse_edges`` before the label index: each end through
    ``reference_numbers``."""
    ends = (reference_numbers(token.split("-"), "edge", token) for token in text.split())
    return frozenset((i, j) for i, j in ends)


def reference_parse_walk(text: str) -> tuple:
    """``certify._parse_walk`` before the walk label index: every token
    through ``core.parse_vertex_label``."""
    from extendix.core import parse_vertex_label

    out = []
    for token in text.split():
        parsed = parse_vertex_label(token)
        if parsed is None:
            raise ValueError(f"bad walk vertex {token!r}")
        out.append(parsed)
    return tuple(out)


# ---------------------------------------------------------------------------
# certificate checking as it was before a self-proving witness stood alone:
# the decider re-run on every certificate


def reference_recompute_verdict(cert) -> bool:
    """``certify._recompute_verdict``: the claim's decider, imported from
    its own module, so that a spy on ``certify``'s names misses it."""
    from extendix.connectivity import is_k_strong
    from extendix.extendability import is_k_extendable
    from extendix.matrixlab import is_k_partly_decomposable, is_k_reducible

    obj, k = cert.instance, cert.k
    if cert.claim == "k-extendable":
        return is_k_extendable(obj, k)
    if cert.claim == "k-strong":
        return is_k_strong(obj, k).holds
    if cert.claim == "k-indecomposable":
        return not is_k_partly_decomposable(obj, k).holds
    if cert.claim == "k-irreducible":
        return not is_k_reducible(obj, k).holds
    raise ValueError(f"unknown claim {cert.claim!r}")


def _reference_field(lines, prefix: str) -> str | None:
    """``certify._field`` before it refused a repeated line: the text after
    ``prefix`` on the last line that starts with it."""
    value = None
    for line in lines:
        if line.startswith(prefix):
            value = line[len(prefix):]
    return value


def _reference_indices(lines, prefix: str) -> list[int]:
    """``certify._indices`` over ``_reference_field``."""
    from extendix.certify import _numbers

    return _numbers((_reference_field(lines, prefix) or "").split(), "the", prefix, "line")


def reference_check_witness(cert) -> list[str]:
    """``certify._check_witness`` before witnesses checked the bound they
    state, before the legacy matching left the global cache and before a
    repeated witness line was refused (``_reference_field``)."""
    from itertools import chain

    from extendix.certify import (_parse_walk, _path_line_problems,
                                  _split_sections, _vertices, _walk_index)
    from extendix.connectivity import PathSystem, check_path_system, strong_components
    from extendix.core import Matching, connected
    from extendix.correspond import bipartite_of_matrix, digraph_of_matrix
    from extendix.extendability import AltPathSystem, check_alternating_path_system
    from extendix.fileio import LabelIndex
    from extendix.matching import has_perfect_matching, matching_extends
    from extendix.matrixlab import (_distinct_in_range, _independent_witness,
                                    _symmetric_witness, check_witness)

    obj, k = cert.instance, cert.k
    kind = cert.witness_kind
    problems: list[str] = []

    if kind == "alt-path-systems":
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        m_text = _reference_field(cert.witness_lines, "matching:")
        if m_text is None:
            return ["alt-path witness is missing its matching line"]
        try:
            matching = Matching(reference_parse_edges(m_text), g)
        except ValueError as exc:
            return [f"embedded matching invalid: {exc}"]
        if not matching.is_perfect:
            return ["embedded matching is not perfect"]
        index = _walk_index(g.n)
        labels = set(index.values())
        span = f"u1..u{g.n} and w1..w{g.n}"
        for (tokens, pair, path_lines) in _split_sections(cert.witness_lines):
            ends = _parse_walk(pair, index)
            if [side for side, _ in ends] != ["u", "w"]:
                problems.append(f"pair {pair} does not name a U vertex and then a W vertex")
                continue
            if not labels.issuperset(ends):
                problems.append(f"pair {pair} names a vertex outside {span}")
                continue
            pu, pw = ends
            walks = tuple(_parse_walk(p, index) for p in path_lines)
            if len(walks) != k:
                problems.append(f"pair {pair}: {len(walks)} paths, expected {k}")
            if not all(walks) or not labels.issuperset(chain.from_iterable(walks)):
                problems += _path_line_problems(pair, path_lines, walks, labels, span)
                continue
            system = AltPathSystem(walks, matching, pu[1], pw[1])
            problems += [f"pair {pair}: {p}" for p in check_alternating_path_system(g, system)]
        return problems

    if kind == "menger-path-systems":
        d = obj if isinstance(obj, Digraph) else digraph_of_matrix(obj)
        labels, span = set(range(d.n)), f"1..{d.n}"
        index = LabelIndex(d.n)
        for (tokens, pair, path_lines) in _split_sections(cert.witness_lines):
            if len(tokens) != 2:
                problems.append(f"pair {pair} does not name exactly two vertices")
                continue
            s, t = _vertices(index, tokens, "pair", pair)
            if not labels.issuperset((s, t)):
                problems.append(f"pair {pair} names a vertex outside {span}")
                continue
            if s == t:
                problems.append(f"pair {pair} does not join two vertices")
            paths = tuple(tuple(_vertices(index, p.split(), "pair", pair, "path", i))
                          for i, p in enumerate(path_lines, 1))
            if len(paths) != k:
                problems.append(f"pair {pair}: {len(paths)} paths, expected {k}")
            if not all(paths) or not labels.issuperset(chain.from_iterable(paths)):
                problems += _path_line_problems(pair, path_lines, paths, labels, span)
                continue
            system = PathSystem(paths, "internally_disjoint_same_endpoints",
                                (s,), (t,))
            problems += [f"pair {pair}: {p}" for p in check_path_system(d, system)]
        return problems

    if kind == "separator":
        sep = _reference_indices(cert.witness_lines, "vertices:")
        if not _distinct_in_range(sep, obj.n):
            return [f"separator must list distinct vertices of 1..{obj.n}"]
        if len(sep) >= k:
            problems.append(f"separator has order {len(sep)}, not below k={k}")
        if obj.n - len(sep) < 2:
            problems.append("separator leaves fewer than two vertices")
        if len(strong_components(obj, sep)) == 1:
            problems.append("removing the separator leaves a strong digraph")
        return problems

    if kind == "non-extendable-matching":
        g = obj
        try:
            m0 = Matching(reference_parse_edges(_reference_field(cert.witness_lines, "edges:") or ""), g)
        except ValueError as exc:
            return [f"witness matching invalid: {exc}"]
        if m0.size != k:
            problems.append(f"witness matching has size {m0.size}, expected {k}")
        if matching_extends(g, m0):
            problems.append("witness matching extends to a perfect matching")
        return problems

    if kind == "deficient-set":
        g = obj
        x = _reference_indices(cert.witness_lines, "u-set:")
        if not (_distinct_in_range(x, g.n) and 1 <= len(x) <= g.n - k):
            return [f"deficient set must be 1 to n-k={g.n - k} distinct vertices of U"]
        if len({j for i in x for j in g.u_neighbors(i)}) >= len(x) + k:
            problems.append("the set is not deficient")
        return problems

    if kind == "zero-block":
        rows = tuple(_reference_indices(cert.witness_lines, "rows:"))
        cols = tuple(_reference_indices(cert.witness_lines, "cols:"))
        if cert.claim == "k-irreducible":
            return check_witness(obj, _symmetric_witness("k_reducible", obj, rows, cols, k))
        return check_witness(obj, _independent_witness("k_partly_decomposable", obj,
                                                       rows, cols, k))

    if kind == "perfect-matching":
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        try:
            m = Matching(reference_parse_edges(_reference_field(cert.witness_lines, "edges:") or ""), g)
        except ValueError as exc:
            return [f"witness matching invalid: {exc}"]
        if not m.is_perfect:
            problems.append("witness matching is not perfect")
        return problems

    if kind == "disconnected":
        if k == 0:
            problems.append("a disconnected graph can still be 0-extendable")
        if connected(obj):
            problems.append("instance is connected")
        return problems

    if kind == "no-perfect-matching":
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        if has_perfect_matching(g):
            problems.append("instance has a perfect matching")
        return problems

    if kind in ("size-cap", "too-few-vertices"):
        return problems

    return [f"unknown witness kind {kind!r}"]


def reference_check_certificate(cert) -> list[str]:
    """``certify.check_certificate`` as it was before a self-proving
    witness stood alone: the decider first on every certificate, then the
    witness."""
    problems = []
    recomputed = reference_recompute_verdict(cert)
    if recomputed != cert.verdict:
        problems.append(
            f"verdict says {'holds' if cert.verdict else 'fails'} but the claim "
            f"{'holds' if recomputed else 'fails'} on the embedded instance")
    try:
        problems += reference_check_witness(cert)
    except ValueError as exc:
        problems.append(f"witness payload malformed: {exc}")
    return problems


# ---------------------------------------------------------------------------
# the matching routes as they were on sorted adjacency lists, before the
# one mask kernel: the set-and-dict augmenting search and its four callers


def reference_augment(adj, match_w, i, seen) -> bool:
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


def _reference_adj(g: BipartiteGraph) -> list:
    """Each row's columns in increasing order, as ``core._u_adj`` sorts them."""
    adj = [[] for _ in range(g.n)]
    for i, j in sorted(g.edges):
        adj[i].append(j)
    return adj


def reference_max_matching_pairs(g: BipartiteGraph, dead_u=frozenset(),
                                 dead_w=frozenset()) -> dict:
    adj = [() if i in dead_u else tuple(j for j in row if j not in dead_w)
           for i, row in enumerate(_reference_adj(g))]
    match_w: dict = {}
    for i in range(g.n):
        if i not in dead_u:
            reference_augment(adj, match_w, i, set())
    return {i: j for j, i in match_w.items()}


def reference_first_perfect_matching(g: BipartiteGraph):
    """The lexicographically first perfect matching as a u -> w dict, or None."""
    pairs = reference_max_matching_pairs(g)
    if len(pairs) < g.n:
        return None
    adj = _reference_adj(g)
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
                if reference_augment(adj, match_w, r, fixed | {j}):
                    break
                match_w[j], match_w[c] = r, i
        fixed.add(j)
    return {i: j for j, i in match_w.items()}


def reference_koenig_set(g: BipartiteGraph, k: int) -> list:
    """``extendability._deficient_set`` for a G without a perfect matching:
    the rows reached from the first unmatched row, the n - k smallest."""
    pairs = reference_max_matching_pairs(g)
    assert len(pairs) < g.n
    match_w = {j: i for i, j in pairs.items()}
    root = min(i for i in range(g.n) if i not in pairs)
    seen: set = set()
    reference_augment(_reference_adj(g), match_w, root, seen)
    return sorted([root] + [match_w[j] for j in seen])[:g.n - k]


def reference_fully_indecomposable_by_diagonals(a: ZeroOneMatrix) -> bool:
    n = a.n
    adj = [[j for j in range(n) if row[j]] for row in a.rows]
    match_w: dict = {}
    for i in range(n):
        reference_augment(adj, match_w, i, set())
    if n == 1 or len(match_w) < n:
        return n == 1
    for column_of_i in match_w:  # M(i), for every row i
        for j in range(n):
            if j != column_of_i and not reference_augment(
                    adj, {**match_w, column_of_i: None}, match_w[j], {j}):
                return False
    return True
