import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from extendix import (Digraph, InsufficientPathsError, complete_digraph,
                      cycles_through_vertex, directed_cycle,
                      ear_decomposition_digraph, independent_path_system,
                      is_anti_directed_trail, anti_directed_trail_find,
                      is_k_strong, is_minimal_k_strong, is_strong, iter_digraphs,
                      menger_paths, minimal_k_strong_degree_audit,
                      one_way_pair_audit, random_digraph, strong_components,
                      vertex_connectivity)
from extendix import connectivity
from extendix.core import _bfs_path
from extendix.connectivity import (EarDecompositionD, KStrongResult, PathSystem, _FlowNet,
                                   _k_strong, _path_systems, _rows,
                                   _out_lists, _shortest_cycle_through, _sink_component,
                                   check_ear_decomposition_digraph, check_path_system)

from conftest import (_ReferenceFlowNet, ear_decomposition_per_ear, k_strong_pair_scan,
                      reference_is_minimal_k_strong, reference_mask_k_strong)


def _kappa_by_separator_search(d: Digraph) -> int:
    """Independent oracle: try every vertex subset as a separator."""
    if d.n == 1 or not is_strong(d):
        return 0
    best = d.n - 1
    for size in range(0, d.n - 1):
        for removed in itertools.combinations(range(d.n), size):
            keep = [v for v in range(d.n) if v not in removed]
            if len(keep) < 2:
                continue
            remap = {v: i for i, v in enumerate(keep)}
            sub = Digraph(len(keep), frozenset(
                (remap[a], remap[b]) for a, b in d.arcs
                if a in remap and b in remap))
            if not is_strong(sub):
                return min(best, size)
    return best


def _is_strong_two_searches(d: Digraph) -> bool:
    """The strongness test the library replaced: vertex 0 reaches every
    vertex and every vertex reaches it."""
    for neighbors in (d.out_neighbors, d.in_neighbors):
        seen = {0}
        stack = [0]
        while stack:
            for w in neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != d.n:
            return False
    return True


class TestStrongComponents:
    def test_triangle(self):
        assert strong_components(directed_cycle(3)) == (frozenset({0, 1, 2}),)

    def test_single_arc(self):
        assert strong_components(Digraph(2, frozenset({(0, 1)}))) == (
            frozenset({0}), frozenset({1}))

    def test_two_cycle_with_tail(self):
        d = Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
        assert strong_components(d) == (frozenset({0, 1}), frozenset({2}))

    def test_partition_and_condensation_order(self):
        for seed in range(30):
            d = random_digraph(6, 0.25, seed=seed)
            comps = strong_components(d)
            assert sorted(v for c in comps for v in c) == list(range(6))
            index = {v: i for i, c in enumerate(comps) for v in c}
            for a, b in d.arcs:
                assert index[a] <= index[b]

    def test_is_strong_trivia(self):
        assert is_strong(directed_cycle(3))
        assert not is_strong(Digraph(2, frozenset({(0, 1)})))
        assert is_strong(Digraph(1, frozenset()))

    def test_agrees_with_is_strong_exhaustively(self):
        for n in (1, 2, 3, 4):
            for d in iter_digraphs(n):
                assert is_strong(d) == _is_strong_two_searches(d)


def _components_of_induced_copy(d: Digraph, removed) -> tuple:
    """The route the library replaced: copy D - removed into a digraph with
    the kept vertices renumbered in increasing order, take its components
    and map them back."""
    keep = [v for v in range(d.n) if v not in removed]
    remap = {v: i for i, v in enumerate(keep)}
    sub = Digraph(len(keep), frozenset((remap[a], remap[b]) for a, b in d.arcs
                                       if a in remap and b in remap))
    return tuple(frozenset(keep[v] for v in c) for c in strong_components(sub))


def _assert_one_pass_matches(d: Digraph, removed) -> None:
    comps = strong_components(d, removed)
    assert comps == _components_of_induced_copy(d, removed)
    if comps:
        assert _sink_component(d, removed) == sorted(comps[-1])
    # the partition is mutual reachability in D - removed
    for c in comps:
        v = min(c)
        for neighbors in (d.out_neighbors, d.in_neighbors):
            seen, stack = {v}, [v]
            while stack:
                for w in neighbors(stack.pop()):
                    if w not in seen and w not in removed:
                        seen.add(w)
                        stack.append(w)
            assert c <= seen


class TestOneComponentPass:
    """``strong_components(d, removed)`` against the two-search strongness
    test and the induced-copy component route it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph_every_removed_set(self, n):
        subsets = [s for size in range(n + 1)
                   for s in itertools.combinations(range(n), size)]
        for d in iter_digraphs(n):
            for removed in subsets:
                _assert_one_pass_matches(d, removed)

    def test_seeded_up_to_42(self):
        rng = random.Random(11)
        strong = 0
        for i in range(220):
            n = 5 + i % 38
            d = random_digraph(n, rng.choice((0.05, 0.1, 0.2, 0.4)), seed=900 + i)
            assert is_strong(d) == _is_strong_two_searches(d)
            strong += is_strong(d)
            for _ in range(4):
                _assert_one_pass_matches(d, rng.sample(range(n), rng.randint(0, n // 2)))
            verdict = is_k_strong(d, 3)
            if not verdict.holds and verdict.separator:
                _assert_one_pass_matches(d, verdict.separator)
        assert 20 <= strong <= 200


def _components_by_kahn(d: Digraph, removed) -> tuple:
    """The condensation order the library replaced: the components of
    D - removed (mutual reachability), listed by smallest vertex, ordered
    by Kahn's algorithm over d.arcs with a min-vertex heap."""
    live = [v for v in range(d.n) if v not in removed]
    reach = {}
    for v in live:
        seen, stack = {v}, [v]
        while stack:
            for w in d.out_neighbors(stack.pop()):
                if w not in seen and w not in removed:
                    seen.add(w)
                    stack.append(w)
        reach[v] = seen
    comps, comp_of = [], {}
    for v in live:
        if v not in comp_of:
            comps.append(frozenset(w for w in reach[v] if v in reach[w]))
            comp_of.update((w, len(comps) - 1) for w in comps[-1])
    succ = [set() for _ in comps]
    indeg = [0] * len(comps)
    for a, b in d.arcs:
        if a in comp_of and b in comp_of and comp_of[a] != comp_of[b] \
                and comp_of[b] not in succ[comp_of[a]]:
            succ[comp_of[a]].add(comp_of[b])
            indeg[comp_of[b]] += 1
    heap = [c for c in range(len(comps)) if indeg[c] == 0]
    ordered = []
    while heap:
        c = heapq.heappop(heap)
        ordered.append(comps[c])
        for nc in succ[c]:
            indeg[nc] -= 1
            if indeg[nc] == 0:
                heapq.heappush(heap, nc)
    return tuple(ordered)


def _one_way(n: int, p: float, seed: int, up: bool) -> Digraph:
    """Random arcs that all run up (or all down) the vertex order: n
    singleton components, whose order the tie-break decides."""
    rng = random.Random(seed)
    return Digraph(n, frozenset((a, b) if up else (b, a)
                                for a in range(n) for b in range(a + 1, n)
                                if rng.random() < p))


class TestCondensationOrder:
    """The in-mask scan of ``strong_components`` against the Kahn pass it
    replaced: the same components in the same order."""

    def test_seeded_small_with_loops_and_removed_sets(self):
        rng = random.Random(25)
        for i in range(4000):
            n = 1 + i % 12
            d = random_digraph(n, rng.choice((0.05, 0.1, 0.2, 0.35)), seed=2500 + i)
            loops = {(v, v) for v in range(n) if rng.random() < 0.2}
            d = Digraph(n, d.arcs | loops, loops_allowed=True)
            removed = rng.sample(range(n), rng.randint(0, n // 2))
            assert strong_components(d, removed) == _components_by_kahn(d, removed)

    @pytest.mark.parametrize("family", ["up", "down", "random"])
    def test_n_80(self, family):
        for seed in range(3):
            if family == "random":
                d = random_digraph(80, (0.01, 0.03, 0.4)[seed], seed=seed)
            else:
                d = _one_way(80, 0.1, seed, family == "up")
            comps = strong_components(d)
            assert comps == _components_by_kahn(d, ())
            assert family == "random" or len(comps) == 80


class TestVertexConnectivity:
    def test_complete_4(self):
        assert vertex_connectivity(complete_digraph(4)) == 3

    def test_triangle(self):
        assert vertex_connectivity(directed_cycle(3)) == 1

    def test_single_arc(self):
        assert vertex_connectivity(Digraph(2, frozenset({(0, 1)}))) == 0

    def test_two_cycle(self):
        assert vertex_connectivity(directed_cycle(2)) == 1

    def test_against_separator_search_exhaustive(self):
        for d in iter_digraphs(3):
            assert vertex_connectivity(d) == _kappa_by_separator_search(d)

    def test_against_separator_search_n4(self):
        for d in itertools.islice(iter_digraphs(4), 0, 4096, 7):
            assert vertex_connectivity(d) == _kappa_by_separator_search(d)

    @pytest.mark.parametrize("n", [5, 6])
    def test_against_separator_search_random(self, n):
        for seed in range(25):
            d = random_digraph(n, 0.45, seed=seed)
            assert vertex_connectivity(d) == _kappa_by_separator_search(d)


class TestIsKStrong:
    def test_goldens(self):
        assert is_k_strong(directed_cycle(3), 1).holds
        res = is_k_strong(directed_cycle(3), 2)
        assert not res.holds and res.separator is not None
        assert is_k_strong(complete_digraph(3), 2).holds

    def test_size_clause(self):
        res = is_k_strong(complete_digraph(3), 3)
        assert not res.holds and res.separator is None

    def test_separator_witness_is_real(self):
        for seed in range(25):
            d = random_digraph(5, 0.4, seed=seed)
            kappa = vertex_connectivity(d)
            res = is_k_strong(d, kappa + 1)
            assert not res.holds
            if res.separator is not None:
                assert len(res.separator) <= kappa
                keep = [v for v in range(d.n) if v not in res.separator]
                remap = {v: i for i, v in enumerate(keep)}
                sub = Digraph(len(keep), frozenset(
                    (remap[a], remap[b]) for a, b in d.arcs
                    if a in remap and b in remap))
                assert not is_strong(sub)

    def test_agrees_with_kappa(self):
        for seed in range(20):
            d = random_digraph(5, 0.5, seed=seed)
            kappa = vertex_connectivity(d)
            for k in range(1, d.n):
                assert is_k_strong(d, k).holds == (kappa >= k)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            is_k_strong(directed_cycle(3), 0)


def _k_strong_all_pairs(d: Digraph, k: int) -> KStrongResult:
    """The rule of is_k_strong over all n(n-1) ordered pairs, on the
    unseeded reference kernel: stop at the first failing pair whose cut is
    all vertices."""
    if d.n < k + 1:
        return KStrongResult(False, None, f"needs at least {k + 1} vertices, has {d.n}")
    net = _ReferenceFlowNet(d)
    for s, t in itertools.permutations(range(d.n), 2):
        value = net.flow(s, t, k, seeded=False)
        if value < k and len(net.cut()) == value:
            return KStrongResult(False, net.cut(), f"only {value} disjoint paths from {s} to {t}")
    return KStrongResult(True)


def _kappa_pair_scan(d: Digraph) -> int:
    """The kappa route the library replaced: flows from v_i to every later
    vertex and back for i = 0, 1, ... while i <= the best value so far, on
    the reference kernel."""
    n = d.n
    if n == 1 or not is_strong(d):
        return 0
    net = _ReferenceFlowNet(d)
    best = n - 1
    i = 0
    while i <= best:
        for j in range(i + 1, n):
            for s, t in ((i, j), (j, i)):
                best = min(best, net.flow(s, t, best))
        i += 1
    return best


def _assert_against_pair_scan(d: Digraph, ks, kappa: int) -> None:
    """At each k, is_k_strong gives the pair scan's verdict, and the same
    result at k = 1 and in the vertex-count case; a failing separator S
    has |S| < k, leaves at least two vertices, splits D - S into more than
    one strong component, and has kappa <= |S|."""
    for k in ks:
        res, ref = is_k_strong(d, k), k_strong_pair_scan(d, k)
        assert res.holds == ref.holds, (d, k)
        if res.holds or k == 1 or ref.separator is None:
            assert res == ref, (d, k)
            continue
        sep = res.separator
        assert len(sep) < k and d.n - len(sep) >= 2, (d, k, res)
        assert len(strong_components(d, sep)) > 1, (d, k, res)
        assert kappa <= len(sep), (d, k, res)


class TestPairSchedule:
    """vertex_connectivity calls is_k_strong at most delta - kappa + 1
    times; the scan over all ordered pairs, the pair scan is_k_strong ran
    before S. Even's schedule (``conftest.k_strong_pair_scan``) and the
    replaced kappa scan are the references.  The pair scan still gives the
    all-pairs result, and is_k_strong its verdict with a true separator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_result_as_all_pairs_exhaustive(self, n):
        for d in iter_digraphs(n):
            for k in range(1, n + 1):
                assert k_strong_pair_scan(d, k) == _k_strong_all_pairs(d, k)
            _assert_against_pair_scan(d, range(1, n + 1), _kappa_pair_scan(d))

    def test_same_result_as_all_pairs_seeded(self):
        for i in range(120):
            d = random_digraph(5 + i % 8, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=300 + i)
            for k in range(1, 5):
                assert k_strong_pair_scan(d, k) == _k_strong_all_pairs(d, k)
            kappa = vertex_connectivity(d)
            assert kappa == _kappa_pair_scan(d)
            _assert_against_pair_scan(d, range(1, 5), kappa)
            assert kappa == 0 or is_k_strong(d, kappa).holds
            assert not is_k_strong(d, kappa + 1).holds

    def test_flow_call_bounds(self, monkeypatch):
        calls = []
        flow = _FlowNet.flow

        def counted(self, s, t, limit):
            calls.append((s, t))
            return flow(self, s, t, limit)

        monkeypatch.setattr(_FlowNet, "flow", counted)
        d = random_digraph(30, 0.5, seed=1)
        n = d.n
        kappa = vertex_connectivity(d)
        assert 0 < len(calls) <= 2 * (kappa + 1) * (n - 1)
        for k in (1, 2, 3, kappa, kappa + 1):
            calls.clear()
            assert is_k_strong(d, k).holds == (k <= kappa)
            assert len(calls) <= 2 * k * (n - 1)

    def test_k_one_runs_no_flow(self, monkeypatch):
        """k = 1 reads the two reaches of vertex 0 and builds no flow
        kernel, with the all-pairs scan's first failing pair."""
        digraphs = [d for n in (2, 3) for d in iter_digraphs(n)]
        digraphs += [random_digraph(5 + i % 20, 0.1 + i % 5 / 10, seed=i) for i in range(40)]
        expected = [_k_strong_all_pairs(d, 1) for d in digraphs]

        def refuse(d):
            raise AssertionError("a flow kernel was built at k = 1")

        monkeypatch.setattr(connectivity, "_FlowNet", refuse)
        assert [is_k_strong(d, 1) for d in digraphs] == expected
        assert vertex_connectivity(directed_cycle(2000)) == 1

    @staticmethod
    def _assert_kappa_calls(d: Digraph, monkeypatch) -> None:
        """kappa takes at most delta - kappa + 1 decisions of the schedule
        (``_short_check``, which reads no cut), at falling k, the last at
        kappa unless kappa <= 1, which needs none."""
        calls = []
        decide = connectivity._short_check

        def counted(outs, ins, k):
            calls.append(k)
            return decide(outs, ins, k)

        monkeypatch.setattr(connectivity, "_short_check", counted)
        kappa = vertex_connectivity(d)
        monkeypatch.undo()
        assert kappa == _kappa_pair_scan(d)
        delta = min(min(d.out_degree(v), d.in_degree(v)) for v in range(d.n))
        assert len(calls) <= delta - kappa + 1
        assert calls == sorted(set(calls), reverse=True)
        assert calls[-1:] == [kappa] if kappa > 1 else all(k > 1 for k in calls)

    def test_kappa_reads_no_cut_and_words_no_reason(self, monkeypatch):
        """kappa reads the failing check's flow value, which is the order of
        its cut: no cut is read and no KStrongResult is made."""
        digraphs = [random_digraph(12 + i % 9, (0.3, 0.5, 0.7)[i % 3], seed=2500 + i)
                    for i in range(30)]
        digraphs.append(_circulant(30, range(1, 6)))
        expected = [_kappa_pair_scan(d) for d in digraphs]
        monkeypatch.setattr(_FlowNet, "cut", lambda self: pytest.fail("cut() ran"))
        monkeypatch.setattr(connectivity, "KStrongResult",
                            lambda *args: pytest.fail("a KStrongResult was made"))
        assert [vertex_connectivity(d) for d in digraphs] == expected
        assert len(set(expected)) > 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kappa_calls_exhaustive(self, n, monkeypatch):
        for d in iter_digraphs(n):
            self._assert_kappa_calls(d, monkeypatch)

    def test_kappa_calls_seeded(self, monkeypatch):
        for i in range(120):
            d = random_digraph(5 + i % 8, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=300 + i)
            self._assert_kappa_calls(d, monkeypatch)


def _planted(sizes, seed: int) -> Digraph:
    """X, S and Y of the given orders, every arc but those from X to Y, under
    a random relabelling: kappa = |S|, with S the one small separator."""
    x, s, y = sizes
    n = x + s + y
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return Digraph(n, frozenset((label[a], label[b]) for a in range(n) for b in range(n)
                                if a != b and not (a < x and b >= x + s)))


def _fan_count_bound(d: Digraph, k: int) -> int:
    return k * (k - 1) + 2 * max(d.n - k, 0)


class TestFanSchedule:
    """``is_k_strong`` answers k-strong connectivity as the pair scan does,
    with at most k(k-1) pair flows and 2(n-k) fans, and a failing one
    carries a true separator of order in [kappa, k); ``vertex_connectivity``
    reads kappa off it."""

    @staticmethod
    def _assert_agrees(d: Digraph, ks) -> None:
        _assert_against_pair_scan(d, ks, _kappa_pair_scan(d))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph(self, n):
        for d in iter_digraphs(n):
            self._assert_agrees(d, range(1, n + 1))

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_seeded(self, p):
        for i in range(36):
            d = random_digraph(5 + i, p, seed=1500 + i)
            kappa = vertex_connectivity(d)
            assert kappa == _kappa_pair_scan(d)
            self._assert_agrees(d, sorted({1, 2, kappa, kappa + 1, kappa + 2} - {0}))

    @pytest.mark.parametrize("n,r", [(6, 2), (9, 3), (16, 4), (25, 6), (40, 5)])
    def test_circulants(self, n, r):
        d = _circulant(n, range(1, r + 1))
        assert vertex_connectivity(d) == r
        self._assert_agrees(d, range(1, r + 3))

    def test_planted_separators(self):
        """One separator of each order below k, its sides of several sizes."""
        for k in (2, 3, 5):
            for order in range(k):
                for case, sides in enumerate(((1, 1), (1, 5), (4, 2), (6, 6))):
                    d = _planted((sides[0], order, sides[1]), 100 * k + 10 * order + case)
                    assert vertex_connectivity(d) == order
                    self._assert_agrees(d, [k])

    @pytest.mark.parametrize("n", [5, 30, 121])
    def test_long_cycles_and_squares(self, n):
        for d in (directed_cycle(n), _circulant(n, (1, 2))):
            self._assert_agrees(d, (1, 2, 3))
        assert vertex_connectivity(_circulant(n, (1, 2))) == 2

    def test_flow_calls_per_decision(self, monkeypatch):
        """At most k(k-1) pair flows, each between two of 0..k-1, and 2(n-k)
        fans per decision at k >= 2, every one of them at k; a fan that the
        masks settle runs no search."""
        pairs, fans, searches = [], [], []
        flow, fan, augment = _FlowNet.flow, _FlowNet.fan, _FlowNet._augment

        def counted_flow(self, s, t, limit):
            pairs.append((s, t, limit))
            return flow(self, s, t, limit)

        def counted_fan(self, j, limit):
            fans.append(limit)
            return fan(self, j, limit)

        def counted_augment(self, *args):
            searches.append(args)
            return augment(self, *args)

        monkeypatch.setattr(_FlowNet, "flow", counted_flow)
        monkeypatch.setattr(_FlowNet, "fan", counted_fan)
        monkeypatch.setattr(_FlowNet, "_augment", counted_augment)
        digraphs = [_circulant(n, range(1, 11)) for n in (40, 80)]
        digraphs += [random_digraph(n, 0.5, seed=n) for n in (20, 40, 80)]
        for d in digraphs:
            for k in range(2, vertex_connectivity(d) + 2):
                pairs.clear()
                fans.clear()
                is_k_strong(d, k)
                assert 0 < len(pairs) + len(fans) <= _fan_count_bound(d, k)
                assert len(pairs) <= k * (k - 1) and len(fans) <= 2 * (d.n - k)
                assert all(s < k and t < k and limit == k for s, t, limit in pairs)
                assert set(fans) <= {k}
        outs, ins = _rows(complete_digraph(8))
        net = _FlowNet(ins, outs)
        searches.clear()
        assert [net.fan(j, 4) for j in range(4, 8)] == [4] * 4 and searches == []
        assert [_FlowNet(outs, ins).fan(j, 7) for j in range(1, 7)] == list(range(1, 7))
        assert len(searches) == 6

    def test_kappa_takes_no_pair_scan(self, monkeypatch):
        """Every pair flow of kappa's decisions joins two of 0..k-1: none
        of the scan's pairs with s >= k or t >= k is run."""
        pairs = []
        flow = _FlowNet.flow

        def counted(self, s, t, limit):
            pairs.append((s, t, limit))
            return flow(self, s, t, limit)

        monkeypatch.setattr(_FlowNet, "flow", counted)
        assert vertex_connectivity(random_digraph(30, 0.5, seed=1)) >= 2
        assert vertex_connectivity(_circulant(30, range(1, 6))) == 5
        assert pairs and all(s < limit and t < limit for s, t, limit in pairs)

    def test_fan_counts_disjoint_paths_into_and_out_of_j(self):
        """The fan's value is the number of paths from distinct vertices
        below j to j (from j, reversed), disjoint but at j: the reference
        kernel's flow from a new vertex with an arc to each b < j, the
        wiring of ``independent_path_system``.  Every digraph of order 4
        and seeded ones of order 5-12, both orientations."""
        digraphs = list(iter_digraphs(4))
        digraphs += [random_digraph(5 + i % 8, (0.2, 0.4, 0.6)[i % 3], seed=40 + i)
                     for i in range(48)]
        for d in digraphs:
            n, rows = d.n, _rows(d)
            for reverse in (False, True):
                arcs = {(b, a) for a, b in d.arcs} if reverse else d.arcs
                for j in range(1, n):
                    wired = Digraph(n + 1, frozenset(arcs | {(n, b) for b in range(j)}))
                    expected = _ReferenceFlowNet(wired).flow(n, j, n, seeded=False)
                    for limit in range(1, n):
                        got = _FlowNet(*rows[::-1] if reverse else rows).fan(j, limit)
                        assert got == min(limit, expected), (d, reverse, j, limit)


def _assert_seed_keeps_value_and_cut(d: Digraph) -> None:
    """Seeded and unseeded flows agree on the value and, below the limit,
    on ``cut()``, for every ordered pair at every limit 1..n.  The unseeded
    flow at limit L makes the first L augmentations of the flow at limit
    n, so one unseeded flow per pair gives the reference at every limit."""
    net = _FlowNet(*_rows(d))
    for s, t in itertools.permutations(range(d.n), 2):
        best = net.flow(s, t, d.n, seeded=False)
        cut = net.cut() if best < d.n else None
        for limit in range(1, d.n + 1):
            value = net.flow(s, t, limit)
            assert value == min(limit, best), (d, s, t, limit)
            if value < limit:
                assert net.cut() == cut, (d, s, t, limit)


class TestSeededFlow:
    """The greedy seed of short paths changes neither the flow value nor
    the separator read off the residual network."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_digraph(self, n):
        for d in iter_digraphs(n):
            _assert_seed_keeps_value_and_cut(d)

    def test_seeded(self):
        for i, n in enumerate((5, 7, 10, 14, 19, 24, 30)):
            _assert_seed_keeps_value_and_cut(
                random_digraph(n, (0.15, 0.3, 0.5, 0.7)[i % 4], seed=900 + i))

    def test_kappa_at_n_80(self):
        assert vertex_connectivity(random_digraph(80, 0.5, seed=1)) == 25

    def test_settled_pairs_run_no_search(self, monkeypatch):
        """Pairs that short paths settle read no out-list and run no
        search; a circulant, whose far pairs need augmenting, builds the
        out-lists of its forward net."""
        nets = []
        init = _FlowNet.__init__

        def spy(self, outs, ins):
            init(self, outs, ins)
            nets.append(self)

        monkeypatch.setattr(_FlowNet, "__init__", spy)
        assert is_k_strong(random_digraph(80, 0.5, seed=1), 3).holds
        assert is_k_strong(complete_digraph(8), 7).holds
        assert len(nets) == 4
        assert all(net.succ is None and not hasattr(net, "via") for net in nets)
        assert is_k_strong(_circulant(40, range(1, 6)), 5).holds
        assert len(nets) == 6 and nets[4].succ is not None


def _assert_matches_reference(d: Digraph, limits, pairs=None) -> None:
    """Over the pairs (every ordered pair and s = t by default) and limits,
    seeded and unseeded flows on ``_FlowNet`` and on the reference kernel,
    each run one after another on one instance, give the same value and,
    below the limit, the same ``cut()``; after an unseeded flow they give
    the same ``paths()``.  ``_FlowNet`` leaves the arc s->t out and the
    reference counts it, so a pair an arc joins runs the reference on
    D - st, one instance per pair."""
    outs, ins = _rows(d)
    net, ref_d = _FlowNet(outs, ins), _ReferenceFlowNet(d)
    for s, t in pairs or itertools.product(range(d.n), repeat=2):
        ref = _ReferenceFlowNet(d.without_arc((s, t))) if outs[s] >> t & 1 else ref_d
        for limit in limits:
            for seeded in (False, True):
                value = net.flow(s, t, limit, seeded=seeded)
                assert value == ref.flow(s, t, limit, seeded=seeded), (d, s, t, limit)
                if value < limit:
                    assert net.cut() == ref.cut(), (d, s, t, limit)
                if not seeded:
                    assert net.paths(s, t) == ref.paths(s, t), (d, s, t, limit)


class TestReferenceKernel:
    """``_FlowNet`` keeps the split-vertex network implicit; its searches
    visit nodes in the reference kernel's order, so values, cuts and paths
    are the same."""

    def test_every_digraph_up_to_3(self):
        for n in (1, 2, 3):
            for d in iter_digraphs(n):
                _assert_matches_reference(d, range(n + 1))

    def test_sample_at_4(self):
        for d in itertools.islice(iter_digraphs(4), 0, None, 7):
            _assert_matches_reference(d, range(5))

    def test_seeded(self):
        for i, n in enumerate(range(5, 41, 5)):
            d = random_digraph(n, (0.15, 0.3, 0.5, 0.7)[i % 4], seed=960 + i)
            pairs = random.Random(i).sample(list(itertools.product(range(n), repeat=2)), 24)
            _assert_matches_reference(d, (1, 2, 3, n // 3, n), pairs)

    def test_in_node_at_its_place(self):
        """On this digraph the flow from 13 to 23 changes if a carrying
        vertex's in-node is scanned after its out-neighbours rather than
        at its place among them."""
        _assert_matches_reference(random_digraph(25, 0.1, seed=258), (25,))

    def test_circulants(self):
        for n, steps in ((12, (1,)), (12, (1, 2)), (20, (1, 3, 5)), (40, range(1, 6))):
            d = _circulant(n, steps)
            pairs = [(0, t) for t in range(n)] + [(s, 0) for s in range(1, n, 3)]
            _assert_matches_reference(d, (1, len(steps), n), pairs)

    def test_loops(self):
        d = Digraph(5, frozenset({(0, 0), (0, 1), (1, 2), (2, 0), (2, 2), (1, 3), (3, 4),
                                  (4, 1), (3, 3), (4, 2)}), True)
        _assert_matches_reference(d, range(6))

    def test_adjacent_pairs(self):
        """Complete and dense digraphs, where an arc joins every pair or
        nearly: each flow is the reference's on D - st."""
        _assert_matches_reference(complete_digraph(5), range(6))
        for i, n in enumerate((6, 9, 14)):
            d = random_digraph(n, 0.85, seed=410 + i)
            _assert_matches_reference(d, (1, 2, n // 2, n))


def _k_strong_schedule_on_reference(d: Digraph, k: int) -> KStrongResult:
    """S. Even's schedule as ``is_k_strong`` ran it while its flows still
    counted the arc s->t, for k >= 2 and n > k, on the reference kernel:
    every ordered pair among 0..k-1, one whose cut is not all vertices (it
    then holds the arc s->t) passed over, then the in- and out-fan of each
    j >= k, each a flow from a new vertex with an arc to every b < j (the
    wiring of ``test_fan_counts_disjoint_paths_into_and_out_of_j``); the
    first failure whose cut is all vertices, as ``is_k_strong`` words it."""
    n, net = d.n, _ReferenceFlowNet(d)
    for s, t in itertools.permutations(range(k), 2):
        if (value := net.flow(s, t, k)) < k and len(net.cut()) == value:
            return KStrongResult(False, net.cut(), f"only {value} disjoint paths from {s} to {t}")
    arcs = {a for a in d.arcs if a[0] != a[1]}
    backward = {(b, a) for a, b in arcs}
    for j in range(k, n):
        for oriented, text in ((arcs, "into {} from 0..{}"), (backward, "from {} into 0..{}")):
            fan = _ReferenceFlowNet(Digraph(n + 1, frozenset(oriented | {(n, b) for b in range(j)})))
            if (value := fan.flow(n, j, k, seeded=False)) < k:
                return KStrongResult(False, fan.cut(),
                                     f"only {value} disjoint paths " + text.format(j, j - 1))
    return KStrongResult(True)


def _reference_path_system(ref: _ReferenceFlowNet, s: int, t: int, k: int):
    """The paths of k unseeded reference augmentations from s to t, the
    direct arc among them, or (requested, achievable, cut) when fewer
    exist."""
    value = ref.flow(s, t, k, seeded=False)
    return tuple(ref.paths(s, t)) if value == k else (k, value, ref.cut())


def _library_path_system(d: Digraph, s: int, t: int, k: int):
    try:
        return _path_systems(d, [(s, t)], k)[0].paths
    except InsufficientPathsError as err:
        return err.requested, err.achievable, err.cut


class TestNoDirectArc:
    """``_FlowNet`` leaves the arc s->t out: ``is_k_strong`` flows only
    the pairs no arc joins, and ``_path_systems`` lays the arc as a path of
    its own.  Verdicts, separators, reasons, path systems and their errors
    are those of the reference kernel, which counts the arc."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph(self, n):
        for d in iter_digraphs(n):
            for k in range(1, n + 1):
                expected = (k_strong_pair_scan(d, k) if k == 1 or n <= k
                            else _k_strong_schedule_on_reference(d, k))
                assert is_k_strong(d, k) == expected, (d, k)
            ref = _ReferenceFlowNet(d)
            for k in range(n + 1):
                for s, t in itertools.product(range(n), repeat=2):
                    assert (_library_path_system(d, s, t, k)
                            == _reference_path_system(ref, s, t, k)), (d, s, t, k)

    def test_seeded(self):
        for i in range(30):
            n = 5 + i % 16
            d = random_digraph(n, (0.2, 0.4, 0.6, 0.85)[i % 4], seed=1700 + i)
            for k in range(2, min(n, 6)):
                assert is_k_strong(d, k) == _k_strong_schedule_on_reference(d, k), (d, k)
            ref = _ReferenceFlowNet(d)
            for s, t in random.Random(i).sample(list(itertools.product(range(n), repeat=2)), 12):
                for k in (1, 2, 3, n // 2):
                    assert (_library_path_system(d, s, t, k)
                            == _reference_path_system(ref, s, t, k)), (d, s, t, k)

    def test_no_flow_on_an_arc(self, monkeypatch):
        """No pair flow of ``is_k_strong`` runs between the ends of an arc
        s->t, and a separator has as many vertices as the value of the
        check that failed, the last one run."""
        pairs, values = [], []
        flow, fan = _FlowNet.flow, _FlowNet.fan

        def spy_flow(self, s, t, limit, **kwargs):
            pairs.append((self.outs, s, t))
            values.append(flow(self, s, t, limit, **kwargs))
            return values[-1]

        def spy_fan(self, j, limit):
            values.append(fan(self, j, limit))
            return values[-1]

        monkeypatch.setattr(_FlowNet, "flow", spy_flow)
        monkeypatch.setattr(_FlowNet, "fan", spy_fan)
        digraphs = [d for n in (3, 4) for d in iter_digraphs(n)]
        digraphs += [random_digraph(5 + i, (0.3, 0.5, 0.8)[i % 3], seed=1800 + i)
                     for i in range(30)]
        digraphs += [_circulant(n, range(1, r + 1)) for n, r in ((9, 3), (16, 4), (25, 6))]
        failures = 0
        for d in digraphs:
            for k in range(2, d.n):
                values.clear()
                res = is_k_strong(d, k)
                if not res.holds:
                    failures += 1
                    assert len(res.separator) == values[-1] < k, (d, k, res)
                    assert res.reason.startswith(f"only {values[-1]} "), (d, k, res)
                else:
                    assert values.count(k) == len(values), (d, k)
        assert failures > 1000 and pairs
        assert not [(outs, s, t) for outs, s, t in pairs if outs[s] >> t & 1]


class TestMengerPaths:
    def test_triangle_single_path(self):
        ps = menger_paths(directed_cycle(3), 0, 1, 1)
        assert ps.paths == ((0, 1),)

    def test_complete_two_paths(self):
        ps = menger_paths(complete_digraph(3), 0, 1, 2)
        assert set(ps.paths) == {(0, 1), (0, 2, 1)}

    def test_no_path_reports_cut(self):
        with pytest.raises(InsufficientPathsError) as err:
            menger_paths(Digraph(2, frozenset({(0, 1)})), 1, 0, 1)
        assert err.value.achievable == 0

    @pytest.mark.parametrize("n,stride", [(3, 1), (4, 5)])
    def test_menger_equivalence_small(self, n, stride):
        # k-strong iff k internally disjoint paths for every ordered pair
        for d in itertools.islice(iter_digraphs(n), 0, None, stride):
            for k in range(1, n):
                expected = is_k_strong(d, k).holds
                have_all = True
                for s in range(n):
                    for t in range(n):
                        if s == t:
                            continue
                        try:
                            ps = menger_paths(d, s, t, k)
                            assert len(ps.paths) == k
                            assert not check_path_system(d, ps)
                        except InsufficientPathsError:
                            have_all = False
                assert have_all == expected

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            menger_paths(directed_cycle(3), 1, 1, 1)


class TestIndependentPathSystem:
    def test_single_pair_on_strong_digraph(self):
        ps = independent_path_system(directed_cycle(4), [0], [2])
        assert ps.paths == ((0, 1, 2),)

    def test_complete_4_two_pairs(self):
        ps = independent_path_system(complete_digraph(4), [0, 1], [2, 3])
        assert len(ps.paths) == 2
        assert not check_path_system(complete_digraph(4), ps)

    def test_distinctness_precondition(self):
        with pytest.raises(ValueError):
            independent_path_system(complete_digraph(4), [0, 1], [1, 3])

    def test_reports_obstruction_when_not_strong_enough(self):
        with pytest.raises(InsufficientPathsError) as err:
            independent_path_system(Digraph(2, frozenset({(0, 1)})), [1], [0])
        assert err.value.achievable == 0

    def test_outputs_pinned(self):
        # exact paths, so that a change to the flow kernel cannot reorder
        # or reroute them unnoticed
        for seed, expected in ((1, [((0, 1),), ((0, 4, 3), (1, 2)),
                                    ((0, 4), (1, 6, 3), (2, 5))]),
                               (2, [((0, 8, 1),), ((0, 3), (1, 5, 2))])):
            d = random_digraph(9, 0.6, seed=seed)
            assert [independent_path_system(d, range(k), range(2 * k - 1, k - 1, -1)).paths
                    for k in range(1, len(expected) + 1)] == expected

    def test_obstruction_is_a_minimum_vertex_cut(self):
        seen = 0
        for seed in range(40):
            d = random_digraph(7, 0.3, seed=seed)
            for k in (1, 2, 3):
                sources, sinks = range(k), range(k, 2 * k)
                try:
                    independent_path_system(d, sources, sinks)
                except InsufficientPathsError as err:
                    seen += 1
                    cut = set(err.cut)
                    assert len(cut) == err.achievable
                    reach = {v for v in sources if v not in cut}
                    stack = list(reach)
                    while stack:
                        for w in d.out_neighbors(stack.pop()):
                            if w not in cut and w not in reach:
                                reach.add(w)
                                stack.append(w)
                    assert not reach & set(sinks)
        assert seen > 20

    def test_exists_whenever_k_strong(self):
        for seed in range(30):
            d = random_digraph(6, 0.6, seed=seed)
            kappa = vertex_connectivity(d)
            for k in range(1, min(kappa, 3) + 1):
                sources = list(range(k))
                sinks = list(range(k, 2 * k))
                ps = independent_path_system(d, sources, sinks)
                assert len(ps.paths) == k
                assert not check_path_system(d, ps)


class TestCyclesThroughVertex:
    def test_triangle(self):
        assert cycles_through_vertex(directed_cycle(3), 0, 1) == ((0, 1, 2, 0),)

    def test_complete_3_two_cycles(self):
        cycles = cycles_through_vertex(complete_digraph(3), 0, 2)
        assert set(cycles) == {(0, 1, 0), (0, 2, 0)}

    def test_not_strong_rejected(self):
        with pytest.raises(ValueError):
            cycles_through_vertex(Digraph(2, frozenset({(0, 1)})), 0, 1)

    def test_pairwise_intersection_is_hub(self):
        for seed in range(20):
            d = random_digraph(6, 0.5, seed=seed)
            kappa = vertex_connectivity(d)
            for k in range(1, min(kappa, 3) + 1):
                for x in range(d.n):
                    cycles = cycles_through_vertex(d, x, k)
                    assert len(cycles) == k
                    for a in range(k):
                        for b in range(a + 1, k):
                            assert set(cycles[a]) & set(cycles[b]) == {x}


def _cycles_through_clone(d: Digraph, x: int, k: int) -> tuple:
    """The construction the library replaced: clone x into a fresh vertex
    that copies x's arcs, take k internally disjoint paths from x to the
    clone, fold the clone back."""
    clone = d.n
    arcs = {(u, v) for u, v in d.arcs if u != v}
    arcs |= {(u, clone) for u, v in arcs if v == x} | {(clone, v) for u, v in arcs if u == x}
    system = menger_paths(Digraph(d.n + 1, frozenset(arcs)), x, clone, k)
    return tuple(path[:-1] + (x,) for path in system.paths)


class TestCyclesFromOneNetwork:
    """Cycles through x come from the flow from "out of x" to "into x" in
    the digraph's own network; they equal those of the clone construction,
    and one network serves every vertex and pair."""

    @staticmethod
    def _assert_same_cycles(d: Digraph) -> None:
        for k in range(1, vertex_connectivity(d) + 1):
            systems = _path_systems(d, [(x, x) for x in range(d.n)], k)
            for x, system in enumerate(systems):
                assert (system.paths == cycles_through_vertex(d, x, k)
                        == _cycles_through_clone(d, x, k))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_digraph(self, n):
        for d in iter_digraphs(n):
            self._assert_same_cycles(d)

    def test_seeded(self):
        for i in range(40):
            self._assert_same_cycles(random_digraph(5 + i % 6, 0.5, seed=900 + i))

    def test_check_accepts_cycles_only_for_equal_endpoints(self):
        d = complete_digraph(3)
        cycles = PathSystem(((0, 1, 0), (0, 2, 0)), "internally_disjoint_same_endpoints",
                            (0,), (0,))
        assert check_path_system(d, cycles) == []
        closed = PathSystem(((0, 1, 0),), "internally_disjoint_same_endpoints", (0,), (1,))
        assert any("repeated vertex" in p for p in check_path_system(d, closed))
        twice = PathSystem(((0, 1, 2, 1, 0),), "internally_disjoint_same_endpoints",
                           (0,), (0,))
        assert any("repeated vertex" in p for p in check_path_system(d, twice))


class TestEarDecomposition:
    def test_triangle_single_ear(self):
        dec = ear_decomposition_digraph(directed_cycle(3))
        assert dec.ears == ((0, 1, 2, 0),)

    def test_not_strong_rejected(self):
        with pytest.raises(ValueError):
            ear_decomposition_digraph(Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)})))

    def test_start_cycle_respected(self):
        dec = ear_decomposition_digraph(complete_digraph(3), start_cycle=(0, 1))
        assert dec.ears[0] == (0, 1, 0)
        assert not check_ear_decomposition_digraph(complete_digraph(3), dec)

    def test_any_cycle_can_start(self):
        d = complete_digraph(3)
        for cycle in [(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1)]:
            dec = ear_decomposition_digraph(d, start_cycle=cycle)
            assert not check_ear_decomposition_digraph(d, dec)

    def test_bad_start_cycle(self):
        with pytest.raises(ValueError):
            ear_decomposition_digraph(directed_cycle(3), start_cycle=(0, 2))

    def test_success_iff_strong_n3(self):
        for d in iter_digraphs(3):
            if is_strong(d) and d.n >= 2:
                dec = ear_decomposition_digraph(d)
                assert not check_ear_decomposition_digraph(d, dec)
                assert dec.arcs() == set(d.arcs)
            else:
                with pytest.raises(ValueError):
                    ear_decomposition_digraph(d)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            ear_decomposition_digraph(
                Digraph(2, frozenset({(0, 1), (1, 0), (0, 0)}), loops_allowed=True))


def _shortest_cycle_through_scan(d: Digraph, v: int):
    """The scan the library replaced: one full breadth-first search from v,
    then the tree path to every in-neighbour of v, keeping the smallest by
    (length, tuple)."""
    dist, parent, queue = {v: 0}, {}, [v]
    for x in queue:
        for y in d.out_neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
    best = None
    for x in d.in_neighbors(v):
        if x != v and x in dist:
            path = [x]
            while path[-1] != v:
                path.append(parent[path[-1]])
            cand = tuple(reversed(path))
            if best is None or (len(cand), cand) < (len(best), best):
                best = cand
    return best


def _ear_decomposition_resorting(d: Digraph, start_cycle: tuple) -> tuple:
    """The ear loop the library replaced: for each ear, re-sort every
    uncovered arc whose tail is in the decomposition, take the smallest,
    and close it off by a breadth-first search to the old vertices."""
    closed = start_cycle + (start_cycle[0],)
    ears = [closed]
    covered = set(zip(closed, closed[1:]))
    members = set(start_cycle)
    all_arcs = set(d.arcs)
    while covered != all_arcs:
        u, v = sorted(a for a in all_arcs - covered if a[0] in members)[0]
        if v in members:
            ear = (u, v)
        else:
            parent, queue, hit = {v: None}, [v], None
            for x in queue:
                for y in d.out_neighbors(x):
                    if y in members:
                        hit = (x, y)
                        break
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
                if hit:
                    break
            tail = [hit[1], hit[0]]
            while parent[tail[-1]] is not None:
                tail.append(parent[tail[-1]])
            ear = (u,) + tuple(reversed(tail))
        ears.append(ear)
        covered.update(zip(ear, ear[1:]))
        members.update(ear)
    return tuple(ears)


def _assert_matches_replaced_scans(d: Digraph) -> None:
    cycles = [_shortest_cycle_through_scan(d, v) for v in range(d.n)]
    assert cycles == [_shortest_cycle_through(_out_lists(d), v) for v in range(d.n)]
    if d.n < 2 or not is_strong(d):
        return
    start = min((c for c in cycles if c is not None), key=lambda c: (len(c), c))
    assert ear_decomposition_digraph(d).ears == _ear_decomposition_resorting(d, start)
    assert (ear_decomposition_digraph(d, cycles[-1]).ears
            == _ear_decomposition_resorting(d, cycles[-1]))


class TestReplacedScans:
    """Shortest cycles and ear decompositions equal those of the scans they
    replaced: the per-vertex all-in-neighbours cycle scan and the per-ear
    re-sort of the uncovered arcs."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_digraph(self, n):
        for d in iter_digraphs(n):
            _assert_matches_replaced_scans(d)

    def test_seeded_up_to_24(self):
        strong = 0
        for i in range(240):
            d = random_digraph(5 + i % 20, (0.35, 0.45, 0.55)[i % 3], seed=700 + i)
            _assert_matches_replaced_scans(d)
            strong += is_strong(d)
        assert strong >= 200


def _check_ear_decomposition_by_sets(d: Digraph, dec) -> list:
    """The checker the library replaced, on per-ear sets: the reference for
    the problem lists of the mask checker, which also reports a later ear
    of one vertex, as arc-less, and leaves its vertex unmet."""
    problems = []
    if not dec.ears:
        return ["empty decomposition"]
    first = dec.ears[0]
    if len(first) < 3 or first[0] != first[-1] or len(set(first[:-1])) != len(first) - 1:
        problems.append(f"initial ear {first} is not a cycle")
    seen_arcs: set = set()
    seen_vertices: set = set(first)
    for idx, ear in enumerate(dec.ears):
        if idx and len(ear) == 1:
            problems.append(f"ear {idx} {ear} has no arc")
            continue
        for arc in zip(ear, ear[1:]):
            if arc not in d.arcs:
                problems.append(f"ear {idx} uses missing arc {arc}")
            if arc in seen_arcs:
                problems.append(f"ear {idx} repeats arc {arc}")
            seen_arcs.add(arc)
        if idx == 0:
            continue
        interior = ear[1:-1]
        if ear[0] == ear[-1]:
            if ear[0] not in seen_vertices:
                problems.append(f"cycle ear {idx} attaches at a new vertex")
            overlap = set(interior) & seen_vertices
            if overlap:
                problems.append(f"cycle ear {idx} re-enters old vertices {sorted(overlap)}")
            if len(set(ear[:-1])) != len(ear) - 1:
                problems.append(f"cycle ear {idx} repeats a vertex")
        else:
            if ear[0] not in seen_vertices or ear[-1] not in seen_vertices:
                problems.append(f"path ear {idx} endpoints must be distinct old vertices")
            overlap = set(interior) & seen_vertices
            if overlap:
                problems.append(f"path ear {idx} re-enters old vertices {sorted(overlap)}")
            if len(set(ear)) != len(ear):
                problems.append(f"path ear {idx} repeats a vertex")
        seen_vertices |= set(ear)
    if seen_vertices != set(range(d.n)):
        problems.append("vertices not fully covered")
    if seen_arcs != set(a for a in d.arcs if a[0] != a[1]):
        problems.append("arcs not exactly covered")
    return problems


def _circulant(n: int, steps) -> Digraph:
    return Digraph(n, frozenset((v, (v + j) % n) for v in range(n) for j in steps))


def _both_checks(d: Digraph, ears) -> list:
    dec = EarDecompositionD(tuple(ears))
    problems = check_ear_decomposition_digraph(d, dec)
    assert problems == _check_ear_decomposition_by_sets(d, dec), ears
    return problems


PHRASES = ("is not a cycle", "uses missing arc", "repeats arc", "attaches at a new vertex",
           "endpoints must be distinct old vertices", "re-enters old vertices",
           "repeats a vertex", "vertices not fully covered", "arcs not exactly covered",
           "has no arc")


class TestEarsAtProductionSizes:
    """The mask-based ear loop against the per-ear re-sort it replaced, and
    the mask checker against the set checker, at the sizes ``analyze``
    meets (n = 20 at p = 0.4 in the benchmark).  The re-sort costs
    O(m^2 log m), so the n = 80 digraphs are sparse."""

    @pytest.mark.parametrize("n,p", [(20, 0.25), (20, 0.4), (40, 0.15), (40, 0.25),
                                     (80, 0.08), (80, 0.12)])
    def test_seeded_random(self, n, p):
        strong = 0
        for seed in range(3):
            d = random_digraph(n, p, seed=2400 + n + seed)
            _assert_matches_replaced_scans(d)
            if is_strong(d):
                strong += 1
                assert _both_checks(d, ear_decomposition_digraph(d).ears) == []
        assert strong >= 2

    @pytest.mark.parametrize("n", [4, 7, 20, 40, 80])
    def test_circulants(self, n):
        d = _circulant(n, (1, 2, 3))
        _assert_matches_replaced_scans(d)
        assert _both_checks(d, ear_decomposition_digraph(d).ears) == []

    def test_broken_decompositions_get_the_set_checkers_problems(self):
        d = random_digraph(12, 0.35, seed=5)
        ears = list(ear_decomposition_digraph(d).ears)
        single = next(i for i, ear in enumerate(ears) if len(ear) == 2)
        path = next(i for i, ear in enumerate(ears) if len(ear) > 2 and ear[0] != ear[-1])
        u = ears[single][0]
        non_arc = next((u, w) for w in range(d.n) if w != u and (u, w) not in d.arcs)
        a, *rest = ears[path]
        old = next(v for v in ears[0] if v != a)
        cases = {
            "uses missing arc": ears[:single] + [non_arc] + ears[single + 1:],
            "repeats arc": ears + [ears[single]],
            f"path ear {path} re-enters old vertices [{old}]":
                ears[:path] + [(a, old, *rest)] + ears[path + 1:],
            "vertices not fully covered": [ear for ear in ears if rest[0] not in ear],
            "arcs not exactly covered": ears[:single] + ears[single + 1:],
        }
        for expected, broken in cases.items():
            problems = _both_checks(d, broken)
            assert any(expected in p for p in problems), (expected, problems)

    def test_seeded_mutations_get_the_set_checkers_problems(self):
        """Deleted, doubled, reversed, cut, swapped and rewritten ears,
        degenerate ones such as (x,) and (x, x) among them."""
        rng = random.Random(24)
        seen = set()
        for case in range(400):
            d = random_digraph(rng.randint(3, 9), rng.choice((0.35, 0.5, 0.7)), seed=case)
            if not is_strong(d):
                continue
            ears = [list(ear) for ear in ear_decomposition_digraph(d).ears]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(ears))
                kind = rng.randrange(7)
                if kind == 0 and len(ears) > 1:
                    del ears[i]
                elif kind == 1:
                    ears.insert(rng.randrange(len(ears) + 1), list(ears[i]))
                elif kind == 2:
                    ears[i].reverse()
                elif kind == 3:
                    ears[i] = ears[i][:rng.randint(1, len(ears[i]))]
                elif kind == 4:
                    j = rng.randrange(len(ears))
                    ears[i], ears[j] = ears[j], ears[i]
                elif kind == 5:
                    ears[i][rng.randrange(len(ears[i]))] = rng.randrange(d.n)
                else:
                    ears[i].insert(rng.randrange(len(ears[i]) + 1), rng.randrange(d.n))
            problems = _both_checks(d, [tuple(ear) for ear in ears])
            seen.update(phrase for phrase in PHRASES if any(phrase in p for p in problems))
        assert seen == set(PHRASES)

    def test_an_empty_ear_or_a_stray_vertex_is_reported_alone(self):
        for ears, bad in [(((0, 1, 0), (1, 2), (2, 7)), 2), (((0, 1, 0), (), (1, -1)), 1)]:
            assert check_ear_decomposition_digraph(complete_digraph(3), EarDecompositionD(ears)) \
                == [f"ear {bad} {ears[bad]} is not a sequence of vertices of D"]


def _late_paths(core: int, chains: int, length: int, seed: int) -> Digraph:
    """A dense strong core on the lowest labels, then chains of ``length``
    new vertices, each from one old vertex to another, under a random
    relabelling of the chains, so that the late ears are long paths among
    runs of single arcs."""
    rng = random.Random(seed)
    arcs = {(a, b) for a in range(core) for b in range(core) if a != b and rng.random() < 0.6}
    arcs |= {(v, (v + 1) % core) for v in range(core)}
    n = core
    for _ in range(chains):
        a, b = rng.sample(range(n), 2)
        path = [a, *range(n, n + length), b]
        arcs |= set(zip(path, path[1:]))
        arcs |= {(rng.randrange(n), v) for v in range(n, n + length) if rng.random() < 0.3}
        n += length
    label = list(range(core)) + rng.sample(range(core, n), n - core)
    return Digraph(n, frozenset((label[a], label[b]) for a, b in arcs))


class TestEarRuns:
    """The ear route takes each run of single-arc ears in one step; its
    ears are those of the per-ear route it replaced
    (``conftest.ear_decomposition_per_ear``)."""

    @staticmethod
    def _assert_same_ears(d: Digraph, start_cycle=None) -> None:
        assert ear_decomposition_digraph(d, start_cycle).ears \
            == ear_decomposition_per_ear(d, start_cycle).ears, d

    def test_seeded_strong_up_to_80(self):
        strong = 0
        for n in range(2, 81):
            for p in (0.15, 0.4):
                d = random_digraph(n, p if n > 6 else 0.6, seed=3000 + n)
                if is_strong(d):
                    strong += 1
                    self._assert_same_ears(d)
        assert strong >= 120

    @pytest.mark.parametrize("n", [2, 3, 10, 57])
    def test_cycles_and_circulants(self, n):
        self._assert_same_ears(directed_cycle(n))
        for steps in ((1, 2), (1, 3, 7), range(1, min(n, 9))):
            d = _circulant(n, [j for j in steps if j % n])
            if d.m:
                self._assert_same_ears(d)
                self._assert_same_ears(d, tuple(range(n)))  # the cycle of step 1

    def test_late_long_path_ears(self):
        for case in range(12):
            d = _late_paths(4 + case % 3, 2 + case % 4, 3 + 4 * (case % 3), seed=case)
            assert is_strong(d)
            ears = ear_decomposition_digraph(d).ears
            assert max(len(ear) for ear in ears[len(ears) // 2:]) >= 4, ears
            self._assert_same_ears(d)
            cycle = ears[0][:-1]
            self._assert_same_ears(d, cycle[1:] + cycle[:1])


class TestMinimality:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_directed_cycle_minimal(self, n):
        assert is_minimal_k_strong(directed_cycle(n), 1).holds

    def test_complete_not_minimal_1_strong(self):
        res = is_minimal_k_strong(complete_digraph(3), 1)
        assert not res.holds and res.witness == (0, 1)

    def test_triangle_not_minimal_2_strong(self):
        res = is_minimal_k_strong(directed_cycle(3), 2)
        assert not res.holds and res.reason == "not 2-strong"

    def test_complete_k_plus_1_is_minimal_k_strong(self):
        assert is_minimal_k_strong(complete_digraph(3), 2).holds

    def test_k_below_one_is_refused(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
                is_minimal_k_strong(directed_cycle(3), k)

    def test_no_digraph_is_built_and_no_arc_deleted(self, monkeypatch):
        """The arc lemma decides every arc on D's own rows: no
        ``without_arc`` copy and no new ``Digraph``."""
        digraphs = [_circulant(40, (1, 2, 3)), complete_digraph(6), directed_cycle(5)]
        digraphs += [random_digraph(12, 0.6, seed=seed) for seed in range(6)]
        expected = [reference_is_minimal_k_strong(d, k) for d in digraphs for k in (1, 2, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("a digraph was built")

        monkeypatch.setattr(Digraph, "without_arc", refuse)
        monkeypatch.setattr(Digraph, "__init__", refuse)
        assert [is_minimal_k_strong(d, k) for d in digraphs for k in (1, 2, 3)] == expected
        assert [r.witness is None for r in expected].count(False) > 3


def _with_loops(d: Digraph) -> Digraph:
    """D with a loop at every even vertex, as a file with ``loops_allowed``
    may hold."""
    return Digraph(d.n, d.arcs | {(v, v) for v in range(0, d.n, 2)}, True)


def _row_decision_digraphs(n_max: int = 4):
    """Every digraph of order at most n_max, each also with loops added."""
    for n in range(1, n_max + 1):
        for d in iter_digraphs(n):
            yield d
            yield _with_loops(d)


class TestRowsDecisions:
    """``_k_strong`` and ``_minimal_k_strong`` on the rows against the
    frozen routes they replaced: the sweep's vertex-set removal test (no
    flow) and the per-arc copy and decision of ``is_minimal_k_strong``."""

    @staticmethod
    def _assert_same(d: Digraph, ks) -> None:
        outs, ins = _rows(d)
        for k in ks:
            assert _k_strong(outs, ins, k).holds == reference_mask_k_strong(outs, ins, k), (d, k)
            assert is_minimal_k_strong(d, k) == reference_is_minimal_k_strong(d, k), (d, k)

    def test_every_digraph_up_to_4(self):
        for d in _row_decision_digraphs():
            self._assert_same(d, (1, 2, 3))

    @pytest.mark.parametrize("n", [5, 8, 12, 20, 31, 40])
    def test_circulants(self, n):
        for steps in ((1,), (1, 2), (1, 3), (1, 2, 3), (2, 5), range(1, 5)):
            d = _circulant(n, steps)
            self._assert_same(d, (1, 2, 3))
            self._assert_same(_with_loops(d), (2,))

    def test_seeded(self):
        for i in range(36):
            d = random_digraph(5 + i, (0.25, 0.5, 0.8)[i % 3], seed=2100 + i)
            self._assert_same(d, (1, 2, 3))


class TestOneWayPairs:
    def test_triangle_passes_k1(self):
        ok, _ = one_way_pair_audit(directed_cycle(3), 1)
        assert ok

    def test_single_arc_fails(self):
        ok, pair = one_way_pair_audit(Digraph(2, frozenset({(0, 1)})), 1)
        assert not ok
        assert pair.x == (1,) and pair.y == (0,) and pair.h == 0

    def test_complete_4_passes_k3(self):
        ok, _ = one_way_pair_audit(complete_digraph(4), 3)
        assert ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_k_strong_exhaustive(self, n):
        for d in iter_digraphs(n):
            for k in range(1, n):
                ok, _ = one_way_pair_audit(d, k)
                assert ok == is_k_strong(d, k).holds

    def test_matches_k_strong_random_n6(self):
        for seed in range(20):
            d = random_digraph(6, 0.4, seed=seed)
            for k in range(1, 6):
                ok, _ = one_way_pair_audit(d, k)
                assert ok == is_k_strong(d, k).holds


class TestAntiDirectedTrails:
    def test_pattern_validator(self):
        assert is_anti_directed_trail([(0, 2), (1, 2), (1, 3), (0, 3)])
        assert not is_anti_directed_trail([(0, 2), (1, 2)])
        assert not is_anti_directed_trail([(0, 2), (1, 2), (1, 3)])

    def test_arcless(self):
        assert anti_directed_trail_find(Digraph(3, frozenset()), 0) is None

    def test_shared_head_only(self):
        d = Digraph(3, frozenset({(0, 2), (1, 2)}))
        assert anti_directed_trail_find(d, 0) is None

    def test_four_arc_trail(self):
        d = Digraph(4, frozenset({(0, 2), (1, 2), (1, 3), (0, 3)}))
        trail = anti_directed_trail_find(d, 0)
        assert is_anti_directed_trail(trail)
        # the forest path from the closing arc's tail slot, then that arc
        assert trail == ((1, 2), (0, 2), (0, 3), (1, 3))

    def test_degree_threshold_filters(self):
        # all degrees are 2, so k = 2 demands degree 3 and nothing qualifies
        d = Digraph(4, frozenset({(0, 2), (1, 2), (1, 3), (0, 3)}))
        assert anti_directed_trail_find(d, 1) is not None
        assert anti_directed_trail_find(d, 2) is None


def _trail_on_tagged_slots(d: Digraph, k: int):
    """The trail search the library replaced: union-find over ("t", u)
    tail slots and ("h", v) head slots, the arcs taken in sorted order, the
    cycle read back as (tail, head) arcs."""
    qual = [(u, v) for u, v in sorted(d.arcs) if u != v
            and len(d.out_neighbors(u)) > k and len(d.in_neighbors(v)) > k]
    leader, forest = {}, {}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    for u, v in qual:
        a, b = ("t", u), ("h", v)
        leader.setdefault(a, a)
        leader.setdefault(b, b)
        if find(a) == find(b):
            nodes = _bfs_path(a, lambda x: forest.get(x, ()), lambda y: y == b)
            closed = nodes + [a]
            return tuple((x[1], y[1]) if x[0] == "t" else (y[1], x[1])
                         for x, y in zip(closed, closed[1:]))
        leader[find(a)] = find(b)
        forest.setdefault(a, []).append(b)
        forest.setdefault(b, []).append(a)
    return None


@pytest.mark.parametrize("k", [1, 2])
def test_trail_matches_the_tagged_slot_search(k):
    found = 0
    for seed in range(400):
        d = random_digraph(4 + seed % 9, (0.2, 0.35, 0.5)[seed % 3], seed=seed)
        trail = anti_directed_trail_find(d, k)
        assert trail == _trail_on_tagged_slots(d, k)
        found += trail is not None
    assert 40 <= found <= 360


class TestDegreeAudit:
    def test_directed_5_cycle(self):
        rep = minimal_k_strong_degree_audit(directed_cycle(5), 1)
        assert rep.ok and rep.out_degree_k_count == 5 and rep.in_degree_k_count == 5

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            minimal_k_strong_degree_audit(complete_digraph(3), 1)


@st.composite
def digraphs_with_loops(draw):
    n = draw(st.integers(2, 5))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = set(draw(st.sets(st.sampled_from(cells))))
    loops = draw(st.sets(st.integers(0, n - 1)))
    return (Digraph(n, frozenset(arcs), loops_allowed=False),
            Digraph(n, frozenset(arcs) | {(v, v) for v in loops}, loops_allowed=True))


def _menger_outcome(d: Digraph, s: int, t: int, k: int):
    """The paths of menger_paths, or the count and cut it raises with."""
    try:
        return menger_paths(d, s, t, k).paths
    except InsufficientPathsError as err:
        return err.achievable, err.cut


@given(digraphs_with_loops())
@settings(max_examples=60, deadline=None)
def test_loops_never_change_connectivity(pair):
    plain, loopy = pair
    assert is_strong(plain) == is_strong(loopy)
    assert strong_components(plain) == strong_components(loopy)
    assert vertex_connectivity(plain) == vertex_connectivity(loopy)
    for k in (1, 2, 3):
        assert is_k_strong(plain, k) == is_k_strong(loopy, k)
        for s, t in itertools.permutations(range(plain.n), 2):
            assert _menger_outcome(plain, s, t, k) == _menger_outcome(loopy, s, t, k)


def test_loop_steps_are_missing_arcs():
    plain = directed_cycle(3)
    loopy = Digraph(3, plain.arcs | {(0, 0)}, loops_allowed=True)
    forged = PathSystem(((0, 0, 1),), "internally_disjoint_same_endpoints", (0,), (1,))
    assert check_path_system(loopy, forged) == check_path_system(plain, forged) == [
        "missing arc 1 -> 1 in path 1", "repeated vertex in path 1"]


def test_independent_paths_name_shared_vertices_1_based():
    d = directed_cycle(4)
    system = PathSystem(((0, 1), (1, 2)), "independent_multi_endpoint", (0, 1), (1, 2))
    assert check_path_system(d, system) == ["paths share vertices [2]"]


@pytest.mark.parametrize("mode", ["internally_disjoint_same_endpoints",
                                  "independent_multi_endpoint"])
def test_an_empty_path_is_a_problem_of_its_own(mode):
    """An empty path is reported by its place and read by no other check,
    in both modes; the paths around it keep their places."""
    d = directed_cycle(3)
    assert check_path_system(d, PathSystem(((),), mode, (0,), (1,))) == (
        ["path 1 is empty"] + (["sources not used exactly once each",
                                "sinks not used exactly once each"]
                               if mode == "independent_multi_endpoint" else []))
    between = PathSystem(((0, 1), (), (2, 0)), mode, (0, 2), (1, 0))
    assert check_path_system(d, between) == ["path 2 is empty"] + (
        ["path 3 does not run 1 -> 2"] if mode == "internally_disjoint_same_endpoints"
        else ["paths share vertices [1]"])

