import math
import random
import signal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from extendix import (BipartiteGraph, Matching, canonical_matching, classify_edges,
                      complete_bipartite, count_perfect_matchings, cycle_bipartite,
                      elementary_components,
                      enumerate_matchings, first_perfect_matching,
                      flip_alternating_cycle, has_perfect_matching, matching_graph,
                      max_matching, perfect_matchings, random_bipartite_with_pm,
                      symmetric_difference, unique_pm_acyclic_check,
                      iter_bipartite_with_canonical)
from extendix.core import BUDGETS, TooLargeError, _bfs_path
from extendix.matching import _augment, _glynn, _inner_rows, max_matching_pairs

from conftest import (classify_by_deletion, classify_by_enumeration, count_by_row_dp,
                      make_c4_pendant, make_c6, make_p4)


class TestMaxMatching:
    def test_complete(self):
        assert max_matching(complete_bipartite(3)).size == 3

    def test_disjoint_edges(self):
        assert max_matching(matching_graph(3)).size == 3

    def test_forced_swap(self):
        # u1 sees w1 and w2, u2 sees only w1: the maximum matching must
        # pair u1-w2 with u2-w1
        g = BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 0)}))
        m = max_matching(g)
        assert m.size == 2
        assert m.edges == frozenset({(0, 1), (1, 0)})

    def test_empty_side(self):
        g = BipartiteGraph(2, frozenset({(1, 0)}))
        assert max_matching(g).size == 1
        assert not has_perfect_matching(g)


class TestEnumeration:
    def test_k22_two_perfect_matchings(self):
        assert len(list(enumerate_matchings(complete_bipartite(2), 2))) == 2

    def test_c6_single_edges(self):
        assert len(list(enumerate_matchings(make_c6(), 1))) == 6

    def test_c6_two_perfect_matchings(self):
        ms = list(enumerate_matchings(make_c6(), 3))
        assert len(ms) == 2
        assert all(m.is_perfect for m in ms)

    def test_stream_is_duplicate_free(self):
        g = complete_bipartite(3)
        ms = [m.edges for m in enumerate_matchings(g, 2)]
        assert len(ms) == len(set(ms)) == 18

    def test_first_is_lexicographic(self):
        assert first_perfect_matching(make_c6()).edges == frozenset(
            {(0, 0), (1, 1), (2, 2)})

    def test_first_is_first_of_the_enumeration(self):
        graphs = [g for n in (1, 2, 3) for g in iter_bipartite_with_canonical(n)]
        graphs += [random_bipartite_with_pm(n, p, seed=s) for n in (5, 7)
                   for p in (0.2, 0.5) for s in range(15)]
        graphs += [g.without_edge(e) for g in graphs[-20:] for e in g.sorted_edges()[:3]]
        rng = random.Random(3)
        graphs += [_shuffled_w(random_bipartite_with_pm(2 + s % 5, 0.3, seed=s), rng)
                   for s in range(60)]
        for g in graphs:
            assert first_perfect_matching(g) == next(perfect_matchings(g), None)

    def test_size_zero(self):
        assert [m.size for m in enumerate_matchings(make_c6(), 0)] == [0]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            list(enumerate_matchings(make_c6(), 4))


def _union(*graphs) -> BipartiteGraph:
    """Disjoint union, each graph's indices shifted past the ones before."""
    edges, off = set(), 0
    for g in graphs:
        edges |= {(i + off, j + off) for i, j in g.edges}
        off += g.n
    return BipartiteGraph(off, frozenset(edges))


def _several_components(n: int, seed: int) -> BipartiteGraph:
    """Block upper-triangular: diagonal blocks of random orders (order 1 is
    a fixed double edge) that each carry a perfect matching, random edges
    above them (fixed single edges), rows and columns then shuffled."""
    rng = random.Random(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.choice((1, 2, 3, 4, 5, 6)), n - sum(sizes)))
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    edges = set()
    for b, (lo, size) in enumerate(zip(starts, sizes)):
        block = random_bipartite_with_pm(size, rng.choice((0.3, 0.5, 0.8)),
                                         seed=rng.randrange(1 << 30))
        edges |= {(i + lo, j + lo) for i, j in block.edges}
        for i in range(lo, lo + size):
            edges |= {(i, j) for j in range(lo + size, n) if rng.random() < 0.3}
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return BipartiteGraph(n, frozenset((rows[i], cols[j]) for i, j in edges))


class TestCounting:
    def test_complete_3(self):
        assert count_perfect_matchings(complete_bipartite(3)) == 6

    def test_p4_unique(self):
        assert count_perfect_matchings(make_p4()) == 1

    def test_isolated_vertex(self):
        g = BipartiteGraph(2, frozenset({(1, 0), (1, 1)}))
        assert count_perfect_matchings(g) == 0

    def test_matches_enumeration_exhaustively(self):
        for n in (1, 2, 3):
            cells = [(i, j) for i in range(n) for j in range(n)]
            for mask in range(1 << len(cells)):
                g = BipartiteGraph(n, frozenset(c for b, c in enumerate(cells)
                                                if mask >> b & 1))
                assert count_perfect_matchings(g) == count_by_row_dp(g) == \
                    len(list(perfect_matchings(g)))

    def test_matches_enumeration_random(self):
        for seed in range(25):
            g = random_bipartite_with_pm(5, 0.4, seed=seed)
            assert count_perfect_matchings(g) == len(list(perfect_matchings(g)))

    def test_several_components(self):
        pieces = []
        for seed in range(60):
            g = _several_components(4 + seed % 11, seed)
            count = count_perfect_matchings(g)
            assert count == count_by_row_dp(g) > 0
            if g.n <= 8:
                assert count == len(list(perfect_matchings(g)))
            pieces.append(len(elementary_components(g).pieces))
        assert sum(p >= 3 for p in pieces) >= 40

    def test_disjoint_unions_multiply(self):
        for seed in range(10):
            parts = [random_bipartite_with_pm(n, 0.5, seed=10 * seed + n) for n in (3, 4, 6)]
            g = _union(*parts)
            assert count_perfect_matchings(g) == count_by_row_dp(g) == \
                count_perfect_matchings(parts[0]) * count_perfect_matchings(parts[1]) \
                * count_perfect_matchings(parts[2])

    def test_block_triangular(self):
        for h in range(1, 8):
            n = 2 * h
            g = BipartiteGraph(n, frozenset((i, j) for i in range(n) for j in range(n)
                                            if i < h or j >= h))
            assert len(elementary_components(g).elementary) == (2 if h > 1 else 0)
            assert count_perfect_matchings(g) == count_by_row_dp(g) == math.factorial(h) ** 2

    def test_complete_graphs(self):
        for n in range(1, 21):
            assert count_perfect_matchings(complete_bipartite(n)) == math.factorial(n)

    def test_no_perfect_matching(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = 2 + seed % 9
            g = BipartiteGraph(n, frozenset((i, j) for i in range(n) for j in range(n)
                                            if rng.random() < 0.3))
            if len(max_matching_pairs(g)) < n:
                assert count_perfect_matchings(g) == count_by_row_dp(g) == 0
        # a Hall violator inside an otherwise dense graph
        g = BipartiteGraph(8, frozenset((i, j) for i in range(8) for j in range(8)
                                        if i >= 3 or j < 2))
        assert count_perfect_matchings(g) == 0

    def test_extreme_column_sums(self):
        """Order 1, a full row and a full column, or a column that misses
        only row 0: Glynn's column sums reach c and, when the graph is one
        elementary component (d_0 stays +1), -(c - 1)."""
        assert count_perfect_matchings(BipartiteGraph(1, frozenset({(0, 0)}))) == 1
        assert count_perfect_matchings(BipartiteGraph(1, frozenset())) == 0
        for seed in range(30):
            rng = random.Random(seed)
            c = 2 + seed % 12
            edges = set(random_bipartite_with_pm(c, 0.3, seed=seed).edges)
            full, other = rng.randrange(c), rng.randrange(c)
            if seed % 2:
                edges |= {(full, j) for j in range(c)} | {(i, other) for i in range(c)}
            else:
                edges |= {(i, other) for i in range(1, c)}
                edges -= {(0, other)}
            g = BipartiteGraph(c, frozenset(edges))
            assert count_perfect_matchings(g) == count_by_row_dp(g)

    def test_component_map_passed_in(self):
        g = _several_components(12, 5)
        cm = elementary_components(g)
        assert count_perfect_matchings(g, cm) == count_perfect_matchings(g) == \
            count_by_row_dp(g)

    def test_order_above_127_is_refused(self):
        with pytest.raises(TooLargeError, match="order 128") as caught:
            count_perfect_matchings(cycle_bipartite(128))
        assert (caught.value.budget, caught.value.size) == ("count", 128)

    def test_count_budget_stays_within_the_byte_packing(self):
        """``_glynn`` packs each column sum, offset by 127, into one byte, which
        cannot borrow up to order 127; the budget keeps every order below."""
        assert BUDGETS["count"][0] <= 127


def _matrix_piece(c: int, edges) -> SimpleNamespace:
    """A c x c 0-1 matrix dressed as an elementary piece: row r of
    ``_glynn``'s sum is u_r, so row 0, the inner block (rows 1..b) and the
    outer rows are known to the test."""
    everyone = frozenset(range(c))
    return SimpleNamespace(scc=everyone, u_vertices=everyone, w_vertices=everyone,
                           edges=frozenset(edges))


def _elementary_piece(c: int, seed: int):
    """The first seeded graph from seed on that is one elementary component
    of order c, and that component."""
    while True:
        g = random_bipartite_with_pm(c, 0.25 + 0.05 * (seed % 6), seed=seed)
        pieces = elementary_components(g).elementary
        if len(pieces) == 1 and len(pieces[0].scc) == c:
            return g, pieces[0]
        seed += 1


def _shaped_matrices(c: int, rng: random.Random) -> dict:
    """Seeded c x c matrices with the identity in them (so the permanent is
    at least 1), each with one column shape that decides which block terms
    die: every column of even degree (many zero sums), every column of odd
    degree, a column only row 0 sees, one only inner-block rows see and,
    when there are outer rows, one only outer rows see."""
    b = _inner_rows(c)

    def base():
        return {(i, j) for i in range(c) for j in range(c)
                if i == j or rng.random() < 0.45}

    def parity(want: int):
        edges = base()
        for j in range(c):
            if sum((i, j) in edges for i in range(c)) % 2 != want:
                edges ^= {(rng.choice([i for i in range(c) if i != j]), j)}
        return edges

    def only(j: int, rows):
        edges = {e for e in base() if e[1] != j}
        return edges | {(j, j)} | {(i, j) for i in rows if rng.random() < 0.6}

    shapes = {"even": parity(0), "odd": parity(1), "row 0": only(0, ()),
              "inner": only(1, range(1, b + 1))}
    if b < c - 1:
        shapes["outer"] = only(c - 1, range(b + 1, c))
    return shapes


class TestBlockedGlynn:
    """``_glynn`` against a count that does not use Glynn's sum: the row DP
    of ``count_by_row_dp`` up to order 14, the benchmark's numpy DP over
    column masks from 15 to 20."""

    @pytest.mark.parametrize("c", range(2, 15))
    def test_against_the_row_dp(self, c):
        rng = random.Random(c)
        g, piece = _elementary_piece(c, 100 * c)
        assert _glynn(piece) == count_by_row_dp(g) > 1
        for shape, edges in _shaped_matrices(c, rng).items():
            expected = count_by_row_dp(BipartiteGraph(c, frozenset(edges)))
            assert _glynn(_matrix_piece(c, edges)) == expected >= 1, shape

    @pytest.mark.parametrize("c", range(15, 21))
    def test_against_the_reference_permanent(self, c, perfbench_ref):
        rng = random.Random(c)
        g, piece = _elementary_piece(c, 100 * c)
        assert _glynn(piece) == perfbench_ref.permanent(c, g.edges) > 1
        for shape, edges in _shaped_matrices(c, rng).items():
            assert _glynn(_matrix_piece(c, edges)) == \
                perfbench_ref.permanent(c, edges) >= 1, shape

    def test_degenerate_blocks(self):
        """Orders 1 to 3: one inner row or none, and a single block."""
        assert [_inner_rows(c) for c in (1, 2, 3)] == [0, 1, 2]
        assert _glynn(_matrix_piece(1, {(0, 0)})) == 1
        assert _glynn(_matrix_piece(1, ())) == 0
        assert _glynn(_matrix_piece(2, {(0, 0), (0, 1), (1, 0), (1, 1)})) == 2
        assert _glynn(_matrix_piece(2, {(0, 0), (0, 1), (1, 1)})) == 1
        assert _glynn(_matrix_piece(3, {(i, j) for i in range(3) for j in range(3)})) == 6
        assert _glynn(_matrix_piece(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)})) == 2

    @pytest.mark.parametrize("c", (5, 9, 11))
    def test_no_zero_sum_anywhere(self, c):
        """J_c with c odd: every column sum is odd, no term dies."""
        assert _glynn(_matrix_piece(c, {(i, j) for i in range(c) for j in range(c)})) == \
            math.factorial(c)

    def test_only_survivors_are_multiplied(self, monkeypatch):
        """A column sum d_i + d_(i+1) of the 2n-cycle vanishes unless the two
        signs agree, so of the 2^(n-1) terms only d = (+1, ..., +1) survives:
        one product of column sums, 2^n = 2 * 2^(n-1)."""
        import extendix.matching as matching

        piece, = elementary_components(cycle_bipartite(12)).elementary
        calls = []
        monkeypatch.setattr(matching, "prod", lambda xs: calls.append(1) or math.prod(xs))
        assert _glynn(piece) == 2 and len(calls) == 1


class TestClassifyEdges:
    def test_p4(self):
        cls = classify_edges(make_p4())
        assert cls.fixed_double == frozenset({(0, 0), (1, 1)})
        assert cls.fixed_single == frozenset({(0, 1)})
        assert cls.nonfixed == frozenset()

    def test_c6_all_nonfixed(self):
        cls = classify_edges(make_c6())
        assert cls.counts == {"fixed_single": 0, "fixed_double": 0,
                              "allowed_nonfixed": 6}

    def test_k22_all_nonfixed(self):
        assert classify_edges(complete_bipartite(2)).counts["allowed_nonfixed"] == 4

    def test_requires_perfect_matching(self):
        with pytest.raises(ValueError):
            classify_edges(BipartiteGraph(2, frozenset({(0, 0)})))

    def test_against_enumeration_exhaustive(self):
        for n in (1, 2, 3):
            for g in iter_bipartite_with_canonical(n):
                cls = classify_edges(g)
                assert (cls.fixed_single, cls.fixed_double, cls.nonfixed) == \
                    classify_by_enumeration(g)

    @pytest.mark.parametrize("n", [4, 5])
    def test_against_enumeration_random(self, n):
        for seed in range(40):
            g = random_bipartite_with_pm(n, 0.35, seed=100 * n + seed)
            cls = classify_edges(g)
            assert (cls.fixed_single, cls.fixed_double, cls.nonfixed) == \
                classify_by_enumeration(g)

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_against_deletion_large(self, n):
        for seed in range(3):
            g = random_bipartite_with_pm(n, 2.0 / n, seed=1000 * n + seed)
            cls = classify_edges(g)
            assert (cls.fixed_single, cls.fixed_double, cls.nonfixed) == \
                classify_by_deletion(g)

    def test_double_edges_form_matching_and_isolate_neighbors(self):
        for seed in range(40):
            g = random_bipartite_with_pm(5, 0.25, seed=seed)
            cls = classify_edges(g)
            us = [e[0] for e in cls.fixed_double]
            assert len(us) == len(set(us))
            for i, j in cls.fixed_double:
                for e in g.edges:
                    if e != (i, j) and (e[0] == i or e[1] == j):
                        assert e in cls.fixed_single


class TestUniquePmAcyclic:
    def test_p4(self):
        rep = unique_pm_acyclic_check(make_p4())
        assert rep.acyclic and rep.topological_order == (0, 1)

    def test_disjoint_edges(self):
        assert unique_pm_acyclic_check(matching_graph(4)).acyclic

    def test_triangular_reduced_adjacency(self):
        from extendix import bipartite_of_matrix, ZeroOneMatrix

        rows = tuple(tuple(1 if j <= i else 0 for j in range(4)) for i in range(4))
        g = bipartite_of_matrix(ZeroOneMatrix(rows))
        assert count_perfect_matchings(g) == 1
        assert unique_pm_acyclic_check(g).acyclic

    def test_rejects_two_matchings(self):
        with pytest.raises(ValueError):
            unique_pm_acyclic_check(make_c6())

    def test_rejects_zero_matchings(self):
        with pytest.raises(ValueError):
            unique_pm_acyclic_check(BipartiteGraph(2, frozenset({(0, 0)})))

    def test_error_messages_carry_the_count(self):
        with pytest.raises(ValueError, match="graph has 2 perfect matchings"):
            unique_pm_acyclic_check(make_c6())
        with pytest.raises(ValueError, match="graph has 0 perfect matchings"):
            unique_pm_acyclic_check(BipartiteGraph(2, frozenset({(0, 0)})))

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_past_the_count_budget_the_message_names_the_order(self):
        """One elementary component of order 30: the message does not wait
        for 2^29 terms of Glynn's sum."""
        def cap(signum, frame):
            raise TimeoutError("the error message waited for the count")

        g = random_bipartite_with_pm(30, 0.3, 1)
        old = signal.signal(signal.SIGALRM, cap)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match=r"graph has more than one perfect matching "
                                                 r"\(elementary component of order 30\), "
                                                 r"expected exactly 1"):
                unique_pm_acyclic_check(g)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_one_matching_and_one_digraph(self):
        from unittest import mock

        import extendix

        spies = {}
        patches = []
        for module, name in ((extendix.matching, "max_matching_pairs"),
                             (extendix.correspond, "digraph_of")):
            original = getattr(module, name)
            spies[name] = mock.Mock(wraps=original)
            for layer in ("connectivity", "correspond", "extendability", "matching"):
                mod = getattr(extendix, layer)
                if getattr(mod, name, None) is original:
                    patches.append(mock.patch.object(mod, name, spies[name]))
        for p in patches:
            p.start()
        try:
            rep = unique_pm_acyclic_check(make_c4_pendant().without_edge((1, 0)))
        finally:
            for p in patches:
                p.stop()
        assert rep.acyclic and rep.topological_order == (0, 1, 2)
        assert spies["max_matching_pairs"].call_count == 1
        assert spies["digraph_of"].call_count == 1

    def test_one_strong_component_pass(self):
        """A unique matching takes the strong components of D(G, M) once:
        they are both the test and the order, and no component map is built."""
        from unittest import mock

        import extendix

        with mock.patch.object(extendix.connectivity, "strong_components",
                               wraps=extendix.connectivity.strong_components) as spy, \
                mock.patch.object(extendix.extendability, "elementary_components") as comap:
            rep = unique_pm_acyclic_check(make_p4())
        assert rep.acyclic and rep.topological_order == (0, 1)
        assert spy.call_count == 1 and comap.call_count == 0


class TestSymmetricDifference:
    def test_equal_matchings(self):
        m = canonical_matching(make_c6())
        assert symmetric_difference(m, m) == ()

    def test_c6(self):
        m1, m2 = perfect_matchings(make_c6())
        comps = symmetric_difference(m1, m2)
        assert len(comps) == 1
        assert comps[0].kind == "cycle"
        assert len(comps[0].edges) == 6

    def test_k22(self):
        m1, m2 = perfect_matchings(complete_bipartite(2))
        comps = symmetric_difference(m1, m2)
        assert [c.kind for c in comps] == ["cycle"]
        assert len(comps[0].edges) == 4

    def test_paths_for_partial_matchings(self):
        g = make_p4()
        m1 = Matching(frozenset({(0, 0)}), g)
        m2 = Matching(frozenset({(0, 1)}), g)
        comps = symmetric_difference(m1, m2)
        assert [c.kind for c in comps] == ["path"]
        assert set(comps[0].edges) == {(0, 0), (0, 1)}

    def test_different_hosts_rejected(self):
        with pytest.raises(ValueError):
            symmetric_difference(canonical_matching(make_c6()),
                                 canonical_matching(complete_bipartite(3)))

    def test_flip_yields_perfect_matching(self):
        for g in iter_bipartite_with_canonical(3):
            pms = list(perfect_matchings(g))
            if len(pms) < 2:
                continue
            for other in pms[1:]:
                for comp in symmetric_difference(pms[0], other):
                    assert comp.kind == "cycle"
                    assert flip_alternating_cycle(pms[0], comp.edges).is_perfect


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_max_matching_saturates_or_certifies(seed):
    # a maximum matching either is perfect or leaves some deficient side
    g = random_bipartite_with_pm(4, 0.3, seed=seed)
    m = max_matching(g)
    assert m.size == 4  # the canonical matching guarantees perfection
    assert has_perfect_matching(g)


def _augment_recursive(adj, match_w, i, seen) -> bool:
    """The recursive augmenting-path search the library replaced."""
    for j in adj[i]:
        if j in seen:
            continue
        seen.add(j)
        if match_w.get(j) is None or _augment_recursive(adj, match_w, match_w[j], seen):
            match_w[j] = i
            return True
    return False


class TestIterativeAugment:
    def test_same_matching_and_seen_sets_as_recursive(self):
        """The mask kernel on bitmask rows against the recursive search on
        the same adjacency lists: the same matching after every search,
        and on a failed search the same columns seen (after a success the
        kernel returns None and no caller reads the columns)."""
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.2, 0.3, 0.5))
            adj = [tuple(j for j in range(n) if rng.random() < p) for _ in range(n)]
            rows = [sum(1 << j for j in row) for row in adj]
            mine, theirs = [-1] * n, {}
            for i in range(n):
                seen_theirs = set()
                seen_mine = _augment(rows, mine, i, 0)
                assert (seen_mine is None) == _augment_recursive(adj, theirs, i, seen_theirs)
                assert {j: r for j, r in enumerate(mine) if r >= 0} == theirs
                if seen_mine is not None:
                    assert seen_mine == sum(1 << j for j in seen_theirs)


def _first_pm_by_rematch(g: BipartiteGraph) -> Matching | None:
    """The greedy first perfect matching the library replaced: each trial
    is a breadth-first row search from w_j's owner back to u_i, and the
    partners rotate along the rows found."""
    pairs = max_matching_pairs(g)
    if len(pairs) < g.n:
        return None
    owner = {j: i for i, j in pairs.items()}

    def rematch(i, j):
        rows = _bfs_path(owner[j], lambda x: [owner[w] for w in g.u_neighbors(x)
                                              if owner[w] >= i], lambda y: y == i)
        if rows is None:
            return False
        cols = [pairs[x] for x in rows]
        for x, w in zip(rows, cols[1:] + cols[:1]):
            pairs[x], owner[w] = w, x
        return True

    for i in range(g.n):
        for j in g.u_neighbors(i):
            if owner[j] == i or (owner[j] > i and rematch(i, j)):
                break
    return Matching(frozenset(pairs.items()), g)


def _shuffled_w(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return BipartiteGraph(g.n, frozenset((i, perm[j]) for i, j in g.edges))


class TestFirstPerfectMatchingByAugment:
    """The one-``_augment`` greedy against the row-search greedy it
    replaced, on graphs whose canonical matching is shuffled away from the
    diagonal so that the greedy must move partners."""

    def test_matches_row_search_on_shuffled_graphs(self):
        rng = random.Random(17)
        moved = none = 0
        for s in range(400):
            n = 2 + s % 30
            g = _shuffled_w(random_bipartite_with_pm(
                n, rng.choice((0.05, 0.1, 0.2, 0.4)), seed=1200 + s), rng)
            if s % 5 == 0:
                g = g.without_edge(rng.choice(g.sorted_edges()))
            mine = first_perfect_matching(g)
            assert mine == _first_pm_by_rematch(g)
            none += mine is None
            moved += mine is not None and mine.edges != frozenset(max_matching_pairs(g).items())
        assert none >= 10 and moved >= 200
