import random

import pytest
from hypothesis import given, settings, strategies as st

from extendix import (BipartiteGraph, Matching, canonical_matching, classify_edges,
                      complete_bipartite, count_perfect_matchings,
                      enumerate_matchings, first_perfect_matching,
                      flip_alternating_cycle, has_perfect_matching, matching_graph,
                      max_matching, perfect_matchings, random_bipartite_with_pm,
                      symmetric_difference, unique_pm_acyclic_check,
                      iter_bipartite_with_canonical)
from extendix.core import _bfs_path
from extendix.matching import _augment, max_matching_pairs

from conftest import classify_by_deletion, classify_by_enumeration, make_c6, make_p4


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
            for g in iter_bipartite_with_canonical(n):
                assert count_perfect_matchings(g) == len(list(perfect_matchings(g)))

    def test_matches_enumeration_random(self):
        for seed in range(25):
            g = random_bipartite_with_pm(5, 0.4, seed=seed)
            assert count_perfect_matchings(g) == len(list(perfect_matchings(g)))


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
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.2, 0.3, 0.5))
            adj = [tuple(j for j in range(n) if rng.random() < p) for _ in range(n)]
            mine, theirs = {}, {}
            for i in range(n):
                seen_mine, seen_theirs = set(), set()
                assert (_augment(adj, mine, i, seen_mine)
                        == _augment_recursive(adj, theirs, i, seen_theirs))
                assert (mine, seen_mine) == (theirs, seen_theirs)


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
