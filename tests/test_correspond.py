from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from extendix import (Digraph, Matching, ZeroOneMatrix,
                      bipartite_of_digraph, bipartite_of_matrix, canonical_matching,
                      complete_bipartite, complete_digraph, digraph_of,
                      digraph_of_matrix, directed_cycle, flip_alternating_cycle,
                      iter_bipartite_with_canonical, iter_digraphs, matching_graph,
                      matrix_of_digraph, max_matching, perfect_matchings,
                      random_bipartite_with_pm, reduced_adjacency)
from conftest import (alternating_cycle_edges_from_digraph_cycle, check_bijections, make_c6,
                      make_p4)


@st.composite
def digraphs(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.sets(st.sampled_from(cells)))
    return Digraph(n, frozenset(arcs))


class TestReducedAdjacency:
    def test_disjoint_edges_give_identity(self):
        assert reduced_adjacency(matching_graph(3)) == ZeroOneMatrix.identity(3)

    def test_complete_gives_ones(self):
        assert reduced_adjacency(complete_bipartite(2)) == ZeroOneMatrix.ones(2)

    def test_c6_rows(self):
        # read off the edge list: u1-{w1,w2}, u2-{w2,w3}, u3-{w3,w1}
        assert reduced_adjacency(make_c6()).rows == ((1, 1, 0), (0, 1, 1), (1, 0, 1))

    def test_matrix_to_graph(self):
        assert bipartite_of_matrix(ZeroOneMatrix.identity(2)) == matching_graph(2)
        assert bipartite_of_matrix(ZeroOneMatrix.ones(3)) == complete_bipartite(3)
        assert bipartite_of_matrix(ZeroOneMatrix(((1, 1), (0, 1)))) == make_p4()

    def test_round_trips_exhaustive(self):
        for n in (1, 2, 3):
            for g in iter_bipartite_with_canonical(n):
                assert bipartite_of_matrix(reduced_adjacency(g)) == g
        for d in iter_digraphs(3):
            a = matrix_of_digraph(d)
            assert digraph_of_matrix(a).loop_free() == d
            assert matrix_of_digraph(digraph_of_matrix(a)) == a


def _digraph_by_matrix(g, m) -> frozenset:
    """Arcs of D(G, M) by the matrix route: permute the columns of the
    reduced adjacency matrix so that M is the main diagonal, then read off
    the off-diagonal ones."""
    a = reduced_adjacency(g)
    pairing = m.pairing()
    permuted = ZeroOneMatrix(tuple(
        tuple(0 if i == j else a.rows[i][pairing[j]] for j in range(g.n))
        for i in range(g.n)))
    return digraph_of_matrix(permuted).arcs


class TestDigraphOf:
    def test_c6_contracts_to_directed_triangle(self):
        g = make_c6()
        d, cmap = digraph_of(g, canonical_matching(g))
        assert d == directed_cycle(3)
        assert cmap.w_relabel == (0, 1, 2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_gives_complete(self, n):
        g = complete_bipartite(n)
        for m in perfect_matchings(g):
            d, _ = digraph_of(g, m)
            assert d == complete_digraph(n)

    def test_p4_gives_single_arc(self):
        g = make_p4()
        m = Matching(frozenset({(0, 0), (1, 1)}), g)
        d, _ = digraph_of(g, m)
        assert d.sorted_arcs() == [(0, 1)]

    def test_rejects_imperfect_matching(self):
        g = make_c6()
        with pytest.raises(ValueError):
            digraph_of(g, Matching(frozenset({(0, 0)}), g))

    def test_rejects_foreign_matching(self):
        with pytest.raises(ValueError):
            digraph_of(make_c6(), canonical_matching(complete_bipartite(3)))

    def test_noncanonical_matching_relabels(self):
        g = make_c6()
        other = Matching(frozenset({(0, 1), (1, 2), (2, 0)}), g)
        d, cmap = digraph_of(g, other)
        assert cmap.w_relabel == (1, 2, 0)
        assert check_bijections(cmap, g, other, d)
        # the remaining non-matching edges are the canonical ones; the
        # contraction is again a directed triangle
        assert len(d.arcs) == 3

    def test_arc_count_always_m_minus_n(self):
        for g in iter_bipartite_with_canonical(3):
            for m in perfect_matchings(g):
                d, cmap = digraph_of(g, m)
                assert d.m == g.m - g.n
                assert check_bijections(cmap, g, m, d)

    def test_equals_matrix_route_exhaustive(self):
        for n in (1, 2, 3):
            for g in iter_bipartite_with_canonical(n):
                for m in perfect_matchings(g):
                    assert digraph_of(g, m)[0].arcs == _digraph_by_matrix(g, m)

    def test_equals_matrix_route_random(self):
        for seed in range(10):
            g = random_bipartite_with_pm(10, 0.3, seed=400 + seed)
            for m in [max_matching(g)] + list(islice(perfect_matchings(g), 5)):
                assert digraph_of(g, m)[0].arcs == _digraph_by_matrix(g, m)

    def test_different_matchings_can_give_nonisomorphic_digraphs(self):
        # degree multisets are isomorphism invariants, so differing ones
        # witness non-isomorphic derived digraphs for one graph
        def profile(d):
            return tuple(sorted((d.out_degree(v), d.in_degree(v))
                                for v in range(d.n)))

        found = False
        for g in iter_bipartite_with_canonical(3):
            profiles = {profile(digraph_of(g, m)[0]) for m in perfect_matchings(g)}
            if len(profiles) > 1:
                found = True
                break
        assert found


class TestBipartiteOfDigraph:
    def test_triangle_expands_to_c6(self):
        g, m, _ = bipartite_of_digraph(directed_cycle(3))
        assert g == make_c6()
        assert m.edges == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_arcless(self):
        g, _, _ = bipartite_of_digraph(Digraph(4, frozenset()))
        assert g == matching_graph(4)

    def test_complete(self):
        g, _, _ = bipartite_of_digraph(complete_digraph(3))
        assert g == complete_bipartite(3)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            bipartite_of_digraph(Digraph(2, frozenset({(0, 0)}), loops_allowed=True))

    def test_round_trip_exhaustive(self):
        for d in iter_digraphs(3):
            g, m, _ = bipartite_of_digraph(d)
            d2, _ = digraph_of(g, m)
            assert d2 == d

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, d):
        g, m, _ = bipartite_of_digraph(d)
        d2, _ = digraph_of(g, m)
        assert d2 == d

    @given(digraphs(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_graph_relabel_round_trip(self, d):
        # relabel W on the expanded graph, derive, expand again: the pair
        # (graph, matching) comes back exactly up to the recorded relabel
        g, m, _ = bipartite_of_digraph(d)
        for m2 in perfect_matchings(g):
            d2, cmap = digraph_of(g, m2)
            g2, mc, _ = bipartite_of_digraph(d2)
            relabel = cmap.w_relabel
            pulled = frozenset((i, relabel[j]) for i, j in g2.edges)
            assert pulled == g.edges
            pulled_m = frozenset((i, relabel[j]) for i, j in mc.edges)
            assert pulled_m == m2.edges


class TestCycleTransport:
    def test_directed_cycle_pulls_back_to_alternating_cycle(self):
        g = make_c6()
        m = canonical_matching(g)
        _, cmap = digraph_of(g, m)
        edges = alternating_cycle_edges_from_digraph_cycle(cmap, (0, 1, 2, 0))
        assert len(edges) == 6
        assert set(edges) == set(g.edges)
        flipped = flip_alternating_cycle(m, edges)
        assert flipped.is_perfect
        assert flipped.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_transport_on_all_small_digraph_cycles(self):
        from extendix import is_strong

        for d in iter_digraphs(3):
            if not is_strong(d) or d.n < 2 or d.m == 0:
                continue
            g, m, cmap = bipartite_of_digraph(d)
            from extendix.connectivity import _out_lists, _shortest_cycle

            cyc = _shortest_cycle(_out_lists(d))
            closed = tuple(cyc) + (cyc[0],)
            edges = alternating_cycle_edges_from_digraph_cycle(cmap, closed)
            assert flip_alternating_cycle(m, edges).is_perfect


def test_digraph_of_hands_d_its_masks(monkeypatch):
    """D(G, M) gets its out- and in-rows from ``digraph_of``: they equal a
    rebuild from its arcs, and the strong components, the flows of kappa
    and the elementary components read them without one."""
    from extendix import core, elementary_components, strong_components, vertex_connectivity

    rebuild = core._neighbourhood_masks
    builds = []
    monkeypatch.setattr(core, "_neighbourhood_masks", lambda d: builds.append(d) or rebuild(d))
    for seed in range(30):
        g = random_bipartite_with_pm(12, 0.25, seed=seed)
        for m in (canonical_matching(g), max_matching(g)):
            d, _ = digraph_of(g, m)
            strong_components(d)
            vertex_connectivity(d)
            elementary_components(g, m)
            assert builds == []
            assert d._masks == rebuild(d)
