import dataclasses
import sys

import pytest

from extendix import (BipartiteGraph, Digraph, InvalidInstanceError, Matching,
                      ZeroOneMatrix, canonical_matching, complete_bipartite,
                      connected, cycle_bipartite, directed_cycle,
                      iter_bipartite_with_canonical, iter_digraphs, iter_matrices,
                      matching_graph, random_bipartite_with_pm, random_digraph,
                      validate)
from extendix.core import _bfs_path, is_int_token, parse_vertex_label


class TestTokens:
    @pytest.mark.parametrize("text, signed, expected", [
        ("12", False, True), ("-12", True, True), ("-12", False, False),
        ("--1", True, False), ("\u00b2", False, False), ("+1", True, False),
        ("1_0", False, False), ("", False, False), ("-", True, False),
    ])
    def test_int_token_rule(self, text, signed, expected):
        assert is_int_token(text, signed) is expected

    def test_vertex_label_rejects_superscript(self):
        assert parse_vertex_label("u3") == ("u", 2)
        assert parse_vertex_label("u\u00b2") is None
        assert parse_vertex_label("w0") is None


class TestValidate:
    def test_k2_valid(self):
        assert validate(BipartiteGraph(1, frozenset({(0, 0)}))).valid

    def test_intra_class_edge_reported(self):
        # labels belong to the file formats: in memory an edge is an index pair
        g = BipartiteGraph(2, frozenset({("u1", "u2")}))
        report = validate(g)
        assert not report.valid
        assert any("non-integer" in v for v in report.violations)

    def test_labeled_edges_reported(self):
        report = validate(BipartiteGraph(2, frozenset({("u1", "w2"), ("w1", "u2")})))
        assert not report.valid
        assert all("non-integer" in v for v in report.violations)

    def test_labeled_pairs_rejected_by_build(self):
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph.build(2, [("u1", "w1"), ("u2", "w2"), ("u1", "w2")])
        with pytest.raises(InvalidInstanceError):
            Digraph.build(2, [("u1", "w2"), ("u2", "w1")])

    def test_non_binary_matrix_entry(self):
        report = validate(ZeroOneMatrix(((2, 0), (0, 1))))
        assert not report.valid
        assert any("non-binary" in v for v in report.violations)

    def test_out_of_range_edge(self):
        assert not validate(BipartiteGraph(2, frozenset({(0, 5)}))).valid

    def test_duplicate_edges_via_list(self):
        g = BipartiteGraph(2, [(0, 0), (0, 0)])
        assert any("duplicate" in v for v in validate(g).violations)

    def test_loop_needs_flag(self):
        assert not validate(Digraph(2, frozenset({(1, 1)}))).valid
        assert validate(Digraph(2, frozenset({(1, 1)}), loops_allowed=True)).valid

    def test_nonsquare_matrix(self):
        assert not validate(ZeroOneMatrix(((0, 1), (1,)))).valid

    def test_build_raises(self):
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph.build(2, [(0, 3)])


class TestMatching:
    def test_shared_endpoint_rejected(self):
        g = complete_bipartite(2)
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 0), (0, 1)}), g)

    def test_stray_edge_rejected(self):
        g = matching_graph(2)
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 1)}), g)

    def test_perfect(self):
        g = complete_bipartite(2)
        assert Matching(frozenset({(0, 0), (1, 1)}), g).is_perfect
        assert not Matching(frozenset({(0, 0)}), g).is_perfect


class TestGenerators:
    def test_p_zero_gives_bare_matching(self):
        assert random_bipartite_with_pm(3, 0.0, seed=11) == matching_graph(3)

    def test_p_one_gives_complete(self):
        assert random_bipartite_with_pm(3, 1.0, seed=11) == complete_bipartite(3)

    def test_deterministic(self):
        a = random_bipartite_with_pm(5, 0.4, seed=7)
        b = random_bipartite_with_pm(5, 0.4, seed=7)
        assert a == b

    def test_always_valid_with_canonical_matching(self):
        for seed in range(30):
            g = random_bipartite_with_pm(4, 0.45, seed=seed)
            assert validate(g).valid
            assert canonical_matching(g).is_perfect

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_bipartite_with_pm(0, 0.5, seed=1)

    def test_digraph_extremes(self):
        assert random_digraph(4, 1.0, seed=3).m == 12
        assert random_digraph(4, 0.0, seed=3).m == 0

    def test_digraph_deterministic_and_loop_free(self):
        a = random_digraph(6, 0.3, seed=1)
        assert a == random_digraph(6, 0.3, seed=1)
        assert not a.has_loops()


class TestEnumerators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bipartite_count(self, n):
        graphs = list(iter_bipartite_with_canonical(n))
        assert len(graphs) == 2 ** (n * n - n)
        assert len(set(graphs)) == len(graphs)
        diag = frozenset((i, i) for i in range(n))
        assert all(diag <= g.edges for g in graphs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_digraph_count(self, n):
        ds = list(iter_digraphs(n))
        assert len(ds) == 2 ** (n * n - n)
        assert len(set(ds)) == len(ds)

    def test_matrix_count(self):
        ms = list(iter_matrices(2))
        assert len(ms) == 16
        assert len(set(ms)) == 16


class TestHelpers:
    def test_connected(self):
        assert connected(cycle_bipartite(3))
        assert not connected(matching_graph(2))

    def test_directed_cycle(self):
        assert directed_cycle(3).sorted_arcs() == [(0, 1), (1, 2), (2, 0)]

    def test_canonical_matching_missing(self):
        with pytest.raises(ValueError):
            canonical_matching(BipartiteGraph(2, frozenset({(0, 1), (1, 0)})))

    def test_matrix_numpy_interop(self):
        import numpy as np

        a = ZeroOneMatrix.from_array(np.eye(3, dtype=int))
        assert a == ZeroOneMatrix.identity(3)
        assert (a.to_array() == np.eye(3, dtype=int)).all()

    def test_from_array_takes_nested_sequences_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # any numpy import fails
        assert ZeroOneMatrix.from_array([[1, 0], (0, 1)]) == ZeroOneMatrix.identity(2)

    def test_digraph_masks_are_built_once_and_kept_off_the_fields(self):
        """The masks leave equality, hashing, repr and the constructor as
        they were, and are tuples, so no reader can change them."""
        d = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0), (1, 1)}), loops_allowed=True)
        twin = Digraph(3, d.arcs, True)
        before = repr(d), hash(d)
        assert d._masks == ((0b010, 0b100, 0b001), (0b100, 0b001, 0b010))
        assert d._masks is d._masks
        assert (repr(d), hash(d)) == before and d == twin and "_masks" not in twin.__dict__
        assert [f.name for f in dataclasses.fields(d)] == ["n", "arcs", "loops_allowed"]


def _smallest_path_by_enumeration(d: Digraph, start: int, stop) -> list | None:
    """Every simple path from start (or cycle back to it) whose last vertex
    is its first to satisfy stop, the smallest by (length, tuple)."""
    best = None
    stack = [[start]]
    while stack:
        path = stack.pop()
        for y in d.out_neighbors(path[-1]):
            if stop(y):
                cand = path + [y]
                if best is None or (len(cand), cand) < (len(best), best):
                    best = cand
            elif y not in path:
                stack.append(path + [y])
    return best


class TestBfsPath:
    def test_stop_on_start_closes_a_cycle(self):
        d = Digraph(4, frozenset({(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)}))
        assert _bfs_path(0, d.out_neighbors, lambda y: y == 0) == [0, 1, 2, 0]

    def test_unreachable_target_gives_none(self):
        d = Digraph(3, frozenset({(0, 1), (1, 0), (2, 0)}))
        assert _bfs_path(0, d.out_neighbors, lambda y: y == 2) is None
        assert _bfs_path(2, d.out_neighbors, lambda y: False) is None

    def test_lexicographic_tie_break(self):
        # two shortest paths to 6; the winner is the smaller tuple, which
        # leaves the queue first although its third vertex is the larger
        d = Digraph(7, frozenset({(0, 2), (0, 1), (2, 3), (1, 4), (3, 6), (4, 6)}))
        assert _bfs_path(0, d.out_neighbors, lambda y: y == 6) == [0, 1, 4, 6]
        assert _bfs_path(0, d.out_neighbors, lambda y: y in (3, 4)) == [0, 1, 4]

    def test_smallest_path_by_enumeration(self):
        for seed in range(60):
            d = random_digraph(7, 0.35, seed=seed)
            for v in range(d.n):
                for stop in ((lambda y: y == v), (lambda y: y > v), (lambda y: y % 3 == 0)):
                    assert (_bfs_path(v, d.out_neighbors, stop)
                            == _smallest_path_by_enumeration(d, v, stop))


class TestBipartiteRows:
    def test_rows_are_the_neighbourhoods(self):
        for seed in range(20):
            g = random_bipartite_with_pm(9, 0.3, seed=seed)
            assert g._u_rows == tuple(sum(1 << j for j in g.u_neighbors(i)) for i in range(g.n))
            assert g._w_rows == tuple(sum(1 << i for i in g.w_neighbors(j)) for j in range(g.n))

    def test_rows_stay_outside_equality_hash_and_repr(self):
        g, h = cycle_bipartite(5), cycle_bipartite(5)
        text = repr(g)
        g._u_rows, g._w_rows
        assert "_u_rows" not in h.__dict__
        assert g == h and hash(g) == hash(h) and repr(g) == text == repr(h)
        assert [f.name for f in dataclasses.fields(g)] == ["n", "edges"]

    def test_connected_against_a_search_on_the_neighbour_lists(self):
        def by_lists(g):
            seen, stack = {("u", 0)}, [("u", 0)]
            while stack:
                side, v = stack.pop()
                for x in (g.u_neighbors(v) if side == "u" else g.w_neighbors(v)):
                    other = ("w" if side == "u" else "u", x)
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            return len(seen) == 2 * g.n

        checked = [0, 0]
        for n in (1, 2, 3):
            cells = [(i, j) for i in range(n) for j in range(n)]
            for mask in range(1 << len(cells)):
                g = BipartiteGraph(n, frozenset(c for b, c in enumerate(cells) if mask >> b & 1))
                assert connected(g) == by_lists(g)
                checked[connected(g)] += 1
        for seed in range(200):
            g = random_bipartite_with_pm(12 + seed % 20, 0.02 + seed % 7 / 50, seed=seed)
            assert connected(g) == by_lists(g)
            checked[connected(g)] += 1
        assert min(checked) >= 50
