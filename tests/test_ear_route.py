"""The digraph ear route of ``analyze`` and ``bipartite_ear_decomposition``.

The builder reads a path ear off the masks when its new vertex has an old
out-neighbour, and searches only for the other path ears; its ears equal
those of the run-wise builder it replaced (``ear_decomposition_by_runs``)
and of the per-ear reference.  The checker tests a single-arc ear given
as a tuple in one condition first; its problem lists equal those of the checker it replaced
(``reference_check_ear_decomposition``) but for two intended changes: a
later ear of one vertex has no arc, and a vertex equal to an int but of
another type, and an ear that is no sequence (a set, a dict, an int), are
not vertices of D.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import extendix.connectivity as connectivity
import extendix.extendability as extendability
from extendix import (Digraph, bipartite_ear_decomposition, complete_digraph, directed_cycle,
                      ear_decomposition_digraph, is_k_extendable, is_strong,
                      random_bipartite_with_pm, random_digraph)
from extendix.connectivity import EarDecompositionD, check_ear_decomposition_digraph
from extendix.core import iter_digraphs

from conftest import (ear_decomposition_by_runs, ear_decomposition_per_ear,
                      reference_check_ear_decomposition)


def _circulant(n: int, steps) -> Digraph:
    return Digraph(n, frozenset((v, (v + j) % n) for v in range(n) for j in steps))


def _simple_cycles(d: Digraph) -> list:
    """Every simple cycle of a small D as an open tuple, least vertex first."""
    return [cycle for size in range(2, d.n + 1) for cycle in permutations(range(d.n), size)
            if cycle[0] == min(cycle)
            and all(arc in d.arcs for arc in zip(cycle, cycle[1:] + cycle[:1]))]


def _assert_same_ears(d: Digraph, start_cycle=None) -> tuple:
    ears = ear_decomposition_digraph(d, start_cycle).ears
    assert ears == ear_decomposition_per_ear(d, start_cycle).ears
    assert ears == ear_decomposition_by_runs(d, start_cycle).ears
    return ears


def _seeded_strong() -> list:
    """Strong seeded digraphs with n = 5-80 at p = 0.08-0.8, sparse ones at
    the larger orders, where path ears search."""
    out = []
    for i, (n, p) in enumerate([(n, p) for n in (5, 8, 12, 20, 30, 40, 60, 80)
                                for p in (0.08, 0.12, 0.2, 0.3, 0.5, 0.8)]):
        for seed in range(3):
            d = random_digraph(n, p, seed=3800 + 10 * i + seed)
            if is_strong(d):
                out.append(d)
    return out


class TestBuilderEars:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_strong_digraph_from_every_start(self, n):
        strong = 0
        for d in iter_digraphs(n):
            if not is_strong(d):
                continue
            strong += 1
            _assert_same_ears(d)
            for cycle in _simple_cycles(d):
                assert _assert_same_ears(d, cycle)[0] == cycle + cycle[:1]
        assert strong == {2: 1, 3: 18, 4: 1606}[n]

    def test_seeded(self):
        digraphs = _seeded_strong()
        assert len(digraphs) >= 80 and max(d.n for d in digraphs) == 80
        searched = 0
        for d in digraphs:
            searched += sum(len(ear) >= 4 for ear in _assert_same_ears(d)[1:])
        assert searched >= 50

    @pytest.mark.parametrize("n", [2, 3, 7, 30])
    def test_directed_cycles(self, n):
        assert _assert_same_ears(directed_cycle(n)) == (tuple(range(n)) + (0,),)

    @pytest.mark.parametrize("n", [5, 8, 12, 25, 60])
    @pytest.mark.parametrize("steps", [(1, 2), (1, 3)])
    def test_circulants(self, n, steps):
        _assert_same_ears(_circulant(n, steps))

    def test_bipartite_ears_ride_on_the_builder(self, monkeypatch):
        """On seeded 1-extendable graphs, the pulled-back ears equal those
        of the run-wise builder."""
        graphs = [g for g in (random_bipartite_with_pm(n, p, seed=3900 + i)
                              for i, (n, p) in enumerate([(n, p) for n in (3, 5, 8, 12, 20)
                                                          for p in (0.3, 0.5, 0.7)]))
                  if is_k_extendable(g, 1)]
        assert len(graphs) >= 8
        starts = [min(g.edges) for g in graphs]
        new = [bipartite_ear_decomposition(g, e).ears for g, e in zip(graphs, starts)]
        monkeypatch.setattr(extendability, "ear_decomposition_digraph",
                            lambda d, cycle: ear_decomposition_by_runs(d, cycle))
        assert new == [bipartite_ear_decomposition(g, e).ears for g, e in zip(graphs, starts)]


class TestSearchesSpared:
    @staticmethod
    def _spy(monkeypatch) -> list:
        calls, search = [], connectivity._bfs_path
        monkeypatch.setattr(connectivity, "_bfs_path",
                            lambda *args: calls.append(args[0]) or search(*args))
        return calls

    def test_an_old_out_neighbour_ends_the_ear_with_no_search(self, monkeypatch):
        """0 <-> 1, then 0 -> 2 -> 1: the new vertex 2 sees the old 1."""
        d = Digraph(3, frozenset({(0, 1), (1, 0), (0, 2), (2, 1)}))
        calls = self._spy(monkeypatch)
        assert ear_decomposition_digraph(d, (0, 1)).ears == ((0, 1, 0), (0, 2, 1))
        assert calls == []

    def test_one_search_per_ear_whose_new_vertex_has_no_old_out_neighbour(self, monkeypatch):
        """An ear read off the masks has three vertices; a searched one, at
        least four.  C_12(1, 3) has three searched ears."""
        calls = self._spy(monkeypatch)
        for d in [_circulant(12, (1, 3))] + _seeded_strong()[::4]:
            start = ear_decomposition_digraph(d).ears[0][:-1]
            calls.clear()
            ears = ear_decomposition_digraph(d, start).ears
            assert len(calls) == sum(len(ear) >= 4 for ear in ears[1:]), ears
            if d.n == 12 and d.m == 24:
                assert len(calls) == 3


def _mutants(ears: list, d: Digraph, rng: random.Random) -> dict:
    """One broken copy per kind: a dropped, duplicated, swapped or reversed
    ear, a replaced vertex, an arc D lacks, a loop ear."""
    i, j = rng.sample(range(len(ears)), 2) if len(ears) > 1 else (0, 0)
    swapped = list(ears)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    ear = list(ears[i])
    ear[rng.randrange(len(ear))] = rng.randrange(d.n)
    u = rng.randrange(d.n)
    missing = [(u, w) for w in range(d.n) if w != u and (u, w) not in d.arcs]
    return {
        "dropped": ears[:i] + ears[i + 1:],
        "duplicated": ears[:i] + [ears[i]] + ears[i:],
        "swapped": swapped,
        "reversed": ears[:i] + [ears[i][::-1]] + ears[i + 1:],
        "replaced vertex": ears[:i] + [tuple(ear)] + ears[i + 1:],
        "missing arc": ears + missing[:1],
        "loop ear": ears[:i + 1] + [(u, u)] + ears[i + 1:],
    }


class TestCheckerProblems:
    def test_mutants_get_the_replaced_checkers_problems(self):
        rng = random.Random(38)
        found = {}
        digraphs = [d for n in (3, 4, 5, 6, 9, 14, 20)
                    for d in (random_digraph(n, p, seed=4000 + 10 * n + i)
                              for i, p in enumerate((0.3, 0.45, 0.6, 0.8) * 2))
                    if is_strong(d)]
        assert len(digraphs) >= 30
        for d in digraphs:
            ears = list(ear_decomposition_digraph(d).ears)
            assert check_ear_decomposition_digraph(d, EarDecompositionD(tuple(ears))) == []
            for _ in range(6):
                for kind, broken in _mutants(ears, d, rng).items():
                    dec = EarDecompositionD(tuple(broken))
                    problems = check_ear_decomposition_digraph(d, dec)
                    assert problems == reference_check_ear_decomposition(d, dec), (kind, broken)
                    found[kind] = found.get(kind, 0) + bool(problems)
        assert all(found.values()) and len(found) == 7, found

    def test_a_one_vertex_ear_has_no_arc(self):
        dec = EarDecompositionD(((0, 1, 2, 0), (1,)))
        assert reference_check_ear_decomposition(directed_cycle(3), dec) == []
        assert check_ear_decomposition_digraph(directed_cycle(3), dec) == [
            "ear 1 (1,) has no arc"]
        # an arc-less ear covers no vertex
        dec = EarDecompositionD(((0, 1, 0), (2,), (1, 0)))
        assert check_ear_decomposition_digraph(Digraph(3, frozenset({(0, 1), (1, 0)})), dec) == [
            "ear 1 (2,) has no arc", "ear 2 repeats arc (1, 0)", "vertices not fully covered"]

    @pytest.mark.parametrize("ears, bad", [(((0, 1.0, 2, 0),), 0),
                                           (((0, 1, 2, 0), (1, 2.0)), 1)])
    def test_a_vertex_of_another_type_is_no_vertex(self, ears, bad):
        d = _circulant(3, (1, 2))
        dec = EarDecompositionD(ears)
        with pytest.raises(TypeError):
            reference_check_ear_decomposition(d, dec)
        assert check_ear_decomposition_digraph(d, dec) == [
            f"ear {bad} {ears[bad]} is not a sequence of vertices of D"]

    def test_the_first_ear_with_a_non_vertex_is_named(self):
        d = _circulant(3, (1, 2))
        dec = EarDecompositionD(((0, 1, 2, 0), (1, 2.0), (2, 7)))
        assert reference_check_ear_decomposition(d, dec) == [
            "ear 2 (2, 7) is not a sequence of vertices of D"]
        assert check_ear_decomposition_digraph(d, dec) == [
            "ear 1 (1, 2.0) is not a sequence of vertices of D"]

    def test_an_ear_that_cannot_be_indexed_is_named(self):
        d = _circulant(3, (1, 2))
        dec = EarDecompositionD(((0, 1, 2, 0), frozenset({0, 1, 2})))
        with pytest.raises(TypeError):
            reference_check_ear_decomposition(d, dec)
        assert check_ear_decomposition_digraph(d, dec) == [
            f"ear 1 {frozenset({0, 1, 2})} is not a sequence of vertices of D"]

    @pytest.mark.parametrize("ear", [frozenset({1, 2}), {1: "x", 2: "y"}], ids=["set", "dict"])
    def test_a_two_element_set_or_dict_is_no_arc(self, ear):
        """The single-arc check reads its two vertices by index; unpacked,
        a set or a dict read as the arc 1 -> 2 and the decomposition
        passed."""
        dec = EarDecompositionD(((0, 1, 0), (0, 2, 0), ear, (2, 1)))
        assert reference_check_ear_decomposition(complete_digraph(3), dec) == []
        assert check_ear_decomposition_digraph(complete_digraph(3), dec) == [
            f"ear 2 {ear} is not a sequence of vertices of D"]

    def test_a_dict_keyed_0_and_1_is_no_arc(self):
        """Read by index, ``{0: 1, 1: 7}`` is the arc 1 -> 7: put in place
        of that single-arc ear of a sound decomposition, it checked clean
        when the one-condition test took any two-vertex ear.  Only a tuple,
        which every builder writes, takes that test now."""
        d = random_digraph(8, 0.5, seed=3)
        ears = list(ear_decomposition_digraph(d).ears)
        assert ears[6] == (1, 7)
        ears[6] = {0: 1, 1: 7}
        assert check_ear_decomposition_digraph(d, EarDecompositionD(tuple(ears))) == [
            "ear 6 {0: 1, 1: 7} is not a sequence of vertices of D"]
        ears[6] = [1, 7]
        assert check_ear_decomposition_digraph(d, EarDecompositionD(tuple(ears))) == []

    def test_an_int_ear_is_named(self):
        """The union of the ears' vertices, which the mask loop replaced,
        raised on an ear that is no iterable."""
        dec = EarDecompositionD(((0, 1, 2, 0), 5))
        with pytest.raises(TypeError):
            reference_check_ear_decomposition(directed_cycle(3), dec)
        assert check_ear_decomposition_digraph(directed_cycle(3), dec) == [
            "ear 1 5 is not a sequence of vertices of D"]

    @pytest.mark.parametrize("ears, bad", [
        (((0, 1, 2, 0), (1, 10 ** 30)), 1), (((0, 1, 2, 0), (1, 10 ** 30, 2)), 1),
        (((0, 1, 2, 0), (10 ** 30,)), 1), (((10 ** 30,),), 0), (((0, 1, 2, 0), (1, -1)), 1)])
    def test_a_vertex_outside_d_is_named_before_its_bit_is_built(self, ears, bad):
        """No vertex is shifted into a mask before it is known to lie in
        0..n-1, so a vertex far past n is named, not built as a bit."""
        assert check_ear_decomposition_digraph(directed_cycle(3), EarDecompositionD(ears)) == [
            f"ear {bad} {ears[bad]} is not a sequence of vertices of D"]

    def test_a_type_error_of_sound_ears_is_raised(self, monkeypatch):
        def broken(d, ears):
            raise TypeError("not from the ears")

        monkeypatch.setattr(connectivity, "_ear_problems", broken)
        with pytest.raises(TypeError, match="not from the ears"):
            check_ear_decomposition_digraph(directed_cycle(3), EarDecompositionD(((0, 1, 2, 0),)))

    def test_a_start_cycle_of_another_type_is_a_value_error(self):
        with pytest.raises(ValueError, match="not a sequence of vertices of D"):
            ear_decomposition_digraph(directed_cycle(3), start_cycle=(0, 1.0, 2))
