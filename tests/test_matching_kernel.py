"""The one mask augmenting-path kernel against the set-based search it
replaced, frozen in ``conftest``: the same maximum matchings, with and
without dead vertices, the same lexicographically first perfect
matchings, the same Koenig sets and the same diagonal verdicts.  The
kernel keeps the old scan order, so every matching, witness and path
system built on them is unchanged."""

from __future__ import annotations

import random
from itertools import combinations

from conftest import (reference_first_perfect_matching, reference_fully_indecomposable_by_diagonals,
                      reference_koenig_set, reference_max_matching_pairs)
from extendix import BipartiteGraph, ZeroOneMatrix, random_bipartite_with_pm
from extendix.core import iter_matrices
from extendix.correspond import bipartite_of_matrix
from extendix.extendability import _deficient_set
from extendix.matching import first_perfect_matching, has_perfect_matching, max_matching_pairs
from extendix.matrixlab import fully_indecomposable_by_diagonals


def _every_graph(n: int):
    cells = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(cells)):
        yield BipartiteGraph(n, frozenset(c for b, c in enumerate(cells) if mask >> b & 1))


def _dead_pairs(n: int) -> list:
    """Every (dead_u, dead_w) of equal size, the empty pair first."""
    return [(frozenset(du), frozenset(dw)) for size in range(n + 1)
            for du in combinations(range(n), size) for dw in combinations(range(n), size)]


def _staircase(n: int) -> BipartiteGraph:
    """u_i sees w_(i-1) and w_i: the augmenting searches walk back through
    every earlier row."""
    return BipartiteGraph(n, frozenset({(i, i) for i in range(n)}
                                       | {(i, i - 1) for i in range(1, n)}))


def _assert_same(g: BipartiteGraph, dead_pairs=()) -> None:
    pairs = max_matching_pairs(g)
    assert pairs == reference_max_matching_pairs(g)
    first = first_perfect_matching(g)
    expected = reference_first_perfect_matching(g)
    assert (first and first.pairing()) == expected
    if len(pairs) < g.n:
        for k in range(g.n):
            assert _deficient_set(g, k) == reference_koenig_set(g, k)
    for dead_u, dead_w in dead_pairs:
        pairs = max_matching_pairs(g, dead_u, dead_w)
        assert pairs == reference_max_matching_pairs(g, dead_u, dead_w)
        assert has_perfect_matching(g, dead_u, dead_w) == (len(pairs) == g.n - len(dead_u))


def test_every_graph_of_order_at_most_3_with_every_dead_pair():
    for n in (1, 2, 3):
        dead = _dead_pairs(n)
        for g in _every_graph(n):
            _assert_same(g, dead)


def test_every_graph_of_order_4_with_a_dead_pair_in_turn():
    """All 65,536 graphs of order 4, each with no dead vertex and with the
    next of the 69 nonempty dead pairs in turn, so each pair meets about
    950 graphs.  Every pair on every graph would be 4.6 million searches
    per side, too slow for this tier."""
    dead = _dead_pairs(4)[1:]
    for index, g in enumerate(_every_graph(4)):
        _assert_same(g, [dead[index % len(dead)]])


def test_every_matrix_of_order_at_most_3():
    for n in (1, 2, 3):
        for a in iter_matrices(n):
            assert (fully_indecomposable_by_diagonals(a)
                    == reference_fully_indecomposable_by_diagonals(a))
            _assert_same(bipartite_of_matrix(a))


def _shuffled(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return BipartiteGraph(g.n, frozenset((i, perm[j]) for i, j in g.edges))


def test_seeded_graphs_and_matrices_of_order_10_to_40():
    """Random graphs with a perfect matching, their columns shuffled so
    the greedy must move partners, the same with edges dropped so that
    some have none, the staircase, and their matrices, with a few dead
    pairs each."""
    rng = random.Random(33)
    graphs = [_staircase(n) for n in (10, 25, 40)]
    for s in range(60):
        n = rng.randint(10, 40)
        g = _shuffled(random_bipartite_with_pm(n, rng.choice((0.03, 0.08, 0.15, 0.3)),
                                               seed=3300 + s), rng)
        if s % 3 == 0:
            g = BipartiteGraph(n, frozenset(e for e in g.edges if rng.random() < 0.8))
        graphs.append(g)
    no_pm = indecomposable = 0
    for g in graphs:
        dead = [(frozenset(rng.sample(range(g.n), size)), frozenset(rng.sample(range(g.n), size)))
                for size in (1, 2, g.n // 2)]
        _assert_same(g, dead)
        no_pm += len(max_matching_pairs(g)) < g.n
        a = ZeroOneMatrix(tuple(tuple(int((i, j) in g.edges) for j in range(g.n))
                                for i in range(g.n)))
        verdict = fully_indecomposable_by_diagonals(a)
        assert verdict == reference_fully_indecomposable_by_diagonals(a)
        indecomposable += verdict
    assert no_pm >= 5 and indecomposable >= 5
