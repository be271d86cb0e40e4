"""Strong components, vertex connectivity, max-extendability and the
perfect-matching count against the benchmark's reference code, which
never imports extendix.

``perfbench/ref.py`` takes strong components from networkx, computes
vertex connectivity with networkx flows, as the minimum local
connectivity over the ordered pairs without an arc, and the permanent by
a dynamic programme over column masks in numpy.  The order of the
components is checked against networkx's condensation.
It is loaded read-only from the benchmark directory, with that directory
on ``sys.path`` for its own ``gen`` import; without networkx the module
is skipped.
"""

from __future__ import annotations

import random

import pytest

from extendix import (BipartiteGraph, Digraph, count_perfect_matchings,
                      elementary_components, max_extendability, random_bipartite_with_pm,
                      random_digraph, strong_components, vertex_connectivity)

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def ref(perfbench_ref):
    return perfbench_ref


def _reference_components(ref, d: Digraph, removed) -> tuple:
    """The strong components of D - removed: the partition from
    ``ref.strong_components``, where the removed vertices keep no arc and
    stay singletons, and the order of networkx's condensation, sorted
    topologically with ties broken by smallest member."""
    arcs = [(a, b) for a, b in d.arcs if a not in removed and b not in removed]
    partition = [c for c in ref.strong_components(d.n, arcs) if c[0] not in removed]
    g = ref.digraph(d.n, arcs)
    g.remove_nodes_from(removed)
    c = nx.condensation(g)
    members = [c.nodes[i]["members"] for i in
               nx.lexicographical_topological_sort(c, key=lambda i: min(c.nodes[i]["members"]))]
    assert sorted(sorted(m) for m in members) == partition
    return tuple(frozenset(m) for m in members)


def _acyclic(n: int, p: float, seed: int, backward: bool) -> Digraph:
    """A random acyclic digraph whose arcs all run up (or all down) the
    vertex order."""
    rng = random.Random(seed)
    return Digraph(n, frozenset((b, a) if backward else (a, b) for a in range(n)
                                for b in range(a + 1, n) if rng.random() < p))


def _cycle_chain(blocks: int, seed: int) -> Digraph:
    """Directed 4-cycles, each joined to the next by one arc, under a
    random relabelling: one component per cycle, in a path order."""
    rng = random.Random(seed)
    label = list(range(4 * blocks))
    rng.shuffle(label)
    arcs = {(4 * i + j, 4 * i + (j + 1) % 4) for i in range(blocks) for j in range(4)}
    arcs |= {(4 * i + rng.randrange(4), 4 * i + 4 + rng.randrange(4)) for i in range(blocks - 1)}
    return Digraph(4 * blocks, frozenset((label[a], label[b]) for a, b in arcs))


def test_strong_components_match_reference(ref):
    """Seeded digraphs with n = 10-80: sparse and dense random ones, acyclic
    ones in both orientations and chains of 4-cycles, where the components
    are many and each reach is long, some with loops and some with removed
    vertices."""
    rng = random.Random(17)
    cases = []
    for i in range(12):
        n = 10 + 70 * i // 11
        cases += [random_digraph(n, (0.02, 0.05, 0.1, 0.3)[i % 4], seed=760 + i),
                  _acyclic(n, 0.2, 780 + i, backward=i % 2 == 1),
                  _cycle_chain(max(3, n // 4), 800 + i)]
    many = 0
    for i, d in enumerate(cases):
        if i % 3 == 0:
            loops = {(v, v) for v in rng.sample(range(d.n), 3)}
            d = Digraph(d.n, d.arcs | loops, loops_allowed=True)
        for removed in ((), set(rng.sample(range(d.n), rng.randint(1, d.n // 3)))):
            comps = strong_components(d, removed)
            assert comps == _reference_components(ref, d, removed), (d.n, removed)
            many += len(comps) >= d.n // 4
    assert many >= 40


def test_kappa_matches_reference(ref):
    kappas = []
    for i in range(10):
        d = random_digraph(20 + i, (0.2, 0.35, 0.5)[i % 3], seed=700 + i)
        kappas.append(vertex_connectivity(d))
        assert kappas[-1] == ref.kappa(d.n, d.arcs), (d.n, d.arcs)
    assert len(set(kappas)) >= 5


def test_kappa_matches_reference_at_n_30_to_40(ref):
    """Seeded digraphs, where short paths settle most pairs, and the
    circulant C40(1..5), where the far pairs need augmenting paths."""
    kappas = []
    for i, (n, p) in enumerate(((31, 0.3), (34, 0.5), (37, 0.2), (40, 0.3))):
        d = random_digraph(n, p, seed=720 + i)
        kappas.append(vertex_connectivity(d))
        assert kappas[-1] == ref.kappa(d.n, d.arcs), (d.n, d.arcs)
    assert len(set(kappas)) == 4
    c40 = Digraph(40, frozenset((v, (v + j) % 40) for v in range(40) for j in range(1, 6)))
    assert vertex_connectivity(c40) == ref.kappa(c40.n, c40.arcs) == 5


def test_kappa_matches_reference_up_to_n_80(ref):
    """kappa from the fan schedule at n = 50 and n = 80, where the fans
    outnumber the pairs among 0..k-1; the reference's flows take a few
    seconds at n = 80, so the digraphs are sparse."""
    for n, p, seed, kappa in ((50, 0.3, 1, 7), (80, 0.1, 4, 2)):
        d = random_digraph(n, p, seed=seed)
        assert vertex_connectivity(d) == ref.kappa(d.n, d.arcs) == kappa


def test_max_extendability_matches_reference(ref):
    """Seeded bipartite graphs with n = 16-24, one without a perfect
    matching: max-extendability is kappa of D(G, M) for any perfect M."""
    exts = []
    for i in range(6):
        n = 16 + 2 * i if i < 5 else 20
        g = random_bipartite_with_pm(n, (0.15, 0.3, 0.45)[i % 3], seed=740 + i)
        if i == 5:  # row 0 loses its edges: no perfect matching
            g = BipartiteGraph(n, frozenset(e for e in g.edges if e[0] != 0))
        exts.append(max_extendability(g))
        assert exts[-1] == ref.extendability(g.n, g.edges)["ext"], (g.n, sorted(g.edges))
    assert len(set(exts)) >= 4 and exts[-1] == 0


def test_permanent_matches_reference(ref):
    """Seeded graphs with n = 12-18: one elementary component, several (a
    sparse graph, with fixed single edges), and no perfect matching."""
    orders = []
    for i in range(8):
        n = 12 + i if i < 7 else 18
        g = random_bipartite_with_pm(n, (0.2, 0.35, 0.5)[i % 3], seed=900 + i)
        if i == 7:  # row 0 loses its edges: no perfect matching
            g = BipartiteGraph(n, frozenset(e for e in g.edges if e[0] != 0))
        count = count_perfect_matchings(g)
        assert count == ref.permanent(g.n, g.edges), (g.n, sorted(g.edges))
        if count:
            orders.append(sorted(len(p.scc) for p in elementary_components(g).elementary))
    assert any(len(o) >= 2 for o in orders) and max(map(max, orders)) >= 14
    assert count == 0
