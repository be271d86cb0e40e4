"""Vertex connectivity, max-extendability and the perfect-matching count
against the benchmark's reference code, which never imports extendix.

``perfbench/ref.py`` computes vertex connectivity with networkx flows, as
the minimum local connectivity over the ordered pairs without an arc, and
the permanent by a dynamic programme over column masks in numpy.
It is loaded read-only from the benchmark directory, with that directory
on ``sys.path`` for its own ``gen`` import; without networkx the module
is skipped.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from extendix import (BipartiteGraph, Digraph, count_perfect_matchings,
                      elementary_components, max_extendability, random_bipartite_with_pm,
                      random_digraph, vertex_connectivity)

pytest.importorskip("networkx")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def ref():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_ref", PERFBENCH / "ref.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


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
