"""Vertex connectivity and the perfect-matching count against the
benchmark's reference code, which never imports extendix.

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

from extendix import (BipartiteGraph, count_perfect_matchings, elementary_components,
                      random_bipartite_with_pm, random_digraph, vertex_connectivity)

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
