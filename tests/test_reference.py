"""Vertex connectivity against the benchmark's reference code, which never imports extendix.

``perfbench/ref.py`` computes vertex connectivity with networkx flows, as
the minimum local connectivity over the ordered pairs without an arc.
It is loaded read-only from the benchmark directory, with that directory
on ``sys.path`` for its own ``gen`` import; without networkx the module
is skipped.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from extendix import random_digraph, vertex_connectivity

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
