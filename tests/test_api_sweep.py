"""Every public function answers at n = 40, or says why it will not.

Each name ``extendix`` exports is called on seeded instances of its kind
at n = 40, sparse and dense, under a 2 s alarm per call.  A call passes
when it returns (an iterator: when it yields its first item, or ends),
when it raises a ``TooLargeError`` naming a budget of ``core.BUDGETS``,
or when it raises a ``ValueError`` (``InsufficientPathsError`` for a path
system) on an instance outside the precondition its docstring states
(``PRECONDITIONS``).  The polynomial routes answer within milliseconds
here; the alarm catches an exhaustive route that runs without a budget.
The record types and errors take no instance; they are listed in
``RECORDS``.
"""

from __future__ import annotations

import inspect
import random
import signal
from pathlib import Path
from typing import Iterator

import pytest

import extendix as ex
from extendix.core import BUDGETS

N = 40
K = (1, 2)


def _matrix(p: float, seed: int) -> ex.ZeroOneMatrix:
    rng = random.Random(seed)
    return ex.ZeroOneMatrix(tuple(tuple(int(rng.random() < p) for _ in range(N))
                                  for _ in range(N)))


INSTANCES = {
    "bg": {"cycle": ex.cycle_bipartite(N),
           "sparse": ex.random_bipartite_with_pm(N, 0.05, 1),
           "dense": ex.random_bipartite_with_pm(N, 0.5, 1)},
    "dg": {"cycle": ex.directed_cycle(N),
           "sparse": ex.random_digraph(N, 0.1, 1),
           "dense": ex.random_digraph(N, 0.5, 1)},
    "mat": {"cycle": ex.reduced_adjacency(ex.cycle_bipartite(N)),
            "ones": ex.ZeroOneMatrix.ones(N),
            "sparse": _matrix(0.1, 1), "dense": _matrix(0.5, 1)},
    "size": {"n": N},
}


def _pm(g):
    return ex.first_perfect_matching(g)


def _flip(g):
    m = ex.canonical_matching(g)
    cycles = [c for c in ex.symmetric_difference(m, ex.max_matching(g)) if c.kind == "cycle"]
    return ex.flip_alternating_cycle(m, cycles[0].edges if cycles else ())


# name -> (instance kind, call); calls with k run at each k in K
CALLS = {
    "BipartiteGraph": ("bg", lambda g: ex.BipartiteGraph.build(g.n, g.edges)),
    "Digraph": ("dg", lambda d: ex.Digraph.build(d.n, d.arcs)),
    "Matching": ("bg", lambda g: ex.Matching(_pm(g).edges, g)),
    "ZeroOneMatrix": ("mat", lambda a: (ex.ZeroOneMatrix.from_rows(a.rows),
                                        ex.ZeroOneMatrix.from_array([list(r) for r in a.rows]))),
    "alternating_path_system": ("bg", lambda g: [ex.alternating_path_system(g, _pm(g), 0, 1, k)
                                                 for k in K]),
    "anti_directed_trail_find": ("dg", lambda d: [ex.anti_directed_trail_find(d, k) for k in K]),
    "bipartite_ear_decomposition": ("bg", lambda g: ex.bipartite_ear_decomposition(g, (0, 0))),
    "bipartite_of_digraph": ("dg", ex.bipartite_of_digraph),
    "bipartite_of_matrix": ("mat", ex.bipartite_of_matrix),
    "canonical_matching": ("bg", ex.canonical_matching),
    "classify_edges": ("bg", ex.classify_edges),
    "complete_bipartite": ("size", ex.complete_bipartite),
    "complete_digraph": ("size", ex.complete_digraph),
    "connected": ("bg", ex.connected),
    "count_perfect_matchings": ("bg", ex.count_perfect_matchings),
    "cycle_bipartite": ("size", ex.cycle_bipartite),
    "cycles_through_vertex": ("dg", lambda d: [ex.cycles_through_vertex(d, 0, k) for k in K]),
    "diagonals": ("mat", ex.diagonals),
    "digraph_of": ("bg", lambda g: ex.digraph_of(g, _pm(g))),
    "digraph_of_matrix": ("mat", ex.digraph_of_matrix),
    "directed_cycle": ("size", ex.directed_cycle),
    "ear_decomposition_digraph": ("dg", ex.ear_decomposition_digraph),
    "elementary_components": ("bg", ex.elementary_components),
    "enumerate_matchings": ("bg", lambda g: ex.enumerate_matchings(g, 2)),
    "find_minimality_counterexamples": (
        "size", lambda n: [ex.find_minimality_counterexamples(n, k) for k in K]),
    "first_perfect_matching": ("bg", ex.first_perfect_matching),
    "flip_alternating_cycle": ("bg", _flip),
    "fully_indecomposable_by_diagonals": ("mat", ex.fully_indecomposable_by_diagonals),
    "has_perfect_matching": ("bg", ex.has_perfect_matching),
    "high_degree_subgraph_forest_check": (
        "bg", lambda g: [ex.high_degree_subgraph_forest_check(g, k) for k in K]),
    "independent_path_system": ("dg", lambda d: ex.independent_path_system(d, (0, 1), (2, 3))),
    "irreducible_indecomposable_cross_check": (
        "mat", lambda a: [ex.irreducible_indecomposable_cross_check(a, k) for k in K]),
    "is_anti_directed_trail": ("dg", lambda d: ex.is_anti_directed_trail(d.sorted_arcs())),
    "is_k_extendable": ("bg", lambda g: [ex.is_k_extendable(g, k) for k in K]),
    "is_k_extendable_oracle": ("bg", lambda g: [ex.is_k_extendable_oracle(g, k) for k in K]),
    "is_k_extendable_via_digraph": (
        "bg", lambda g: [ex.is_k_extendable_via_digraph(g, _pm(g), k) for k in K]),
    "is_k_extendable_via_neighborhood": (
        "bg", lambda g: [ex.is_k_extendable_via_neighborhood(g, k) for k in K]),
    "is_k_partly_decomposable": ("mat", lambda a: [ex.is_k_partly_decomposable(a, k) for k in K]),
    "is_k_reducible": ("mat", lambda a: [ex.is_k_reducible(a, k) for k in K]),
    "is_k_strong": ("dg", lambda d: [ex.is_k_strong(d, k) for k in K]),
    "is_minimal_k_extendable": ("bg", lambda g: [ex.is_minimal_k_extendable(g, k) for k in K]),
    "is_minimal_k_strong": ("dg", lambda d: [ex.is_minimal_k_strong(d, k) for k in K]),
    "is_partly_decomposable": ("mat", ex.is_partly_decomposable),
    "is_reducible": ("mat", ex.is_reducible),
    "is_strong": ("dg", ex.is_strong),
    "iter_bipartite_with_canonical": ("size", ex.iter_bipartite_with_canonical),
    "iter_digraphs": ("size", ex.iter_digraphs),
    "iter_matrices": ("size", ex.iter_matrices),
    "k_partly_decomposable_by_blocks": (
        "mat", lambda a: [ex.k_partly_decomposable_by_blocks(a, k) for k in K]),
    "k_reducible_by_blocks": ("mat", lambda a: [ex.k_reducible_by_blocks(a, k) for k in K]),
    "matching_graph": ("size", ex.matching_graph),
    "matrix_of_digraph": ("dg", ex.matrix_of_digraph),
    "max_extendability": ("bg", ex.max_extendability),
    "max_matching": ("bg", ex.max_matching),
    "menger_paths": ("dg", lambda d: [ex.menger_paths(d, 0, 1, k) for k in K]),
    "minimal_k_extendable_degree_audit": (
        "bg", lambda g: [ex.minimal_k_extendable_degree_audit(g, k) for k in K]),
    "minimal_k_extendable_graphs": ("size", lambda n: ex.minimal_k_extendable_graphs(n, 1)),
    "minimal_k_strong_degree_audit": (
        "dg", lambda d: [ex.minimal_k_strong_degree_audit(d, k) for k in K]),
    "minimal_k_strong_digraphs": ("size", lambda n: ex.minimal_k_strong_digraphs(n, 1)),
    "minimality_transfer_check": (
        "bg", lambda g: [ex.minimality_transfer_check(g, _pm(g), k) for k in K]),
    "nonzero_diagonal_count": ("mat", ex.nonzero_diagonal_count),
    "one_way_pair_audit": ("dg", lambda d: [ex.one_way_pair_audit(d, k) for k in K]),
    "perfect_matchings": ("bg", ex.perfect_matchings),
    "random_bipartite_with_pm": ("size", lambda n: ex.random_bipartite_with_pm(n, 0.5, 1)),
    "random_digraph": ("size", lambda n: ex.random_digraph(n, 0.5, 1)),
    "reduced_adjacency": ("bg", ex.reduced_adjacency),
    "reducible_by_permutation_search": ("mat", ex.reducible_by_permutation_search),
    "strong_components": ("dg", ex.strong_components),
    "symmetric_difference": ("bg", lambda g: ex.symmetric_difference(_pm(g), ex.max_matching(g))),
    "unique_pm_acyclic_check": ("bg", ex.unique_pm_acyclic_check),
    "validate": ("mat", ex.validate),
    "vertex_connectivity": ("dg", ex.vertex_connectivity),
    "with_unit_diagonal": ("mat", ex.with_unit_diagonal),
}

RECORDS = {"AltComponent", "AltPathSystem", "ComponentMap", "CorrespondenceMap",
           "DecompositionWitness", "Diagonal", "EarDecompositionB", "EarDecompositionD",
           "EdgeClassification", "ExtendixError", "InsufficientPathsError",
           "InvalidInstanceError", "PathSystem", "TooLargeError", "ValidationReport"}


# name -> the precondition its docstring states, whose violation raises
PRECONDITIONS = {
    "alternating_path_system": "whenever G is k-extendable",
    "bipartite_ear_decomposition": "possible exactly when G is 1-extendable",
    "cycles_through_vertex": "Requires D k-strong",
    "ear_decomposition_digraph": "exists iff D is strong",
    "high_degree_subgraph_forest_check": "In a minimal k-extendable graph",
    "independent_path_system": "Exists whenever D is k-strong",
    "minimal_k_extendable_degree_audit": "A minimal k-extendable graph",
    "menger_paths": "Exists whenever D is k-strong",
    "minimal_k_strong_degree_audit": "In a minimal k-strong digraph",
    "minimality_transfer_check": "For a minimal k-extendable G",
    "unique_pm_acyclic_check": "For a graph with exactly one perfect matching",
}


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler in the library
    can swallow it."""


def _alarm(signum, frame):
    raise _Timeout


def test_every_export_is_swept():
    exported = {name for name in dir(ex) if not name.startswith("_")
                and not inspect.ismodule(getattr(ex, name))}
    assert set(CALLS) | RECORDS == exported
    assert not set(CALLS) & RECORDS
    assert all(inspect.isclass(getattr(ex, name)) for name in RECORDS)


@pytest.mark.parametrize("name", sorted(PRECONDITIONS))
def test_preconditions_are_in_the_docstrings(name):
    assert PRECONDITIONS[name] in " ".join(inspect.getdoc(getattr(ex, name)).split())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_export_answers_at_n_40(name):
    kind, call = CALLS[name]
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        for label, instance in INSTANCES[kind].items():
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                result = call(instance)
                if isinstance(result, Iterator):
                    next(result, None)
            except _Timeout:
                pytest.fail(f"{name} on the {label} {kind} instance gave no answer in 2 s")
            except ex.TooLargeError as exc:
                assert exc.budget in BUDGETS and exc.size > exc.limit == BUDGETS[exc.budget][0]
            except (ValueError, ex.InsufficientPathsError) as exc:
                assert name in PRECONDITIONS, \
                    f"{name} on the {label} {kind} instance: undocumented {exc!r}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, old)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_budget_table_is_core_budgets():
    """README's table of size budgets lists exactly ``core.BUDGETS``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Size budgets"):]
    section = section[:section.index("\n## ")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert {name.strip("`"): (int(limit), bounds)
            for name, limit, bounds, _ in rows} == BUDGETS
