"""The ``reach-trees`` witness: every positive claim at k = 1 is proved by
an out-tree and an in-tree from vertex 1 of the claim's digraph, and
``verify`` takes the trees as the whole proof.

Covered here: ``certify``'s verdict against the decider on every digraph
with n <= 4, every bipartite graph with n <= 3, every matrix of order
<= 3 and seeded instances up to n = 40; mutants of the witness, each with
its named problem; forged trees on instances whose claim fails; deciders
that lie; and spies on what ``certify`` and ``verify`` run at k = 1.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest

import extendix.certify as certify
import extendix.connectivity as connectivity
import extendix.core as core
import extendix.extendability as extendability
import extendix.matching as matching
import extendix.matrixlab as matrixlab
from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, bipartite_of_matrix,
                      complete_digraph, random_bipartite_with_pm)
from extendix.certify import build_certificate, check_certificate
from extendix.connectivity import KStrongResult
from extendix.core import iter_digraphs, iter_matrices, random_digraph
from extendix.fileio import format_certificate, parse_certificate
from extendix.matrixlab import MatrixPropertyResult

from conftest import make_c6, reference_recompute_verdict

DECIDERS = ("is_k_extendable", "is_k_strong", "is_k_partly_decomposable", "is_k_reducible")


def _matrix(n: int, p: float, rng: random.Random) -> ZeroOneMatrix:
    return ZeroOneMatrix(tuple(tuple(int(rng.random() < p) for _ in range(n)) for _ in range(n)))


def _exhaustive() -> list:
    """(claim, instance): every digraph with n <= 4, every bipartite graph
    with n <= 3, every matrix of order <= 3 (k-indecomposable from order 2,
    as the claim takes k <= n - 1)."""
    out = [("k-strong", d) for n in range(1, 5) for d in iter_digraphs(n)]
    for n in range(1, 4):
        for a in iter_matrices(n):
            out += [("k-extendable", bipartite_of_matrix(a)), ("k-irreducible", a)]
            if n >= 2:
                out.append(("k-indecomposable", a))
    return out


def _seeded() -> list:
    """(claim, instance) for n = 5..40 at densities on both sides of
    strong connectivity."""
    out = []
    for i, n in enumerate((5, 6, 8, 10, 13, 16, 20, 25, 30, 40)):
        for j, p in enumerate((0.08, 0.15, 0.3)):
            seed = 100 * i + j
            a = _matrix(n, p + 0.05, random.Random(seed))
            out += [("k-strong", random_digraph(n, p, seed=seed)),
                    ("k-extendable", random_bipartite_with_pm(n, p, seed=seed)),
                    ("k-irreducible", a), ("k-indecomposable", a)]
    return out


def _verdicts(instances) -> set:
    seen = set()
    for claim, obj in instances:
        cert = build_certificate(obj, claim, 1)
        assert cert.verdict == reference_recompute_verdict(cert), (claim, obj)
        assert cert.witness_kind == "reach-trees" or not cert.verdict or obj.n == 1
        assert check_certificate(cert) == [], format_certificate(cert)
        seen.add((claim, cert.verdict, cert.witness_kind))
    return seen


def test_certify_decides_as_the_decider_on_every_small_instance():
    seen = _verdicts(_exhaustive())
    assert {(claim, True, "reach-trees") for claim in certify.CLAIMS} <= seen


def test_certify_decides_as_the_decider_up_to_n_40():
    seen = _verdicts(_seeded())
    assert {(claim, True, "reach-trees") for claim in certify.CLAIMS} <= seen
    assert {claim for claim, verdict, _ in seen if not verdict} == set(certify.CLAIMS)


def test_the_trees_are_breadth_first_lowest_parent_first():
    """On the directed 4-cycle with the chord 1 -> 3: vertex 4 is two steps
    from vertex 1 both through 2 -> 3 -> 4 and 1 -> 3 -> 4, so its out-tree
    parent is 3; the in-tree follows the cycle back."""
    d = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)}))
    assert build_certificate(d, "k-strong", 1).witness_lines == (
        "out-tree: 1 1 3", "in-tree: 3 4 1")


# ---------------------------------------------------------------------------
# mutants, each with its named problem

# K4 less the arc 2 -> 3 (1-based): out-tree and in-tree 1 1 1
_K4_LESS = Digraph(4, complete_digraph(4).arcs - {(1, 2)})
_STRONG = build_certificate(_K4_LESS, "k-strong", 1)
# the 6-cycle u1 w2 u2 w3 u3 w1 and the matrix of its edges, over the
# matching u1 w2, u2 w3, u3 w1: out-tree 3 1, in-tree 1 2
_EXTENDABLE = build_certificate(make_c6(), "k-extendable", 1)
_INDECOMPOSABLE = build_certificate(ZeroOneMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
                                    "k-indecomposable", 1)


def _edited(cert, **lines):
    """cert with the witness line of each given prefix replaced, or left
    out for None, and the other lines kept in place."""
    out = []
    for line in cert.witness_lines:
        prefix = line.split(":")[0].replace("-", "_")
        if prefix not in lines:
            out.append(line)
        elif lines[prefix] is not None:
            out.append(f"{line.split(':')[0]}: {lines[prefix]}")
    return replace(cert, witness_lines=tuple(out))


def test_the_mutant_bases_are_as_described():
    assert _STRONG.witness_lines == ("out-tree: 1 1 1", "in-tree: 1 1 1")
    assert _EXTENDABLE.witness_lines == _INDECOMPOSABLE.witness_lines == (
        "matching: 1-2 2-3 3-1", "out-tree: 3 1", "in-tree: 1 2")
    assert all(check_certificate(cert) == [] for cert in (_STRONG, _EXTENDABLE, _INDECOMPOSABLE))


@pytest.mark.parametrize("cert, problems", [
    (_edited(_STRONG, out_tree="1 2 1"), ["out-tree arc 2 -> 3 is not in the digraph"]),
    (_edited(_STRONG, in_tree="3 1 1"), ["in-tree arc 2 -> 3 is not in the digraph"]),
    (_edited(_STRONG, out_tree="2 1 1"), ["out-tree gives vertex 2 itself as its parent"]),
    (_edited(_STRONG, in_tree="1 1 4"), ["in-tree gives vertex 4 itself as its parent"]),
    (_edited(_STRONG, out_tree="1 4 3"), ["out-tree parents run in a cycle through vertex 3"]),
    (_edited(_STRONG, in_tree="4 1 2"), ["in-tree parents run in a cycle through vertex 2"]),
    (_edited(_STRONG, out_tree="1 1"), ["out-tree has 2 parents, expected n-1=3"]),
    (_edited(_STRONG, in_tree="1 1 1 1"), ["in-tree has 4 parents, expected n-1=3"]),
    (_edited(_STRONG, out_tree="1 5 1"), ["out-tree gives vertex 3 the parent 5, outside 1..4"]),
    (_edited(_STRONG, out_tree="0 1 1"), ["out-tree gives vertex 2 the parent 0, outside 1..4"]),
    (_edited(_STRONG, in_tree=None), ["reach-trees needs one in-tree: line, has 0"]),
    (replace(_STRONG, witness_lines=_STRONG.witness_lines + ("out-tree: 1 1 1",)),
     ["witness payload malformed: the out-tree: line appears 2 times"]),
    (_edited(_STRONG, out_tree="+1 1 1"),
     ["witness payload malformed: the out-tree line has '+1', which is not a number"]),
    (_edited(_STRONG, in_tree="1 1_0 1"),
     ["witness payload malformed: the in-tree line has '1_0', which is not a number"]),
    (replace(_STRONG, k=2), ["reach-trees needs k = 1, has k=2"]),
    (replace(_EXTENDABLE, k=2), ["verdict says holds but the claim fails on the embedded instance",
                                 "reach-trees needs k = 1, has k=2"]),
    (_edited(_EXTENDABLE, matching="1-2 2-3"), ["embedded matching is not perfect"]),
    (_edited(_EXTENDABLE, matching="1-1 2-3 3-2"),
     ["embedded matching invalid: edge 3-2 is not in the instance"]),
    (_edited(_EXTENDABLE, matching="1-1 1-2 3-3"),
     ["embedded matching invalid: matching edges share an endpoint"]),
    (_edited(_EXTENDABLE, matching="1-1 2-2 3-3 4-4"),
     ["embedded matching invalid: edge 4-4 is not in the instance"]),
    (_edited(_EXTENDABLE, matching=None), ["reach-trees needs one matching: line, has 0"]),
    (_edited(_EXTENDABLE, out_tree="1 1"), ["out-tree arc 1 -> 2 is not in D(G, M)"]),
    (_edited(_INDECOMPOSABLE, matching="1-1 2-2 3-2"),
     ["embedded matching invalid: edge 3-2 is not in the instance"]),
    (_edited(_INDECOMPOSABLE, in_tree="1 1"), ["in-tree arc 3 -> 1 is not in D(B(A), M)"]),
], ids=["no-out-arc", "no-in-arc", "own-out-parent", "own-in-parent", "out-2-cycle",
        "in-2-cycle", "too-few", "too-many", "past-n", "zero", "no-in-tree", "two-out-trees",
        "plus", "underscore", "k2-strong", "k2-extendable", "not-perfect", "not-in-g",
        "shared-end", "past-n-matching", "no-matching", "no-arc-in-d-g-m", "not-in-b-a",
        "no-arc-in-d-b-a-m"])
def test_mutants_are_rejected_with_a_named_problem(cert, problems):
    assert check_certificate(cert) == problems


def test_mutants_read_back_as_written():
    """The CLI's reader gives the checker the same lines, so a written and
    re-read mutant gets the same problems."""
    cert = _edited(_STRONG, out_tree="1 4 3")
    assert check_certificate(parse_certificate(format_certificate(cert))) == [
        "out-tree parents run in a cycle through vertex 3"]


# ---------------------------------------------------------------------------
# forged trees


def _forgeries(claim: str, obj) -> list:
    """Every reach-trees certificate of obj with n = 2 or 3 whose parents
    lie in 1..n, on the bipartite side over a perfect matching of obj."""
    n, head = obj.n, ()
    if claim in ("k-extendable", "k-indecomposable"):
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        pairs = matching.max_matching_pairs(g)
        if len(pairs) < n:
            return []
        head = ("matching: " + " ".join(f"{u + 1}-{w + 1}" for u, w in sorted(pairs.items())),)
    maps = [" ".join(map(str, parents))
            for parents in itertools.product(range(1, n + 1), repeat=n - 1)]
    return [certify.Certificate(claim, 1, True, obj, "reach-trees",
                                (*head, f"out-tree: {out}", f"in-tree: {into}"))
            for out in maps for into in maps]


def test_forged_trees_on_a_failing_claim_are_rejected():
    """Every parent map pair, on every instance of order 2 and 3 whose
    claim fails at k = 1: none verifies, and the decider's verdict problem
    comes first."""
    forged = 0
    for claim, obj in _exhaustive():
        if not 2 <= obj.n <= 3 or reference_recompute_verdict(
                certify.Certificate(claim, 1, True, obj, "", ())):
            continue
        for cert in _forgeries(claim, obj):
            problems = check_certificate(cert)
            assert problems[0] == (
                "verdict says holds but the claim fails on the embedded instance"), cert
            assert len(problems) >= 2, cert
            forged += 1
    assert forged > 10_000


# ---------------------------------------------------------------------------
# lying deciders and spies


def _positives() -> list:
    return [cert for claim, obj in _seeded()
            if (cert := build_certificate(obj, claim, 1)).verdict]


@pytest.mark.parametrize("holds", [True, False], ids=["always-holds", "always-fails"])
def test_a_lying_decider_changes_no_reach_tree_result(monkeypatch, holds):
    """Every decider ``certify`` names answers the same lie; neither the
    positive k = 1 certificates nor their checks change."""
    honest = _positives()
    assert {cert.witness_kind for cert in honest} == {"reach-trees"}
    lies = {"is_k_strong": lambda d, k: KStrongResult(holds, None if holds else ()),
            "is_k_extendable": lambda g, k: holds,
            "is_k_partly_decomposable": lambda a, k: MatrixPropertyResult(not holds),
            "is_k_reducible": lambda a, k: MatrixPropertyResult(not holds)}
    for module in (certify, connectivity, extendability, matrixlab):
        for name, lie in lies.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lie)
    assert [build_certificate(cert.instance, cert.claim, 1) for cert in honest] == honest
    assert [check_certificate(cert) for cert in honest] == [[]] * len(honest)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


def test_verify_runs_no_decider_and_builds_no_masks(monkeypatch):
    certs = [parse_certificate(format_certificate(cert)) for cert in _positives()]
    for module in (certify, connectivity, extendability, matrixlab):
        for name in DECIDERS + ("_recompute_verdict",):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse(name))
    monkeypatch.setattr(core, "_neighbourhood_masks", _refuse("_neighbourhood_masks"))
    monkeypatch.setattr(connectivity._FlowNet, "__init__", _refuse("_FlowNet"))
    assert [check_certificate(cert) for cert in certs] == [[]] * len(certs)


# a graph with a perfect matching for each k = 1 outcome on the bipartite side:
# 1-extendable, connected but not 1-extendable, disconnected
_BIPARTITE = [make_c6(), BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 1)})),
              BipartiteGraph(2, frozenset({(0, 0), (1, 1)}))]
_MATRICES = [ZeroOneMatrix.from_rows(rows) for rows in
             ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
              [[0, 1], [0, 0]])]


def test_certify_at_k1_runs_no_flow_and_no_first_matching(monkeypatch):
    monkeypatch.setattr(connectivity._FlowNet, "__init__", _refuse("_FlowNet"))
    monkeypatch.setattr(certify, "first_perfect_matching", _refuse("first_perfect_matching"))
    kinds = {build_certificate(g, "k-extendable", 1).witness_kind for g in _BIPARTITE}
    kinds |= {build_certificate(a, claim, 1).witness_kind for a in _MATRICES
              for claim in ("k-indecomposable", "k-irreducible")}
    kinds |= {build_certificate(d, "k-strong", 1).witness_kind
              for d in (_K4_LESS, Digraph(3, frozenset({(0, 1), (1, 2)})))}
    assert kinds == {"reach-trees", "deficient-set", "disconnected", "zero-block", "separator"}


@pytest.mark.parametrize("claim, obj, kind", [
    ("k-extendable", _BIPARTITE[0], "reach-trees"),
    ("k-extendable", _BIPARTITE[1], "deficient-set"),
    ("k-extendable", _BIPARTITE[2], "disconnected"),
    ("k-indecomposable", _MATRICES[0], "reach-trees"),
    ("k-indecomposable", _MATRICES[1], "zero-block")])
def test_the_bipartite_side_takes_one_matching_and_one_digraph(claim, obj, kind):
    spies = {name: mock.Mock(wraps=getattr(module, name))
             for module, name in ((matching, "max_matching_pairs"),
                                  (extendability, "digraph_of"))}
    with contextlib.ExitStack() as stack:
        for module in (certify, extendability, matching, matrixlab):
            for name, spy in spies.items():
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, spy))
        cert = build_certificate(obj, claim, 1)
    assert cert.witness_kind == kind
    assert [spy.call_count for spy in spies.values()] == [1, 1]
