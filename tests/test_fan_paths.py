"""The ``fan-paths`` witness: every positive claim at k >= 2 is proved by
the paths of each check of S. Even's schedule that the arcs leave open,
read off the schedule that decides, and ``verify`` takes them as the whole
proof.

Covered here: every certificate ``certify`` writes verifies, with no
decider, schedule or flow net running inside ``check_certificate``, on
every instance of order <= 4 and the seeded suites of
``tests/test_certify.py``; the listed paths are in normal form; mutants of
the witness, each with its named problem; a forged positive certificate
for a digraph that is not 2-strong; deciders that lie; and spies on what a
positive ``certify`` builds.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from unittest import mock

import pytest

import extendix.certify as certify
import extendix.connectivity as connectivity
import extendix.extendability as extendability
import extendix.matrixlab as matrixlab
from extendix import Digraph, ZeroOneMatrix, complete_bipartite, random_bipartite_with_pm
from extendix.certify import build_certificate, check_certificate
from extendix.cli import main
from extendix.connectivity import KStrongResult
from extendix.core import random_digraph
from extendix.fileio import format_certificate, parse_certificate, read_instance
from extendix.matrixlab import MatrixPropertyResult

from test_certify import _emitted, _ks, _seeded
from test_golden import GOLDEN

DECIDERS = ("is_k_extendable", "is_k_strong", "is_k_partly_decomposable", "is_k_reducible")


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


def _refuse_deciding(monkeypatch) -> None:
    """Every decider, the schedule, ``_recompute_verdict`` and the flow net
    raise when called."""
    for module in (certify, connectivity, extendability, matrixlab):
        for name in DECIDERS + ("_recompute_verdict", "_k_strong", "_short_check"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse(name))
    monkeypatch.setattr(connectivity._FlowNet, "__init__", _refuse("_FlowNet"))


def _seeded_certificates() -> list:
    return [build_certificate(obj, claim, k)
            for claim, obj in _seeded() for k in _ks(claim, obj.n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, "seeded"])
def test_every_certificate_verifies_with_no_decider(n, monkeypatch):
    """Every claim at every k in range: the certificates ``certify`` writes,
    read back as the CLI reads them, verify with every decider, the
    schedule, ``_recompute_verdict`` and the flow net refused."""
    certs = list(_emitted(n) if n != "seeded" else _seeded_certificates())
    fans = [cert for cert in certs if cert.witness_kind == "fan-paths"]
    assert all(cert.verdict and cert.k >= 2 for cert in fans)
    assert {cert.claim for cert in fans} == set(certify.CLAIMS) or n in (1, 2)
    certs = [parse_certificate(format_certificate(cert)) for cert in certs]
    _refuse_deciding(monkeypatch)
    assert [check_certificate(cert) for cert in certs] == [[]] * len(certs)


def _sections(cert) -> list[tuple]:
    """(check line, its paths as 1-based vertex lists) in written order."""
    out = []
    for line in cert.witness_lines:
        kind, _, rest = line.partition(": ")
        if kind == "path":
            out[-1][1].append([int(v) for v in rest.split()])
        elif kind != "matching":
            out.append((line, []))
    return out


def test_fan_paths_are_in_normal_form():
    """A fan's listed paths leave the earlier vertices at once: all but the
    start (in-fan) or the end (out-fan) lie above j.  Checks come in
    schedule order."""
    seen = 0
    for cert in _seeded_certificates():
        if cert.witness_kind != "fan-paths":
            continue
        order = []
        for line, paths in _sections(cert):
            kind, *ends = line.split(": ")[0], *map(int, line.split(": ")[1].split())
            order.append((kind != "pair", ends[0], kind == "out-fan", ends))
            if kind == "pair":
                continue
            j = ends[0]
            for path in paths:
                outside = path[1:] if kind == "in-fan" else path[:-1]
                assert outside[-1 if kind == "in-fan" else 0] == j
                assert all(v > j for v in outside if v != j), (cert.claim, line, path)
                seen += 1
        assert order == sorted(order)
    assert seen > 50


# ---------------------------------------------------------------------------
# mutants, each with its named problem

# dg20.dg, kappa 3: pair 1 2 lists 1 8 2, 1 13 2, 1 20 2; in-fan 6 (direct
# tails 2 and 3) lists 5 14 6; out-fan 4 lists 4 12 2
_DG20 = read_instance(GOLDEN / "dg20.dg")
_BASE = build_certificate(_DG20, "k-strong", 3)


def _edited(cert, old: str, new: str):
    """cert with the witness lines old (joined by newlines) replaced by new."""
    text = "\n".join(cert.witness_lines)
    assert text.count(old) == 1, old
    return replace(cert, witness_lines=tuple(text.replace(old, new).split("\n")))


def test_the_mutant_base_is_as_described():
    assert _BASE.witness_lines == tuple(
        (GOLDEN / "certify-k-strong-3-dg20.out").read_text().split("witness: fan-paths\n")[1]
        .split("\nend-witness")[0].split("\n"))
    assert _BASE.witness_lines[:4] == ("pair: 1 2", "path: 1 8 2", "path: 1 13 2", "path: 1 20 2")
    assert "in-fan: 6\npath: 5 14 6\n" in "\n".join(_BASE.witness_lines)
    assert "out-fan: 4\npath: 4 12 2\n" in "\n".join(_BASE.witness_lines)
    assert check_certificate(_BASE) == []


_VERDICT = "verdict says holds but the claim fails on the embedded instance"


@pytest.mark.parametrize("cert, problems", [
    (_edited(_BASE, "path: 1 13 2\n", ""), ["pair 1 2 has 2 paths, needs 3"]),
    (_edited(_BASE, "path: 1 13 2", "path: 1 8 2"), ["pair 1 2 path 2 meets 8 twice"]),
    (_edited(_BASE, "in-fan: 6\npath: 5 14 6\n", ""), ["in-fan 6 has no line"]),
    (_edited(_BASE, "in-fan: 6\npath: 5 14 6\n", "in-fan: 6\npath: 5 14 6\n" * 2),
     ["witness payload malformed: the line 'in-fan: 6' appears twice"]),
    (_edited(_BASE, "path: 5 14 6", "path: 3 14 6"), ["in-fan 6 path 1 meets the direct tail 3"]),
    (_edited(_BASE, "path: 5 14 6", "path: 17 14 6"),
     ["in-fan 6 path 1 does not run from a vertex below 6 to 6"]),
    (_edited(_BASE, "path: 4 12 2", "path: 4 12 1"), ["out-fan 4 path 1 meets the direct head 1"]),
    (_edited(_BASE, "path: 4 12 2", "path: 4 2"),
     ["out-fan 4 path 1 uses the arc 4 -> 2, not in the digraph"]),
    (_edited(_BASE, "path: 4 12 2", "path: 4 12 6 2"),
     ["out-fan 4 path 1 uses the arc 12 -> 6, not in the digraph",
      "out-fan 4 path 1 uses the arc 6 -> 2, not in the digraph"]),
    (_edited(_BASE, "path: 4 12 2", "path: 4 21 2"), ["out-fan 4 path 1 has a vertex outside 1..20"]),
    (_edited(_BASE, "path: 4 12 2", "path:"), ["out-fan 4 path 1 is empty"]),
    (_edited(_BASE, "out-fan: 4", "out-fan: 3"),
     ["out-fan 4 has no line", "out-fan 3 is no check that the arcs leave open"]),
    (_edited(_BASE, "pair: 1 2", "pair: 1 x"),
     ["witness payload malformed: the pair line has 'x', which is not a number"]),
    (_edited(_BASE, "pair: 1 2", "order: 1 2"),
     ["witness payload malformed: fan-paths has no order: lines"]),
    (replace(_BASE, witness_lines=("path: 1 2",) + _BASE.witness_lines),
     ["witness payload malformed: path line before any check line"]),
], ids=["dropped-path", "swapped-vertex", "missing-check", "duplicate-line", "direct-tail",
        "later-start", "direct-head", "arc-missing", "arcs-missing", "past-n", "empty",
        "unscheduled", "not-a-number", "unknown-line", "path-first"])
def test_mutants_are_rejected_with_a_named_problem(cert, problems):
    assert check_certificate(cert) == problems


@pytest.mark.parametrize("k", [2, 4])
def test_a_wrong_k_is_rejected(k):
    """At k = 4 the claim fails, and the decider says so first; at k = 2 it
    holds, but that schedule leaves other checks open, and the pairs with
    vertex 3 are none of them."""
    problems = check_certificate(replace(_BASE, k=k))
    if k == 4:
        assert problems[:2] == [_VERDICT, "pair 1 2 has 3 paths, needs 4"]
    else:
        assert {"in-fan 3 has no line", "pair 1 3 is no check that the arcs leave open"} <= set(
            problems)


def test_mutants_read_back_as_written():
    cert = _edited(_BASE, "path: 5 14 6", "path: 3 14 6")
    assert check_certificate(parse_certificate(format_certificate(cert))) == [
        "in-fan 6 path 1 meets the direct tail 3"]


@pytest.mark.parametrize("claim, obj", [
    ("k-extendable", complete_bipartite(3)), ("k-indecomposable", ZeroOneMatrix.ones(3))])
def test_the_bipartite_side_needs_its_matching(claim, obj):
    cert = build_certificate(obj, claim, 2)
    assert cert.witness_lines == ("matching: 1-3 2-2 3-1",)
    line = cert.witness_lines[0]
    assert check_certificate(replace(cert, witness_lines=())) == [
        "fan-paths needs a matching: line"]
    assert check_certificate(replace(cert, witness_lines=(line[:-4],))) == [
        "embedded matching is not perfect"]
    assert check_certificate(replace(cert, witness_lines=(line, line))) == [
        "witness payload malformed: the matching: line appears 2 times"]


# ---------------------------------------------------------------------------
# a forged certificate and lying deciders

# the directed 6-cycle: strong, but not 2-strong
_C6 = Digraph(6, frozenset((v, (v + 1) % 6) for v in range(6)))


def test_a_lying_schedule_cannot_prove_c6_2_strong(monkeypatch, tmp_path, capsys):
    """A schedule patched to hold with no proof yields a positive k = 2
    certificate with no check lines.  Its witness check alone rejects it,
    with every decider refused; and with the lie still in place, which
    ``_recompute_verdict`` believes, ``verify`` still rejects it.  Sampled
    path systems were held to the decider alone, so the same lie
    verified."""
    monkeypatch.setattr(connectivity, "_short_check", lambda outs, ins, k, proof=None: None)
    cert = build_certificate(_C6, "k-strong", 2)
    assert cert.verdict and cert.witness_kind == "fan-paths" and cert.witness_lines == ()
    expected = ["pair 2 1 has no line"] + [f"{name} {j} has no line"
                                          for j in range(3, 7) for name in ("in-fan", "out-fan")]
    assert check_certificate(cert) == expected
    path = tmp_path / "c6.cert"
    path.write_text(format_certificate(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("certificate INVALID:\n  - pair 2 1 has no line\n")
    monkeypatch.undo()
    _refuse_deciding(monkeypatch)
    assert certify._witness_problems(cert) == expected


@pytest.mark.parametrize("holds", [True, False], ids=["always-holds", "always-fails"])
def test_a_lying_decider_changes_no_fan_path_check(monkeypatch, holds):
    """Every decider answers the same lie after the certificates are
    built; no positive k >= 2 certificate's check changes."""
    honest = [cert for cert in _seeded_certificates() if cert.witness_kind == "fan-paths"]
    assert {cert.claim for cert in honest} == set(certify.CLAIMS)
    lies = {"is_k_strong": lambda d, k, proof=None: KStrongResult(holds, None if holds else ()),
            "is_k_extendable": lambda g, k: holds,
            "is_k_partly_decomposable": lambda a, k: MatrixPropertyResult(not holds),
            "is_k_reducible": lambda a, k: MatrixPropertyResult(not holds)}
    for module in (certify, connectivity, extendability, matrixlab):
        for name, lie in lies.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lie)
    assert [check_certificate(cert) for cert in honest] == [[]] * len(honest)


# ---------------------------------------------------------------------------
# what a positive certify builds

_POSITIVE = [("k-strong", _DG20, 3), ("k-strong", random_digraph(30, 0.5, seed=2), 2),
             ("k-extendable", random_bipartite_with_pm(14, 0.45, seed=2), 2),
             ("k-indecomposable", ZeroOneMatrix.from_rows(
                 [[int((j - i) % 12 in (0, 1, 2, 5)) for j in range(12)] for i in range(12)]), 3),
             ("k-irreducible", ZeroOneMatrix.from_rows(
                 [[int((j - i) % 12 in (0, 1, 2, 5)) for j in range(12)] for i in range(12)]), 3)]


@pytest.mark.parametrize("claim, obj, k", _POSITIVE, ids=[c for c, _, _ in _POSITIVE])
def test_a_positive_certify_runs_one_schedule_on_two_nets(claim, obj, k):
    """One schedule decides and proves: one ``_short_check``, at most two
    flow nets, and no first perfect matching."""
    spies = {name: mock.Mock(wraps=getattr(connectivity, name))
             for name in ("_short_check", "_FlowNet")}
    with contextlib.ExitStack() as stack:
        for name, spy in spies.items():
            stack.enter_context(mock.patch.object(connectivity, name, spy))
        stack.enter_context(mock.patch.object(certify, "first_perfect_matching",
                                              _refuse("first_perfect_matching")))
        cert = build_certificate(obj, claim, k)
    assert cert.verdict and cert.witness_kind == "fan-paths" and cert.witness_lines
    assert spies["_short_check"].call_count == 1
    assert spies["_FlowNet"].call_count <= 2
    assert check_certificate(cert) == []
