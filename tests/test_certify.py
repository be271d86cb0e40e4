"""``check_certificate`` against the checker it replaced, and the witnesses
that stand alone.

The differential tests run ``check_certificate`` and
``conftest.reference_check_certificate``, the checker that re-ran the
decider on every certificate, on every certificate ``build_certificate``
emits for the instances of order at most 4 (listed in ``_small``) and a
seeded suite of order 10 to 20, and on mutants of each.  Problem lists,
exception types and exception messages must be equal, but for the bounds
a witness states, which only the new checker reads (``_bound_problem``),
for a stray matching edge, which the new checker names as the
certificate writes it (``_as_written``), and for ``reach-trees`` and
``fan-paths``, kinds the reference checker does not know, which are held
to the decider instead (``_held_to_the_decider``).
The spy tests replace the deciders that ``certify`` calls.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import extendix.certify as certify
from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, bipartite_of_matrix,
                      random_bipartite_with_pm)
from extendix.certify import build_certificate, check_certificate
from extendix.connectivity import KStrongResult
from extendix.core import iter_digraphs, iter_matrices, random_digraph
from extendix.fileio import Certificate
from extendix.matrixlab import MatrixPropertyResult

from conftest import reference_check_certificate

DECIDERS = ("is_k_extendable", "is_k_strong", "is_k_partly_decomposable", "is_k_reducible")


def _ks(claim: str, n: int) -> range:
    """Every k the claim's decider takes that ``build_certificate`` can
    tell apart on order n (k > n is the size cap again)."""
    return {"k-extendable": range(n + 1), "k-strong": range(1, n + 1),
            "k-indecomposable": range(n), "k-irreducible": range(1, n + 1)}[claim]


def _graph(rows) -> BipartiteGraph:
    return BipartiteGraph(len(rows), frozenset((i, j) for i, row in enumerate(rows)
                                               for j in range(len(rows)) if row >> j & 1))


def _matrix(rows) -> ZeroOneMatrix:
    return ZeroOneMatrix(tuple(tuple(row >> j & 1 for j in range(len(rows))) for row in rows))


def _small(n: int) -> list:
    """(claim, instance) for order n.  Up to order 3, every instance.  At
    order 4: every digraph; every bipartite graph and matrix up to the
    order of its rows (U vertices), which leaves k-extendability and
    k-indecomposability unchanged; and for k-irreducible every matrix with
    a zero diagonal, as D(A) leaves the diagonal out."""
    if n <= 3:
        mats = list(iter_matrices(n))
        return ([("k-extendable", bipartite_of_matrix(a)) for a in mats]
                + [("k-strong", d) for d in iter_digraphs(n)]
                + [(claim, a) for a in mats for claim in ("k-indecomposable", "k-irreducible")])
    sorted_rows = list(combinations_with_replacement(range(1 << n), n))
    no_diagonal = [[sum(1 << b for a, b in d.arcs if a == i) for i in range(n)]
                   for d in iter_digraphs(n)]
    return ([("k-extendable", _graph(rows)) for rows in sorted_rows]
            + [("k-strong", d) for d in iter_digraphs(n)]
            + [("k-indecomposable", _matrix(rows)) for rows in sorted_rows]
            + [("k-irreducible", _matrix(rows)) for rows in no_diagonal])


def _seeded() -> list:
    """(claim, instance) of order 10 to 20, dense enough to hold at small k."""
    out = []
    for i, n in enumerate(range(10, 21, 2)):
        rng = random.Random(3200 + i)
        out.append(("k-extendable", random_bipartite_with_pm(n, 0.35, seed=3200 + i)))
        out.append(("k-strong", random_digraph(n, 0.4, seed=3200 + i)))
        a = ZeroOneMatrix(tuple(tuple(int(i == j or rng.random() < 0.45) for j in range(n))
                                for i in range(n)))
        out += [("k-indecomposable", a), ("k-irreducible", a)]
    return out


def _certificates(instances) -> list[Certificate]:
    return [build_certificate(obj, claim, k)
            for claim, obj in instances for k in _ks(claim, obj.n)]


@functools.lru_cache(maxsize=None)
def _emitted(n: int) -> tuple:
    """The certificates of ``_small(n)``, built once per test run."""
    return tuple(_certificates(_small(n)))


def _swap_pool(certs) -> list[tuple]:
    """(order, claim, kind, witness lines): the first witness of each kind
    each claim emits, per order."""
    first: dict = {}
    for cert in certs:
        first.setdefault((cert.instance.n, cert.claim, cert.witness_kind), cert.witness_lines)
    return [key + (lines,) for key, lines in first.items()]


def _mutants(i: int, cert: Certificate, pool: list) -> list[Certificate]:
    """Of the i-th certificate: the verdict flipped, k - 1 and k + 1, the
    witness of another claim (the pool's witnesses of its order taken in
    turn, i modulo their number), and per witness kind: a separator with a
    vertex added or dropped, a set that is not deficient, a 1 inside the
    zero block, the out-tree and in-tree lines swapped and every parent
    made vertex 1."""
    n, lines = cert.instance.n, cert.witness_lines
    others = [(kind, other) for order, claim, kind, other in pool
              if order == n and claim != cert.claim]
    kind, other = others[i % len(others)]
    out = [replace(cert, verdict=not cert.verdict), replace(cert, k=cert.k - 1),
           replace(cert, k=cert.k + 1), replace(cert, witness_kind=kind, witness_lines=other)]
    if cert.witness_kind in ("separator", "deficient-set"):
        prefix = lines[0].split(":")[0] + ": "
        chosen = [int(t) for t in lines[0][len(prefix):].split()]
        spare = [v for v in range(1, n + 1) if v not in chosen]
        variants = [chosen[1:]] + ([chosen + spare[:1]] if spare else [])
        if cert.witness_kind == "deficient-set":
            g = cert.instance
            variants.append([1 + max(range(n), key=lambda i: len(g.u_neighbors(i)))])
        out += [replace(cert, witness_lines=(prefix + " ".join(map(str, v)),))
                for v in variants]
    if cert.witness_kind == "zero-block":
        r, c = (int(line.split()[1]) - 1 for line in lines)
        rows = [list(row) for row in cert.instance.rows]
        rows[r][c] = 1
        out.append(replace(cert, instance=ZeroOneMatrix(tuple(map(tuple, rows)))))
    if cert.witness_kind == "reach-trees":
        *head, out_tree, in_tree = lines
        star = " ".join(["1"] * (n - 1))
        out += [replace(cert, witness_lines=(*head, "out-tree:" + in_tree[len("in-tree:"):],
                                             "in-tree:" + out_tree[len("out-tree:"):])),
                replace(cert, witness_lines=(*head, "out-tree: " + star, "in-tree: " + star))]
    return out


def _outcome(check, cert):
    try:
        return check(cert)
    except Exception as exc:  # compared, type and message, with the other checker's
        return type(exc), str(exc)


def _bound_problem(cert: Certificate) -> str | None:
    """The problem of a witness that states a bound cert.k breaks, which
    the reference checker never read: a size cap at k <= n-1 (k != n for
    k-irreducible), too few vertices at n >= k+1, a perfect matching at
    k != 0."""
    n, k, kind = cert.instance.n, cert.k, cert.witness_kind
    if kind == "size-cap" and cert.claim == "k-irreducible" and k != n:
        return f"size-cap needs k = n={n}, has k={k}"
    if kind == "size-cap" and cert.claim != "k-irreducible" and k <= n - 1:
        return f"size-cap needs k > n-1={n - 1}, has k={k}"
    if kind == "too-few-vertices" and n >= k + 1:
        return f"too-few-vertices needs n < k+1={k + 1}, has n={n}"
    if kind == "perfect-matching" and k != 0:
        return f"perfect-matching needs k = 0, has k={k}"
    return None


# the self-proving kinds the reference checker does not know
_NEW_KINDS = ("reach-trees", "fan-paths")


def _held_to_the_decider(cert: Certificate, new, old) -> None:
    """A ``reach-trees`` or ``fan-paths`` cert, which the reference checker
    reads as the decider's verdict and an unknown kind:
    ``check_certificate`` verifies it only when the verdict is the
    decider's, and otherwise names the false verdict first, then its own
    witness problems."""
    unknown = f"unknown witness kind {cert.witness_kind!r}"
    assert isinstance(old, list) and old[-1] == unknown, (cert, old)
    verdict_problem = old[:-1]
    assert isinstance(new, list) and new[:len(verdict_problem)] == verdict_problem, (cert, new)


def _named_as_of_another_type(cert: Certificate, new, old) -> None:
    """A witness kind whose check reads an instance of another type: the
    reference checker read what it could, and ended in an
    ``AttributeError`` or in the problems of a payload it could not read;
    ``check_certificate`` names the kind after the same verdict problem."""
    assert not isinstance(cert.instance, certify._WITNESS_INSTANCES[cert.witness_kind])
    named = (f"witness kind {cert.witness_kind!r} does not apply to a "
             f"{certify._NOUNS[type(cert.instance)]}")
    assert isinstance(new, list) and new[-1] == named, (cert, new, old)
    verdict = [p for p in (new if isinstance(old, tuple) else old) if p.startswith("verdict says")]
    assert new[:-1] == verdict, (cert, new, old)


# a stray edge as ``core.Matching`` named it for the reference checker:
# every stray edge, 0-based and sorted
_STRAY = re.compile(r"edges not in host graph: \[\((\d+), (\d+)\)(, \(\d+, \d+\))*\]")


def _as_written(problem: str) -> str:
    """The one intended change of the matching problems: the first stray
    edge, named 0-based and with every other stray edge by ``core.Matching``
    for the reference checker, is named as the certificate writes it by
    ``fileio.read_matching``.  On an emitted witness, sorted by
    ``fileio.format_matching``, the first in token order is the first in
    sorted order."""
    return _STRAY.sub(lambda m: f"edge {int(m[1]) + 1}-{int(m[2]) + 1} is not in the instance",
                      problem)


def _compare(certs) -> set:
    """Assert both checkers agree on every cert but for the bound problems,
    the reach trees, a kind of another instance type and a stray matching
    edge named as written (``_as_written``); return the (claim, kind) of
    the certs a bound told apart, and (claim, "stray matching edge") for
    those a stray edge did."""
    told_apart = set()
    for cert in certs:
        new, old = _outcome(check_certificate, cert), _outcome(reference_check_certificate, cert)
        if new == old:
            continue
        if cert.witness_kind in _NEW_KINDS:
            _held_to_the_decider(cert, new, old)
            continue
        if not isinstance(cert.instance, certify._WITNESS_INSTANCES[cert.witness_kind]):
            _named_as_of_another_type(cert, new, old)
            continue
        if isinstance(old, list) and (written := list(map(_as_written, old))) != old:
            told_apart.add((cert.claim, "stray matching edge"))
            old = written
            if new == old:
                continue
        bound = _bound_problem(cert)
        assert bound is not None and isinstance(old, list), (cert, new, old)
        head = old[:1] if old and old[0].startswith("verdict says") else []
        assert new == head + [bound] + old[len(head):], (cert, new, old)
        told_apart.add((cert.claim, cert.witness_kind))
    return told_apart


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_emitted_certificates_check_as_before(n):
    certs = _emitted(n)
    assert _compare(certs) == set()
    assert all(check_certificate(cert) == [] for cert in certs)


def test_seeded_certificates_and_their_mutants_check_as_before():
    certs = _certificates(_seeded())
    assert {cert.verdict for cert in certs} == {True, False}
    assert _compare(certs) == set()
    pool = _swap_pool(certs)
    _compare([m for i, cert in enumerate(certs) for m in _mutants(i, cert, pool)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mutants_check_as_before_but_for_the_bounds(n):
    """Mutants of every certificate up to order 3, and of a sample at
    order 4.  Only the three bounds and a stray matching edge tell the
    checkers apart: the bounds on a mutant with k one off or a witness of
    another claim, the stray edge on a perfect matching of another
    claim's instance."""
    certs = _emitted(n) if n <= 3 else _emitted(n)[::23]
    pool = _swap_pool(certs)
    told_apart = _compare([m for i, cert in enumerate(certs) for m in _mutants(i, cert, pool)])
    assert {kind for _, kind in told_apart} <= {"size-cap", "too-few-vertices",
                                                "perfect-matching", "stray matching edge"}
    if n >= 2:
        assert {("k-extendable", "size-cap"), ("k-irreducible", "size-cap"),
                ("k-strong", "too-few-vertices"), ("k-extendable", "perfect-matching"),
                ("k-indecomposable", "perfect-matching"),
                ("k-extendable", "stray matching edge"),
                ("k-irreducible", "stray matching edge")} <= told_apart


@pytest.mark.parametrize("cert, problem", [
    (Certificate("k-extendable", 1, False, BipartiteGraph(3, frozenset({(0, 0), (1, 1), (2, 2)})),
                 "size-cap", ("reason: k=1 exceeds n-1=2",)),
     "size-cap needs k > n-1=2, has k=1"),
    (Certificate("k-strong", 2, False, Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})),
                 "too-few-vertices", ("reason: needs at least 3 vertices, has 4",)),
     "too-few-vertices needs n < k+1=3, has n=4"),
    (Certificate("k-extendable", 1, True, BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 0),
                                                                       (1, 1)})),
                 "perfect-matching", ("edges: 1-1 2-2",)),
     "perfect-matching needs k = 0, has k=1"),
    (Certificate("k-irreducible", 1, True, ZeroOneMatrix(((1, 1), (1, 1))), "size-cap",
                 ("reason: no matrix of order n is n-reducible",)),
     "size-cap needs k = n=2, has k=1")])
def test_a_witness_that_states_a_bound_checks_it(cert, problem):
    """The verdict of each is right, so only the bound is wrong; the
    checker it replaced verified all four."""
    assert reference_check_certificate(cert) == []
    assert check_certificate(cert) == [problem]


# ---------------------------------------------------------------------------
# a witness line given twice


_PATH3 = Digraph(3, frozenset({(0, 1), (1, 2)}))
_P4 = BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 1)}))
_DEC6 = _matrix([0b010001, 0b001010, 0b001100, 0b001001, 0b010001, 0b100001])  # dec6.mat


@pytest.mark.parametrize("obj, claim, k, decoy", [
    (_PATH3, "k-strong", 2, "vertices: 1 2 3"),
    (_P4, "k-extendable", 1, "u-set:"),
    (_DEC6, "k-irreducible", 1, "rows:"),
    (_DEC6, "k-irreducible", 1, "cols:"),
    (_P4, "k-extendable", 0, "edges:"),
    (BipartiteGraph(3, frozenset((i, j) for i in range(3) for j in range(3))),
     "k-extendable", 2, "matching:")])
def test_a_repeated_witness_line_is_malformed(obj, claim, k, decoy):
    """A second line with a prefix that the witness reads once: the decoy
    when it is a whole line, else a copy of the certificate's own line,
    put first.  The reference checker read the last line and verified
    each one, among them the path 1 -> 2 -> 3 with the separator it
    would cut given as 1 2 3; it does not know the ``fan-paths`` witness
    of the last case, which takes its verdict from the decider alone."""
    cert = build_certificate(obj, claim, k)
    prefix = decoy.split()[0]
    own = [line for line in cert.witness_lines if line.startswith(prefix)]
    assert len(own) == 1, cert.witness_lines
    doubled = replace(cert, witness_lines=(decoy if decoy != prefix else own[0],
                                           *cert.witness_lines))
    assert check_certificate(cert) == []
    assert reference_check_certificate(doubled) == (
        [] if cert.witness_kind not in _NEW_KINDS else ["unknown witness kind 'fan-paths'"])
    assert check_certificate(doubled) == [
        f"witness payload malformed: the {prefix} line appears 2 times"]


def test_a_repeated_legacy_matching_line_is_malformed():
    doubled = replace(LEGACY, witness_lines=("edges: 1-1", *LEGACY.witness_lines))
    assert reference_check_certificate(doubled) == []
    assert check_certificate(doubled) == [
        "witness payload malformed: the edges: line appears 2 times"]


def test_verify_lists_a_repeated_separator_line(tmp_path, capsys):
    from extendix.cli import main
    from extendix.fileio import format_certificate

    cert = build_certificate(_PATH3, "k-strong", 2)
    doubled = replace(cert, witness_lines=("vertices: 1 2 3", *cert.witness_lines))
    path = tmp_path / "path3.cert"
    path.write_text(format_certificate(doubled))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        "certificate INVALID:\n"
        "  - witness payload malformed: the vertices: line appears 2 times\n")


# ---------------------------------------------------------------------------
# spies on the deciders


# the witness of certificates written by earlier versions: the matching
# u1 w2 takes w2, the one neighbour of u2
LEGACY = Certificate("k-extendable", 1, False, BipartiteGraph(2, frozenset({(0, 0), (1, 1),
                                                                           (0, 1)})),
                     "non-extendable-matching", ("edges: 1-2",))


def _self_proving_certificates() -> list[Certificate]:
    """One certificate per self-proving (claim, verdict, kind): ``LEGACY``
    and the first of each that ``build_certificate`` emits at order 3."""
    found = {("k-extendable", False, "non-extendable-matching"): LEGACY}
    for cert in _emitted(3):
        if certify._self_proving(cert):
            found.setdefault((cert.claim, cert.verdict, cert.witness_kind), cert)
    table = {(claim, verdict, kind) for (claim, verdict), kinds in certify._SELF_PROVING.items()
             for kind in kinds}
    assert set(found) == table
    return list(found.values())


def test_a_self_proving_witness_verifies_with_every_decider_gone(monkeypatch):
    certs = _self_proving_certificates()
    for name in DECIDERS:
        def refuse(*args, name=name):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(certify, name, refuse)
    assert [check_certificate(cert) for cert in certs] == [[]] * len(certs)


def test_a_lying_decider_leaves_separators_alone(monkeypatch):
    two_cycles = Digraph(6, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)}))
    d = random_digraph(12, 0.5, seed=4)
    separators = [build_certificate(two_cycles, "k-strong", k) for k in (1, 2, 3)]
    separators += [build_certificate(d, "k-strong", k) for k in (6, 7, 8)]
    assert {cert.witness_kind for cert in separators} == {"separator"}
    monkeypatch.setattr(certify, "is_k_strong",
                        lambda d, k: KStrongResult(False, (), "always fails"))
    assert [check_certificate(cert) for cert in separators] == [[]] * len(separators)


@pytest.mark.parametrize("obj, claim, k, decider, lie", [
    (random_digraph(12, 0.5, seed=4), "k-strong", 2, "is_k_strong",
     KStrongResult(False, (), "always fails")),
    (random_bipartite_with_pm(14, 0.45, seed=2), "k-extendable", 2, "is_k_extendable", False),
    (ZeroOneMatrix.from_rows([[1] * 4] * 4), "k-indecomposable", 2, "is_k_partly_decomposable",
     MatrixPropertyResult(True)),
    (ZeroOneMatrix.from_rows([[1] * 4] * 4), "k-irreducible", 2, "is_k_reducible",
     MatrixPropertyResult(True))])
def test_a_lying_decider_fails_sampled_path_systems(monkeypatch, obj, claim, k, decider, lie):
    """Path systems for a few sampled pairs, the positive witness of the
    first format, prove nothing alone, so they still go through the
    decider, and its lie shows.  Here the fan paths ``certify`` writes
    stand in for such a witness with no pair sampled (the matching line
    kept on the bipartite side); the fan paths themselves need no
    decider, and the lie changes nothing for them."""
    cert = build_certificate(obj, claim, k)
    assert cert.verdict and cert.witness_kind == "fan-paths"
    kind = "menger-path-systems" if claim in ("k-strong", "k-irreducible") else "alt-path-systems"
    sampled = replace(cert, witness_kind=kind,
                      witness_lines=cert.witness_lines[:1] if kind == "alt-path-systems" else ())
    assert check_certificate(sampled) == []
    monkeypatch.setattr(certify, decider, lambda *args: lie)
    assert check_certificate(sampled) == [
        "verdict says holds but the claim fails on the embedded instance"]
    assert check_certificate(cert) == []


def test_the_legacy_matching_leaves_the_global_cache_alone():
    from extendix.matching import _has_pm_masked

    _has_pm_masked.cache_clear()
    assert check_certificate(LEGACY) == []
    assert check_certificate(replace(LEGACY, witness_lines=("edges: 1-1",))) == [
        "witness matching extends to a perfect matching"]
    info = _has_pm_masked.cache_info()
    assert info.hits + info.misses == 0
