"""One reader and one writer for a matching written as ``a-b`` tokens.

``fileio.format_matching`` writes a matching's edges u_i w_j as the tokens
``a-b``, a = i + 1 and b = j + 1, for the ``.map`` sidecar and every
witness that embeds M; ``fileio.read_matching`` reads them back for
``convert --matching`` and the ``reach-trees``, ``fan-paths``,
``perfect-matching``, ``non-extendable-matching`` and ``alt-path-systems``
checks.  Every caller names the same problems, each as the text writes
it: a token that is not two vertices, an edge outside the instance (past
n or missing from it), and an edge that shares an end with an earlier one.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from extendix import BipartiteGraph, random_bipartite_with_pm
from extendix.certify import _lookup, build_certificate, check_certificate
from extendix.cli import main
from extendix.fileio import (Certificate, LabelIndex, format_certificate, format_matching,
                             read_matching, write_instance)
from extendix.matching import max_matching

# K_{4,4} less the edge u1 w3: 2-extendable, so it has a certificate of
# each positive kind, and not 3-extendable
G = BipartiteGraph(4, frozenset((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 2)))
VALID = "1-4 2-3 3-2 4-1"

# the first bad token of a matching line, and the problem it is named by
BAD = [
    ("1-1-1 2-3 3-2 4-4", "edge '1-1-1' is not two vertices a-b"),
    ("1-4 1 3-2 4-1", "edge '1' is not two vertices a-b"),
    ("1-4 2-3 3-x 4-1", "edge 3-x has 'x', which is not a number"),
    ("+1-4 2-3 3-2 4-1", "edge +1-4 has '+1', which is not a number"),
    ("1-4 2-3 3-2 4-9", "edge 4-9 is not in the instance"),
    ("0-4 2-3 3-2 4-1", "edge 0-4 is not in the instance"),
    ("1-3 2-4 3-2 4-1", "edge 1-3 is not in the instance"),
    ("1-4 2-3 3-2 4-3", "matching edges share an endpoint"),
    ("1-4 2-3 2-2 4-1", "matching edges share an endpoint"),
]
BAD_IDS = ["three-ends", "one-end", "not-a-number", "plus", "past-n", "zero", "not-in-g",
           "shared-w", "shared-u"]


def _with_line(cert: Certificate, prefix: str, text: str) -> Certificate:
    return replace(cert, witness_lines=tuple(f"{prefix} {text}" if line.startswith(prefix)
                                             else line for line in cert.witness_lines))


def _certificates(text: str) -> dict:
    """Per kind, a certificate of G whose verdict is right and whose
    embedded matching is text."""
    legacy = Certificate("k-extendable", 1, True, G, "alt-path-systems", ("matching: " + text,))
    return {
        "reach-trees": _with_line(build_certificate(G, "k-extendable", 1), "matching:", text),
        "fan-paths": _with_line(build_certificate(G, "k-extendable", 2), "matching:", text),
        "perfect-matching": Certificate("k-extendable", 0, True, G, "perfect-matching",
                                        ("edges: " + text,)),
        "non-extendable-matching": Certificate("k-extendable", 3, False, G,
                                               "non-extendable-matching", ("edges: " + text,)),
        "alt-path-systems": legacy}


PREFIX = {"reach-trees": "embedded", "fan-paths": "embedded", "alt-path-systems": "embedded",
          "perfect-matching": "witness", "non-extendable-matching": "witness"}


def test_the_certificates_are_as_described():
    certs = _certificates(VALID)
    assert [cert.witness_kind for cert in certs.values()] == list(certs)
    assert build_certificate(G, "k-extendable", 1).witness_lines[0] == "matching: " + VALID
    assert build_certificate(G, "k-extendable", 2).witness_lines[0] == "matching: " + VALID
    assert all(check_certificate(cert) == [] for kind, cert in certs.items()
               if kind != "non-extendable-matching")
    assert check_certificate(certs["non-extendable-matching"]) == [
        "witness matching has size 4, expected 3",
        "witness matching extends to a perfect matching"]


@pytest.mark.parametrize("kind", list(PREFIX))
@pytest.mark.parametrize("text, problem", BAD, ids=BAD_IDS)
def test_every_witness_names_the_problem_as_written(kind, text, problem):
    assert check_certificate(_certificates(text)[kind]) == [
        f"{PREFIX[kind]} matching invalid: {problem}"]


@pytest.mark.parametrize("text, problem", BAD, ids=BAD_IDS)
def test_convert_names_the_problem_as_written(text, problem, tmp_path, capsys):
    path = tmp_path / "g.bg"
    write_instance(G, path)
    assert main(["convert", str(path), "--direction", "g2d",
                 "--matching", text.replace(" ", ",")]) == 2
    assert capsys.readouterr() == ("", f"error: {problem}\n")


def test_verify_names_a_stray_edge_of_c6_as_written(tmp_path, capsys):
    """The edge the certificate writes as 1-3 was named ``(0, 2)``."""
    cert = build_certificate(BipartiteGraph(3, frozenset({(0, 0), (0, 1), (1, 1), (1, 2),
                                                           (2, 0), (2, 2)})), "k-extendable", 0)
    path = tmp_path / "c6.cert"
    path.write_text(format_certificate(_with_line(cert, "edges:", "1-3 2-2 3-1")))
    assert main(["verify", str(path)]) == 1
    assert "  - witness matching invalid: edge 1-3 is not in the instance\n" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("text", ["1-4 1-4 2-3 3-2 4-1", "01-4 2-03 3-2 4-1"],
                         ids=["repeated-edge", "leading-zero"])
@pytest.mark.parametrize("kind", list(PREFIX))
def test_valid_oddities_still_pass(kind, text):
    """A repeated identical edge counts once, and 01 is vertex 1."""
    cert = _certificates(text)[kind]
    assert check_certificate(cert) == check_certificate(_certificates(VALID)[kind])


@pytest.mark.parametrize("text", ["1-4,1-4,2-3,3-2,4-1", "01-4,2-3,3-2,4-1",
                                  " 1-4 , 2-3,3-2 ,4-1 "])
def test_convert_takes_the_valid_oddities(text, tmp_path, capsys):
    path = tmp_path / "g.bg"
    write_instance(G, path)
    assert main(["convert", str(path), "--direction", "g2d", "--matching", "1-4,2-3,3-2,4-1"]) == 0
    plain = capsys.readouterr()
    assert main(["convert", str(path), "--direction", "g2d", "--matching", text]) == 0
    assert capsys.readouterr() == plain


def test_convert_refuses_a_matching_that_is_not_perfect(tmp_path, capsys):
    path = tmp_path / "g.bg"
    write_instance(G, path)
    assert main(["convert", str(path), "--direction", "g2d", "--matching", "1-4,2-3,3-2"]) == 2
    assert capsys.readouterr() == ("", "error: the given matching is not perfect\n")


def test_the_writer_round_trips_through_the_reader():
    """Maximum matchings, perfect or not, of seeded graphs up to n = 40."""
    rng = random.Random(39)
    for n in range(1, 41):
        for p in (0.05, 0.2, 0.5):
            g = random_bipartite_with_pm(n, p, seed=rng.randrange(10 ** 6))
            sparse = BipartiteGraph(n, frozenset(e for e in g.edges if rng.random() < 0.5))
            for h in (g, sparse):
                edges = max_matching(h).edges
                text = format_matching(edges, n)
                assert text.split() == sorted(text.split(), key=lambda t: [
                    int(x) for x in t.split("-")])
                assert read_matching(text.split(), LabelIndex(n), _lookup(h)) == dict(edges)
