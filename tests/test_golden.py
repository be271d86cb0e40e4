"""Byte-for-byte CLI outputs on fixed instances.

The files under ``tests/golden/`` pin what ``analyze``, ``convert``,
``certify``, ``verify`` and ``search`` print.  A refactor of the library
must leave every one of them unchanged.  The ``certify`` outputs double as
inputs of the ``verify`` cases.  ``tests/golden/v1/`` keeps positive
certificates as the first format wrote them, with sampled path systems
where ``certify`` now writes reach trees (k = 1) or fan paths (k >= 2);
they must still verify.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from extendix import (Digraph, ZeroOneMatrix, complete_bipartite, cycle_bipartite,
                      cycles_through_vertex, independent_path_system,
                      random_bipartite_with_pm, random_digraph, vertex_connectivity)
from extendix.certify import build_certificate
from extendix.cli import main
from extendix.fileio import format_certificate, write_instance

from conftest import make_c4_pendant, make_c6, make_p4

GOLDEN = Path(__file__).parent / "golden"


def _seeded_matrix(n: int, p: float, seed: int) -> ZeroOneMatrix:
    """Unit diagonal plus each off-diagonal one with probability p."""
    rng = random.Random(seed)
    return ZeroOneMatrix(tuple(
        tuple(1 if i == j or rng.random() < p else 0 for j in range(n))
        for i in range(n)))


def _instances() -> dict:
    return {
        "c6.bg": make_c6(),
        "p4.bg": make_p4(),
        "c4_pendant.bg": make_c4_pendant(),
        "k33.bg": complete_bipartite(3),
        # connected, three elementary components, two fixed double edges
        "bg10.bg": random_bipartite_with_pm(10, 0.25, seed=75),
        # strong, kappa 1
        "dg6.dg": random_digraph(6, 0.45, seed=4),
        # kappa 3; at k = 4 the separator is the cut of an out-fan
        "dg20.dg": random_digraph(20, 0.4, seed=5),
        # C_12(1, 3): 24 arcs, 13 ears, three of them found by a search of
        # depth 2, the rest read off the masks
        "c12_13.dg": Digraph(12, frozenset((v, (v + j) % 12) for v in range(12) for j in (1, 3))),
        # partly decomposable and reducible
        "dec6.mat": _seeded_matrix(6, 0.35, seed=0),
        # fully indecomposable and irreducible
        "full6.mat": _seeded_matrix(6, 0.35, seed=4),
        "j3.mat": ZeroOneMatrix.ones(3),
    }


# (output name, argv with instance names relative to GOLDEN, exit code)
CASES = [(f"analyze-{name.split('.')[0]}", ["analyze", name], 0)
         for name in ("c6.bg", "p4.bg", "c4_pendant.bg", "k33.bg", "bg10.bg",
                      "dg6.dg", "dg20.dg", "c12_13.dg", "dec6.mat", "full6.mat")]
CASES += [(f"convert-g2d-{name.split('.')[0]}",
           ["convert", name, "--direction", "g2d"], 0)
          for name in ("c6.bg", "c4_pendant.bg", "bg10.bg")]
CASES += [("convert-g2d-c6-explicit",
           ["convert", "c6.bg", "--direction", "g2d", "--matching", "1-2,2-3,3-1"], 0),
          ("convert-d2g-dg20", ["convert", "dg20.dg", "--direction", "d2g"], 0),
          ("convert-g2m-bg10", ["convert", "bg10.bg", "--direction", "g2m"], 0),
          ("convert-m2g-full6", ["convert", "full6.mat", "--direction", "m2g"], 0)]
CERTIFY = [
    ("p4.bg", "k-extendable", 0, 0),
    ("c6.bg", "k-extendable", 1, 0),
    ("k33.bg", "k-extendable", 2, 0),
    ("c6.bg", "k-extendable", 2, 1),
    ("p4.bg", "k-extendable", 1, 1),
    ("bg10.bg", "k-extendable", 1, 1),
    ("dg6.dg", "k-strong", 1, 0),
    ("dg6.dg", "k-strong", 2, 1),
    ("dg20.dg", "k-strong", 3, 0),
    ("dg20.dg", "k-strong", 4, 1),
    ("full6.mat", "k-indecomposable", 1, 0),
    ("j3.mat", "k-indecomposable", 2, 0),
    ("dec6.mat", "k-indecomposable", 1, 1),
    ("full6.mat", "k-irreducible", 1, 0),
    ("j3.mat", "k-irreducible", 2, 0),
    ("dec6.mat", "k-irreducible", 1, 1),
]
for _name, _claim, _k, _code in CERTIFY:
    _stem = f"{_claim}-{_k}-{_name.split('.')[0]}"
    CASES += [(f"certify-{_stem}", ["certify", _name, "--claim", _claim, "--k", str(_k)],
               _code),
              (f"verify-{_stem}", ["verify", f"certify-{_stem}.out"], 0)]
CASES += [
    ("search-minimal_k_strong",
     ["search", "--target", "minimal_k_strong", "--n-max", "4", "--limit", "100"], 0),
    ("search-minimal_k_extendable",
     ["search", "--target", "minimal_k_extendable", "--n-max", "3"], 0),
    ("search-minimality_counterexample-1",
     ["search", "--target", "minimality_counterexample", "--n-max", "4", "--k", "1",
      "--limit", "100"], 0),
    ("search-minimal_k_extendable-2",
     ["search", "--target", "minimal_k_extendable", "--n-max", "4", "--k", "2",
      "--limit", "100"], 0),
    ("search-minimal_k_strong-2",
     ["search", "--target", "minimal_k_strong", "--n-max", "4", "--k", "2",
      "--limit", "100"], 0),
]


def _run(argv) -> tuple[int, str]:
    args = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, out = _run(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# the translations with --out, which write the .map sidecar too: an
# explicit matching g2d and a d2g; (golden name, argv but the --out path)
SIDECARS = [("convert-g2d-c6-explicit",
             ["convert", "c6.bg", "--direction", "g2d", "--matching", "1-2,2-3,3-1", "--out"]),
            ("convert-d2g-dg20", ["convert", "dg20.dg", "--direction", "d2g", "--out"])]


def _assert_sidecar(name, argv, tmp_path) -> None:
    out = tmp_path / "out"
    assert _run(argv + [str(out)]) == (0, "")
    assert out.read_text(encoding="utf-8") == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert (tmp_path / "out.map").read_text(encoding="utf-8") == (
        GOLDEN / f"{name}.map").read_text(encoding="utf-8")


def test_sidecar_is_pinned(tmp_path):
    """The digraph and the ``.map`` sidecar of an explicit matching, whose
    ``matching:`` line ``fileio.format_matching`` writes."""
    _assert_sidecar(*SIDECARS[0], tmp_path)


def test_d2g_sidecar_is_pinned(tmp_path):
    """The graph of a d2g, its edges sorted in one merge, and its sidecar."""
    _assert_sidecar(*SIDECARS[1], tmp_path)


def _noncanonical(text: str) -> str:
    """The dg file text with its arcs shuffled, CRLF line ends, one tab,
    padding and a leading zero: a file the reader takes, but no writer
    writes."""
    head, *lines = text.splitlines()
    random.Random(20).shuffle(lines)
    lines[0] = lines[0].replace(" ", "\t")
    lines[1] = "  " + lines[1] + " "
    lines[2] = "0" + lines[2]
    return "\r\n".join([head, *lines]) + "\r\n"


def test_the_noncanonical_fixture_keeps_its_bytes():
    """``.gitattributes`` keeps git from normalising its CRLF line ends."""
    text = _noncanonical((GOLDEN / "dg20.dg").read_text(encoding="utf-8"))
    assert (GOLDEN / "dg20-noncanonical.dg").read_bytes() == text.encode()
    assert text.count("\r\n") == text.count("\n") and "\t" in text


@pytest.mark.parametrize("argv", [["analyze"], ["convert", "--direction", "d2g"],
                                  ["certify", "--claim", "k-strong", "--k", "3"]],
                         ids=["analyze", "convert-d2g", "certify-k-strong-3"])
def test_a_noncanonical_file_prints_what_its_canonical_twin_prints(argv):
    """The shuffled file is read line by line and its pairs sorted in full,
    the canonical one in one pass with a linear sort: the output is one."""
    code, out = _run([argv[0], "dg20-noncanonical.dg", *argv[1:]])
    assert (code, out) == _run([argv[0], "dg20.dg", *argv[1:]])
    assert out and code == 0


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


_C40 = Digraph(40, frozenset((v, (v + j) % 40) for v in range(40) for j in range(1, 6)))
_R20 = random_digraph(20, 0.4, seed=7)
_BAND12 = ZeroOneMatrix(tuple(tuple(int((j - i) % 12 in (0, 1, 2, 5)) for j in range(12))
                              for i in range(12)))


@pytest.mark.parametrize("obj,claim,k,sha1", [
    (_C40, "k-strong", 5, "8680423bf7733c9e6c44b8cc0d530ecc0b0426c3"),
    (_R20, "k-strong", 3, "fd5a0231645b12c5a5b9e22695fc8a2faadbce97"),
    (cycle_bipartite(12), "k-extendable", 1, "dd803009ebca786e315a72c3f02246137f7ad84a"),
    (random_bipartite_with_pm(12, 0.5, seed=1), "k-extendable", 2,
     "297e3af905336474700c9ba59651d2b1c3ac508d"),
    (_BAND12, "k-irreducible", 3, "f987a7196b14faf47fe90cd2f6a35787fbc451b1"),
], ids=["c40-k-strong-5", "r20-k-strong-kappa", "cycle12-k-extendable-1",
        "r12-k-extendable-2", "band12-k-irreducible-3"])
def test_certificate_paths_are_pinned(obj, claim, k, sha1):
    """Positive certificates keep their bytes.  Every pin but the
    12-cycle's holds the fan paths of a schedule that takes augmenting
    flows (SHA-1s taken when positive k >= 2 certificates came to carry
    them); the 12-cycle's holds its reach trees."""
    cert = build_certificate(obj, claim, k)
    assert cert.verdict
    assert _sha1(format_certificate(cert)) == sha1


# positive goldens as the first certificate format wrote them: at k = 1,
# before reach trees, and at k = 2, before fan paths
V1 = ["k-extendable-1-c6", "k-strong-1-dg6", "k-indecomposable-1-full6",
      "k-irreducible-1-full6", "k-extendable-2-k33", "k-indecomposable-2-j3"]


@pytest.mark.parametrize("stem", V1)
def test_first_format_certificates_still_verify(stem, monkeypatch):
    """Sampled path systems prove nothing alone, so ``verify`` re-derives
    their verdict with the decider, once, and prints the verify golden."""
    import extendix.certify as certify

    recompute, calls = certify._recompute_verdict, []
    monkeypatch.setattr(certify, "_recompute_verdict",
                        lambda cert: calls.append(cert.claim) or recompute(cert))
    text = (GOLDEN / "v1" / f"certify-{stem}.out").read_text(encoding="utf-8")
    assert "path-systems" in text and "reach-trees" not in text and "fan-paths" not in text
    assert _run(["verify", f"v1/certify-{stem}.out"]) == (
        0, (GOLDEN / f"verify-{stem}.out").read_text(encoding="utf-8"))
    assert calls == [stem.rsplit("-", 2)[0]]


def test_flow_path_results_are_pinned():
    assert vertex_connectivity(_R20) == 3
    assert (_sha1(repr(cycles_through_vertex(_C40, 3, 5)))
            == "c0165edac38263d3f8b9d226a4d87f6651210d40")
    assert (_sha1(repr(independent_path_system(_C40, (5, 6, 7, 8, 9), (0, 1, 2, 3, 4)).paths))
            == "0dffa8fbea5c9ca45dbaac6d4f93de5931ce5ebf")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fname, obj in _instances().items():
        write_instance(obj, GOLDEN / fname)
    for name, argv, code in CASES:
        got_code, out = _run(argv)
        assert got_code == code, (name, got_code)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "dg20-noncanonical.dg").write_bytes(
        _noncanonical((GOLDEN / "dg20.dg").read_text(encoding="utf-8")).encode())
    for name, argv in SIDECARS:
        assert _run(argv + [str(GOLDEN / name)]) == (0, "")
        (GOLDEN / name).unlink()
