import hashlib
import random
from pathlib import Path

import pytest

from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, bipartite_of_digraph,
                      complete_bipartite, complete_digraph, connected, directed_cycle,
                      max_extendability, random_bipartite_with_pm, random_digraph,
                      reduced_adjacency, vertex_connectivity)
from extendix import connectivity, core
from extendix.cli import main
from extendix.core import BUDGETS
from extendix.fileio import read_certificate, write_instance

from conftest import make_c6, make_p4


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("c6.bg", make_c6()), ("p4.bg", make_p4()),
                      ("k33.bg", complete_bipartite(3)),
                      ("d3.dg", directed_cycle(3)),
                      ("j3.mat", ZeroOneMatrix.ones(3))]:
        path = tmp_path / name
        write_instance(obj, path)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestAnalyze:
    def test_dg_builds_the_masks_once(self, tmp_path, monkeypatch, capsys):
        """The strong components, the strongness test and degree line of
        kappa, the flow kernel and the ear decomposition read one build of
        the parsed digraph's masks; the ear route calls no
        ``Digraph.out_neighbors`` and fills no adjacency cache."""
        path = tmp_path / "r.dg"
        write_instance(random_digraph(20, 0.4, seed=3), path)
        builds = []
        build = core._neighbourhood_masks
        monkeypatch.setattr(core, "_neighbourhood_masks", lambda d: builds.append(d) or build(d))

        def refuse(self, v):
            raise AssertionError("out_neighbors called")

        monkeypatch.setattr(Digraph, "out_neighbors", refuse)
        core._out_adj.cache_clear()
        assert main(["analyze", str(path)]) == 0
        assert "ear-decomposition: " in capsys.readouterr().out
        assert len(builds) == 1
        assert core._out_adj.cache_info().currsize == 0

    # SHA-1 of the ``analyze`` stdout of random_digraph(20, 0.4, seed) for
    # seeds 0-15, taken before the ear runs and the fan schedule
    DG_STDOUT = (
        "ede930baa813cbad007646cfe76db22b687c9282", "cf4439fb1fef9d9a77d1dc7d6cea62f63a4b3cb9",
        "bbd2d809bf38ef5d001ab4f60910376b73712dc1", "ec7b8340b07930dc5bb22c2c08a5d892f14e8b7a",
        "3829c4d542f4f8a8ca71cc4728edffb66670ea18", "650bc8504e1b833992afd91461bab059a292c27e",
        "138fee37df6241c7b61414affdf3ce1531ab6931", "c85f6a53099f1daf3582416c70af0fc2cfaec38b",
        "b2d6bfe3b76157b9b709e01d98655c8197aa56f5", "d900acef8590ceb5d7aba874c71ddb5c50fb86b1",
        "7640c332081a20d6853e5f3dcc43c7d49576ef56", "f5555e22dafd9d0731532dcf783bb359fbc52546",
        "9baecbc8bfbc8a918439bd1cfc4f4f6c777ff441", "1cc19592dbf0d14c6c3a1f3dfc8b6d27ded4a03b",
        "845aa3d53350ecd3dae0e21a5a446d05aa4b4d52", "c9a3c3de716ab80951203119a08dfeed9b39244a",
    )

    def test_dg_stdout_is_pinned(self, tmp_path, capsys):
        for seed, expected in enumerate(self.DG_STDOUT):
            path = tmp_path / f"r{seed}.dg"
            write_instance(random_digraph(20, 0.4, seed=seed), path)
            assert main(["analyze", str(path)]) == 0
            assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == expected, seed

    def test_each_flow_net_builds_its_lists_at_most_once(self, tmp_path, monkeypatch, capsys):
        """Each flow net builds the out-lists of its own rows at its first
        search and keeps them, and a net whose every check the greedy seed
        settles builds none: on ``analyze`` of ``dg`` files and on positive
        ``k-strong`` certificates, read off the deciding schedule, which
        searches on both nets for C40(1..5) at k = 5 and on neither for
        ``random_digraph(20, 0.4, 0)`` at kappa."""
        builds, nets, searched = [], [], set()
        build, init, augment = (connectivity._split_lists, connectivity._FlowNet.__init__,
                                connectivity._FlowNet._augment)

        def spy_init(self, outs, ins):
            init(self, outs, ins)
            nets.append(self)

        def spy_augment(self, *args):
            searched.add(id(self))
            return augment(self, *args)

        monkeypatch.setattr(connectivity, "_split_lists",
                            lambda rows: builds.append(build(rows)) or builds[-1])
        monkeypatch.setattr(connectivity._FlowNet, "__init__", spy_init)
        monkeypatch.setattr(connectivity._FlowNet, "_augment", spy_augment)

        def run(args) -> None:
            builds.clear()
            nets.clear()
            searched.clear()
            assert main(args) == 0
            listed = [net for net in nets if net.succ is not None]
            assert sorted(map(id, builds)) == sorted(id(net.succ) for net in listed)
            assert {id(net) for net in listed} == searched
            for net in listed:
                assert net.succ == build(net.outs)

        settled = 0
        for seed in range(6):
            path = tmp_path / f"r{seed}.dg"
            write_instance(random_digraph(20, 0.4, seed=seed), path)
            run(["analyze", str(path)])
            settled += len(nets) - len(builds)
        circulant = Digraph(40, frozenset((v, (v + j) % 40)
                                          for v in range(40) for j in range(1, 6)))
        digraphs = [random_digraph(20, 0.4, seed=seed) for seed in range(4)]
        certified = []
        for d, k in [(circulant, 5)] + [(d, vertex_connectivity(d)) for d in digraphs]:
            path, cert = tmp_path / "c.dg", tmp_path / "c.cert"
            write_instance(d, path)
            run(["certify", str(path), "--claim", "k-strong", "--k", str(k), "--out", str(cert)])
            certified.append(len(builds))
        assert settled > 0
        assert certified[:2] == [2, 0]
        capsys.readouterr()

    def test_c6_summary(self, files, capsys):
        assert main(["analyze", files["c6.bg"]]) == 0
        out = capsys.readouterr().out
        assert "summary: 1-extendable, not 2-extendable; 1 elementary component" in out
        assert "max-extendability: 1" in out

    def test_d3(self, files, capsys):
        assert main(["analyze", files["d3.dg"]]) == 0
        out = capsys.readouterr().out
        assert "strong: yes" in out and "kappa: 1" in out
        assert "ear-decomposition: 1 ears" in out

    def test_j3(self, files, capsys):
        assert main(["analyze", files["j3.mat"]]) == 0
        out = capsys.readouterr().out
        assert ("summary: fully indecomposable, 2-indecomposable, "
                "irreducible, 2-irreducible") in out

    def test_kind_mismatch(self, files, capsys):
        assert main(["analyze", files["c6.bg"], "--kind", "dg"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.bg")]) == 2

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.bg"
        bad.write_text("bg 2 1\n9 9\n")
        assert main(["analyze", str(bad)]) == 2


    @pytest.mark.parametrize("kind", ["bg", "mat"])
    def test_one_matching_and_one_digraph(self, tmp_path, capsys, kind):
        """analyze reads the count, max-extendability and the component
        lines off one maximum matching and one D(G, M)."""
        from unittest import mock

        import extendix
        import extendix.correspond
        import extendix.matching

        spies = {}
        patches = []
        for module, name in ((extendix.matching, "max_matching_pairs"),
                             (extendix.correspond, "digraph_of")):
            original = getattr(module, name)
            spies[name] = mock.Mock(wraps=original)
            for layer in ("cli", "certify", "connectivity", "correspond", "extendability",
                          "matching", "matrixlab", "search"):
                mod = getattr(extendix, layer)
                if getattr(mod, name, None) is original:
                    patches.append(mock.patch.object(mod, name, spies[name]))
        objs = [random_bipartite_with_pm(n, 0.4, seed=n) for n in (1, 6, 12)]
        objs += [BipartiteGraph(3, frozenset({(0, 0), (1, 0), (2, 2)}))]  # no perfect matching
        if kind == "mat":
            objs = [reduced_adjacency(g) for g in objs]
        for idx, obj in enumerate(objs):
            path = str(tmp_path / f"a{idx}.{kind}")
            write_instance(obj, path)
            for spy in spies.values():
                spy.reset_mock()
            for p in patches:
                p.start()
            try:
                assert main(["analyze", path]) == 0
            finally:
                for p in patches:
                    p.stop()
            no_pm = idx == 3
            assert spies["max_matching_pairs"].call_count == 1
            assert spies["digraph_of"].call_count == (0 if no_pm else 1)
            out = capsys.readouterr().out
            assert ("perfect-matchings: 0" in out or "nonzero-diagonals: 0" in out) == no_pm

    @pytest.mark.parametrize("rows,calls,irreducible", [
        (((1, 1, 0), (0, 1, 1), (1, 0, 1)), 1, "1"),
        (((1, 1, 0), (0, 0, 1), (1, 1, 1)), 2, "1"),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 2, "1 2"),
    ], ids=["full-diagonal", "one-zero", "zero-diagonal"])
    def test_full_diagonal_reads_kappa_off_max_extendability(self, tmp_path, capsys,
                                                              rows, calls, irreducible):
        """With every a_ii = 1, D(A) is D(B(A), I) up to loops, so one
        vertex connectivity answers both k-lists."""
        from unittest import mock

        import extendix.cli as cli

        path = str(tmp_path / "a.mat")
        write_instance(ZeroOneMatrix(rows), path)
        with mock.patch.object(cli, "vertex_connectivity",
                               mock.Mock(wraps=vertex_connectivity)) as spy:
            assert main(["analyze", path]) == 0
        assert spy.call_count == calls
        assert f"k-irreducible: {irreducible}\n" in capsys.readouterr().out

    def test_full_diagonal_kappa_matches_the_digraph(self):
        """kappa(D(A)) equals max-extendability on every full-diagonal matrix
        of order <= 3 and on seeded ones of order 4-12."""
        import itertools
        import random

        from extendix import digraph_of_matrix
        from extendix.cli import _analyze_matrix

        mats = []
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n * (n - 1)):
                cells = iter(bits)
                mats.append(ZeroOneMatrix(tuple(tuple(1 if i == j else next(cells)
                                                      for j in range(n))
                                                for i in range(n))))
        for seed in range(40):
            rng = random.Random(seed)
            n, p = 4 + seed % 9, (0.2, 0.35, 0.5, 0.7)[seed % 4]
            mats.append(ZeroOneMatrix(tuple(tuple(1 if i == j or rng.random() < p else 0
                                                  for j in range(n)) for i in range(n))))
        for a in mats:
            kappa = vertex_connectivity(digraph_of_matrix(a))
            line = "k-irreducible: " + (" ".join(map(str, range(1, kappa + 1))) or "none")
            assert line + "\n" in _analyze_matrix(a), a

    def test_count_budget(self, tmp_path, capsys):
        """Above order 24 an elementary component's matchings are not
        counted; everything else in the report stays."""
        import signal

        def cap(signum, frame):
            raise TimeoutError("analyze ran past its cap")

        bg, mat = str(tmp_path / "big.bg"), str(tmp_path / "big.mat")
        assert main(["randgen", "--kind", "bg", "--n", "40", "--p", "0.5", "--seed", "3",
                     "--out", bg]) == 0
        assert main(["convert", bg, "--direction", "g2m", "--out", mat]) == 0
        old = signal.signal(signal.SIGALRM, cap)
        signal.alarm(10)
        try:
            assert main(["analyze", bg]) == 0
            assert main(["analyze", mat]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        out = capsys.readouterr().out
        line = "not counted (elementary component of order 40 > 24)\n"
        assert f"perfect-matchings: {line}" in out and f"nonzero-diagonals: {line}" in out
        assert "edge-classes: fixed_single=0 fixed_double=0 allowed_nonfixed=" in out
        assert "elementary component\n" in out and "k-indecomposable: 0 1 " in out

    def test_count_budget_is_on_the_largest_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(BUDGETS, "count", (3, "order"))
        path = str(tmp_path / "a.bg")
        g = BipartiteGraph(7, frozenset((i, j) for i in range(7) for j in range(7)
                                        if (i < 3) == (j < 3)))  # J_3 and J_4
        write_instance(g, path)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "perfect-matchings: not counted (elementary component of order 4 > 3)\n" in out
        assert "elementary-components: 2\n" in out
        write_instance(BipartiteGraph(6, frozenset(e for e in g.edges if max(e) < 6)), path)
        assert main(["analyze", path]) == 0
        assert "perfect-matchings: 36\n" in capsys.readouterr().out


class TestConvert:
    def test_g2d_then_d2g_is_file_exact(self, files, tmp_path):
        out_d = str(tmp_path / "out.dg")
        out_g = str(tmp_path / "back.bg")
        assert main(["convert", files["c6.bg"], "--direction", "g2d",
                     "--out", out_d]) == 0
        assert main(["convert", out_d, "--direction", "d2g", "--out", out_g]) == 0
        assert open(out_g).read() == open(files["c6.bg"]).read()

    def test_g2m_then_m2g_is_file_exact(self, files, tmp_path):
        out_m = str(tmp_path / "out.mat")
        out_g = str(tmp_path / "back.bg")
        assert main(["convert", files["c6.bg"], "--direction", "g2m",
                     "--out", out_m]) == 0
        assert main(["convert", out_m, "--direction", "m2g", "--out", out_g]) == 0
        assert open(out_g).read() == open(files["c6.bg"]).read()

    def test_g2d_writes_sidecar(self, files, tmp_path):
        out_d = str(tmp_path / "out.dg")
        assert main(["convert", files["c6.bg"], "--direction", "g2d",
                     "--out", out_d]) == 0
        sidecar = open(out_d + ".map").read()
        assert "w-relabel: 1 2 3" in sidecar
        assert "matching: 1-1 2-2 3-3" in sidecar

    def test_explicit_matching(self, files, tmp_path, capsys):
        out_d = str(tmp_path / "out.dg")
        assert main(["convert", files["c6.bg"], "--direction", "g2d",
                     "--matching", "1-2,2-3,3-1", "--out", out_d]) == 0
        assert "dg 3 3" in open(out_d).read()

    def test_invalid_matching(self, files, capsys):
        assert main(["convert", files["c6.bg"], "--direction", "g2d",
                     "--matching", "1-1,2-3"]) == 2

    def test_no_perfect_matching(self, tmp_path, capsys):
        p = tmp_path / "thin.bg"
        p.write_text("bg 2 1\n1 1\n")
        assert main(["convert", str(p), "--direction", "g2d"]) == 2

    def test_wrong_kind(self, files, capsys):
        assert main(["convert", files["d3.dg"], "--direction", "g2d"]) == 2

    def test_handler_is_read_from_the_module_per_call(self, files, monkeypatch, capsys):
        """A rebound ``cli.cmd_convert`` (as a tracer binds it) is the one
        that runs."""
        import extendix.cli as cli

        calls = []
        original = cli.cmd_convert

        def wrapper(args):
            calls.append(args.direction)
            return original(args)

        monkeypatch.setattr(cli, "cmd_convert", wrapper)
        assert main(["convert", files["c6.bg"], "--direction", "g2m"]) == 0
        assert calls == ["g2m"]
        assert capsys.readouterr().out.startswith("mat 3")


# positive certificates as the first format wrote them, with sampled path
# systems, of the ``files`` instances c6.bg, d3.dg and j3.mat at k = 1, and
# of k33.bg and the complete digraph k3.dg at k = 2
V1 = Path(__file__).parent / "golden" / "v1"


def _certificate_to_edit(files, cert_path, name: str, claim: str, k: int) -> int:
    """Write to cert_path the certificate of files[name] that a test edits
    and return the exit code that vouches for it: certify's output and
    code, but where ``V1`` holds the claim at k, as for every positive
    claim of the path-line tests, on which certify writes reach trees or
    fan paths, the first format's text with its sampled path systems, and
    verify's code for it."""
    frozen = V1 / f"certify-{claim}-{k}-{name.split('.')[0]}.out"
    if not frozen.is_file():
        return main(["certify", files[name], "--claim", claim, "--k", str(k),
                     "--out", str(cert_path)])
    cert_path.write_text(frozen.read_text())
    return main(["verify", str(cert_path)])


class TestCertifyVerify:
    @pytest.mark.parametrize("name,claim,k,expected", [
        ("k33.bg", "k-extendable", 2, 0),
        ("c6.bg", "k-extendable", 2, 1),
        ("c6.bg", "k-extendable", 1, 0),
        ("d3.dg", "k-strong", 1, 0),
        ("d3.dg", "k-strong", 2, 1),
        ("j3.mat", "k-indecomposable", 2, 0),
        ("j3.mat", "k-irreducible", 2, 0),
        ("p4.bg", "k-extendable", 1, 1),
    ])
    def test_certify_and_verify(self, files, tmp_path, capsys, name, claim, k, expected):
        cert_path = str(tmp_path / "out.cert")
        code = main(["certify", files[name], "--claim", claim, "--k", str(k),
                     "--out", cert_path])
        assert code == expected
        assert main(["verify", cert_path]) == 0

    def test_staircase_beyond_the_recursion_limit(self, tmp_path, capsys):
        # u_i sees w_(i-1) and w_i: each augmenting search walks back
        # through every earlier row, deeper than Python's recursion limit
        n = 1100
        path, cert_path = tmp_path / "stair.bg", str(tmp_path / "stair.cert")
        write_instance(BipartiteGraph(n, frozenset({(i, i) for i in range(n)}
                                                   | {(i, i - 1) for i in range(1, n)})),
                       path)
        assert main(["certify", str(path), "--claim", "k-extendable", "--k", "0",
                     "--out", cert_path]) == 0
        assert main(["verify", cert_path]) == 0

    def test_c6_negative_witness_matching(self, files, tmp_path, capsys):
        # certify emits a deficient set read off the separator; certificates
        # carrying a non-extendable matching, as older versions wrote, still
        # verify when the matching is one
        cert_path = tmp_path / "neg.cert"
        assert main(["certify", files["c6.bg"], "--claim", "k-extendable",
                     "--k", "2", "--out", str(cert_path)]) == 1
        cert = read_certificate(str(cert_path))
        assert (cert.witness_kind, cert.witness_lines) == ("deficient-set", ("u-set: 1",))
        text = cert_path.read_text().replace(
            "witness: deficient-set\nu-set: 1", "witness: non-extendable-matching\n{}")
        for edges, code in (("edges: 1-1 2-3", 0), ("edges: 1-1 2-2", 1)):
            cert_path.write_text(text.format(edges))
            assert main(["verify", str(cert_path)]) == code

    @pytest.mark.parametrize("n,p", [(18, 0.25), (24, 0.25), (30, 0.4)])
    def test_negative_extendability_past_the_audit_sizes(self, tmp_path, capsys, n, p):
        g = random_bipartite_with_pm(n, p, seed=n)
        assert connected(g)
        k = max_extendability(g) + 1
        path, cert_path = tmp_path / "g.bg", str(tmp_path / "neg.cert")
        write_instance(g, path)
        assert main(["certify", str(path), "--claim", "k-extendable", "--k", str(k),
                     "--out", cert_path]) == 1
        assert read_certificate(cert_path).witness_kind == "deficient-set"
        assert main(["verify", cert_path]) == 0

    def test_negative_witness_is_a_deficient_set(self):
        from extendix.certify import build_certificate

        checked = 0
        for i in range(300):
            n = 2 + i % 19
            g = random_bipartite_with_pm(n, (0.15, 0.25, 0.4)[i % 3], seed=500 + i)
            k = max_extendability(g) + 1
            if not connected(g) or k > n - 1:
                continue
            cert = build_certificate(g, "k-extendable", k)
            assert cert.witness_kind == "deficient-set"
            x = [int(v) - 1 for v in cert.witness_lines[0].split()[1:]]
            assert 1 <= len(x) == len(set(x)) <= n - k
            assert len({j for i in x for j in g.u_neighbors(i)}) < len(x) + k
            checked += 1
        assert checked > 150

    def test_tampered_certificate_rejected(self, files, tmp_path, capsys):
        cert_path = tmp_path / "t.cert"
        assert main(["certify", files["d3.dg"], "--claim", "k-strong",
                     "--k", "2", "--out", str(cert_path)]) == 1
        text = cert_path.read_text().replace("verdict: fails", "verdict: holds")
        cert_path.write_text(text)
        assert main(["verify", str(cert_path)]) == 1

    @pytest.mark.parametrize("vertices", ["99", "0", "-3", "2 2"])
    def test_forged_separator_rejected(self, tmp_path, capsys, vertices):
        # removing any of these leaves the path 1 -> 2 -> 3 -> 4 not strong,
        # so only the range and repetition checks can catch them
        path, cert_path = tmp_path / "p4.dg", tmp_path / "p4.cert"
        path.write_text("dg 4 3\n1 2\n2 3\n3 4\n")
        assert main(["certify", str(path), "--claim", "k-strong", "--k", "3",
                     "--out", str(cert_path)]) == 1
        text = cert_path.read_text()
        assert "vertices: 2\n" in text
        cert_path.write_text(text.replace("vertices: 2\n", f"vertices: {vertices}\n"))
        assert main(["verify", str(cert_path)]) == 1
        assert "distinct vertices" in capsys.readouterr().out

    def test_menger_pair_must_join_two_vertices(self, files, tmp_path, capsys):
        # a cycle through vertex 1 is a valid closed path system, but not a
        # Menger system for a pair of the certificate
        cert_path = tmp_path / "loop.cert"
        assert _certificate_to_edit(files, cert_path, "d3.dg", "k-strong", 1) == 0
        text = cert_path.read_text()
        cert_path.write_text(text.replace("pair: 1 2\npath: 1 2\n",
                                          "pair: 1 1\npath: 1 2 3 1\n"))
        assert main(["verify", str(cert_path)]) == 1
        assert "does not join two vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("name,claim,pair,problem", [
        ("c6.bg", "k-extendable", "u1 w1", None),
        ("c6.bg", "k-extendable", "w1 u1", "does not name a U vertex and then a W vertex"),
        ("c6.bg", "k-extendable", "u1 u2", "does not name a U vertex and then a W vertex"),
        ("c6.bg", "k-extendable", "u1 w1 w2", "does not name a U vertex and then a W vertex"),
        ("c6.bg", "k-extendable", "u1", "does not name a U vertex and then a W vertex"),
        ("j3.mat", "k-indecomposable", "w1 w1", "does not name a U vertex and then a W vertex"),
        ("d3.dg", "k-strong", "1 2", None),
        ("d3.dg", "k-strong", "1 2 3", "does not name exactly two vertices"),
        ("d3.dg", "k-strong", "1", "does not name exactly two vertices"),
        ("j3.mat", "k-irreducible", "1 2 1", "does not name exactly two vertices"),
        ("d3.dg", "k-strong", "1 9", "names a vertex outside 1..3"),
        ("d3.dg", "k-strong", "0 2", "names a vertex outside 1..3"),
        ("c6.bg", "k-extendable", "u1 w9", "names a vertex outside u1..u3 and w1..w3"),
        ("j3.mat", "k-indecomposable", "u4 w1", "names a vertex outside u1..u3 and w1..w3"),
    ])
    def test_pair_lines_name_their_two_ends(self, files, tmp_path, capsys, name, claim,
                                            pair, problem):
        # the first pair of each certificate is u1 w1 or 1 2; its path lines stay
        cert_path = tmp_path / "pair.cert"
        assert _certificate_to_edit(files, cert_path, name, claim, 1) == 0
        text = cert_path.read_text()
        first = "pair: u1 w1\n" if "alt-path" in text else "pair: 1 2\n"
        assert first in text
        cert_path.write_text(text.replace(first, f"pair: {pair}\n", 1))
        capsys.readouterr()
        if problem is None:
            assert main(["verify", str(cert_path)]) == 0
            assert capsys.readouterr().out == f"certificate verified: {claim} k=1 holds\n"
        else:
            assert main(["verify", str(cert_path)]) == 1
            assert capsys.readouterr().out == f"certificate INVALID:\n  - pair {pair} {problem}\n"

    @pytest.mark.parametrize("name,claim,path,problem", [
        ("d3.dg", "k-strong", "", "has an empty path line"),
        ("d3.dg", "k-strong", "1 9 2", "has path 1 9 2 with a vertex outside 1..3"),
        ("c6.bg", "k-extendable", "", "has an empty path line"),
        ("c6.bg", "k-extendable", "u1 w9 u2 w1",
         "has path u1 w9 u2 w1 with a vertex outside u1..u3 and w1..w3"),
    ])
    def test_path_lines_name_vertices_of_the_instance(self, files, tmp_path, capsys, name,
                                                      claim, path, problem):
        # the first path line of the first pair, u1 w1 or 1 2, is replaced
        cert_path = tmp_path / "path.cert"
        assert _certificate_to_edit(files, cert_path, name, claim, 1) == 0
        lines = cert_path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("path:"))
        pair = lines[first - 1].removeprefix("pair: ").rstrip("\n")
        assert pair in ("u1 w1", "1 2")
        lines[first] = f"path: {path}\n"
        cert_path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert capsys.readouterr().out == f"certificate INVALID:\n  - pair {pair} {problem}\n"

    @pytest.mark.parametrize("name,claim,k,paths,problems", [
        ("d3.dg", "k-strong", 1, ["1 3 2"],
         ["missing arc 1 -> 3 in path 1", "missing arc 3 -> 2 in path 1"]),
        ("d3.dg", "k-strong", 1, ["1 2 3 1 2"], ["repeated vertex in path 1"]),
        ("d3.dg", "k-strong", 1, ["2 3 1"], ["path 1 does not run 1 -> 2"]),
        ("k3.dg", "k-strong", 2, ["1 3 2", "1 3 2"],
         ["paths 1 and 2 share interior [3]", "duplicate path"]),
        ("k3.dg", "k-strong", 2, ["1 2", "1 2"], ["duplicate path"]),
        ("c6.bg", "k-extendable", 1, ["u2 w3 u3 w1"], ["path 1 does not join u1 and w1"]),
        ("c6.bg", "k-extendable", 1, ["u1 w2 u2"],
         ["path 1 does not join u1 and w1", "path 1 has even length"]),
        ("c6.bg", "k-extendable", 1, ["u1 w2 u2 w1"], ["path 1 uses missing edge u2 w1"]),
        ("c6.bg", "k-extendable", 1, ["u1 w1"],
         ["edge 1 of path 1, u1 w1, lies in the matching"]),
        ("c6.bg", "k-extendable", 1, ["u1 w2 u1 w1"],
         ["path 1 repeats a vertex", "edge 2 of path 1, u1 w2, is not a matching edge",
          "edge 3 of path 1, u1 w1, lies in the matching"]),
        ("k33.bg", "k-extendable", 2, ["u1 w2 u2 w1", "u1 w2 u2 w1"],
         ["paths 1 and 2 share interior u2 w2", "duplicate path"]),
    ])
    def test_path_problems_in_the_certificate_terms(self, files, tmp_path, capsys, name,
                                                    claim, k, paths, problems):
        """The path lines of the first pair are replaced; each problem the
        structural check finds names the pair, its paths by their 1-based
        place, and vertices and edges as the certificate writes them."""
        if name == "k3.dg":
            write_instance(complete_digraph(3), tmp_path / name)
            files[name] = str(tmp_path / name)
        cert_path = tmp_path / "paths.cert"
        assert _certificate_to_edit(files, cert_path, name, claim, k) == 0
        lines = cert_path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("pair:"))
        pair = lines[first].removeprefix("pair: ").rstrip("\n")
        lines[first + 1:first + 1 + k] = [f"path: {path}\n" for path in paths]
        cert_path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert capsys.readouterr().out == "certificate INVALID:\n" + "".join(
            f"  - pair {pair}: {problem}\n" for problem in problems)

    @pytest.mark.parametrize("name,claim,k,old,new,problem", [
        ("d3.dg", "k-strong", 1, "pair: 1 2\n", "pair: +1 2\n",
         "witness payload malformed: pair +1 2 has '+1', which is not a number"),
        ("d3.dg", "k-strong", 1, "pair: 1 2\npath: 1 2\n", "pair: 1 2\npath: 1 2_0\n",
         "witness payload malformed: pair 1 2 path 1 has '2_0', which is not a number"),
        ("p4.dg", "k-strong", 3, "vertices: 2\n", "vertices: 1_0\n",
         "witness payload malformed: the vertices: line has '1_0', which is not a number"),
        ("c6.bg", "k-extendable", 2, "u-set: 1\n", "u-set: +1\n",
         "witness payload malformed: the u-set: line has '+1', which is not a number"),
        ("c6.bg", "k-extendable", 1, "matching: 1-1 ", "matching: 1-+1 ",
         "embedded matching invalid: edge 1-+1 has '+1', which is not a number"),
        ("p4.bg", "k-extendable", 0, "edges: 1-1 ", "edges: +1-1 ",
         "witness matching invalid: edge +1-1 has '+1', which is not a number"),
        ("lt.mat", "k-indecomposable", 1, "rows: 1\n", "rows: +1\n",
         "witness payload malformed: the rows: line has '+1', which is not a number"),
    ])
    def test_witness_numbers_are_read_as_the_formats_write_them(
            self, files, tmp_path, capsys, name, claim, k, old, new, problem):
        """A witness number that ``int`` reads but the instance format does
        not, with a plus sign or an underscore, is a problem line of its
        own: the payload is malformed, or the matching it spells invalid."""
        instances = {"p4.dg": "dg 4 3\n1 2\n2 3\n3 4\n", "lt.mat": "mat 2\n10\n11\n"}
        if name in instances:
            (tmp_path / name).write_text(instances[name])
            files[name] = str(tmp_path / name)
        cert_path = tmp_path / "numbers.cert"
        _certificate_to_edit(files, cert_path, name, claim, k)
        text = cert_path.read_text()
        assert old in text
        cert_path.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert capsys.readouterr().out == f"certificate INVALID:\n  - {problem}\n"

    def test_a_malformed_payload_follows_the_verdict_problem(self, files, capsys):
        """The directed 3-cycle is not 2-strong; its certificate, edited to
        claim it is and to carry a separator number the formats do not
        write, gets both problems, the verdict's first."""
        cert_path = files["dir"] / "both.cert"
        assert main(["certify", files["d3.dg"], "--claim", "k-strong", "--k", "2",
                     "--out", str(cert_path)]) == 1
        text = cert_path.read_text()
        assert "verdict: fails\n" in text and "vertices: 3\n" in text
        cert_path.write_text(text.replace("verdict: fails\n", "verdict: holds\n")
                             .replace("vertices: 3\n", "vertices: +1\n"))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert capsys.readouterr().out == (
            "certificate INVALID:\n"
            "  - verdict says holds but the claim fails on the embedded instance\n"
            "  - witness payload malformed: the vertices: line has '+1', which is not a number\n")

    def test_loops_leave_k_strong_witnesses_alone(self, tmp_path, capsys):
        plain = random_digraph(8, 0.6, seed=1)
        loopy = Digraph(8, plain.arcs | {(0, 0), (3, 3), (7, 7)}, loops_allowed=True)
        kappa = vertex_connectivity(plain)
        assert kappa >= 2
        for k in (1, kappa, kappa + 1):
            seen = []
            for name, d in (("plain", plain), ("loopy", loopy)):
                path, cert_path = tmp_path / f"{name}.dg", str(tmp_path / f"{name}.cert")
                write_instance(d, path)
                code = main(["certify", str(path), "--claim", "k-strong", "--k", str(k),
                             "--out", cert_path])
                assert main(["verify", cert_path]) == 0
                cert = read_certificate(cert_path)
                seen.append((code, cert.verdict, cert.witness_kind, cert.witness_lines))
            assert seen[0] == seen[1]
            assert seen[0][0] == (0 if k <= kappa else 1)

    def test_claim_kind_mismatch(self, files, capsys):
        assert main(["certify", files["c6.bg"], "--claim", "k-strong",
                     "--k", "1"]) == 2

    @pytest.mark.parametrize("claim,kind", [
        ("k-strong", "bg"), ("k-strong", "mat"), ("k-extendable", "dg"),
        ("k-extendable", "mat"), ("k-indecomposable", "dg"), ("k-indecomposable", "bg"),
        ("k-irreducible", "dg"), ("k-irreducible", "bg"),
    ])
    def test_verify_rejects_claim_kind_mismatch(self, tmp_path, capsys, claim, kind):
        """A claim embedded over the wrong kind of instance is a parse error
        on the instance header, line 6, not a traceback."""
        instance = {"bg": "bg 2 2\n1 1\n2 2", "dg": "dg 2 2\n1 2\n2 1",
                    "mat": "mat 2\n11\n01"}[kind]
        path = tmp_path / "mismatch.cert"
        path.write_text(f"extendix-cert 1\nclaim: {claim}\nk: 1\nverdict: holds\n"
                        f"instance:\n{instance}\nend-instance\nwitness: separator\n"
                        "vertices: 1\nend-witness\n")
        assert main(["verify", str(path)]) == 2
        wanted = {"k-strong": "dg", "k-extendable": "bg"}.get(claim, "mat")
        assert capsys.readouterr() == (
            "", f"error: line 6: {claim} needs a {wanted} instance, got {kind}\n")

    # each witness kind with a payload of its lines, each as short as the
    # reader takes
    MINIMAL_PAYLOADS = {
        "reach-trees": "out-tree: 1\nin-tree: 1\n", "fan-paths": "check: 1 2\npath: 1 2\n",
        "alt-path-systems": "matching: 1-1\npair: u1 w1\n", "menger-path-systems": "pair: 1 2\n",
        "separator": "vertices: 1\n", "non-extendable-matching": "edges: 1-1\n",
        "deficient-set": "u-set: 1\n", "zero-block": "rows: 1\ncols: 1\n",
        "perfect-matching": "edges: 1-1\n", "disconnected": "", "no-perfect-matching": "",
        "size-cap": "", "too-few-vertices": ""}

    @pytest.mark.parametrize("verdict", ["holds", "fails"])
    @pytest.mark.parametrize("kind", sorted(MINIMAL_PAYLOADS))
    @pytest.mark.parametrize("claim", ["k-extendable", "k-strong", "k-indecomposable",
                                       "k-irreducible"])
    def test_every_witness_kind_with_every_claim_is_checked(self, tmp_path, capsys,
                                                           claim, kind, verdict):
        """K_{3,3}, the directed 3-cycle and J_3 at k = 1, with every witness
        kind and a minimal payload: ``certificate INVALID``, exit 1, and
        nothing on stderr, also where the kind's check reads an instance of
        another type."""
        instance = {"k-extendable": "bg 3 9\n" + "".join(f"{i} {j}\n" for i in (1, 2, 3)
                                                          for j in (1, 2, 3)),
                    "k-strong": "dg 3 3\n1 2\n2 3\n3 1\n"}.get(claim, "mat 3\n111\n111\n111\n")
        path = tmp_path / "kind.cert"
        path.write_text(f"extendix-cert 1\nclaim: {claim}\nk: 1\nverdict: {verdict}\n"
                        f"instance:\n{instance}end-instance\nwitness: {kind}\n"
                        f"{self.MINIMAL_PAYLOADS[kind]}end-witness\n")
        assert main(["verify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("certificate INVALID:\n") and err == ""

    def test_a_witness_kind_of_another_instance_type_is_named(self, files, tmp_path, capsys):
        cert_path = tmp_path / "d3.cert"
        assert main(["certify", files["d3.dg"], "--claim", "k-strong", "--k", "1",
                     "--out", str(cert_path)]) == 0
        text = cert_path.read_text()
        witness = text[text.index("witness: "):]
        cert_path.write_text(text.replace(witness, "witness: deficient-set\nu-set: 1\n"
                                                   "end-witness\n"))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert capsys.readouterr() == (
            "certificate INVALID:\n"
            "  - witness kind 'deficient-set' does not apply to a digraph\n", "")


class TestSearch:
    def test_counterexample_found(self, capsys):
        assert main(["search", "--target", "minimality_counterexample",
                     "--n-max", "6", "--k", "1", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "found: 1" in out
        assert "deletable-matching-edge 1:" in out

    def test_minimal_k_strong_includes_cycles(self, capsys):
        assert main(["search", "--target", "minimal_k_strong",
                     "--n-max", "3", "--k", "1", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "dg 2 2" in out  # the 2-cycle
        assert "degree-audit 1: ok" in out

    def test_minimal_k_extendable_includes_even_cycles(self, capsys):
        assert main(["search", "--target", "minimal_k_extendable",
                     "--n-max", "4", "--k", "1", "--limit", "30"]) == 0
        out = capsys.readouterr().out
        # C4, C6 and C8 as bipartite cycles must all appear
        from extendix import cycle_bipartite
        from extendix.fileio import format_instance

        for n in (2, 3, 4):
            block = format_instance(cycle_bipartite(n)).rstrip("\n")
            assert block in out
        assert "forest-check 1: ok" in out

    def test_exhausted_search_exits_3(self, capsys):
        # no digraph on two vertices is 2-strong
        assert main(["search", "--target", "minimal_k_strong",
                     "--n-max", "2", "--k", "2"]) == 3


class TestRandgen:
    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.bg"), str(tmp_path / "b.bg")
        for path in (a, b):
            assert main(["randgen", "--kind", "bg", "--n", "5", "--p", "0.4",
                         "--seed", "7", "--out", path]) == 0
        assert open(a).read() == open(b).read()

    def test_generates_all_kinds(self, tmp_path, capsys):
        for kind in ("bg", "dg", "mat"):
            assert main(["randgen", "--kind", kind, "--n", "4",
                         "--seed", "1"]) == 0
            header = capsys.readouterr().out.split()[0]
            assert header == kind

    def test_bad_n(self, capsys):
        assert main(["randgen", "--kind", "bg", "--n", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["convert", "x.bg", "--direction", "g2x"],
    ["search", "--target", "maximal_k_strong", "--n-max", "3"],
    ["randgen", "--kind", "graph", "--n", "3"],
    ["certify", "x.bg", "--claim", "k-planar", "--k", "1"],
])
def test_choices_reject_unknown_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


_CERT = ("extendix-cert 1\nclaim: k-strong\nk: {k}\nverdict: holds\ninstance:\n"
         "dg 2 2\n1 2\n2 1\nend-instance\nwitness: menger-path-systems\nend-witness\n")


@pytest.mark.parametrize("command,text,message", [
    pytest.param("analyze", "dg 2 1\n2 \u00b2\n",
                 "line 2: expected two integers, got '2 \u00b2'", id="superscript"),
    pytest.param("analyze", "dg 2 1\n2 --1\n",
                 "line 2: expected two integers, got '2 --1'", id="double-minus"),
    pytest.param("analyze", "dg 3 2\n1 2\n2 \u00b2\n",
                 "line 3: expected two integers, got '2 \u00b2'", id="second-line"),
    pytest.param("analyze", "dg 2 1\n+1 2\n",
                 "line 2: expected two integers, got '+1 2'", id="plus"),
    pytest.param("analyze", "dg 2 1\n1_0 2\n",
                 "line 2: expected two integers, got '1_0 2'", id="underscore"),
    pytest.param("analyze", "dg 2 1\n1 2 1\n",
                 "line 2: expected two integers, got '1 2 1'", id="three-tokens"),
    pytest.param("analyze", "dg 2 1\n-1 2\n",
                 "line 2: index out of range 1..2 in (-1, 2)", id="negative"),
    pytest.param("analyze", "dg 2 1\n1 0\n",
                 "line 2: index out of range 1..2 in (1, 0)", id="zero"),
    pytest.param("analyze", "dg \u00b2 0\n",
                 "line 1: malformed header 'dg \u00b2 0'", id="header-n"),
    pytest.param("analyze", "dg 2 \u00b2\n",
                 "line 1: malformed header 'dg 2 \u00b2'", id="header-m"),
    pytest.param("analyze", "bg 2 1\n1 \u00b2\n",
                 "line 2: expected two integers, got '1 \u00b2'", id="bg-superscript"),
    pytest.param("analyze", "mat \u00b2\n",
                 "line 1: malformed header 'mat \u00b2'", id="mat-header"),
    pytest.param("verify", _CERT.format(k="--1"),
                 "line 3: k must be an integer, got '--1'", id="cert-k-double-minus"),
    pytest.param("verify", _CERT.format(k="\u00b2"),
                 "line 3: k must be an integer, got '\u00b2'", id="cert-k-superscript"),
    pytest.param("convert --direction g2d --matching 1-\u00b2", "bg 2 2\n1 1\n2 2\n",
                 "bad matching token '1-\u00b2', expected like 1-2", id="matching-superscript"),
    pytest.param("convert --direction g2d --matching 1-1,2-\u00b2", "bg 2 2\n1 1\n2 2\n",
                 "bad matching token '2-\u00b2', expected like 1-2", id="matching-second-token"),
])
def test_malformed_numbers_exit_2(command, text, message, tmp_path, capsys):
    """A token that looks numeric but is no integer of the format (a
    superscript digit, a doubled sign, a plus sign, an underscore) is a
    parse error with its line, or for ``--matching`` the option's own
    message, never a traceback or Python's ``int`` message."""
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    name, *options = command.split()
    assert main([name, str(path), *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "{dir}"], id="analyze-directory"),
    pytest.param(["verify", "{dir}"], id="verify-directory"),
    pytest.param(["analyze", "{c6.bg}", "--out", "{dir}"], id="analyze-out-directory"),
    pytest.param(["certify", "{c6.bg}", "--claim", "k-extendable", "--k", "1",
                  "--out", "{dir}"], id="certify-out-directory"),
    pytest.param(["convert", "{c6.bg}", "--direction", "g2m", "--out", "{dir}"],
                 id="convert-out-directory"),
    pytest.param(["search", "--target", "minimal_k_strong", "--n-max", "2",
                  "--out", "{dir}"], id="search-out-directory"),
    pytest.param(["analyze", "{latin1}"], id="analyze-not-utf8"),
    pytest.param(["verify", "{latin1}"], id="verify-not-utf8"),
    pytest.param(["randgen", "--kind", "dg", "--n", "3", "--p", "2"], id="randgen-dg-p"),
    pytest.param(["randgen", "--kind", "bg", "--n", "3", "--p", "-0.5"], id="randgen-bg-p"),
    pytest.param(["randgen", "--kind", "mat", "--n", "3", "--p", "nan"], id="randgen-mat-p"),
])
def test_os_encoding_and_range_errors_exit_2(argv, files, capsys):
    """A directory where a file belongs, bytes that are not UTF-8 and a
    probability outside [0, 1] are input errors: exit 2 and one ``error:``
    line, never a traceback with the exit code of a failing property."""
    latin1 = files["dir"] / "latin1.bg"
    latin1.write_bytes(b"bg 2 2\n1 1\n2 \xff2\n")
    paths = dict(files, dir=str(files["dir"]), latin1=str(latin1))
    assert main([paths.get(token.strip("{}"), token) for token in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    if "{latin1}" in argv:
        assert err == "error: line 3: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize("module", ["extendix", "extendix.cli"])
def test_python_m_reports_missing_file(module, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import extendix

    env = dict(os.environ, PYTHONPATH=str(Path(extendix.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", module, "analyze",
                           str(tmp_path / "missing.bg")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def _cert_text(claim: str, k: int, instance: str, witness: str) -> str:
    return (f"extendix-cert 1\nclaim: {claim}\nk: {k}\nverdict: fails\ninstance:\n"
            f"{instance}end-instance\nwitness: {witness}\nend-witness\n")


_D3, _C4, _J2 = "dg 3 3\n1 2\n2 3\n3 1\n", "bg 2 4\n1 1\n1 2\n2 1\n2 2\n", "mat 2\n11\n11\n"


@pytest.mark.parametrize("claim,k,instance,witness,message", [
    pytest.param("k-extendable", -1, _C4, "deficient-set",
                 "k must be at least 0 for k-extendable, got -1", id="extendable-below-0"),
    pytest.param("k-strong", 0, _D3, "separator",
                 "k must be at least 1 for k-strong, got 0", id="strong-below-1"),
    pytest.param("k-indecomposable", -1, _J2, "zero-block",
                 "k must lie in 0..1 for k-indecomposable at n=2, got -1",
                 id="indecomposable-below-0"),
    pytest.param("k-indecomposable", 2, _J2, "zero-block",
                 "k must lie in 0..1 for k-indecomposable at n=2, got 2",
                 id="indecomposable-above-n-1"),
    pytest.param("k-irreducible", 0, _J2, "zero-block",
                 "k must lie in 1..2 for k-irreducible at n=2, got 0", id="irreducible-below-1"),
    pytest.param("k-irreducible", 3, _J2, "zero-block",
                 "k must lie in 1..2 for k-irreducible at n=2, got 3", id="irreducible-above-n"),
])
def test_verify_reports_a_k_outside_the_claims_range_as_a_header_error(
        claim, k, instance, witness, message, tmp_path, capsys):
    """A k the claim's decider does not take is an error on the ``k:``
    line, exit 2, like any other malformed header, and not a malformed
    witness with the exit code of an invalid certificate."""
    path = tmp_path / "bad.cert"
    path.write_text(_cert_text(claim, k, instance, witness), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: line 3: {message}\n")


@pytest.mark.parametrize("name,claim,k,kind", [
    ("c6.bg", "k-extendable", 9, "size-cap"),
    ("d3.dg", "k-strong", 9, "too-few-vertices"),
    ("j3.mat", "k-indecomposable", 2, None),
    ("j3.mat", "k-irreducible", 3, "size-cap"),
    ("j3.mat", "k-irreducible", 1, None),
])
def test_verify_takes_every_k_in_the_claims_range(name, claim, k, kind, files, capsys):
    """The range ends and a large k for the two claims without a most k
    verify as before: the size cap and too few vertices refute them."""
    cert = str(files["dir"] / "in-range.cert")
    assert main(["certify", files[name], "--claim", claim, "--k", str(k), "--out", cert]) in (0, 1)
    if kind is not None:
        assert read_certificate(cert).witness_kind == kind
    capsys.readouterr()
    assert main(["verify", cert]) == 0
    assert capsys.readouterr().out.startswith(f"certificate verified: {claim} k={k} ")


def test_bg_commands_rebuild_no_digraph_masks(tmp_path, monkeypatch, capsys):
    """Every D(G, M) that ``analyze``, ``certify``, ``verify`` and g2d make
    of a graph comes with its masks from ``digraph_of``."""
    path, cert = tmp_path / "r.bg", str(tmp_path / "r.cert")
    write_instance(random_bipartite_with_pm(14, 0.3, seed=5), path)
    builds = []
    monkeypatch.setattr(core, "_neighbourhood_masks", lambda d: builds.append(d))
    for argv in (["analyze", str(path)], ["convert", str(path), "--direction", "g2d"],
                 ["certify", str(path), "--claim", "k-extendable", "--k", "1", "--out", cert],
                 ["verify", cert],
                 ["certify", str(path), "--claim", "k-extendable", "--k", "9", "--out", cert],
                 ["verify", cert]):
        assert main(argv) in (0, 1)
    assert builds == [] and capsys.readouterr().err == ""


@pytest.mark.parametrize("name,direction", [("d3.dg", "d2g"), ("j3.mat", "m2g")])
def test_translations_into_a_graph_build_no_rows(name, direction, files, monkeypatch, capsys):
    """d2g and m2g write the graph from its edges and never read its rows."""
    def refuse(self):
        raise AssertionError("rows read")

    monkeypatch.setattr(BipartiteGraph, "_u_rows", property(refuse))
    monkeypatch.setattr(BipartiteGraph, "_w_rows", property(refuse))
    assert main(["convert", files[name], "--direction", direction]) == 0
    assert capsys.readouterr().out.startswith("bg 3 ")
