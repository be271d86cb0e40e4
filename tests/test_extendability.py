import random
from unittest import mock

import pytest

from extendix import (BipartiteGraph, alternating_path_system,
                      bipartite_ear_decomposition, canonical_matching,
                      complete_bipartite, connected, directed_cycle,
                      elementary_components, high_degree_subgraph_forest_check,
                      is_k_extendable, is_k_extendable_oracle,
                      is_k_extendable_via_digraph, is_k_extendable_via_neighborhood,
                      is_minimal_k_extendable, iter_bipartite_with_canonical,
                      matching_graph, max_extendability, max_matching,
                      minimal_k_extendable_degree_audit, minimality_transfer_check,
                      perfect_matchings, random_bipartite_with_pm)
from extendix.extendability import (AltPathSystem, _deficient_set, check_alternating_path_system,
                                    check_bipartite_ear_decomposition)

from conftest import (assert_components_match, components_by_enumeration,
                      make_c4_pendant, make_c6, make_p4, reference_is_minimal_k_extendable)


class TestOracle:
    def test_c6_one_extendable(self):
        assert is_k_extendable_oracle(make_c6(), 1).holds

    def test_c6_not_two_extendable_with_witness(self):
        verdict = is_k_extendable_oracle(make_c6(), 2)
        assert not verdict.holds
        # first non-extendable matching in lexicographic order: the
        # remaining u3, w2 are non-adjacent in the 6-cycle
        assert verdict.witness.edges == frozenset({(0, 0), (1, 2)})

    def test_k33_two_extendable(self):
        assert is_k_extendable_oracle(complete_bipartite(3), 2).holds

    def test_disconnected_never_extendable(self):
        verdict = is_k_extendable_oracle(matching_graph(2), 1)
        assert not verdict.holds and verdict.reason == "disconnected"

    def test_k2_convention(self):
        # the single edge: reported 1-extendable, size cap flagged
        verdict = is_k_extendable_oracle(matching_graph(1), 1)
        assert verdict.holds and verdict.cap_violated

    def test_zero_extendable_is_has_pm(self):
        assert is_k_extendable_oracle(matching_graph(2), 0).holds
        assert not is_k_extendable_oracle(
            BipartiteGraph(2, frozenset({(0, 0)})), 0).holds


class TestDigraphRoute:
    def test_c6(self, c6):
        m = canonical_matching(c6)
        assert is_k_extendable_via_digraph(c6, m, 1)
        assert not is_k_extendable_via_digraph(c6, m, 2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_top_extendability(self, n):
        g = complete_bipartite(n)
        for m in perfect_matchings(g):
            assert is_k_extendable_via_digraph(g, m, n - 1)

    def test_matching_choice_is_irrelevant(self):
        for seed in range(40):
            g = random_bipartite_with_pm(4, 0.4, seed=seed)
            answers = {tuple(is_k_extendable_via_digraph(g, m, k) for k in (1, 2, 3))
                       for m in perfect_matchings(g)}
            assert len(answers) == 1


class TestNeighborhoodRoute:
    def test_k33(self):
        assert is_k_extendable_via_neighborhood(complete_bipartite(3), 2).holds

    def test_c6_witness(self):
        verdict = is_k_extendable_via_neighborhood(make_c6(), 2)
        assert not verdict.holds and verdict.deficient_set == (0,)

    def test_p4_witness(self):
        verdict = is_k_extendable_via_neighborhood(make_p4(), 1)
        assert not verdict.holds and verdict.deficient_set == (1,)


class TestMaxExtendability:
    def test_goldens(self):
        assert max_extendability(complete_bipartite(3)) == 2
        assert max_extendability(make_c6()) == 1
        assert max_extendability(make_p4()) == 0

    def test_no_perfect_matching(self):
        assert max_extendability(BipartiteGraph(2, frozenset({(0, 0)}))) == 0

    def test_disconnected(self):
        assert max_extendability(matching_graph(3)) == 0

    def test_at_n_80(self):
        assert max_extendability(random_bipartite_with_pm(80, 0.5, seed=2)) == 29

    def test_disconnected_with_perfect_matching_sweep(self):
        # no connectivity check of its own: kappa of D(G, M) is already 0;
        # disjoint unions, and sparse graphs (often disconnected), W shuffled
        graphs = [g for n in (1, 2, 3) for g in iter_bipartite_with_canonical(n)]
        rng = random.Random(21)
        for s in range(300):
            a = random_bipartite_with_pm(1 + s % 6, 0.5, seed=2 * s)
            b = random_bipartite_with_pm(1 + s % 5, 0.5, seed=2 * s + 1)
            n = a.n + b.n
            g = BipartiteGraph(n, a.edges | {(i + a.n, j + a.n) for i, j in b.edges})
            if s % 3:
                g = random_bipartite_with_pm(n, 0.15, seed=s)
            perm = rng.sample(range(n), n)
            graphs.append(BipartiteGraph(n, frozenset((i, perm[j]) for i, j in g.edges)))
        disconnected = [g for g in graphs if g.n >= 2 and not connected(g)]
        assert len(disconnected) >= 150
        assert all(max_extendability(g) == 0 for g in disconnected)

    def test_connected_without_perfect_matching_at_n12(self, tmp_path, capsys):
        # u1 and u2 see only w1, the rest is complete: enumerating matchings
        # for a first perfect one takes hours here
        from extendix.cli import main
        from extendix.fileio import write_instance

        n = 12
        g = BipartiteGraph(n, frozenset({(0, 0), (1, 0)} | {
            (i, j) for i in range(2, n) for j in range(n)}))
        assert max_extendability(g) == 0
        assert not any(is_k_extendable(g, k) for k in range(3))
        write_instance(g, tmp_path / "g.bg")
        assert main(["convert", str(tmp_path / "g.bg"), "--direction", "g2d"]) == 2
        assert "no perfect matching" in capsys.readouterr().err

    def test_monotone_by_construction(self):
        for seed in range(25):
            g = random_bipartite_with_pm(5, 0.4, seed=seed)
            top = max_extendability(g)
            for k in range(1, 5):
                assert is_k_extendable(g, k) == (k <= top)


class TestMinimality:
    def test_c6_minimal(self):
        assert is_minimal_k_extendable(make_c6(), 1).holds

    def test_k33_not_minimal_1(self):
        res = is_minimal_k_extendable(complete_bipartite(3), 1)
        assert not res.holds and res.witness == (0, 0)

    def test_k33_minimal_2_regression(self):
        # every single-edge deletion kills 2-extendability: the deletion
        # leaves some u with only two neighbors, so |N({u})| < 1 + 2
        g = complete_bipartite(3)
        by_deletion = all(not is_k_extendable_oracle(g.without_edge(e), 2).holds
                          for e in g.sorted_edges())
        assert by_deletion
        assert is_minimal_k_extendable(g, 2).holds

    @staticmethod
    def _outcome(route, g, k):
        try:
            return route(g, k)
        except ValueError as exc:  # compared, message and all
            return str(exc)

    def _same_as_the_per_edge_route(self, graphs, ks) -> int:
        """Assert ``is_minimal_k_extendable`` gives what the per-edge route
        gives, ValueError included, on every graph at every k; return how
        many results held, so a caller can see the corpus is not trivial."""
        held = 0
        for g in graphs:
            for k in ks:
                new = self._outcome(is_minimal_k_extendable, g, k)
                assert new == self._outcome(reference_is_minimal_k_extendable, g, k), (g, k)
                held += getattr(new, "holds", False)
        return held

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_small_graph_matches_the_per_edge_route(self, n):
        cells = [(i, j) for i in range(n) for j in range(n)]
        graphs = [BipartiteGraph(n, frozenset(c for b, c in enumerate(cells) if mask >> b & 1))
                  for mask in range(1 << len(cells))]
        held = self._same_as_the_per_edge_route(graphs, range(-1, n + 2))
        assert held or n == 0

    @pytest.mark.parametrize("relabel", [False, True])
    def test_order_4_matches_the_per_edge_route(self, relabel):
        """Every graph with the canonical matching at order 4, as given and
        with W relabelled by j -> (j + 1) mod 4, so that the perfect
        matching found is not the identity."""
        shift = [1, 2, 3, 0] if relabel else [0, 1, 2, 3]
        graphs = [BipartiteGraph(4, frozenset((i, shift[j]) for i, j in g.edges))
                  for g in iter_bipartite_with_canonical(4)]
        assert self._same_as_the_per_edge_route(graphs, range(4))

    def test_seeded_graphs_match_the_per_edge_route(self):
        """Seeded graphs with n = 5..20 under a random W relabelling, at
        k = 0..3: random ones of three densities, and the circulants
        u_i ~ w_(i+s), 0 <= s <= r, which are minimal r-extendable, each
        also with one random edge added, which is then the edge found."""
        rng = random.Random(36)
        graphs = []
        for n in range(5, 21):
            edge_sets = [random_bipartite_with_pm(n, p, seed=rng.randrange(10 ** 6)).edges
                         for p in (0.25, 0.45, 0.7) for _ in range(2)]
            for r in (1, 2, 3):
                circulant = {(i, (i + s) % n) for i in range(n) for s in range(r + 1)}
                extra = {(rng.randrange(n), rng.randrange(n))}
                edge_sets += [circulant, circulant | extra]
            for edges in edge_sets:
                perm = rng.sample(range(n), n)
                graphs.append(BipartiteGraph(n, frozenset((i, perm[j]) for i, j in edges)))
        assert self._same_as_the_per_edge_route(graphs, range(4))

    def test_the_edges_are_settled_on_one_digraph(self):
        """One D(G, M), and no graph copy or decision per edge: on
        B(C_8(1, 2)), minimal 2-extendable, every edge is walked."""
        import extendix.extendability as extendability

        built = []
        original = extendability.digraph_of

        def counting(g, m):
            built.append(g)
            return original(g, m)

        def refuse(*args):
            raise AssertionError("per-edge route taken")

        g = BipartiteGraph(8, frozenset((i, (i + s) % 8) for i in range(8) for s in (0, 1, 2)))
        with mock.patch.object(extendability, "digraph_of", counting), \
                mock.patch.object(extendability, "is_k_extendable", refuse), \
                mock.patch.object(BipartiteGraph, "without_edge", refuse):
            assert is_minimal_k_extendable(g, 2).holds
            assert built == [g]
            assert is_minimal_k_extendable(g, 1).witness == (0, 0)
            assert not is_minimal_k_extendable(g, 3).holds
        assert len(built) == 3

    def test_transfer_c6(self):
        rep = minimality_transfer_check(make_c6(), canonical_matching(make_c6()), 1)
        assert rep.ok
        assert rep.digraph == directed_cycle(3)

    def test_transfer_precondition(self):
        g = complete_bipartite(3)
        with pytest.raises(ValueError):
            minimality_transfer_check(g, canonical_matching(g), 1)


class TestBipartiteEars:
    def test_c6_single_ear_from_any_edge(self):
        g = make_c6()
        for e in g.sorted_edges():
            dec = bipartite_ear_decomposition(g, e)
            assert dec.ear_count == 1
            assert len(dec.ears[0]) == 6  # 5 edges
            assert not check_bipartite_ear_decomposition(g, dec)

    def test_k22(self):
        g = complete_bipartite(2)
        dec = bipartite_ear_decomposition(g, (0, 0))
        assert dec.ear_count == 1
        assert not check_bipartite_ear_decomposition(g, dec)
        covered = {tuple(dec.base_edge)}
        for ear in dec.ears:
            for a, b in zip(ear, ear[1:]):
                covered.add((a[1], b[1]) if a[0] == "u" else (b[1], a[1]))
        assert covered == set(g.edges)

    def test_p4_rejected(self):
        with pytest.raises(ValueError):
            bipartite_ear_decomposition(make_p4(), (0, 0))

    def test_k2_trivial(self):
        dec = bipartite_ear_decomposition(matching_graph(1), (0, 0))
        assert dec.ear_count == 0 and dec.matching.is_perfect

    def test_induced_matching_contains_base(self):
        g = complete_bipartite(3)
        for e in g.sorted_edges():
            dec = bipartite_ear_decomposition(g, e)
            assert tuple(e) in dec.matching.edges
            assert not check_bipartite_ear_decomposition(g, dec)


class TestAlternatingPaths:
    def test_c6_matching_pair(self, c6):
        m = canonical_matching(c6)
        system = alternating_path_system(c6, m, 0, 0, 1)
        assert system.paths == (
            (("u", 0), ("w", 1), ("u", 1), ("w", 2), ("u", 2), ("w", 0)),)

    def test_k33_nonmatching_pair_two_paths(self, k33):
        m = canonical_matching(k33)
        system = alternating_path_system(k33, m, 0, 1, 2)
        assert len(system.paths) == 2
        assert not check_alternating_path_system(k33, system)

    @pytest.mark.parametrize("w", [0, 1], ids=["matching-pair", "non-matching-pair"])
    def test_k0_gives_no_paths(self, c6, w):
        """Any G with a perfect matching is 0-extendable, so k = 0 asks for
        an empty system, not for paths of some earlier flow."""
        m = canonical_matching(c6)
        system = alternating_path_system(c6, m, 0, w, 0)
        assert system.paths == ()
        assert not check_alternating_path_system(c6, system)

    def test_an_empty_path_is_a_problem_of_its_own(self, c6):
        """An empty path is reported by its place and read by no other
        check; the paths around it keep their places."""
        m = canonical_matching(c6)
        assert check_alternating_path_system(c6, AltPathSystem(((),), m, 0, 1)) == [
            "path 1 is empty"]
        walk = (("u", 0), ("w", 1))
        system = AltPathSystem(((), walk, (), walk), m, 0, 1)
        assert check_alternating_path_system(c6, system) == [
            "path 1 is empty", "path 3 is empty", "duplicate path"]

    def test_p4_rejected(self):
        g = make_p4()
        with pytest.raises(ValueError):
            alternating_path_system(g, canonical_matching(g), 0, 1, 1)

    def test_every_pair_on_k_extendable_instances(self):
        for seed in range(15):
            g = random_bipartite_with_pm(4, 0.5, seed=seed)
            top = max_extendability(g)
            for m in list(perfect_matchings(g))[:2]:
                for k in range(1, top + 1):
                    for u in range(g.n):
                        for w in range(g.n):
                            system = alternating_path_system(g, m, u, w, k)
                            assert len(system.paths) == k
                            assert not check_alternating_path_system(g, system)

    def test_positive_certificate_decides_once(self, monkeypatch):
        """At k = 2, where the fan paths are read off the one decision (the
        reach trees of k = 1 are their own decision)."""
        import extendix.extendability as ext
        from extendix.certify import build_certificate, check_certificate

        calls = []
        decide = ext.is_k_strong
        monkeypatch.setattr(ext, "is_k_strong",
                            lambda d, k, proof=None: calls.append(k) or decide(d, k, proof))
        g = random_bipartite_with_pm(14, 0.45, seed=2)
        cert = build_certificate(g, "k-extendable", 2)
        assert cert.verdict and calls == [2]
        assert check_certificate(cert) == []

    @pytest.mark.parametrize("g, k, kind", [
        (random_bipartite_with_pm(14, 0.45, seed=2), 0, "perfect-matching"),
        (random_bipartite_with_pm(14, 0.45, seed=2), 2, "fan-paths"),
        (random_bipartite_with_pm(14, 0.45, seed=2), 3, "deficient-set"),
        (BipartiteGraph(3, frozenset({(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)})), 1,
         "no-perfect-matching"),
        (random_bipartite_with_pm(14, 0.45, seed=2), 1, "reach-trees")])
    def test_certificate_takes_one_maximum_matching(self, g, k, kind):
        import extendix.certify as cert_mod
        import extendix.extendability as ext
        import extendix.matching as mat

        spy = mock.Mock(wraps=mat.max_matching_pairs)
        with mock.patch.object(cert_mod, "max_matching_pairs", spy), \
                mock.patch.object(ext, "max_matching_pairs", spy), \
                mock.patch.object(mat, "max_matching_pairs", spy):
            cert = cert_mod.build_certificate(g, "k-extendable", k)
        assert cert.witness_kind == kind and spy.call_count == 1

    def test_negative_certificate_decides_once(self, monkeypatch):
        import extendix.certify as cert_mod
        import extendix.extendability as ext
        from extendix import connected
        from extendix.certify import build_certificate, check_certificate

        calls = []
        for mod in (ext, cert_mod):
            monkeypatch.setattr(mod, "is_k_strong",
                                lambda d, k, proof=None, decide=mod.is_k_strong:
                                calls.append(k) or decide(d, k, proof))
        failing = 0
        for seed in range(6):
            g = random_bipartite_with_pm(24, 0.25, seed=seed)
            if not connected(g):
                continue
            k = max_extendability(g) + 1
            calls.clear()
            cert = build_certificate(g, "k-extendable", k)
            assert cert.witness_kind == "deficient-set" and calls == [k]
            assert check_certificate(cert) == []
            failing += 1
        assert failing >= 3


def _random_bipartite(n: int, p: float, seed: int) -> BipartiteGraph:
    """Each of the n^2 edges independently, so a perfect matching may lack."""
    import random

    rng = random.Random(seed)
    return BipartiteGraph(n, frozenset((i, j) for i in range(n) for j in range(n)
                                       if rng.random() < p))


class TestDeficientSet:
    """``_deficient_set`` decides k-extendability and builds the witness
    in one routine."""

    @staticmethod
    def _check(g, k, extendable):
        x = _deficient_set(g, k)
        assert (x is None) == extendable, (g, k)
        if x is not None:
            assert x == sorted(set(x)) and all(0 <= i < g.n for i in x)
            assert 1 <= len(x) <= g.n - k
            assert len({j for i in x for j in g.u_neighbors(i)}) < len(x) + k

    def test_every_graph_up_to_n3_against_the_oracle(self):
        from extendix import bipartite_of_matrix, iter_matrices

        for n in (1, 2, 3):
            for a in iter_matrices(n):
                g = bipartite_of_matrix(a)
                for k in range(n):
                    self._check(g, k, is_k_extendable_oracle(g, k).holds)

    def test_seeded_graphs_against_the_neighbourhood_route(self):
        from extendix import has_perfect_matching

        for i in range(160):
            n = 4 + i % 17
            p = (0.15, 0.25, 0.4, 0.6)[i % 4]
            g = (random_bipartite_with_pm if i % 3 else _random_bipartite)(n, p, 300 + i)
            ext = max_extendability(g)
            for k in range(n):
                if k == 0:
                    self._check(g, 0, has_perfect_matching(g))
                elif n <= 10 or (n <= 14 and k > ext):
                    self._check(g, k, is_k_extendable_via_neighborhood(g, k).holds)
                else:
                    self._check(g, k, k <= ext)

    def test_koenig_set_without_a_perfect_matching(self):
        # u1 and u2 see only w1: the Hall violator is {u1, u2}
        n = 5
        g = BipartiteGraph(n, frozenset({(0, 0), (1, 0)} | {(i, j) for i in range(2, n)
                                                              for j in range(n)}))
        assert _deficient_set(g, 0) == [0, 1]
        assert _deficient_set(g, 1) == [0, 1]
        assert _deficient_set(g, 4) == [0]


class TestElementaryComponents:
    def test_p4_two_singletons(self):
        cm = elementary_components(make_p4())
        assert len(cm.elementary) == 0
        assert len(cm.fixed_double_singletons) == 2
        assert {p.scc for p in cm.pieces} == {frozenset({0}), frozenset({1})}

    def test_c4_pendant(self):
        cm = elementary_components(make_c4_pendant())
        kinds = [(p.kind, sorted(p.u_vertices), sorted(p.scc)) for p in cm.pieces]
        assert kinds == [("elementary", [0, 1], [0, 1]),
                         ("fixed_double", [2], [2])]
        assert cm.fixed_single_edges == frozenset({(1, 2)})

    def test_c6_single_component(self):
        cm = elementary_components(make_c6())
        assert len(cm.pieces) == 1
        assert cm.pieces[0].kind == "elementary"
        assert cm.pieces[0].scc == frozenset({0, 1, 2})

    def test_no_perfect_matching_rejected(self):
        with pytest.raises(ValueError):
            elementary_components(BipartiteGraph(2, frozenset({(0, 0)})))

    def test_alignment_verified_for_every_matching(self):
        for seed in range(30):
            g = random_bipartite_with_pm(5, 0.3, seed=seed)
            oracle = components_by_enumeration(g)
            for m in perfect_matchings(g):
                cm = elementary_components(g, m)
                assert_components_match(cm, oracle)
                assert sum(len(p.u_vertices) for p in cm.pieces) == g.n

    def test_default_matching_is_maximum(self):
        g = random_bipartite_with_pm(6, 0.4, seed=3)
        cm = elementary_components(g)
        assert cm.matching == max_matching(g)
        assert_components_match(cm, components_by_enumeration(g))


@pytest.mark.parametrize("target", ["matching.classify_edges",
                                    "extendability.elementary_components"])
def test_one_matching_digraph_and_component_pass(target, monkeypatch):
    import importlib
    import sys

    counts = {}
    for module_path, name in (("extendix.matching", "max_matching_pairs"),
                              ("extendix.correspond", "digraph_of"),
                              ("extendix.connectivity", "strong_components")):
        original = getattr(importlib.import_module(module_path), name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        # rebind the name wherever the package binds it
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("extendix") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    module_name, func_name = target.split(".")
    func = getattr(importlib.import_module(f"extendix.{module_name}"), func_name)
    func(random_bipartite_with_pm(30, 0.1, seed=11))
    assert counts == {"max_matching_pairs": 1, "digraph_of": 1, "strong_components": 1}


class TestAudits:
    def test_c6_degree_audit(self):
        rep = minimal_k_extendable_degree_audit(make_c6(), 1)
        assert rep.ok
        assert (rep.degree_k_plus_1_total, rep.degree_k_plus_1_u,
                rep.degree_k_plus_1_w) == (6, 3, 3)

    def test_k33_rejected(self):
        with pytest.raises(ValueError):
            minimal_k_extendable_degree_audit(complete_bipartite(3), 1)

    def test_c6_forest_check_vacuous(self):
        rep = high_degree_subgraph_forest_check(make_c6(), 1)
        assert rep.ok and rep.qualifying_edges == frozenset()
        assert rep.digraph_trail is None

    def test_cycle_of_qualifying_edges(self):
        from extendix.connectivity import _bipartite_cycle

        # the first edge to close a cycle is u3w1; the cycle starts there
        c6_edges = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)}
        assert _bipartite_cycle(sorted(c6_edges)) == \
            ((2, 0), (0, 0), (0, 1), (1, 1), (1, 2), (2, 2))
        assert _bipartite_cycle(sorted({(0, 0), (0, 1), (1, 1)})) is None

    def test_forest_check_reads_the_decisions_digraph(self):
        """The forest check runs on the D(G, M) that the minimality decision
        built: one digraph and one maximum matching."""
        import extendix as ex
        import extendix.extendability as ext
        import extendix.matching as mat

        spies = {name: mock.Mock(wraps=getattr(ext, name))
                 for name in ("digraph_of", "max_matching_pairs")}
        with mock.patch.object(ext, "digraph_of", spies["digraph_of"]), \
                mock.patch.object(ext, "max_matching_pairs", spies["max_matching_pairs"]), \
                mock.patch.object(mat, "max_matching_pairs", spies["max_matching_pairs"]):
            rep = high_degree_subgraph_forest_check(ex.cycle_bipartite(5), 1)
        assert rep.ok
        assert [spy.call_count for spy in spies.values()] == [1, 1]

    def test_forest_check_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            high_degree_subgraph_forest_check(complete_bipartite(3), 1)

    def test_oracle_guard(self):
        from extendix import TooLargeError

        with pytest.raises(TooLargeError):
            is_k_extendable_oracle(complete_bipartite(10), 1)
