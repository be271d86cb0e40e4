"""Acceptance criteria, one test per criterion.

Every criterion is exact (zero tolerated disagreements); each test prints
one PASS line when it completes (visible under ``pytest -s``).  The seeded
suites are deterministic, so reruns check byte-identical ground.
"""

from __future__ import annotations

import pytest

from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, complete_bipartite,
                      count_perfect_matchings, cycle_bipartite, cycles_through_vertex,
                      digraph_of, ear_decomposition_digraph, elementary_components,
                      first_perfect_matching, has_perfect_matching,
                      is_k_extendable_oracle, is_k_extendable_via_neighborhood,
                      is_minimal_k_extendable, is_strong,
                      iter_bipartite_with_canonical, iter_digraphs, iter_matrices,
                      alternating_path_system, menger_paths,
                      minimal_k_strong_degree_audit, minimal_k_extendable_degree_audit,
                      high_degree_subgraph_forest_check, anti_directed_trail_find,
                      bipartite_ear_decomposition, diagonals,
                      irreducible_indecomposable_cross_check, is_k_partly_decomposable,
                      is_k_reducible, is_partly_decomposable, is_reducible,
                      k_partly_decomposable_by_blocks, k_reducible_by_blocks,
                      minimality_transfer_check, perfect_matchings,
                      reducible_by_permutation_search, unique_pm_acyclic_check,
                      vertex_connectivity)
from extendix.connectivity import (check_ear_decomposition_digraph,
                                   check_path_system, EarDecompositionD)
from extendix.extendability import (check_alternating_path_system,
                                    check_bipartite_ear_decomposition)
from extendix.matrixlab import (fully_indecomposable_by_diagonals,
                                has_positive_main_diagonal)
from extendix.search import (find_minimality_counterexamples,
                             minimal_k_extendable_graphs, minimal_k_strong_digraphs)

from conftest import (assert_components_match, components_by_enumeration,
                      minimal_strong, random_graph_suite, random_matrix_suite)


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS - {text}")


@pytest.fixture(scope="module")
def exhaustive_graphs():
    out = []
    for n in (2, 3):
        out.extend(iter_bipartite_with_canonical(n))
    return out


@pytest.fixture(scope="module")
def random_graphs():
    return random_graph_suite(500)


@pytest.fixture(scope="module")
def all_graphs(exhaustive_graphs, random_graphs):
    return exhaustive_graphs + random_graphs


def test_criterion_01_three_route_equivalence(all_graphs):
    """Oracle k-extendability == k-strength of the derived digraph (for
    every perfect matching) == neighborhood criterion, for k in 1..n-1."""
    checked_pairs = 0
    for g in all_graphs:
        n = g.n
        oracle = {k: is_k_extendable_oracle(g, k).holds for k in range(1, n)}
        nbhd = {k: is_k_extendable_via_neighborhood(g, k).holds for k in range(1, n)}
        kappas = set()
        for m in perfect_matchings(g):
            d, _ = digraph_of(g, m)
            kappas.add(vertex_connectivity(d))
            checked_pairs += 1
        assert len(kappas) == 1, f"digraph route depends on the matching for {g}"
        kappa = kappas.pop()
        for k in range(1, n):
            assert oracle[k] == (kappa >= k) == nbhd[k], \
                f"route disagreement on {g} at k={k}"
    assert checked_pairs > 568  # every instance contributed every matching
    _report(1, f"three routes agree on {len(all_graphs)} instances, "
               f"{checked_pairs} (graph, matching) pairs, k up to n-1")


def test_criterion_02_one_extendable_iff_strong_and_unique_pm_acyclic(all_graphs):
    unique_count = 0
    for g in all_graphs:
        one_ext = is_k_extendable_oracle(g, 1).holds
        for m in perfect_matchings(g):
            d, _ = digraph_of(g, m)
            assert one_ext == is_strong(d), f"strong mismatch on {g}"
        if count_perfect_matchings(g) == 1:
            unique_count += 1
            assert unique_pm_acyclic_check(g).acyclic, f"cyclic digraph on {g}"
    # the single-edge convention: B(single vertex digraph) is 1-extendable
    k2 = BipartiteGraph(1, frozenset({(0, 0)}))
    verdict = is_k_extendable_oracle(k2, 1)
    assert verdict.holds and verdict.cap_violated
    assert is_strong(Digraph(1, frozenset()))
    _report(2, f"1-extendable iff strong on all instances; {unique_count} "
               f"unique-matching instances all derived acyclic digraphs")


def test_criterion_03_components_align(all_graphs):
    pieces_total = 0
    for g in all_graphs:
        oracle = components_by_enumeration(g)
        for m in perfect_matchings(g):
            cm = elementary_components(g, m)
            assert_components_match(cm, oracle)
            pieces_total += len(cm.pieces)
            for piece in cm.pieces:
                part = piece.matching_part
                assert frozenset(e[0] for e in part) == piece.u_vertices
                assert frozenset(e[1] for e in part) == piece.w_vertices
    _report(3, f"elementary pieces align with strong components on every "
               f"(graph, matching) pair; {pieces_total} pieces checked")


def test_criterion_04_matrix_battery():
    matrices = list(iter_matrices(3)) + random_matrix_suite(300)
    assert len(matrices) == 812
    from extendix.matrixlab import k_reducible_by_permutation_search

    for a in matrices:
        n = a.n
        red = is_reducible(a).holds
        assert red == reducible_by_permutation_search(a)
        assert red == k_reducible_by_blocks(a, 1)
        for k in range(1, n + 1):
            assert is_k_reducible(a, k).holds == k_reducible_by_blocks(a, k)
            assert k_reducible_by_blocks(a, k) == \
                k_reducible_by_permutation_search(a, k)
        pd = is_partly_decomposable(a).holds
        assert pd == k_partly_decomposable_by_blocks(a, 1)
        assert pd == (not fully_indecomposable_by_diagonals(a))
        for k in range(0, n):
            assert is_k_partly_decomposable(a, k).holds == \
                k_partly_decomposable_by_blocks(a, k)
        if not pd:
            assert not red  # fully indecomposable implies irreducible
        for k in range(1, n):
            rep = irreducible_indecomposable_cross_check(a, k)
            assert rep.ok, f"{a} k={k}: {rep.violations}"
            if has_positive_main_diagonal(a):
                assert rep.k_indecomposable == rep.digraph_k_strong
    _report(4, f"definitional block/permutation oracles match the graph "
               f"routes on {len(matrices)} matrices, all k")


def test_criterion_05_ear_decompositions():
    digraph_count = 0
    for n in (2, 3, 4):
        for d in iter_digraphs(n):
            if is_strong(d):
                dec = ear_decomposition_digraph(d)
                assert not check_ear_decomposition_digraph(d, dec)
                assert dec.arcs() == set(d.arcs)  # reassembly arc-exact
                digraph_count += 1
            else:
                with pytest.raises(ValueError):
                    ear_decomposition_digraph(d)

    bipartite_count = 0
    for n in (1, 2, 3):
        for g in iter_bipartite_with_canonical(n):
            one_ext = is_k_extendable_oracle(g, 1).holds
            for e in g.sorted_edges():
                if not one_ext:
                    with pytest.raises(ValueError):
                        bipartite_ear_decomposition(g, e)
                    continue
                dec = bipartite_ear_decomposition(g, e)
                assert not check_bipartite_ear_decomposition(g, dec)
                bipartite_count += 1
                # the induced matching is the unique one whose restriction
                # to every prefix is perfect there
                prefix_ok = [m for m in perfect_matchings(g)
                             if _has_prefix_property(g, dec, m)]
                assert prefix_ok == [dec.matching]
                # and the ears project onto a digraph ear decomposition
                if g.n >= 2:
                    d, cmap = digraph_of(g, dec.matching)
                    dears = _project_ears(cmap, dec)
                    assert not check_ear_decomposition_digraph(d, dears)
    _report(5, f"ear decompositions succeed exactly on strong digraphs "
               f"({digraph_count}) and 1-extendable graphs from every edge "
               f"({bipartite_count} decompositions), reassembly exact")


def _has_prefix_property(g, dec, m) -> bool:
    edges = {tuple(dec.base_edge)}
    if not _restriction_perfect(edges, m):
        return False
    for ear in dec.ears:
        for a, b in zip(ear, ear[1:]):
            edges.add((a[1], b[1]) if a[0] == "u" else (b[1], a[1]))
        if not _restriction_perfect(edges, m):
            return False
    return True


def _restriction_perfect(edges, m) -> bool:
    us = {e[0] for e in edges}
    ws = {e[1] for e in edges}
    inside = {e for e in m.edges if e in edges}
    return ({e[0] for e in inside} == us) and ({e[1] for e in inside} == ws)


def _project_ears(cmap, dec) -> EarDecompositionD:
    inverse = {orig: new for new, orig in enumerate(cmap.w_relabel)}
    ears = []
    for walk in dec.ears:
        seq = [walk[0][1]]
        seq += [inverse[v] for side, v in walk[1:] if side == "w"]
        ears.append(tuple(seq))
    return EarDecompositionD(tuple(ears))


def test_criterion_06_path_system_machinery(exhaustive_graphs, random_graphs):
    # digraph images of the exhaustive sets: full pair coverage
    menger_checked = cycles_checked = 0
    for g in exhaustive_graphs:
        for m in perfect_matchings(g):
            d, _ = digraph_of(g, m)
            kappa = vertex_connectivity(d)
            for k in range(1, kappa + 1):
                for s in range(d.n):
                    for t in range(d.n):
                        if s == t:
                            continue
                        ps = menger_paths(d, s, t, k)
                        assert len(ps.paths) == k
                        assert not check_path_system(d, ps)
                        menger_checked += 1
                for x in range(d.n):
                    cycles = cycles_through_vertex(d, x, k)
                    assert len(cycles) == k
                    for a in range(k):
                        for b in range(a + 1, k):
                            assert set(cycles[a]) & set(cycles[b]) == {x}
                    cycles_checked += 1

    # sampled random images, higher n
    for g in random_graphs[:40]:
        m = first_perfect_matching(g)
        d, _ = digraph_of(g, m)
        kappa = vertex_connectivity(d)
        for k in range(1, kappa + 1):
            for s, t in [(0, g.n - 1), (g.n - 1, 0), (0, 1)]:
                if s == t:
                    continue
                ps = menger_paths(d, s, t, k)
                assert len(ps.paths) == k and not check_path_system(d, ps)
                menger_checked += 1
            cycles = cycles_through_vertex(d, 0, k)
            assert len(cycles) == k
            cycles_checked += 1

    # alternating path systems on every k-extendable instance
    alt_checked = 0
    for g in exhaustive_graphs + random_graphs[:80]:
        m = first_perfect_matching(g)
        d, _ = digraph_of(g, m)
        kappa = vertex_connectivity(d)
        pairs = [(u, w) for u in range(g.n) for w in range(g.n)] if g.n <= 3 \
            else [(0, 0), (0, g.n - 1), (g.n - 1, 0), (1, 1)]
        for k in range(1, kappa + 1):
            for u, w in pairs:
                system = alternating_path_system(g, m, u, w, k)
                assert len(system.paths) == k
                assert not check_alternating_path_system(g, system)
                alt_checked += 1
    assert menger_checked and cycles_checked and alt_checked
    _report(6, f"{menger_checked} Menger systems, {cycles_checked} cycle "
               f"bundles, {alt_checked} alternating systems all verified")


@pytest.fixture(scope="module")
def minimal_instances():
    strong_1 = {n: list(minimal_strong(n, 1)) for n in (2, 3, 4, 5)}
    strong_2 = {n: list(minimal_k_strong_digraphs(n, 2)) for n in (3, 4)}
    extendable_1 = {n: list(minimal_k_extendable_graphs(n, 1)) for n in (1, 2, 3, 4)}
    return strong_1, strong_2, extendable_1


def test_criterion_07_degree_audits_on_minimal_instances(minimal_instances):
    strong_1, strong_2, extendable_1 = minimal_instances

    # the arc-count cap used to prune the n=5 sweep, corroborated raw
    for n in (2, 3, 4):
        assert all(d.m <= 2 * n - 2 for d in strong_1[n])

    audited = 0
    for k, family in ((1, strong_1), (2, strong_2)):
        for n, ds in family.items():
            assert ds, f"no minimal {k}-strong digraphs found for n={n}"
            for d in ds:
                rep = minimal_k_strong_degree_audit(d, k)
                assert rep.ok, f"degree audit failed on {d}"
                assert anti_directed_trail_find(d, k) is None
                audited += 1

    graphs_audited = 0
    for n, gs in extendable_1.items():
        for g in gs:
            rep = minimal_k_extendable_degree_audit(g, 1)
            assert rep.ok, f"degree audit failed on {g}"
            forest = high_degree_subgraph_forest_check(g, 1)
            assert forest.ok and forest.digraph_trail is None
            graphs_audited += 1
    # the even cycles are among the minimal 1-extendable graphs
    for n in (2, 3, 4):
        assert cycle_bipartite(n) in extendable_1[n]
    _report(7, f"{audited} minimal k-strong digraphs and {graphs_audited} "
               f"minimal 1-extendable graphs pass every degree/forest audit")


def test_criterion_08_minimality_transfer_and_its_converse_failure(minimal_instances):
    _, _, extendable_1 = minimal_instances
    transferred = 0
    for gs in extendable_1.values():
        for g in gs:
            for m in perfect_matchings(g):
                rep = minimality_transfer_check(g, m, 1)
                assert rep.ok, f"transfer failed on {g} with {m}"
                transferred += 1

    hits = find_minimality_counterexamples(6, 1, limit=1)
    assert hits, "no transfer counterexample found up to n=6"
    d0, g0, edge = hits[0]
    from extendix.connectivity import is_minimal_k_strong
    from extendix.extendability import is_k_extendable

    assert is_minimal_k_strong(d0, 1).holds
    assert is_k_extendable(g0, 1)
    assert not is_minimal_k_extendable(g0, 1).holds
    assert is_k_extendable(g0.without_edge(edge), 1)
    assert edge[0] == edge[1]  # necessarily a matching edge

    # the CLI search surfaces the same phenomenon
    from extendix.cli import main

    assert main(["search", "--target", "minimality_counterexample",
                 "--n-max", "6", "--k", "1", "--limit", "1"]) == 0
    _report(8, f"minimality transfers on {transferred} (graph, matching) "
               f"pairs; converse fails already at n={d0.n}")


def test_criterion_09_zero_matching_boundary():
    for n in (1, 2, 3):
        for a in iter_matrices(n):
            zero_indec = not is_k_partly_decomposable(a, 0).holds
            zero_indec_blocks = not k_partly_decomposable_by_blocks(a, 0)
            from extendix import bipartite_of_matrix

            pm = has_perfect_matching(bipartite_of_matrix(a))
            nonzero_diag = any(True for _ in diagonals(a, zero_count=0))
            assert zero_indec == zero_indec_blocks == pm == nonzero_diag, a
    _report(9, "0-indecomposable == perfect matching exists == nonzero "
               "diagonal exists, exhaustively to order 3")


def test_criterion_10_cli_contract(tmp_path):
    from extendix.cli import main
    from extendix.fileio import read_certificate, write_instance

    instances = {
        "c6.bg": cycle_bipartite(3),
        "k33.bg": complete_bipartite(3),
        "p4.bg": BipartiteGraph(2, frozenset({(0, 0), (0, 1), (1, 1)})),
        "d3.dg": Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)})),
        "k4.dg": Digraph(4, frozenset((i, j) for i in range(4)
                                      for j in range(4) if i != j)),
        "j3.mat": ZeroOneMatrix.ones(3),
        "tri.mat": ZeroOneMatrix(((1, 1), (0, 1))),
    }
    paths = {}
    for name, obj in instances.items():
        p = tmp_path / name
        write_instance(obj, p)
        paths[name] = str(p)

    # every certificate the tool emits must re-verify, holds or fails
    claim_of = {"bg": "k-extendable", "dg": "k-strong"}
    certs = 0
    for name, path in paths.items():
        kind = name.split(".")[1]
        claims = [claim_of[kind]] if kind != "mat" else \
            ["k-indecomposable", "k-irreducible"]
        obj = instances[name]
        for claim in claims:
            lo = 0 if claim in ("k-extendable", "k-indecomposable") else 1
            for k in range(max(lo, 1) if claim == "k-irreducible" else lo, obj.n):
                cert_path = str(tmp_path / f"{name}.{claim}.{k}.cert")
                code = main(["certify", path, "--claim", claim, "--k", str(k),
                             "--out", cert_path])
                assert code in (0, 1)
                cert = read_certificate(cert_path)
                assert cert.verdict == (code == 0)
                assert main(["verify", cert_path]) == 0
                certs += 1

    # conversion round trips are file-exact
    for name in ("c6.bg", "k33.bg", "p4.bg"):
        out_d = str(tmp_path / (name + ".dg"))
        back = str(tmp_path / (name + ".back"))
        if main(["convert", paths[name], "--direction", "g2d", "--out", out_d]) == 0:
            assert main(["convert", out_d, "--direction", "d2g", "--out", back]) == 0
            assert open(back).read() == open(paths[name]).read()
        out_m = str(tmp_path / (name + ".mat"))
        back_m = str(tmp_path / (name + ".backm"))
        assert main(["convert", paths[name], "--direction", "g2m", "--out", out_m]) == 0
        assert main(["convert", out_m, "--direction", "m2g", "--out", back_m]) == 0
        assert open(back_m).read() == open(paths[name]).read()

    # exit codes: 2 on parse trouble, 3 on exhausted searches
    bad = tmp_path / "bad.bg"
    bad.write_text("bg 1 2\n1 1\n")
    assert main(["analyze", str(bad)]) == 2
    assert main(["search", "--target", "minimal_k_strong", "--n-max", "2",
                 "--k", "2"]) == 3

    # determinism under fixed seeds
    a, b = str(tmp_path / "ra.bg"), str(tmp_path / "rb.bg")
    for out in (a, b):
        assert main(["randgen", "--kind", "bg", "--n", "6", "--p", "0.3",
                     "--seed", "11", "--out", out]) == 0
    assert open(a).read() == open(b).read()
    cert_a = str(tmp_path / "sa.cert")
    cert_b = str(tmp_path / "sb.cert")
    for out in (cert_a, cert_b):
        main(["certify", paths["k33.bg"], "--claim", "k-extendable", "--k", "2",
              "--out", out])
    assert open(cert_a).read() == open(cert_b).read()
    _report(10, f"{certs} certificates re-verified; conversions file-exact; "
                f"exit codes and seeded determinism hold")
