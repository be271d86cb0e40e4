"""Self-tests of the benchmark: references, inputs, span arithmetic, the
op time cap and the trace wrappers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import random

import gen
import ref
import run
import tracing


# ---------------------------------------------------------------------------
# references


def _all_digraphs(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(cells)):
        yield [c for b, c in enumerate(cells) if mask >> b & 1]


def test_kappa_matches_brute_force_on_every_digraph_up_to_4():
    for n in range(1, 5):
        for arcs in _all_digraphs(n):
            assert ref.kappa(n, arcs) == ref.kappa_brute(n, arcs), (n, arcs)


def test_bit_mask_strong_connectivity_matches_networkx():
    import networkx as nx

    for n in range(1, 5):
        for arcs in _all_digraphs(n):
            assert ref.strongly_connected(n, arcs) == nx.is_strongly_connected(
                ref.digraph(n, arcs)), (n, arcs)


def test_kappa_matches_brute_force_on_seeded_digraphs_up_to_10():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(5, 10)
        arcs = gen.random_digraph_arcs(n, rng.choice((0.3, 0.5, 0.7, 0.9)), trial)
        assert ref.kappa(n, arcs) == ref.kappa_brute(n, arcs), (n, arcs)


def test_node_connectivity_pitfall_is_real():
    """The two digraphs named in the README, where networkx's
    node_connectivity disagrees with the definition."""
    import networkx as nx

    arcs = gen.random_digraph_arcs(6, 0.4, 2)
    assert ref.kappa_brute(6, arcs) == 0 != nx.node_connectivity(ref.digraph(6, arcs))
    arcs = gen.random_digraph_arcs(10, 0.6, 1)
    assert ref.kappa(10, arcs) == ref.kappa_brute(10, arcs) == 3
    assert nx.node_connectivity(ref.digraph(10, arcs)) == 4


def test_permanent_and_lex_first_matching_by_brute_force():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(1, 6)
        edges = gen.random_bipartite_edges(n, 0.4, trial)
        if trial % 3 == 0:
            edges = [e for e in edges if rng.random() < 0.8]
        pms = [p for p in itertools.permutations(range(n))
               if all((i, p[i]) in edges for i in range(n))]
        assert ref.permanent(n, edges) == len(pms)
        lex = ref.lex_first_perfect_matching(n, edges)
        assert (lex is None) == (not pms)
        if pms:
            assert tuple(lex[i] for i in range(n)) == min(pms)


def test_constructed_families_agree_with_the_general_reference():
    for n, h in ((6, 2), (7, 3), (8, 4)):
        rows = gen.block_triangular_rows(n, h)
        built = ref.block_triangular_verdicts(n, h)
        general = ref.matrix_verdicts(rows)
        assert general["indec"] == built["indec"] and general["irred"] == built["irred"]
        assert general["irreducible"] == built["irreducible"]
        assert ref.permanent(n, built["ones"]) == built["perm"]
    for seed in range(10):
        rows = gen.no_pm_matrix_rows(8, 0.5, seed)
        assert ref.permanent(8, [(i, j) for i in range(8) for j in range(8) if rows[i][j]]) == 0
    info = ref.extendability(8, gen.no_pm_bipartite_edges(8))
    assert info["connected"] and not info["has_pm"]


# ---------------------------------------------------------------------------
# inputs


def test_generators_draw_like_the_library():
    from extendix.core import random_bipartite_with_pm, random_digraph

    for n, p, s in ((6, 0.3, 1), (9, 0.5, 4), (12, 0.7, 9)):
        assert gen.random_digraph_arcs(n, p, s) == sorted(random_digraph(n, p, s).arcs)
        assert gen.random_bipartite_edges(n, p, s) == sorted(
            random_bipartite_with_pm(n, p, s).edges)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_instance_files_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for workload in gen.WORKLOADS:
        gen.write_instances(workload, 5, tmp_path / "a")
        gen.write_instances(workload, 5, tmp_path / "b")
        gen.write_instances(workload, 6, tmp_path / "c")
        a, b, c = (_files(tmp_path / x) for x in "abc")
        assert a == b
        assert a.keys() == c.keys() and a != c
        for x in "abc":
            for f in (tmp_path / x).iterdir():
                f.unlink()


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_on_a_synthetic_span_tree():
    spans = tracing.Spans()
    root = spans.add("cli.main", 0.0, 10.0, -1)
    a = spans.add("certify.build_certificate", 1.0, 5.0, root)
    spans.add("connectivity.is_k_strong", 2.0, 3.5, a)
    spans.add("connectivity.is_k_strong", 3.5, 4.0, a, error=True)
    spans.add("matching.max_matching_pairs", 6.0, 9.0, root)
    assert tracing.self_times(spans) == [3.0, 2.0, 1.5, 0.5, 3.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 3.0 and m["certify.self_s"] == 2.0
    assert m["connectivity.self_s"] == 2.0 and m["matching.self_s"] == 3.0
    assert m["connectivity.is_k_strong.calls"] == 2
    assert m["connectivity.is_k_strong.total_s"] == 2.0
    assert m["connectivity.errors"] == 1 and m["certify.errors"] == 0
    assert tracing.op_self_sums(spans) == {0: 10.0}


def test_recursive_spans_count_total_time_once():
    spans = tracing.Spans()
    outer = spans.add("connectivity.is_k_strong", 0.0, 4.0, -1)
    spans.add("connectivity.is_k_strong", 1.0, 3.0, outer, call=True)
    m = tracing.layer_metrics(spans)
    assert m["connectivity.is_k_strong.total_s"] == 4.0
    assert m["connectivity.is_k_strong.calls"] == 2


def test_decider_share_counts_deciders_under_check_certificate_only():
    spans = tracing.Spans()
    check = spans.add("certify.check_certificate", 0.0, 10.0, -1)
    dec = spans.add("extendability.is_k_extendable", 1.0, 7.0, check)
    spans.add("connectivity.is_k_strong", 2.0, 6.0, dec)
    spans.add("connectivity.is_k_strong", 20.0, 30.0, -1)
    assert tracing.layer_metrics(spans)["certify.check_certificate.decider_share"] == 0.6


# ---------------------------------------------------------------------------
# running


def test_an_op_over_the_cap_counts_as_failed(tmp_path):
    runner = run.Runner(tmp_path, cap=0.05)
    op = run.Op("search", ["search", "--target", "minimal_k_strong", "--n-max", "5",
                           "--limit", "1000000"],
                expect={"target": "minimal_k_strong", "k": 1, "found": 1133})
    res = runner.run(op)
    assert res.error and res.error.startswith("timeout")
    assert res.seconds < 1.0
    assert run.check(res).startswith("timeout")


def test_a_verify_after_a_failed_certify_counts_as_failed(tmp_path):
    runner = run.Runner(tmp_path)
    missing = str(tmp_path / "absent.dg")
    cert, verify = run._certify_ops(missing, "k-strong", [1], lambda k: True)
    assert run.check(runner.run(cert)).startswith("exit 2")
    res = runner.run(verify)
    assert res.seconds is None and run.check(res).startswith("certify-failed")


def test_only_the_known_refusal_is_not_a_wrong_answer(tmp_path):
    runner = run.Runner(tmp_path)
    missing = str(tmp_path / "absent.bg")
    entry = {"file": "absent.bg", "kind": "bg", "family": "neg", "n": 0}
    known = run.file_ops(entry, {"ext": 0, "analyze": {}, "components": []}, tmp_path)
    (cert, verify), (other, _) = known, run._certify_ops(
        missing, "k-extendable", [1], lambda k: False)
    results = [runner.run(cert), runner.run(verify), runner.run(other)]
    causes = [run.check(r) for r in results]
    assert causes[0].startswith("exit 2,") and causes[1].startswith("certify-failed")
    assert [run.unexpected(r, c) for r, c in zip(results, causes)] == [False, False, True]


def test_op_times_are_scaled_to_the_reference_speed(tmp_path):
    runner = run.Runner(tmp_path)
    res = runner.run(run.Op("analyze", ["analyze", str(tmp_path / "absent.dg")]))
    assert res.seconds > 0 and res.scaled > 0
    assert 0.1 < res.seconds / res.scaled < 100


def test_every_op_on_small_instances_matches_the_reference(tmp_path):
    runner = run.Runner(tmp_path)
    texts = [("dg", "x", gen.format_pairs("dg", 7, gen.random_digraph_arcs(7, 0.5, 1))),
             ("bg", "x", gen.format_pairs("bg", 6, gen.random_bipartite_edges(6, 0.4, 2))),
             ("bg", "nopm", gen.format_pairs("bg", 5, gen.no_pm_bipartite_edges(5))),
             ("mat", "x", gen.format_matrix(gen.random_matrix_rows(6, 0.4, 3, True))),
             ("mat", "bt6h2", gen.format_matrix(gen.block_triangular_rows(6, 2)))]
    for i, (kind, family, text) in enumerate(texts):
        name = f"f{i}.{kind}"
        (tmp_path / name).write_text(text)
        entry = {"file": name, "kind": kind, "family": family, "n": 0}
        for op in run.file_ops(entry, ref.reference_for(text, family), tmp_path):
            res = runner.run(op)
            assert run.check(res) is None, (name, op.argv, res.stdout, res.stderr)


def test_wrappers_catch_a_call_made_inside_another_layer():
    import extendix.connectivity
    import extendix.extendability
    from extendix.core import cycle_bipartite

    original = extendix.extendability.is_k_strong
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert extendix.extendability.is_k_extendable(cycle_bipartite(4), 1)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    strong = [i for i, name in enumerate(spans.names) if name == "connectivity.is_k_strong"]
    assert strong
    parent = spans.parents[strong[0]]
    assert spans.names[parent] == "extendability.is_k_extendable"
    assert extendix.extendability.is_k_strong is original
    assert extendix.connectivity.is_k_strong is original


def test_generator_wrappers_keep_their_items_in_their_own_layer():
    import extendix.search

    tracer = tracing.Tracer()
    tracer.install()
    try:
        found = list(extendix.search.minimal_k_strong_digraphs(3, 1))
    finally:
        tracer.uninstall()
    assert found
    spans = tracer.spans
    names = spans.names
    gen_spans = [i for i, n in enumerate(names) if n == "search.minimal_k_strong_digraphs"]
    assert len(gen_spans) == len(found) + 1
    assert sum(spans.flags[i] & tracing.CALL for i in gen_spans) == 1


def test_method_wrappers_put_type_work_in_core():
    import extendix.connectivity
    from extendix.core import Digraph

    build = vars(Digraph)["build"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
        assert extendix.connectivity.is_strong(d)
    finally:
        tracer.uninstall()
    assert vars(Digraph)["build"] is build
    spans = tracer.spans
    assert spans.names[0] == "core.Digraph.build"
    neighbours = [i for i, name in enumerate(spans.names) if name == "core.Digraph.out_neighbors"]
    assert neighbours
    assert spans.names[spans.parents[neighbours[0]]] == "connectivity.is_strong"
    m = tracing.layer_metrics(tracer.spans)
    assert m["core.calls"] >= 2 and m["core.self_s"] > 0
