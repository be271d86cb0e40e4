"""The minimality sweep against the definitional routes, and what the
``search`` command decides.

``minimal_k_strong_digraphs`` is compared with ``is_minimal_k_strong`` on
every digraph, ``minimal_k_extendable_graphs`` with
``is_minimal_k_extendable`` on every graph that contains the canonical
matching, and the transfer counterexamples with ``is_minimal_k_extendable``
on B(D), all as ordered lists.
"""

from __future__ import annotations

import gc
import hashlib
import random
from itertools import permutations

import pytest

import extendix.cli as cli
import extendix.connectivity as connectivity
import extendix.core as core
import extendix.correspond as correspond
import extendix.extendability as extendability
import extendix.matching as matching
import extendix.search as search
from extendix import (Digraph, TooLargeError, bipartite_of_digraph, is_k_extendable,
                      is_k_strong, is_minimal_k_extendable, is_minimal_k_strong,
                      iter_bipartite_with_canonical, iter_digraphs)
from extendix.cli import main
from extendix.fileio import format_instance
from extendix.core import _off_diagonal_cells
from extendix.search import (find_minimality_counterexamples,
                             minimal_k_extendable_graphs, minimal_k_strong_digraphs)

from conftest import (minimal_strong, minimal_strong_by_arc_sets, minimal_strong_rows,
                      reference_mask_k_strong)

TARGETS = ("minimal_k_strong", "minimal_k_extendable", "minimality_counterexample")


KS = (1, 2, 3)


def _minimal_by_definition(instances, decide, failing_reason) -> dict:
    """{k: [x for x in instances if decide(x, k).holds] for k in KS}.  An
    instance that is not k-strong (k-extendable) is not (k+1)-strong
    ((k+1)-extendable) either, so its later k are not decided."""
    hits = {k: [] for k in KS}
    for x in instances:
        for k in KS:
            verdict = decide(x, k)
            if verdict.holds:
                hits[k].append(x)
            elif verdict.reason == failing_reason(k):
                break
    return hits


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mask_kernel_matches_is_k_strong(n):
    for d in iter_digraphs(n):
        outs, ins = connectivity._rows(d)
        strong = True
        for k in KS:
            strong = strong and is_k_strong(d, k).holds
            assert reference_mask_k_strong(outs, ins, k) == strong


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_k_strong_digraphs_match_the_flow_filter(n):
    expected = _minimal_by_definition(iter_digraphs(n), is_minimal_k_strong,
                                      lambda k: f"not {k}-strong")
    for k in KS:
        assert list(minimal_k_strong_digraphs(n, k)) == expected[k]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_k_extendable_graphs_match_the_definitional_sweep(n):
    expected = _minimal_by_definition(iter_bipartite_with_canonical(n),
                                      is_minimal_k_extendable,
                                      lambda k: f"not {k}-extendable")
    for k in KS:
        assert list(minimal_k_extendable_graphs(n, k)) == expected[k]


@pytest.mark.parametrize("n_max,k", [(5, 1), (4, 2)])
def test_counterexamples_match_the_definitional_filter(n_max, k, monkeypatch):
    # the sweep itself is checked above; run it once for both sides
    monkeypatch.setattr(search, "_minimal_k_strong_rows",
                        lambda n, k: list(minimal_strong_rows(n, k)))
    expected = []
    for n in range(2, n_max + 1):
        for d in minimal_strong(n, k):
            g, _, _ = bipartite_of_digraph(d)
            verdict = is_minimal_k_extendable(g, k)
            if not verdict.holds:
                expected.append((d, g, verdict.witness))
    assert find_minimality_counterexamples(n_max, k, limit=10 ** 6) == expected


def test_n5_sweep_keeps_the_order_of_the_arc_set_walk():
    assert list(minimal_strong(5, 1)) == minimal_strong_by_arc_sets(5, 1)
    assert len(minimal_strong(5, 1)) == 1069


@pytest.mark.parametrize("n", [3, 4])
def test_no_digraph_with_a_transitive_triangle_is_minimal_strong(n):
    """No minimal strong digraph holds a transitive triangle, checked with
    the flow route: an arc a -> b with a detour a -> c -> b is deletable
    (the lemma in ``_minimal_strong_rows``).  No sweep relies on it."""
    triangles = 0
    for d in iter_digraphs(n):
        if any((a, b) in d.arcs for a, c in d.arcs for c2, b in d.arcs
               if c2 == c and b != a):
            triangles += 1
            assert not is_minimal_k_strong(d, 1).holds, d
    assert triangles > 0


@pytest.mark.parametrize("n,k,leaves", [(4, 2, 240)])
def test_sweep_leaf_counts(n, k, leaves, monkeypatch):
    """The complete row sets of the k >= 2 row walk, those that give every
    vertex an in-arc: each gets its in-rows, and those whose in-degrees
    all reach k go on to ``connectivity._minimal_k_strong``."""
    complete, tested = [], []
    in_rows, minimal = search._in_rows, search._minimal_k_strong

    def counting(outs, ins, k):
        tested.append(outs)
        return minimal(outs, ins, k)

    monkeypatch.setattr(search, "_in_rows", lambda outs: complete.append(outs) or in_rows(outs))
    monkeypatch.setattr(search, "_minimal_k_strong", counting)
    list(minimal_k_strong_digraphs(n, k))
    assert len(complete) == leaves
    assert tested == [outs for outs in complete if min(map(int.bit_count, in_rows(outs))) >= k]
    assert len(tested) == 108


@pytest.mark.parametrize("n,bases,reaches", [(4, 30, 168), (5, 355, 3400)])
def test_ear_construction_counts(n, bases, reaches, monkeypatch):
    """The k = 1 sweep tests the ears of every minimal strong digraph on a
    proper subset of the vertices, with two reaches per arc of each; the
    row walk it replaced made 34,417 reaches at n = 5."""
    ends, reached = [], []
    original_ends, original_reach = search._ear_ends, search._reach
    monkeypatch.setattr(search, "_ear_ends",
                        lambda *args: ends.append(args) or original_ends(*args))
    monkeypatch.setattr(search, "_reach",
                        lambda *args: reached.append(args) or original_reach(*args))
    list(minimal_k_strong_digraphs(n, 1))
    assert (len(ends), len(reached)) == (bases, reaches)


def test_ear_bit_test_matches_the_flow_route():
    """For every minimal strong D' on at most 3 of the vertices 0..3 (by
    the flow route, plus the single vertices), every ear onto all four,
    every order of its inner vertices and every pair of ends x, y,
    ``_ear_ends`` accepts the ear iff D' + P is minimal strong by the flow
    route."""
    n, checked = 4, 0
    for keep in range(1, (1 << n) - 1):
        labels = [v for v in range(n) if keep >> v & 1]
        inner = [v for v in range(n) if not keep >> v & 1]
        if len(labels) == 1:
            bases = [frozenset()]
        else:
            bases = [frozenset((labels[a], labels[b]) for a, b in d.arcs)
                     for d in iter_digraphs(len(labels)) if is_minimal_k_strong(d, 1).holds]
        for arcs in bases:
            outs = [0] * n
            for a, b in arcs:
                outs[a] |= 1 << b
            forbidden = search._ear_ends(outs, search._in_rows(outs), keep)
            for order in permutations(inner):
                for x in labels:
                    for y in labels:
                        path = (x, *order, y)
                        d = Digraph(n, arcs | set(zip(path, path[1:])))
                        assert ((not forbidden[x] >> y & 1)
                                == is_minimal_k_strong(d, 1).holds), (arcs, path)
                        checked += 1
    assert checked == 4 * 6 + 6 * 2 * 4 + 4 * 5 * 9


def test_n6_sweep_counts_and_samples_by_the_flow_route(monkeypatch):
    """The k = 1 guard reaches n = 6: 27,816 minimal strong digraphs, and
    24,744 counterexamples for n <= 6.  A seeded sample of 100 hits is
    minimal by the flow route, and so is each of them with one arc moved
    to another cell iff the sweep lists it."""
    hits = minimal_strong(6, 1)
    assert len(hits) == 27816
    listed = set(hits)
    rng = random.Random(6)
    cells = _off_diagonal_cells(6)
    for d in rng.sample(hits, 100):
        assert is_minimal_k_strong(d, 1).holds, d
        arc = rng.choice(sorted(d.arcs))
        cell = rng.choice([c for c in cells if c not in d.arcs])
        moved = Digraph(6, d.arcs - {arc} | {cell})
        assert (moved in listed) == is_minimal_k_strong(moved, 1).holds, moved
    monkeypatch.setattr(search, "_minimal_k_strong_rows",
                        lambda n, k: list(minimal_strong_rows(n, k)))
    assert len(find_minimality_counterexamples(6, 1, limit=10 ** 6)) == 24744


@pytest.mark.parametrize("target,sha1", [
    ("minimal_k_strong", "31dfcec0156e97c10ad7b9943594d2e4e7b76a8c"),
    ("minimality_counterexample", "fcbeb5f98948e0a2464836fde6722d41e98a8512"),
])
def test_n5_search_listing_is_pinned(target, sha1, capsys):
    """The whole n = 5, k = 1 listing, byte for byte (the goldens stop at
    n = 4): every hit, its order and its audit lines."""
    assert main(["search", "--target", target, "--n-max", "5", "--k", "1",
                 "--limit", "1000000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha1(captured.out.encode()).hexdigest() == sha1


def test_strong_audit_reads_degrees_off_the_arcs(capsys):
    """The degree audit and the anti-directed trail count degrees in one
    pass over each hit's arcs; no cached adjacency tuple is built."""
    import extendix.core as core

    core._out_adj.cache_clear()
    core._in_adj.cache_clear()
    assert main(["search", "--target", "minimal_k_strong", "--n-max", "4",
                 "--k", "1"]) == 0
    assert core._out_adj.cache_info().currsize == 0
    assert core._in_adj.cache_info().currsize == 0


def test_strong_audit_builds_the_masks_once_per_hit(monkeypatch, capsys):
    """The degree audit and the anti-directed trail of a hit read the
    out-rows the sweep yields and the in-rows made from them: the n = 5
    listing builds no masks at all."""
    calls = []
    build = core._neighbourhood_masks
    monkeypatch.setattr(core, "_neighbourhood_masks", lambda d: calls.append(d) or build(d))
    assert main(["search", "--target", "minimal_k_strong", "--n-max", "5", "--k", "1",
                 "--limit", "1000000"]) == 0
    hits = capsys.readouterr().out.count("\ndegree-audit ")
    assert hits > 1000 and len(calls) == 0


@pytest.mark.parametrize("target,n_max", [("minimal_k_strong", 5), ("minimal_k_extendable", 4),
                                          ("minimality_counterexample", 5)])
def test_search_builds_no_instance_per_hit(target, n_max, monkeypatch, capsys):
    """Every hit is printed from its rows: one k = 1 search of each target
    builds no Digraph, BipartiteGraph or Matching and no masks."""
    built = []
    for cls in (core.Digraph, core.BipartiteGraph, core.Matching):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init, **kwargs:
                            built.append(type(self)) or init(self, *args, **kwargs))
    build = core._neighbourhood_masks
    monkeypatch.setattr(core, "_neighbourhood_masks", lambda d: built.append(d) or build(d))
    assert main(["search", "--target", target, "--n-max", str(n_max), "--k", "1",
                 "--limit", "1000000"]) == 0
    out = capsys.readouterr().out
    assert out.count("end-instance") > 20 and built == []


def _block(header: str, obj) -> str:
    return "\n".join([header] + format_instance(obj).rstrip("\n").split("\n")
                     + ["end-instance"]) + "\n"


def test_rows_block_is_the_instance_block():
    """``_rows_block`` gives the ``format_instance`` block of D and of B(D)
    for every minimal k-strong D with n <= 5 (k = 1, and k = 2, 3 up to
    n = 4) and for 200 seeded n = 6 ones."""
    checked = 0
    hits = [d for n in range(2, 6) for d in minimal_strong(n, 1)]
    hits += [d for k in (2, 3) for n in range(k + 1, 5) for d in minimal_strong(n, k)]
    hits += random.Random(26).sample(minimal_strong(6, 1), 200)
    tables = {n: cli._line_table(n) for n in range(2, 7)}
    for d in hits:
        outs = connectivity._rows(d)[0]
        table = tables[d.n]
        assert cli._rows_block("instance 7:", "dg", outs, table) == _block("instance 7:", d)
        assert (cli._rows_block("graph 7:", "bg", search._with_diagonal(outs), table)
                == _block("graph 7:", bipartite_of_digraph(d)[0]))
        checked += 1
    assert checked == 1133 + 18 + 1 + 200


@pytest.mark.parametrize("n_max,k", [(5, 1), (4, 2)])
def test_rows_audits_match_their_definitions(n_max, k):
    """The rows-level audit bodies ``search`` prints against the audits'
    definitions read off the instance objects, for every minimal k-strong
    D and its B(D): vertices of degree k (k + 1 in B(D)), and the edges of
    B(D) whose two ends both have degree at least k + 2."""
    for n in range(2, n_max + 1):
        for d in minimal_strong(n, k):
            g = bipartite_of_digraph(d)[0]
            u_rows, w_rows = g._u_rows, g._w_rows
            audit = connectivity._degree_audit(*connectivity._rows(d), k)
            assert (audit.out_degree_k_count, audit.in_degree_k_count) == (
                sum(d.out_degree(v) == k for v in range(n)),
                sum(d.in_degree(v) == k for v in range(n)))
            audit = extendability._degree_audit_bipartite(u_rows, w_rows, k)
            assert (audit.degree_k_plus_1_u, audit.degree_k_plus_1_w) == (
                sum(g.degree_u(i) == k + 1 for i in range(n)),
                sum(g.degree_w(j) == k + 1 for j in range(n)))
            qual, _, _ = extendability._forest_check(u_rows, w_rows, connectivity._rows(d), k)
            assert qual == sorted((i, j) for i, j in g.edges
                                  if g.degree_u(i) >= k + 2 and g.degree_w(j) >= k + 2)


def test_n4_extendable_listing_is_pinned(capsys):
    """The whole n <= 4, k = 1 listing of the graph target, byte for byte
    (the goldens stop at n = 3)."""
    assert main(["search", "--target", "minimal_k_extendable", "--n-max", "4", "--k", "1",
                 "--limit", "1000000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (hashlib.sha1(captured.out.encode()).hexdigest()
            == "8e58cfdeada902498ea512662e28d37128fc827a")


def test_search_decides_no_minimality(monkeypatch, capsys):
    """No flow, matching or derived digraph is built on the search path:
    minimality and the transfer are decided on bitmasks."""
    def refuse(*args, **kwargs):
        raise AssertionError("search left the bitmask kernel")

    for module in (connectivity, correspond, extendability, matching, search, cli):
        for name in ("is_minimal_k_strong", "is_minimal_k_extendable", "is_k_strong",
                     "is_k_extendable", "max_matching_pairs", "digraph_of"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for k in (1, 2):
        for target in TARGETS:
            assert main(["search", "--target", target, "--n-max", "4", "--k", str(k),
                         "--limit", "1000"]) == 0


@pytest.mark.parametrize("n_max,k", [(5, 1), (4, 2), (4, 3)])
def test_mask_transfer_matches_is_k_extendable(n_max, k):
    for n in range(2, n_max + 1):
        for d in minimal_strong(n, k):
            g, _, _ = bipartite_of_digraph(d)
            outs, ins = connectivity._rows(d)
            for i in range(n):
                extendable = is_k_extendable(g.without_edge((i, i)), k)
                assert (extendability._extendable_without_matching_edge(
                    outs, ins, i, k, search._bit_lists(n)) == extendable), (d, i)
                # the degree bound the rotation test answers on at once
                if outs[i].bit_count() <= k or ins[i].bit_count() <= k:
                    assert not extendable, (d, i)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (4, 2)])
def test_transfer_makes_at_most_n_mask_calls_per_digraph(n, k, monkeypatch):
    """One ``_k_strong`` call per matching edge up to the first deletable
    one (or all n) whose ends both keep more than k edges: the rotation
    test, in ``extendability``, skips the others by degree."""
    monkeypatch.setattr(search, "_minimal_k_strong_rows",
                        lambda n, k: list(minimal_strong_rows(n, k)))
    calls = []
    original = extendability._k_strong

    def counting(outs, ins, k):
        calls.append(len(outs))
        return original(outs, ins, k)

    monkeypatch.setattr(extendability, "_k_strong", counting)
    seen = 0
    for outs, edge in search._transfers(n, k):
        seen += 1
        ins = search._in_rows(outs)
        tested = n if edge is None else edge[0] + 1
        assert len(calls) <= n
        assert len(calls) == sum(outs[i].bit_count() > k and ins[i].bit_count() > k
                                 for i in range(tested))
        calls.clear()
    assert seen == len(minimal_strong(n, k))


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("k", [0, -1])
def test_search_rejects_k_below_one(target, k, capsys):
    assert main(["search", "--target", target, "--n-max", "4", "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("limit", [0, -1])
def test_search_rejects_limit_below_one(target, limit, capsys):
    assert main(["search", "--target", target, "--n-max", "4", "--k", "1",
                 "--limit", str(limit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_counterexample_limit_is_exact():
    assert find_minimality_counterexamples(4, 1, limit=0) == []
    assert len(find_minimality_counterexamples(4, 1, limit=2)) == 2


@pytest.mark.parametrize("k", [0, -1])
def test_sweeps_reject_k_below_one(k):
    with pytest.raises(ValueError):
        list(minimal_k_strong_digraphs(3, k))
    with pytest.raises(ValueError):
        list(minimal_k_extendable_graphs(3, k))
    with pytest.raises(ValueError):
        find_minimality_counterexamples(3, k)


def test_sweep_guards_raise_too_large():
    for call in (lambda: minimal_k_strong_digraphs(7, 1),
                 lambda: minimal_k_strong_digraphs(5, 2),
                 lambda: minimal_k_extendable_graphs(5, 1)):
        with pytest.raises(TooLargeError):
            list(call())


def test_guard_stops_the_search_with_a_note(capsys):
    assert main(["search", "--target", "minimal_k_strong", "--n-max", "5",
                 "--k", "2", "--limit", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("note: stopping at n=4: exhaustive sweep for k >= 2 "
                            "is guarded to n <= 4\n")
    assert "found: 18" in captured.out


@pytest.mark.parametrize("target, route", [
    ("minimal_k_strong", "exhaustive sweep for k >= 2"),
    ("minimal_k_extendable", "exhaustive bipartite sweep"),
    ("minimality_counterexample", "exhaustive sweep for k >= 2")])
def test_every_target_notes_the_guard(capsys, target, route):
    """One size loop serves the three targets, so the counterexample search
    no longer skips the sizes past its guard without a word."""
    main(["search", "--target", target, "--n-max", "5", "--k", "2", "--limit", "1000"])
    assert capsys.readouterr().err == f"note: stopping at n=4: {route} is guarded to n <= 4\n"


def test_the_guard_is_not_reached_once_the_limit_is_met(capsys):
    assert main(["search", "--target", "minimality_counterexample", "--n-max", "7",
                 "--k", "1", "--limit", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "found: 3\n" in captured.out


# the row generator ``search`` reads behind each public sweep
ROWS_OF = {"minimal_k_strong_digraphs": "_minimal_k_strong_rows",
           "minimal_k_extendable_graphs": "_minimal_k_extendable_rows",
           "minimality_counterexamples": "_counterexample_rows"}


@pytest.mark.parametrize("target, name", [
    ("minimal_k_strong", "minimal_k_strong_digraphs"),
    ("minimal_k_extendable", "minimal_k_extendable_graphs"),
    ("minimality_counterexample", "minimality_counterexamples")])
def test_search_takes_no_more_hits_than_the_limit(monkeypatch, capsys, target, name):
    """Each size is read lazily: the row generator behind the sweep
    ``name`` is not asked for a hit past ``--limit``."""
    name = ROWS_OF[name]
    real = getattr(cli, name)
    pulled = []

    def counted(n, k):
        for hit in real(n, k):
            pulled.append(hit)
            yield hit

    monkeypatch.setattr(cli, name, counted)
    assert main(["search", "--target", target, "--n-max", "4", "--limit", "2"]) == 0
    assert "found: 2\n" in capsys.readouterr().out
    assert len(pulled) == 2


def test_other_value_errors_are_not_notes(monkeypatch):
    def broken(n, k):
        raise ValueError("not a guard")

    monkeypatch.setattr(cli, "_minimal_k_strong_rows", broken)
    with pytest.raises(ValueError, match="not a guard"):
        main(["search", "--target", "minimal_k_strong", "--n-max", "3"])


@pytest.mark.parametrize("sweep", [lambda: list(minimal_k_strong_digraphs(4, 1)),
                                   lambda: find_minimality_counterexamples(4, 1, 5)],
                         ids=["minimal_k_strong", "minimality_counterexample"])
def test_sweep_leaves_nothing_for_the_cycle_collector(sweep):
    """The sweep's lists are freed by reference counting when it ends, not
    kept alive by a reference cycle until a full collection."""
    gc.collect()
    gc.disable()
    try:
        sweep()
        left = gc.collect()
    finally:
        gc.enable()
    assert left < 10
