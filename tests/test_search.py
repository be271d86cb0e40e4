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

import pytest

import extendix.cli as cli
import extendix.connectivity as connectivity
import extendix.correspond as correspond
import extendix.extendability as extendability
import extendix.matching as matching
import extendix.search as search
from extendix import (TooLargeError, bipartite_of_digraph, is_k_extendable, is_k_strong,
                      is_minimal_k_extendable, is_minimal_k_strong,
                      iter_bipartite_with_canonical, iter_digraphs)
from extendix.cli import main
from extendix.search import (find_minimality_counterexamples,
                             minimal_k_extendable_graphs, minimal_k_strong_digraphs)

from conftest import minimal_strong, minimal_strong_by_arc_sets

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
            assert search._mask_k_strong(outs, ins, k) == strong


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
    monkeypatch.setattr(search, "minimal_k_strong_digraphs",
                        lambda n, k: iter(minimal_strong(n, k)))
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
    """The rule the k = 1 sweep prunes on, checked with the flow route: an
    arc a -> b with a detour a -> c -> b is deletable."""
    triangles = 0
    for d in iter_digraphs(n):
        if any((a, b) in d.arcs for a, c in d.arcs for c2, b in d.arcs
               if c2 == c and b != a):
            triangles += 1
            assert not is_minimal_k_strong(d, 1).holds, d
    assert triangles > 0


@pytest.mark.parametrize("n,k,leaves", [(5, 1, 8109), (4, 1, 157), (4, 2, 240)])
def test_sweep_leaf_counts(n, k, leaves, monkeypatch):
    """The complete row sets the sweep hands to ``_is_minimal_k_strong``;
    without the transitive-triangle rule n = 5, k = 1 would hand over
    42,329 and n = 4, k = 1 469."""
    calls = []
    original = search._is_minimal_k_strong

    def counting(outs, k):
        calls.append(len(outs))
        return original(outs, k)

    monkeypatch.setattr(search, "_is_minimal_k_strong", counting)
    list(minimal_k_strong_digraphs(n, k))
    assert len(calls) == leaves


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
    """The degree audit and the anti-directed trail of a hit share one
    ``_rows`` build: the n = 5 listing costs one call per hit."""
    calls = []
    rows = connectivity._rows
    monkeypatch.setattr(connectivity, "_rows", lambda d: calls.append(d) or rows(d))
    assert main(["search", "--target", "minimal_k_strong", "--n-max", "5", "--k", "1",
                 "--limit", "1000000"]) == 0
    hits = capsys.readouterr().out.count("\ndegree-audit ")
    assert hits > 1000 and len(calls) == hits


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
            outs = connectivity._rows(d)[0]
            for i in range(n):
                assert (search._extendable_without_matching_edge(outs, i, k)
                        == is_k_extendable(g.without_edge((i, i)), k)), (d, i)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (4, 2)])
def test_transfer_makes_at_most_n_mask_calls_per_digraph(n, k, monkeypatch):
    monkeypatch.setattr(search, "minimal_k_strong_digraphs",
                        lambda n, k: iter(minimal_strong(n, k)))
    calls = []
    original = search._mask_k_strong

    def counting(outs, ins, k):
        calls.append(len(outs))
        return original(outs, ins, k)

    monkeypatch.setattr(search, "_mask_k_strong", counting)
    seen = 0
    for d, edge in search._transfers(n, k):
        seen += 1
        assert 1 <= len(calls) <= n
        assert len(calls) == (n if edge is None else edge[0] + 1)
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
    for call in (lambda: minimal_k_strong_digraphs(6, 1),
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


def test_other_value_errors_are_not_notes(monkeypatch):
    def broken(n, k):
        raise ValueError("not a guard")

    monkeypatch.setattr(cli, "minimal_k_strong_digraphs", broken)
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
