"""The pair-block reader and the writers that sort pairs in the order read.

``fileio._parse_pairs`` reads a block of ``<digits> <digits>`` lines in one
pass and any other block line by line (``_parse_pair_lines``).  On a
mutation corpus of dg and bg blocks it gives the pairs, or the ParseError
line and message, of the reader it replaced (``reference_parse_pairs``).
A graph or digraph that a file read or ``bipartite_of_digraph`` or
``bipartite_of_matrix`` made keeps the list its pairs were made from
(``_pairs``), and ``sorted_edges``/``sorted_arcs`` sort that list; the
instance is equal, hashes and prints as one built from the set alone.
"""

from __future__ import annotations

import random

import pytest

import extendix.fileio as fileio
from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, random_bipartite_with_pm,
                      random_digraph)
from extendix.correspond import bipartite_of_digraph, bipartite_of_matrix
from extendix.fileio import ParseError, format_instance, parse_instance

from conftest import reference_parse_instance, reference_parse_pairs

_SEPARATORS = [" ", "  ", "\t", "\u00a0", " \t", "\t\u00a0"]
_PADS = ["", " ", "\t", "\u00a0"]


def _token_variants(token: str, n: int) -> list[str]:
    """Spellings of a vertex number: read as it, out of range, or no number."""
    arabic = token.translate(str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66a)))))
    return ["0" + token, "+" + token, "-" + token, "0", "-0", str(n + 1), "\u0661", arabic,
            token + "\u00b2", "\u00b2", token + "x"]


def _line_variants(line: str, n: int) -> list[list[str]]:
    """Each way one line of a block is mutated, as the lines that replace it."""
    a, b = line.split()
    out = [[f"{t} {b}"] for t in _token_variants(a, n)]
    out += [[f"{a} {t}"] for t in _token_variants(b, n)]
    out += [[lead + sep.join([a, b]) + trail]
            for sep in _SEPARATORS for lead in _PADS for trail in _PADS]
    out += [[a], [f"{a} {b} {b}"], ["", line], [" ", line], [line + "\r"], ["\r" + line],
            [line, line]]
    return out


def _blocks() -> list[tuple[int, list[str]]]:
    """(n, lines) of the corpus: seeded dg and bg blocks, each line mutated
    every way in turn, then blocks with two or three mutated lines, and
    blocks of no pair."""
    rng = random.Random(40)
    blocks = []
    for kind, n, count in (("dg", 5, 7), ("bg", 4, 6), ("dg", 12, 9), ("bg", 1, 1)):
        cells = [(a, b) for a in range(n) for b in range(n) if kind == "bg" or a != b]
        pairs = sorted(rng.sample(cells, count))
        lines = [f"{a + 1} {b + 1}" for a, b in pairs]
        blocks.append((n, [f"{kind} {n} {len(lines)}", *lines]))
        for i, line in enumerate(lines):
            for new in _line_variants(line, n):
                blocks.append((n, [f"{kind} {n} {len(lines)}", *lines[:i], *new,
                                   *lines[i + 1:]]))
        for _ in range(200):
            mutated = list(lines)
            for i in sorted(rng.sample(range(len(lines)), min(len(lines), rng.randint(2, 3))),
                            reverse=True):
                mutated[i:i + 1] = rng.choice(_line_variants(lines[i], n))
            blocks.append((n, [f"{kind} {n} {len(mutated)}", *mutated]))
        blocks.append((n, [f"{kind} {n} 0"]))
    return blocks


BLOCKS = _blocks()


def _outcome(read, *args):
    try:
        return "read", read(*args)
    except ParseError as exc:
        return "error", exc.line_no, str(exc)


def test_the_corpus_holds_every_kind_of_block():
    outcomes = [_outcome(reference_parse_pairs, lines, n) for n, lines in BLOCKS]
    messages = {o[2].split(": ", 1)[1].split(",")[0].split(" 1..")[0]
                for o in outcomes if o[0] == "error"}
    assert messages == {"expected two integers", "index out of range"}
    read = [o[1] for o in outcomes if o[0] == "read"]
    assert [] in read and any(len(pairs) != len(set(pairs)) for pairs in read)
    assert len(BLOCKS) > 2000


def test_the_reader_agrees_with_the_reader_it_replaced():
    """The same pairs in the same order, or the same line and message."""
    for n, lines in BLOCKS:
        assert _outcome(fileio._parse_pairs, lines, n) == _outcome(
            reference_parse_pairs, lines, n), lines


def test_files_of_the_corpus_read_as_before():
    """The corpus as files, duplicates and loops included, with the
    header's count right: the equal instance, or the equal error."""
    for n, lines in BLOCKS:
        kind = lines[0].split()[0]
        text = "\n".join([f"{kind} {n} {len(lines) - 1}", *lines[1:]]) + "\n"
        got, want = _outcome(parse_instance, text), _outcome(reference_parse_instance, text)
        assert got == want, text
        if got[0] == "read":
            assert type(got[1]._pairs) is list


def test_a_canonical_block_is_read_in_one_pass(monkeypatch):
    """Blocks written by ``format_instance``, and ASCII digits with a
    leading zero, never reach the line reader; a tab, padding, a sign, a
    non-ASCII digit and a label past n always do."""
    calls = []
    line_reader = fileio._parse_pair_lines
    monkeypatch.setattr(fileio, "_parse_pair_lines",
                        lambda lines, n: calls.append(n) or line_reader(lines, n))
    for seed in range(20):
        d = random_digraph(15, 0.3, seed=seed)
        g = random_bipartite_with_pm(15, 0.3, seed=seed)
        assert parse_instance(format_instance(d)) == d
        assert parse_instance(format_instance(g)) == g
    assert parse_instance("dg 3 2\n01 2\n2 003\n")._pairs == [(0, 1), (1, 2)]
    assert calls == []
    for text in ("dg 3 2\n1 2\n2\t3\n", "dg 3 2\n1 2\n 2 3\n", "dg 3 2\n1 2\n2  3\n",
                 "dg 3 2\n1 2\n2 3 \n", "dg 3 2\n1 2\n-2 3\n", "dg 3 2\n1 2\n2 \u0663\n",
                 "dg 3 2\n1 2\n2 4\n"):
        _outcome(parse_instance, text)
    assert calls == [3] * 7


# ---------------------------------------------------------------------------
# the order read, kept and sorted


def _shuffled(text: str, rng: random.Random) -> str:
    head, *lines = text.splitlines()
    rng.shuffle(lines)
    return "\n".join([head, *lines]) + "\n"


def _assert_listed(obj, plain) -> None:
    """obj keeps a list of exactly its pairs, each once, sorts it as the
    set sorts, and is equal to, hashes as and prints as plain, built from
    the set alone."""
    pair_set = obj.arcs if isinstance(obj, Digraph) else obj.edges
    listed = obj._pairs
    assert type(listed) is list and len(listed) == len(pair_set) and set(listed) == pair_set
    ordered = obj.sorted_arcs() if isinstance(obj, Digraph) else obj.sorted_edges()
    assert ordered == sorted(pair_set) and ordered is not listed
    assert obj == plain and hash(obj) == hash(plain) and repr(obj) == repr(plain)
    assert plain._pairs is (plain.arcs if isinstance(plain, Digraph) else plain.edges)


def _instances() -> list:
    rng = random.Random(41)
    out = [Digraph(1, frozenset()), Digraph(3, frozenset({(0, 0), (1, 2)}), loops_allowed=True),
           BipartiteGraph(1, frozenset({(0, 0)}))]
    for n in (2, 5, 9, 20, 40):
        for p in (0.1, 0.4, 0.9):
            out += [random_digraph(n, p, seed=rng.randrange(10 ** 6)),
                    random_bipartite_with_pm(n, p, seed=rng.randrange(10 ** 6))]
    return out


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_instances_read_keep_the_order_listed(order):
    rng = random.Random(42)
    for obj in _instances():
        text = format_instance(obj)
        if order == "shuffled":
            text = _shuffled(text, rng)
        got = parse_instance(text)
        _assert_listed(got, obj)
        assert got._pairs == [tuple(int(t) - 1 for t in line.split())
                              for line in text.splitlines()[1:]]
        assert format_instance(got) == format_instance(obj)
        if isinstance(got, Digraph) and not got.has_loops():
            g, m, _ = bipartite_of_digraph(got)
            plain, _, _ = bipartite_of_digraph(Digraph(got.n, got.arcs))
            _assert_listed(g, BipartiteGraph(plain.n, plain.edges))
            assert g._pairs == [(i, i) for i in range(got.n)] + got._pairs
            assert format_instance(g) == format_instance(plain)


def test_a_digraph_built_from_its_set_translates_as_before():
    for obj in _instances():
        if isinstance(obj, Digraph) and not obj.has_loops():
            g = bipartite_of_digraph(obj)[0]
            _assert_listed(g, BipartiteGraph(obj.n, obj.arcs | {(i, i) for i in range(obj.n)}))


def test_matrix_graphs_list_their_edges_row_by_row():
    rng = random.Random(43)
    for n in (1, 2, 6, 12):
        for p in (0.0, 0.3, 1.0):
            a = ZeroOneMatrix(tuple(tuple(int(rng.random() < p) for _ in range(n))
                                    for _ in range(n)))
            g = bipartite_of_matrix(a)
            plain = BipartiteGraph(n, frozenset((i, j) for i in range(n) for j in range(n)
                                                if a.rows[i][j]))
            _assert_listed(g, plain)
            assert g._pairs == sorted(g.edges)


def test_the_listed_order_is_not_changed_by_writing():
    d = parse_instance("dg 3 3\n3 1\n1 2\n2 3\n")
    assert format_instance(d) == "dg 3 3\n1 2\n2 3\n3 1\n"
    assert d._pairs == [(2, 0), (0, 1), (1, 2)]
