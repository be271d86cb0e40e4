import time

import pytest

from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, complete_digraph,
                      cycle_bipartite, directed_cycle)
from extendix.fileio import (Certificate, ParseError, format_certificate,
                             format_instance, parse_certificate, parse_instance,
                             read_instance, write_instance)

from conftest import make_c6


class TestInstanceFormats:
    def test_bipartite_round_trip(self):
        g = make_c6()
        assert parse_instance(format_instance(g)) == g

    def test_digraph_round_trip(self):
        d = complete_digraph(3)
        assert parse_instance(format_instance(d)) == d

    def test_matrix_round_trip(self):
        a = ZeroOneMatrix(((1, 0, 1), (0, 1, 1), (1, 1, 0)))
        assert parse_instance(format_instance(a)) == a

    def test_formats_are_one_based(self):
        text = format_instance(BipartiteGraph(2, frozenset({(0, 1)})))
        assert text == "bg 2 1\n1 2\n"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c6.bg"
        write_instance(make_c6(), path)
        assert read_instance(path) == make_c6()

    def test_loops_parse_with_flag(self):
        d = parse_instance("dg 2 2\n1 1\n1 2\n")
        assert d.loops_allowed and d.has_loops()


    @pytest.mark.parametrize("text", [
        "dg 3 2\n1 2\n3 1\n",
        "dg 3 2\n01 2\n  3\t1  \n",
        "dg \u0663 \u0662\n\u0661 \u0662\n\u0663 \u0661\n",
        "dg 3 2\n1 2\n3 1\n\n\n",
    ])
    def test_numerals_int_reads(self, text):
        """Leading zeros, other whitespace and non-ASCII decimal digits
        read as the integers they spell."""
        assert parse_instance(text) == Digraph(3, frozenset({(0, 1), (2, 0)}))


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("\nbg 2 1\n1 2\n", "blank header"),
        ("xx 2 1\n1 2\n", "unknown header"),
        ("bg 2\n", "malformed header"),
        ("bg 2 2\n1 1\n", "promises 2 edges"),
        ("bg 2 1\n1 3\n", "out of range"),
        ("bg 2 1\n1\n", "two integers"),
        ("bg 2 2\n1 1\n1 1\n", "duplicate edge"),
        ("dg 2 2\n1 2\n1 2\n", "duplicate arc"),
        ("mat 2\n10\n2 0\n", "characters from 0/1"),
        ("mat 2\n10\n", "promises 2 rows"),
        ("bg 0 0\n", "at least 1"),
    ])
    def test_message_and_location(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)

    def test_duplicate_in_a_large_file_is_found_in_one_pass(self):
        """All 39,800 arcs of the complete digraph on 200 vertices with two
        lines repeated: the smallest repeated pair is reported, within a few
        seconds (counting each pair's copies anew took about a minute)."""
        arcs = [f"{a} {b}" for a in range(1, 201) for b in range(1, 201) if a != b]
        arcs += ["150 3", "7 9"]
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_instance(f"dg 200 {len(arcs)}\n" + "\n".join(arcs) + "\n")
        assert time.perf_counter() - start < 5
        assert str(err.value) == "line 1: duplicate arc 7 9"


class TestCertificateFormat:
    def test_round_trip(self):
        cert = Certificate("k-strong", 2, False, directed_cycle(3),
                           "separator", ("vertices: 1",))
        parsed = parse_certificate(format_certificate(cert))
        assert parsed == cert

    def test_round_trip_with_paths(self):
        cert = Certificate("k-extendable", 1, True, cycle_bipartite(3),
                           "alt-path-systems",
                           ("matching: 1-1 2-2 3-3",
                            "pair: u1 w1",
                            "path: u1 w2 u2 w3 u3 w1"))
        parsed = parse_certificate(format_certificate(cert))
        assert parsed == cert

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_certificate("bogus\n")

    def test_rejects_unknown_claim(self):
        text = format_certificate(
            Certificate("k-strong", 1, True, directed_cycle(2), "x", ()))
        with pytest.raises(ParseError):
            parse_certificate(text.replace("k-strong", "k-magic"))
