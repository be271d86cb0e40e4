import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from extendix import (BipartiteGraph, Digraph, ZeroOneMatrix, complete_digraph,
                      cycle_bipartite, directed_cycle, random_bipartite_with_pm, random_digraph)
from extendix.certify import _parse_walk, _vertices, _walk_index, build_certificate
from extendix.fileio import (Certificate, LabelIndex, ParseError, format_certificate,
                             format_instance, parse_certificate, parse_instance,
                             read_instance, write_instance)

from conftest import (make_c6, reference_numbers, reference_parse_instance,
                      reference_parse_walk)


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


# ---------------------------------------------------------------------------
# the label-table readers against the line-by-line readers they replaced

_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                      "\u0665\u0666\u0667\u0668\u0669")
_FULLWIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))


def _token_variants(token: str, n: int) -> list[str]:
    """Spellings of a number token that the formats read, or must reject."""
    return ["0" + token, "00" + token, "+" + token, "-" + token, token[:1] + "_" + token[1:],
            token.translate(_ARABIC), token.translate(_FULLWIDTH), str(n + 1), "0", "-0",
            token + "\u00b2", token + ".0", "x", token + token, str(10 ** 30)]


_SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\u00a0", "\u3000"]


@st.composite
def _canonical_files(draw):
    """A canonical bg, dg or mat file of order 1..6."""
    kind = draw(st.sampled_from(["bg", "dg", "mat"]))
    n = draw(st.integers(1, 6))
    if kind == "mat":
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return format_instance(ZeroOneMatrix(tuple(map(tuple, rows))))
    cells = [(a, b) for a in range(n) for b in range(n) if kind == "bg" or a != b]
    pairs = draw(st.sets(st.sampled_from(cells))) if cells else set()
    obj = (BipartiteGraph(n, frozenset(pairs)) if kind == "bg" else Digraph(n, frozenset(pairs)))
    return format_instance(obj)


@st.composite
def _mutated_files(draw):
    """A canonical file with a few lines after the header rewritten: token
    spellings, separators, CRLF, blank, short and long lines, duplicated
    and loop lines, and stray characters in matrix rows."""
    lines = draw(_canonical_files()).split("\n")[:-1]
    head = lines[0].split()
    n = int(head[1])
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        line = lines[i]
        tokens = line.split()
        if head[0] == "mat":
            kind = draw(st.sampled_from(["stray", "pad", "crlf", "drop", "extra"]))
            if kind == "stray":
                j = draw(st.integers(0, len(line)))
                c = draw(st.sampled_from(["2", "x", " ", "\t", "\u0661", "O", "l", "\x0c"]))
                lines[i] = line[:j] + c + line[j + 1:]
            elif kind == "pad":
                lines[i] = draw(st.sampled_from(_SEPARATORS)) + line + draw(
                    st.sampled_from(_SEPARATORS))
            elif kind == "crlf":
                lines[i] = line + "\r"
            elif kind == "drop":
                lines[i] = line[1:]
            else:
                lines[i] = line + draw(st.sampled_from("01"))
            continue
        if len(tokens) != 2:  # already made short, long or blank
            continue
        kind = draw(st.sampled_from(["token", "separator", "crlf", "blank", "one", "three",
                                     "duplicate", "loop"]))
        if kind == "token":
            j = draw(st.integers(0, 1))
            tokens[j] = draw(st.sampled_from(_token_variants(tokens[j], n)))
            lines[i] = " ".join(tokens)
        elif kind == "separator":
            lines[i] = draw(st.sampled_from(_SEPARATORS)).join(
                [draw(st.sampled_from(["", " ", "\t"]))] + tokens
                + [draw(st.sampled_from(["", " ", "\t"]))])
        elif kind == "crlf":
            lines[i] = line + "\r"
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "one":
            lines[i] = tokens[0]
        elif kind == "three":
            lines[i] = line + " " + tokens[1]
        elif kind == "duplicate":
            lines.insert(i, line)
        else:
            lines[i] = f"{tokens[0]} {tokens[0]}"
        if kind in ("blank", "duplicate") and draw(st.booleans()):
            lines[0] = f"{head[0]} {head[1]} {len(lines) - 1}"
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


def _outcome(parse, text):
    try:
        return "instance", parse(text)
    except ParseError as exc:
        return "error", exc.line_no, str(exc)


@seed(31)
@settings(max_examples=400, deadline=None)
@given(_mutated_files())
def test_the_reader_agrees_with_the_line_by_line_reader(text):
    """Every mutated file reads to the equal instance, loops flag included,
    or fails on the equal line with the equal message."""
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


@pytest.mark.parametrize("text", [
    "dg 3 2\n1 2\n3 1\n", "dg 3 2\n01 2\n  3\t1  \n", "dg 3 2\n1 2\r\n3 1\r\n",
    "dg 3 2\n1 2\n+3 1\n", "dg 3 2\n1 2\n3 1_0\n", "dg 3 2\n1 2\n4 1\n",
    "dg 3 2\n1 2\n1\n", "dg 3 2\n1 2 3\n3 1\n", "dg 3 2\n1 2\n-1 1\n",
    "bg 2 2\n1 1\n2 2\n", "dg 2 2\n1 1\n1 2\n", "dg 3 2\n3 1\n3 1\n",
    "mat 2\n10\n01\n", "mat 2\n 10 \n01\r\n", "mat 2\n10\n0 1\n", "mat 2\n12\n01\n",
    "mat 2\n1\n011\n", "mat 2\n\u0661\u0660\n01\n",
])
def test_the_reader_agrees_on_each_rule(text):
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


def _numbers_outcome(read, tokens, where):
    try:
        return "vertices", read(tokens, *where)
    except ValueError as exc:
        return "error", str(exc)


@seed(31)
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7), st.integers(0, 50), st.data())
def test_witness_numbers_agree_with_the_number_reader(n, graph_seed, data):
    """The pair and path lines of a Menger certificate, with tokens
    respelled, read through the instance's label index to the vertices the
    plain number reader gives, or to its error message."""
    d = random_digraph(n, 0.8, seed=graph_seed)
    cert = build_certificate(d, "k-strong", 1)
    lines = [line.split(": ", 1)[1] for line in cert.witness_lines
             if line.startswith(("pair:", "path:"))] or ["1 2"]
    text = data.draw(st.sampled_from(lines))
    tokens = text.split()
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j] = data.draw(st.sampled_from(_token_variants(tokens[j], n)))
    where = ("pair", text, "path", 1)
    index = LabelIndex(n)
    got = _numbers_outcome(lambda *a: _vertices(index, *a), tokens, where)
    assert got == _numbers_outcome(reference_numbers, tokens, where)


@seed(31)
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(0, 50), st.data())
def test_walk_labels_agree_with_the_vertex_label_reader(n, graph_seed, data):
    """The pair and path lines of an alternating-path certificate, with
    labels respelled, read through the walk label index to the vertices
    ``core.parse_vertex_label`` gives, or to the same error message."""
    g = random_bipartite_with_pm(n, 0.9, seed=graph_seed)
    cert = build_certificate(g, "k-extendable", 1)
    lines = [line.split(": ", 1)[1] for line in cert.witness_lines
             if line.startswith(("pair:", "path:"))] or ["u1 w1"]
    tokens = data.draw(st.sampled_from(lines)).split()
    for _ in range(data.draw(st.integers(0, 2))):
        j = data.draw(st.integers(0, len(tokens) - 1))
        side, number = tokens[j][0], tokens[j][1:]
        tokens[j] = data.draw(st.sampled_from(
            [side + v for v in _token_variants(number, n)] + [number, "uw"[side == "u"] + number,
                                                              side.upper() + number, side]))
    text = " ".join(tokens)
    index = _walk_index(n)
    got = _numbers_outcome(lambda t: _parse_walk(t, index), text, ())
    assert got == _numbers_outcome(reference_parse_walk, text, ())
