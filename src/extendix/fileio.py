"""Text formats for instances, correspondence sidecars and certificates.

Instance formats (indices are 1-based on disk, 0-based in memory):

* bipartite graph: ``bg <n> <m>`` then m lines ``<i> <j>`` for edge u_i w_j
* digraph:         ``dg <n> <m>`` then m lines ``<i> <j>`` for arc i -> j
* matrix:          ``mat <n>``    then n lines of n characters from {0,1}

Certificates embed the instance, the verdict and a witness section, so a
verifier needs nothing but the certificate file.

Every vertex number of an instance, a ``.map`` sidecar or a certificate
is written and read through one table of labels per order n, built per
call in O(n): ``vertex_labels(n)`` holds the label ``str(v + 1)`` of each
vertex v, and ``LabelIndex`` maps each label back to its vertex.  A pair
block of lines ``<digits> <digits>`` is read in one pass with no Python
call per token; any other block is read line by line, which names the
first bad line.  A graph or digraph read from a file keeps its pairs in
the order the file listed them, so writing it back sorts in O(m) when
the file was sorted, as every file written here is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (BipartiteGraph, Digraph, InvalidInstanceError, Matching,
                   ValidationReport, ZeroOneMatrix, _with_pairs, is_int_token)


class ParseError(InvalidInstanceError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(ValidationReport(False, (f"line {line_no}: {message}",)))


def _read_text(path) -> str:
    """The text of the file at path; bytes that are not UTF-8 are a
    ParseError on the line that holds the first of them.  Time: O(size)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
                             ) from None


# ---------------------------------------------------------------------------
# vertex labels


def vertex_labels(n: int) -> list[str]:
    """The label of each vertex 0..n-1 as the formats write it, 1-based.
    Time: O(n)."""
    return list(map(str, range(1, n + 1)))


class LabelIndex(dict):
    """``{label: v}`` for the labels of ``vertex_labels(n)``.  Any other
    token is read by ``core.is_int_token`` and ``int`` (leading zeros,
    other decimal digits), and a token that is no number in 1..n is a
    KeyError, so a lookup accepts exactly the numbers 1..n of the text
    formats.  Time: O(n) to build, O(1) per canonical label."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__(zip(vertex_labels(n), range(n)))
        self.n = n

    def __missing__(self, token: str) -> int:
        if is_int_token(token, True) and 1 <= (number := int(token)) <= self.n:
            return number - 1
        raise KeyError(token)


def _numbers(tokens, *where) -> list[int]:
    """1-based numbers as 0-based indices; a ValueError names the first
    token that is not an integer as the instance formats write one
    (``core.is_int_token``) and where, whose parts are joined only then."""
    for token in tokens:
        if not is_int_token(token, True):
            raise ValueError(f"{' '.join(map(str, where))} has {token!r}, which is not a number")
    return [int(token) - 1 for token in tokens]


# a pair block with its ASCII digits deleted: the one-pass reader's shape test
_NO_DIGITS = str.maketrans("", "", "0123456789")
# matrix rows: the characters 0/1 to the bytes 0/1, and back
_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


# ---------------------------------------------------------------------------
# instance formats


def _format_pairs(header: str, n: int, pairs) -> str:
    """header, then one line "a b" per pair (a, b), 1-based.  Time: O(n + m)."""
    label = vertex_labels(n)
    return "\n".join([header] + [f"{label[a]} {label[b]}" for a, b in pairs]) + "\n"


def format_bipartite(g: BipartiteGraph) -> str:
    """Time: O(n + m) when the edges were listed sorted, as a file read
    lists them (``core._with_pairs``), else O(n + m log m) for the sort."""
    return _format_pairs(f"bg {g.n} {g.m}", g.n, g.sorted_edges())


def format_digraph(d: Digraph) -> str:
    """Time: O(n + m) when the arcs were listed sorted, as a file read
    lists them (``core._with_pairs``), else O(n + m log m) for the sort."""
    return _format_pairs(f"dg {d.n} {d.m}", d.n, d.sorted_arcs())


def format_matrix(a: ZeroOneMatrix) -> str:
    """Time: O(n^2)."""
    lines = [f"mat {a.n}"]
    lines += [bytes(row).translate(_DIGITS).decode() for row in a.rows]
    return "\n".join(lines) + "\n"


def format_instance(obj) -> str:
    """The instance's file text.  Time: for a graph or digraph, O(n + m)
    when its pairs were listed sorted, else O(n + m log m); O(n^2) for a
    matrix."""
    if isinstance(obj, BipartiteGraph):
        return format_bipartite(obj)
    if isinstance(obj, Digraph):
        return format_digraph(obj)
    if isinstance(obj, ZeroOneMatrix):
        return format_matrix(obj)
    raise TypeError(f"cannot format {type(obj).__name__}")


def _parse_pairs(lines, n: int) -> list[tuple[int, int]]:
    """The lines after the header as 0-based pairs, in the order listed,
    each line two integers in 1..n.  A block of lines ``<digits> <digits>``,
    ASCII digits, is read in one pass: one ``split`` of the joined lines,
    one ``translate`` that must leave one space per line, and every token
    read through one ``LabelIndex``.  Any other block, or a label the
    index refuses, goes to ``_parse_pair_lines``, which takes the same
    pairs and names the first bad line.  The caller has matched the line
    count m against the header.  Time: O(n + m)."""
    block = "\n".join(lines[1:])
    tokens = block.split()
    m = len(lines) - 1
    if len(tokens) == 2 * m and block.translate(_NO_DIGITS) == " \n" * (m - 1) + " ":
        vertices = map(LabelIndex(n).__getitem__, tokens)
        try:
            return list(zip(vertices, vertices))
        except KeyError:
            pass
    return _parse_pair_lines(lines, n)


def _parse_pair_lines(lines, n: int) -> list[tuple[int, int]]:
    """``_parse_pairs`` one line at a time: the pairs, or the ParseError of
    the first line after the header that is not two integers in 1..n.
    Time: O(n + m)."""
    pairs = []
    for line_no, line in enumerate(lines[1:], 2):
        parts = line.split()
        if len(parts) != 2 or not (is_int_token(parts[0], True)
                                   and is_int_token(parts[1], True)):
            raise ParseError(line_no, f"expected two integers, got {line!r}")
        a, b = int(parts[0]), int(parts[1])
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(line_no, f"index out of range 1..{n} in {(a, b)}")
        pairs.append((a - 1, b - 1))
    return pairs


def _parse_rows(lines, n: int) -> ZeroOneMatrix:
    """The n lines after the header as matrix rows, each n characters from
    0/1 once stripped; the first bad row is the one reported.  Time: O(n^2)."""
    rows = [line.strip() for line in lines[1:]]
    block = "".join(rows)
    if {*map(len, rows)} == {n} and not block.strip("01"):
        bits = block.encode().translate(_BITS)
        return ZeroOneMatrix(tuple(tuple(bits[i:i + n]) for i in range(0, n * n, n)))
    line_no, row = next((line_no, row) for line_no, row in enumerate(rows, 2)
                        if len(row) != n or row.strip("01"))
    raise ParseError(line_no, f"expected {n} characters from 0/1, got {row!r}")


def parse_instance(text: str):
    """Parse any of the three instance formats by its header.
    Time: O(n + m) for a pair block, O(n^2) for a matrix."""
    return _parse_lines(text.splitlines())


def _parse_lines(lines: list):
    """``parse_instance`` on the text's lines; drops trailing blank ones."""
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    head = lines[0].split()
    if not head:
        raise ParseError(1, "blank header line")
    if head[0] in ("bg", "dg"):
        noun = "edge" if head[0] == "bg" else "arc"
        if len(head) != 3 or not is_int_token(head[1]) or not is_int_token(head[2]):
            raise ParseError(1, f"malformed header {lines[0]!r}")
        n, m = int(head[1]), int(head[2])
        if n < 1:
            raise ParseError(1, "n must be at least 1")
        if len(lines) - 1 != m:
            raise ParseError(1, f"header promises {m} {noun}s, file has {len(lines) - 1}")
        pairs = _parse_pairs(lines, n)
        pair_set = frozenset(pairs)
        if len(pair_set) != len(pairs):
            dup = min(p for p, count in Counter(pairs).items() if count > 1)
            raise ParseError(1, f"duplicate {noun} {dup[0] + 1} {dup[1] + 1}")
        if head[0] == "bg":
            return _with_pairs(BipartiteGraph(n, pair_set), pairs)
        d = Digraph(n, pair_set)
        if d.has_loops():
            d = Digraph(n, pair_set, loops_allowed=True)
        return _with_pairs(d, pairs)
    if head[0] == "mat":
        if len(head) != 2 or not is_int_token(head[1]):
            raise ParseError(1, f"malformed header {lines[0]!r}")
        n = int(head[1])
        if n < 1:
            raise ParseError(1, "n must be at least 1")
        if len(lines) - 1 != n:
            raise ParseError(1, f"header promises {n} rows, file has {len(lines) - 1}")
        return _parse_rows(lines, n)
    raise ParseError(1, f"unknown header {head[0]!r} (expected bg, dg or mat)")


def read_instance(path):
    """The instance in the file at path.  ``parse_instance`` already checks
    every invariant ``core.validate`` would: ranges, duplicates, loops and
    the matrix shape.  Time: that of ``parse_instance``."""
    return parse_instance(_read_text(path))


def write_instance(obj, path) -> None:
    """Time: that of ``format_instance``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(obj))


_KINDS = {BipartiteGraph: "bg", Digraph: "dg", ZeroOneMatrix: "mat"}


def instance_kind(obj) -> str:
    return _KINDS[type(obj)]


# ---------------------------------------------------------------------------
# matchings: ``convert --matching``, the ``.map`` sidecar and every witness
# that embeds M write the edge u_i w_j as the token ``a-b``, a = i + 1 and
# b = j + 1


def format_matching(edges, n: int) -> str:
    """The edges, of a graph of order n, as ``a-b`` tokens, sorted.
    Time: O(n log n)."""
    label = vertex_labels(n)
    return " ".join([f"{label[i]}-{label[j]}" for i, j in sorted(edges)])


def read_matching(tokens, index: LabelIndex, has) -> dict:
    """``{i: j}`` for the edges u_i w_j of the ``a-b`` tokens, each end
    read through index, the instance's ``LabelIndex``, and each edge one
    that has(i, j) finds in the instance; an edge given twice counts once.
    A ValueError names, as the text writes it, the first token that is not
    two vertices and the first edge outside the instance, or says that an
    edge shares an end with an earlier one.  Time: O(1) per token."""
    mate, owner, n = {}, {}, index.n
    for token in tokens:
        ends = token.split("-")
        try:
            i, j = map(index.__getitem__, ends)
        except (KeyError, ValueError):
            if len(ends) != 2:
                raise ValueError(f"edge {token!r} is not two vertices a-b") from None
            i, j = _numbers(ends, "edge", token)
        if not (0 <= i < n and 0 <= j < n and has(i, j)):
            raise ValueError(f"edge {token} is not in the instance")
        if mate.setdefault(i, j) != j or owner.setdefault(j, i) != i:
            raise ValueError("matching edges share an endpoint")
    return mate


# ---------------------------------------------------------------------------
# correspondence sidecar


def format_correspondence(cmap, matching: Matching) -> str:
    """The ``.map`` sidecar of one translation.  Time: O(n log n)."""
    label = vertex_labels(cmap.n)
    lines = ["map 1", f"n: {cmap.n}"]
    lines.append("w-relabel: " + " ".join([label[j] for j in cmap.w_relabel]))
    lines.append("matching: " + format_matching(matching.edges, cmap.n))
    for v in range(cmap.n):
        i, j = cmap.matching_edge_of_vertex(v)
        lines.append(f"vertex {label[v]} = u{label[i]}-w{label[j]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    claim: str          # k-extendable | k-strong | k-indecomposable | k-irreducible
    k: int
    verdict: bool
    instance: object
    witness_kind: str
    witness_lines: tuple  # payload lines, already rendered


# each claim and the type of instance it is made about
CLAIMS = {"k-extendable": BipartiteGraph, "k-strong": Digraph,
          "k-indecomposable": ZeroOneMatrix, "k-irreducible": ZeroOneMatrix}


def k_range(claim: str, n: int) -> tuple[int, int | None]:
    """The least and the most k (None: no most) that the claim's decider
    takes on an instance of order n.  A k past n - 1 is still a claim for
    k-extendable and k-strong, refuted by the size cap or too few vertices."""
    return {"k-extendable": (0, None), "k-strong": (1, None),
            "k-indecomposable": (0, n - 1), "k-irreducible": (1, n)}[claim]


def format_certificate(cert: Certificate) -> str:
    """Time: that of ``format_instance``, plus the witness lines' length."""
    lines = ["extendix-cert 1",
             f"claim: {cert.claim}",
             f"k: {cert.k}",
             f"verdict: {'holds' if cert.verdict else 'fails'}",
             "instance:"]
    lines += format_instance(cert.instance).rstrip("\n").split("\n")
    lines.append("end-instance")
    lines.append(f"witness: {cert.witness_kind}")
    lines += list(cert.witness_lines)
    lines.append("end-witness")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """The certificate in text; the witness lines are kept as text, for
    ``certify.check_certificate`` to read.  A k outside the claim's
    ``k_range`` for the embedded instance is a header error on line 3.
    Time: that of
    ``parse_instance`` on the embedded instance, plus O(len(text))."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0] != "extendix-cert 1":
        raise ParseError(1, "not a certificate file")

    def expect(idx, prefix):
        if idx >= len(lines) or not lines[idx].startswith(prefix):
            raise ParseError(idx + 1, f"expected {prefix!r}")
        return lines[idx][len(prefix):].strip()

    claim = expect(1, "claim:")
    if claim not in CLAIMS:
        raise ParseError(2, f"unknown claim {claim!r}")
    k_text = expect(2, "k:")
    if not is_int_token(k_text, signed=True):
        raise ParseError(3, f"k must be an integer, got {k_text!r}")
    verdict_text = expect(3, "verdict:")
    if verdict_text not in ("holds", "fails"):
        raise ParseError(4, f"verdict must be holds/fails, got {verdict_text!r}")
    expect(4, "instance:")
    try:
        end_instance = lines.index("end-instance")
    except ValueError:
        raise ParseError(len(lines), "missing end-instance") from None
    instance = _parse_lines(lines[5:end_instance])
    if not isinstance(instance, CLAIMS[claim]):
        raise ParseError(6, f"{claim} needs a {_KINDS[CLAIMS[claim]]} instance, "
                            f"got {instance_kind(instance)}")
    k = int(k_text)
    least, most = k_range(claim, instance.n)
    if most is None and k < least:
        raise ParseError(3, f"k must be at least {least} for {claim}, got {k}")
    if most is not None and not least <= k <= most:
        raise ParseError(3, f"k must lie in {least}..{most} for {claim} at n={instance.n}, "
                            f"got {k}")
    witness_kind = expect(end_instance + 1, "witness:")
    if lines[-1] != "end-witness":
        raise ParseError(len(lines), "missing end-witness")
    witness_lines = tuple(lines[end_instance + 2:-1])
    return Certificate(claim, k, verdict_text == "holds", instance,
                       witness_kind, witness_lines)


def read_certificate(path) -> Certificate:
    """Time: that of ``parse_certificate``."""
    return parse_certificate(_read_text(path))
