"""Text formats for instances, correspondence sidecars and certificates.

Instance formats (indices are 1-based on disk, 0-based in memory):

* bipartite graph: ``bg <n> <m>`` then m lines ``<i> <j>`` for edge u_i w_j
* digraph:         ``dg <n> <m>`` then m lines ``<i> <j>`` for arc i -> j
* matrix:          ``mat <n>``    then n lines of n characters from {0,1}

Certificates embed the instance, the verdict and a witness section, so a
verifier needs nothing but the certificate file.

Every vertex number is written and read through one table of labels per
order n, built per call in O(n): ``vertex_labels(n)`` holds the label
``str(v + 1)`` of each vertex v, and ``LabelIndex`` maps each label back
to its vertex.  A pair block is read with no Python call per token on
the accept path; the line-by-line reader runs only after a rejection, to
name the first bad line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

from .core import (BipartiteGraph, Digraph, InvalidInstanceError, Matching,
                   ValidationReport, ZeroOneMatrix, is_int_token)


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
    """Time: O(n + m log m), the sort of the edges."""
    return _format_pairs(f"bg {g.n} {g.m}", g.n, g.sorted_edges())


def format_digraph(d: Digraph) -> str:
    """Time: O(n + m log m), the sort of the arcs."""
    return _format_pairs(f"dg {d.n} {d.m}", d.n, d.sorted_arcs())


def format_matrix(a: ZeroOneMatrix) -> str:
    """Time: O(n^2)."""
    lines = [f"mat {a.n}"]
    lines += [bytes(row).translate(_DIGITS).decode() for row in a.rows]
    return "\n".join(lines) + "\n"


def format_instance(obj) -> str:
    """The instance's file text.  Time: O(n + m log m) for a graph or
    digraph, O(n^2) for a matrix."""
    if isinstance(obj, BipartiteGraph):
        return format_bipartite(obj)
    if isinstance(obj, Digraph):
        return format_digraph(obj)
    if isinstance(obj, ZeroOneMatrix):
        return format_matrix(obj)
    raise TypeError(f"cannot format {type(obj).__name__}")


def _parse_pairs(lines, n: int) -> list[tuple[int, int]]:
    """The lines after the header as 0-based pairs, each line two integers
    in 1..n, every token read through one ``LabelIndex``.  The index takes
    exactly the tokens ``_raise_bad_pair_line`` takes, so after a rejection
    that reader names the first bad line.  The caller has matched the line
    count against the header.  Time: O(n + m)."""
    rows = [line.split() for line in lines[1:]]
    if {*map(len, rows)} <= {2}:
        vertices = map(LabelIndex(n).__getitem__, chain.from_iterable(rows))
        try:
            return list(zip(vertices, vertices))
        except KeyError:
            pass
    _raise_bad_pair_line(lines, n)


def _raise_bad_pair_line(lines, n: int) -> NoReturn:
    """Raise the ParseError of the first line after the header that is not
    two integers in 1..n, read line by line."""
    for line_no, line in enumerate(lines[1:], 2):
        parts = line.split()
        if len(parts) != 2 or not (is_int_token(parts[0], True)
                                   and is_int_token(parts[1], True)):
            raise ParseError(line_no, f"expected two integers, got {line!r}")
        a, b = int(parts[0]), int(parts[1])
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(line_no, f"index out of range 1..{n} in {(a, b)}")


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
            return BipartiteGraph(n, pair_set)
        d = Digraph(n, pair_set)
        return Digraph(n, pair_set, loops_allowed=True) if d.has_loops() else d
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
# correspondence sidecar


def format_correspondence(cmap, matching: Matching) -> str:
    """The ``.map`` sidecar of one translation.  Time: O(n log n)."""
    lines = ["map 1", f"n: {cmap.n}"]
    lines.append("w-relabel: " + " ".join(str(j + 1) for j in cmap.w_relabel))
    lines.append("matching: " + " ".join(
        f"{i + 1}-{j + 1}" for i, j in sorted(matching.edges)))
    for v in range(cmap.n):
        i, j = cmap.matching_edge_of_vertex(v)
        lines.append(f"vertex {v + 1} = u{i + 1}-w{j + 1}")
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
