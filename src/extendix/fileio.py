"""Text formats for instances, correspondence sidecars and certificates.

Instance formats (indices are 1-based on disk, 0-based in memory):

* bipartite graph: ``bg <n> <m>`` then m lines ``<i> <j>`` for edge u_i w_j
* digraph:         ``dg <n> <m>`` then m lines ``<i> <j>`` for arc i -> j
* matrix:          ``mat <n>``    then n lines of n characters from {0,1}

Certificates embed the instance, the verdict and a witness section, so a
verifier needs nothing but the certificate file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (BipartiteGraph, Digraph, InvalidInstanceError, Matching,
                   ValidationReport, ZeroOneMatrix, is_int_token)


class ParseError(InvalidInstanceError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(ValidationReport(False, (f"line {line_no}: {message}",)))


def _read_text(path) -> str:
    """The text of the file at path; bytes that are not UTF-8 are a
    ParseError on the line that holds the first of them."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
                             ) from None


# ---------------------------------------------------------------------------
# instance formats


def format_bipartite(g: BipartiteGraph) -> str:
    lines = [f"bg {g.n} {g.m}"]
    lines += [f"{i + 1} {j + 1}" for i, j in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def format_digraph(d: Digraph) -> str:
    lines = [f"dg {d.n} {d.m}"]
    lines += [f"{a + 1} {b + 1}" for a, b in d.sorted_arcs()]
    return "\n".join(lines) + "\n"


def format_matrix(a: ZeroOneMatrix) -> str:
    lines = [f"mat {a.n}"]
    lines += ["".join(str(x) for x in row) for row in a.rows]
    return "\n".join(lines) + "\n"


def format_instance(obj) -> str:
    if isinstance(obj, BipartiteGraph):
        return format_bipartite(obj)
    if isinstance(obj, Digraph):
        return format_digraph(obj)
    if isinstance(obj, ZeroOneMatrix):
        return format_matrix(obj)
    raise TypeError(f"cannot format {type(obj).__name__}")


def _parse_pairs(lines, n: int):
    """The lines after the header as 0-based pairs, each line two integers
    in 1..n; the first bad line is the one reported.  The caller has
    matched the line count against the header."""
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


def parse_instance(text: str):
    """Parse any of the three instance formats by its header."""
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
        return Digraph(n, pair_set, loops_allowed=any(a == b for a, b in pairs))
    if head[0] == "mat":
        if len(head) != 2 or not is_int_token(head[1]):
            raise ParseError(1, f"malformed header {lines[0]!r}")
        n = int(head[1])
        if n < 1:
            raise ParseError(1, "n must be at least 1")
        if len(lines) - 1 != n:
            raise ParseError(1, f"header promises {n} rows, file has {len(lines) - 1}")
        rows = []
        for i in range(n):
            row = lines[1 + i].strip()
            if len(row) != n or any(c not in "01" for c in row):
                raise ParseError(2 + i, f"expected {n} characters from 0/1, got {row!r}")
            rows.append(tuple(int(c) for c in row))
        return ZeroOneMatrix(tuple(rows))
    raise ParseError(1, f"unknown header {head[0]!r} (expected bg, dg or mat)")


def read_instance(path):
    """The instance in the file at path.  ``parse_instance`` already checks
    every invariant ``core.validate`` would: ranges, duplicates, loops and
    the matrix shape."""
    return parse_instance(_read_text(path))


def write_instance(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(obj))


_KINDS = {BipartiteGraph: "bg", Digraph: "dg", ZeroOneMatrix: "mat"}


def instance_kind(obj) -> str:
    return _KINDS[type(obj)]


# ---------------------------------------------------------------------------
# correspondence sidecar


def format_correspondence(cmap, matching: Matching) -> str:
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


def format_certificate(cert: Certificate) -> str:
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
    witness_kind = expect(end_instance + 1, "witness:")
    if lines[-1] != "end-witness":
        raise ParseError(len(lines), "missing end-witness")
    witness_lines = tuple(lines[end_instance + 2:-1])
    return Certificate(claim, int(k_text), verdict_text == "holds", instance,
                       witness_kind, witness_lines)


def read_certificate(path) -> Certificate:
    return parse_certificate(_read_text(path))
