"""Command-line surface: analyze, convert, certify, verify, search, randgen.

Exit codes: 0 = property holds / operation succeeded, 1 = property fails
(witness emitted), 2 = input error, 3 = search exhausted without result.
Output is deterministic for fixed seeds.

A subcommand is declared once: its name, help text and ``cmd_*`` handler
in ``_commands``, its positionals and options in ``_ARGUMENTS``.  A
well-formed command line is read straight off that table, with no
argparse parser built.  Anything else (help, ``--``, ``--flag=value``,
abbreviations, negative numbers, a bad value, a missing or extra
argument, a missing or unknown command) goes to the full argparse
parser, ``build_parser``, which words help, usage and errors.
"""

from __future__ import annotations

import random
import sys
from types import SimpleNamespace
from typing import Callable, Collection, NamedTuple

from .core import (BipartiteGraph, Digraph, InvalidInstanceError, Matching,
                   TooLargeError, ZeroOneMatrix, connected, random_bipartite_with_pm,
                   is_int_token, random_digraph, u_label, w_label)
from .correspond import (bipartite_of_digraph, bipartite_of_matrix, digraph_of,
                         digraph_of_matrix, reduced_adjacency)
from .connectivity import (_anti_directed_trail, _bits, _degree_audit, _ear_decomposition,
                           strong_components, vertex_connectivity)
from .extendability import (_degree_audit_bipartite, _forest_check,
                            elementary_components)
from .matching import count_perfect_matchings, first_perfect_matching, max_matching
from .certify import build_certificate, check_certificate
from .fileio import (CLAIMS, format_certificate, format_correspondence,
                     format_instance, instance_kind, read_certificate,
                     read_instance, vertex_labels)
from .search import (_counterexample_rows, _in_rows, _minimal_k_extendable_rows,
                     _minimal_k_strong_rows, _with_diagonal)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _component_map(g: BipartiteGraph):
    """The one instance view of ``analyze``: the component map of one
    maximum matching, or None when that matching is not perfect."""
    m = max_matching(g)
    return elementary_components(g, m) if m.is_perfect else None


def _count_text(comap) -> str:
    """The value of ``perfect-matchings:`` and ``nonzero-diagonals:``.  The
    count visits 2^(c-1) terms per elementary component of order c (at
    order 24 about 1-2 s and 5-8 MB on a Xeon vCPU with Python 3.11), so
    past its budget it is not attempted."""
    if comap is None:
        return "0"
    try:
        return str(count_perfect_matchings(comap.graph, comap))
    except TooLargeError as exc:
        return f"not counted (elementary component of order {exc.size} > {exc.limit})"


def _analyze_bipartite(g: BipartiteGraph) -> str:
    lines = [f"kind: bg", f"n: {g.n}", f"edges: {g.m}"]
    lines.append(f"connected: {'yes' if connected(g) else 'no'}")
    comap = _component_map(g)
    lines.append(f"perfect-matchings: {_count_text(comap)}")
    ext = vertex_connectivity(comap.digraph) if comap is not None else 0
    lines.append(f"max-extendability: {ext}")
    if comap is not None:
        nonfixed = sum(len(p.edges) for p in comap.elementary)
        lines.append(f"edge-classes: fixed_single={len(comap.fixed_single_edges)} "
                     f"fixed_double={len(comap.fixed_double_singletons)} "
                     f"allowed_nonfixed={nonfixed}")
        lines.append(f"elementary-components: {len(comap.elementary)}")
        lines.append(f"fixed-double-singletons: {len(comap.fixed_double_singletons)}")
        for idx, piece in enumerate(comap.pieces, 1):
            us = " ".join(u_label(i) for i in sorted(piece.u_vertices))
            ws = " ".join(w_label(j) for j in sorted(piece.w_vertices))
            scc = " ".join(str(v + 1) for v in sorted(piece.scc))
            lines.append(f"component {idx}: {piece.kind} u=[{us}] w=[{ws}] scc=[{scc}]")
        if ext >= 1:
            summary = (f"{ext}-extendable, not {ext + 1}-extendable; "
                       f"{len(comap.elementary)} elementary component"
                       + ("s" if len(comap.elementary) != 1 else ""))
        else:
            summary = (f"not 1-extendable; {len(comap.elementary)} elementary "
                       f"component" + ("s" if len(comap.elementary) != 1 else ""))
    else:
        summary = "no perfect matching"
    lines.append(f"summary: {summary}")
    return "\n".join(lines) + "\n"


def _analyze_digraph(d: Digraph) -> str:
    lines = [f"kind: dg", f"n: {d.n}", f"arcs: {d.m}"]
    comps = strong_components(d)
    strong = len(comps) == 1
    lines.append(f"strong: {'yes' if strong else 'no'}")
    lines.append(f"strong-components: {len(comps)}")
    labels = vertex_labels(d.n)
    label = labels.__getitem__
    lines += [f"component {idx}: " + " ".join(map(label, sorted(comp)))
              for idx, comp in enumerate(comps, 1)]
    kappa = vertex_connectivity(d)
    lines.append(f"kappa: {kappa}")
    if strong and d.n >= 2 and not d.has_loops():
        dec = _ear_decomposition(d)
        lines.append(f"ear-decomposition: {dec.ear_count} ears")
        lines += [f"ear {idx}: {labels[ear[0]]} {labels[ear[1]]}" if len(ear) == 2 else
                  f"ear {idx}: " + " ".join(map(label, ear))
                  for idx, ear in enumerate(dec.ears, 1)]
        summary = (f"strong, kappa={kappa}; ear decomposition with "
                   f"{dec.ear_count} ear" + ("s" if dec.ear_count != 1 else ""))
    elif strong:
        summary = f"strong, kappa={kappa}"
    else:
        summary = f"not strong, {len(comps)} strong components"
    lines.append(f"summary: {summary}")
    return "\n".join(lines) + "\n"


def _analyze_matrix(a: ZeroOneMatrix) -> str:
    """A is 0-indecomposable iff it has a nonzero diagonal, k-indecomposable
    (k >= 1) iff B(A) is k-extendable and k-irreducible iff D(A) is
    k-strong, so the k-lists are read off max-extendability and kappa.
    With every a_ii = 1, D(A) is D(B(A), I) up to loops, and kappa of
    D(G, M) is the same for every perfect matching M (the paper's
    theorem), so kappa is max-extendability.  Order 1 is irreducible and
    fully indecomposable by definition."""
    comap = _component_map(bipartite_of_matrix(a))
    ext = vertex_connectivity(comap.digraph) if comap is not None else 0
    if all(a.rows[i][i] for i in range(a.n)):
        kappa = ext
    else:
        kappa = vertex_connectivity(digraph_of_matrix(a))
    irr = a.n == 1 or kappa >= 1
    fully = a.n == 1 or ext >= 1
    indec_ks = ([0] if comap is not None else []) + list(range(1, ext + 1))
    lines = [f"kind: mat", f"n: {a.n}", f"ones: {sum(sum(r) for r in a.rows)}",
             f"nonzero-diagonals: {_count_text(comap)}",
             f"irreducible: {'yes' if irr else 'no'}",
             f"fully-indecomposable: {'yes' if fully else 'no'}",
             "k-indecomposable: " + (" ".join(map(str, indec_ks)) or "none"),
             "k-irreducible: " + (" ".join(map(str, range(1, kappa + 1))) or "none")]
    parts = ["fully indecomposable" if fully else "partly decomposable"]
    if ext >= 1:
        parts.append(f"{ext}-indecomposable")
    parts.append("irreducible" if irr else "reducible")
    if kappa >= 1:
        parts.append(f"{kappa}-irreducible")
    lines.append("summary: " + ", ".join(parts))
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    """Time: reading the file (``fileio.read_instance``: O(n + m), O(n^2)
    for a matrix), then for a graph or matrix one component map of
    O(n + m) and O(n^2) mask operations, the count within its budget and
    ``vertex_connectivity``, and for a digraph the strong components, O(n^2) mask operations,
    ``vertex_connectivity`` and the ear decomposition, O(n (n + m)) for
    its start cycle, then O(n) mask steps per ear run and a search only
    for a path ear whose new vertex has no old out-neighbour, and one
    line per ear."""
    obj = read_instance(args.path)
    kind = instance_kind(obj)
    if args.kind and args.kind != kind:
        print(f"error: file is {kind!r}, not {args.kind!r}", file=sys.stderr)
        return 2
    if isinstance(obj, BipartiteGraph):
        text = _analyze_bipartite(obj)
    elif isinstance(obj, Digraph):
        text = _analyze_digraph(obj)
    else:
        text = _analyze_matrix(obj)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# convert


def _parse_matching_arg(g: BipartiteGraph, text: str) -> Matching:
    edges = set()
    for token in text.split(","):
        token = token.strip()
        halves = token.split("-")
        if len(halves) != 2 or not all(map(is_int_token, halves)):
            raise ValueError(f"bad matching token {token!r}, expected like 1-2")
        edges.add((int(halves[0]) - 1, int(halves[1]) - 1))
    return Matching(frozenset(edges), g)


def cmd_convert(args) -> int:
    """Time: reading the file, O(n + m) (O(n^2) for a matrix); for g2d
    with ``auto`` the first perfect matching, O(m n) mask operations; the
    translation, O(n + m), or O(n^2) to or from a matrix; and writing it,
    O(n + m log m)."""
    obj = read_instance(args.path)
    direction = args.direction
    if direction == "g2d":
        if not isinstance(obj, BipartiteGraph):
            print("error: g2d needs a bg instance", file=sys.stderr)
            return 2
        if args.matching == "auto":
            m = first_perfect_matching(obj)
            if m is None:
                print("error: graph has no perfect matching", file=sys.stderr)
                return 2
        else:
            try:
                m = _parse_matching_arg(obj, args.matching)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not m.is_perfect:
                print("error: the given matching is not perfect", file=sys.stderr)
                return 2
        d, cmap = digraph_of(obj, m)
        _emit(format_instance(d), args.out)
        if args.out:
            with open(args.out + ".map", "w", encoding="utf-8") as fh:
                fh.write(format_correspondence(cmap, m))
        return 0
    if direction == "d2g":
        if not isinstance(obj, Digraph):
            print("error: d2g needs a dg instance", file=sys.stderr)
            return 2
        if obj.has_loops():
            print("error: digraph has loops", file=sys.stderr)
            return 2
        g, m, cmap = bipartite_of_digraph(obj)
        _emit(format_instance(g), args.out)
        if args.out:
            with open(args.out + ".map", "w", encoding="utf-8") as fh:
                fh.write(format_correspondence(cmap, m))
        return 0
    if direction == "g2m":
        if not isinstance(obj, BipartiteGraph):
            print("error: g2m needs a bg instance", file=sys.stderr)
            return 2
        _emit(format_instance(reduced_adjacency(obj)), args.out)
        return 0
    if not isinstance(obj, ZeroOneMatrix):  # m2g, the last choice
        print("error: m2g needs a mat instance", file=sys.stderr)
        return 2
    _emit(format_instance(bipartite_of_matrix(obj)), args.out)
    return 0


# ---------------------------------------------------------------------------
# certify / verify


def cmd_certify(args) -> int:
    """Time: reading the file, then ``certify.build_certificate`` (two
    reaches of O(n) mask operations after the matching at k = 1) and
    writing the certificate, O(n + m log m) plus its witness lines."""
    obj = read_instance(args.path)
    try:
        cert = build_certificate(obj, args.claim, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(format_certificate(cert), args.out)
    if args.out:
        print(f"{'holds' if cert.verdict else 'fails'}: "
              f"{args.claim} k={args.k}; certificate written to {args.out}")
    return 0 if cert.verdict else 1


def cmd_verify(args) -> int:
    """Check a certificate file; a k that the claim does not take
    (``fileio.k_range``) is a header error of the file.  A witness that
    proves its verdict alone (every negative one, reach trees at k = 1, a
    perfect matching at k = 0, the size cap) is checked and nothing more;
    sampled path systems, and a witness that fails its check, also have
    the verdict re-derived by the decider.
    Time: reading the certificate (``fileio.read_certificate``, O(n + m)
    for its instance), then ``certify.check_certificate``: the witness
    check alone, at most a maximum matching of O(n^2) mask operations,
    and O(n log n) lookups for reach trees, for a self-proving witness."""
    cert = read_certificate(args.path)
    try:
        problems = check_certificate(cert)
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"witness payload malformed: {exc}"]
    if problems:
        print("certificate INVALID:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"certificate verified: {cert.claim} k={cert.k} "
          f"{'holds' if cert.verdict else 'fails'}")
    return 0


# ---------------------------------------------------------------------------
# search


def _line_table(n: int) -> list[list[str]]:
    """``table[a][row]``: the instance-file lines "a b", 1-based, of the arcs
    (a, b) or edges u_a w_b for the bits b of ``row``, in bit order."""
    return [["".join(f"{a + 1} {b + 1}\n" for b in _bits(row)) for row in range(1 << n)]
            for a in range(n)]


def _rows_block(header: str, kind: str, rows, table) -> str:
    """The block ``format_instance`` gives, between ``header`` and
    ``end-instance``, for the dg instance with out-rows ``rows`` or the bg
    instance with u-rows ``rows``: row order, then bit order, is the sorted
    order of the arcs or edges.  ``table`` is ``_line_table(n)``.
    Time: O(n) joins of the table's strings, O(n + m) characters."""
    return (f"{header}\n{kind} {len(rows)} {sum(map(int.bit_count, rows))}\n"
            + "".join([lines[row] for lines, row in zip(table, rows)]) + "end-instance\n")


def _strong_audit_text(outs, k: int, idx: int, table) -> str:
    ins = _in_rows(outs)
    audit, trail = _degree_audit(outs, ins, k), _anti_directed_trail(outs, ins, k)
    return (_rows_block(f"instance {idx}:", "dg", outs, table)
            + f"degree-audit {idx}: {'ok' if audit.ok else 'VIOLATION'} "
            f"out-degree-{k}-count={audit.out_degree_k_count} "
            f"in-degree-{k}-count={audit.in_degree_k_count}\n"
            f"anti-directed-trail {idx}: "
            + ("none" if trail is None else " ".join(f"{a + 1}->{b + 1}" for a, b in trail))
            + "\n")


def _extendable_audit_text(outs, k: int, idx: int, table) -> str:
    # B(D) holds the canonical matching, whose digraph is D
    ins = _in_rows(outs)
    u_rows, w_rows = _with_diagonal(outs), _with_diagonal(ins)
    audit = _degree_audit_bipartite(u_rows, w_rows, k)
    _, cycle, _ = _forest_check(u_rows, w_rows, (outs, ins), k)
    return (_rows_block(f"instance {idx}:", "bg", u_rows, table)
            + f"degree-audit {idx}: {'ok' if audit.ok else 'VIOLATION'} "
            f"degree-{k + 1}-total={audit.degree_k_plus_1_total} "
            f"u={audit.degree_k_plus_1_u} w={audit.degree_k_plus_1_w}\n"
            f"forest-check {idx}: {'ok' if cycle is None else 'VIOLATION'}\n")


def _counterexample_text(hit: tuple, k: int, idx: int, table) -> str:
    outs, (i, j) = hit
    return (_rows_block(f"instance {idx}:", "dg", outs, table)
            + _rows_block(f"graph {idx}:", "bg", _with_diagonal(outs), table)
            + f"deletable-matching-edge {idx}: {i + 1}-{j + 1}\n")


def cmd_search(args) -> int:
    """List the sweep's hits with their audit lines, each printed from its
    out-rows (``_rows_block``): no instance object is built.
    Time: the sweeps, then O(n + m) per listed hit for its text and audits
    (the trail's union-find O(m log m)), and a line table of n 2^n strings
    per size."""
    k = args.k
    if k < 1:
        print(f"error: search needs k >= 1, got {k}", file=sys.stderr)
        return 2
    if args.limit < 1:
        print(f"error: search needs limit >= 1, got {args.limit}", file=sys.stderr)
        return 2
    found = 0
    body: list[str] = []  # one string per hit
    sweeps = {"minimal_k_strong": (_minimal_k_strong_rows, _strong_audit_text),
              "minimal_k_extendable": (_minimal_k_extendable_rows, _extendable_audit_text),
              "minimality_counterexample": (_counterexample_rows, _counterexample_text)}
    generate, hit_text = sweeps[args.target]
    for n in range(2, args.n_max + 1):
        if found >= args.limit:
            break
        try:
            hits = generate(n, k)
            table = _line_table(n)
            for hit in hits:
                found += 1
                body.append(hit_text(hit, k, found, table))
                if found >= args.limit:
                    break
        except TooLargeError as exc:  # a guard raises before the size's first hit
            print(f"note: stopping at n={n - 1}: {exc}", file=sys.stderr)
            break
    _emit(f"target: {args.target}\nk: {k}\nn-max: {args.n_max}\nfound: {found}\n"
          + "".join(body), args.out)
    return 0 if found else 3


# ---------------------------------------------------------------------------
# randgen


def cmd_randgen(args) -> int:
    """Time: O(n^2), one random draw per ordered pair or matrix entry, then
    writing the instance in O(n + m) (O(n^2) for a matrix)."""
    if args.n < 1:
        print("error: n must be at least 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.p <= 1.0:
        print(f"error: p must lie in [0, 1], got {args.p}", file=sys.stderr)
        return 2
    if args.kind == "bg":
        obj = random_bipartite_with_pm(args.n, args.p, args.seed)
    elif args.kind == "dg":
        obj = random_digraph(args.n, args.p, args.seed)
    else:  # mat
        rng = random.Random(args.seed)
        rows = tuple(tuple(1 if rng.random() < args.p else 0
                           for _ in range(args.n)) for _ in range(args.n))
        obj = ZeroOneMatrix(rows)
    _emit(format_instance(obj), args.out)
    return 0


# ---------------------------------------------------------------------------
# command line


class _Option(NamedTuple):
    """One ``--flag value`` option, with the fields ``add_argument`` takes."""

    flag: str
    type: Callable | None = None  # None keeps the value as given
    choices: Collection | None = None
    required: bool = False
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_KINDS = ("bg", "dg", "mat")

# The only place a command's arguments are declared: its positionals and
# its options.  The reader and the argparse parser are built from it.
_ARGUMENTS = {
    "analyze": (("path",), (_Option("--kind", choices=_KINDS), _Option("--out"))),
    "convert": (("path",), (
        _Option("--direction", choices=("g2d", "d2g", "g2m", "m2g"), required=True),
        _Option("--matching", default="auto",
                help="perfect matching for g2d: 'auto' or like '1-1,2-2,3-3'"),
        _Option("--out"))),
    "certify": (("path",), (
        _Option("--claim", choices=CLAIMS, required=True),
        _Option("--k", type=int, required=True),
        _Option("--out"))),
    "verify": (("path",), ()),
    "search": ((), (
        _Option("--target", required=True,
                choices=("minimal_k_strong", "minimal_k_extendable",
                         "minimality_counterexample")),
        _Option("--n-max", type=int, required=True),
        _Option("--k", type=int, default=1),
        _Option("--limit", type=int, default=5),
        _Option("--out"))),
    "randgen": ((), (
        _Option("--kind", choices=_KINDS, required=True),
        _Option("--n", type=int, required=True),
        _Option("--p", type=float, default=0.5),
        _Option("--seed", type=int, default=0),
        _Option("--out"))),
}


def _commands() -> tuple:
    """Built per call, so that a rebound cmd_* is the handler that runs."""
    return (
        ("analyze", "report the property battery of an instance", cmd_analyze),
        ("convert", "translate between the three instance kinds", cmd_convert),
        ("certify", "emit a re-checkable certificate for a claim", cmd_certify),
        ("verify", "re-check a certificate file", cmd_verify),
        ("search", "hunt for minimal instances or counterexamples", cmd_search),
        ("randgen", "write a seeded random instance", cmd_randgen),
    )


def _read_args(name: str, func, tokens) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed command line, read off
    the table, or None for anything the table alone cannot settle.

    Accepted are the declared positionals in order and exact ``--flag
    value`` pairs in any order, the last of a repeated flag winning, whose
    values do not start with '-', convert by the option's type and lie in
    its choices, with every required option given.  Help, ``--``,
    ``--flag=value``, abbreviations, negative numbers and every error are
    left to argparse."""
    positionals, options = _ARGUMENTS[name]
    flags = {opt.flag: opt for opt in options}
    values = {opt.dest: opt.default for opt in options}
    pending, given = list(positionals), set()
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            if not pending:
                return None
            values[pending.pop(0)] = token
            continue
        opt, value = flags.get(token), next(tokens, "-")  # "-": no value left
        if opt is None or value.startswith("-"):
            return None
        if opt.type is not None:
            try:
                value = opt.type(value)
            except (TypeError, ValueError):
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        given.add(opt.flag)
    if pending or any(opt.required and opt.flag not in given for opt in options):
        return None
    return SimpleNamespace(**values, func=func)


def _declare(parser, name: str, func):
    """Add command ``name``'s arguments from the table to an argparse parser."""
    positionals, options = _ARGUMENTS[name]
    for dest in positionals:
        parser.add_argument(dest)
    for opt in options:
        parser.add_argument(opt.flag, type=opt.type, choices=opt.choices,
                            required=opt.required, default=opt.default, help=opt.help)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    """The argparse parser of all six subcommands under ``extendix``, for
    the command lines the table reader declines: argparse words their help,
    usage and error texts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="extendix",
        description="Analyze, translate and certify bipartite matching "
                    "extendability, digraph connectivity and 0-1 matrix "
                    "decomposability.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in _commands():
        _declare(sub.add_parser(name, help=help_text), name, func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    handlers = {name: func for name, _, func in _commands()}
    func = handlers.get(argv[0]) if argv else None
    args = _read_args(argv[0], func, argv[1:]) if func is not None else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstanceError, TooLargeError, OSError) as exc:  # ParseError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
