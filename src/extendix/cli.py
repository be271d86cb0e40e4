"""Command-line surface: analyze, convert, certify, verify, search, randgen.

Exit codes: 0 = property holds / operation succeeded, 1 = property fails
(witness emitted), 2 = input error, 3 = search exhausted without result.
Output is deterministic for fixed seeds.

A subcommand is declared once: its name, help text and ``cmd_*`` handler
in ``_commands``, its positionals and options in ``_ARGUMENTS``.  A
well-formed command line is read straight off that table, with no
argparse parser built.  Anything else (help, ``--``, ``--flag=value``,
abbreviations, negative numbers, a bad value, a missing or extra
argument) goes to argparse, which words help, usage and errors: the
named command's own parser first, the full parser for help, a missing or
unknown command and leftovers.
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
from .connectivity import (_strong_audit, ear_decomposition_digraph, strong_components,
                           vertex_connectivity)
from .extendability import (_degree_audit_bipartite, _forest_check,
                            elementary_components)
from .matching import (COUNT_BUDGET, count_perfect_matchings, first_perfect_matching,
                       max_matching)
from .certify import build_certificate, check_certificate
from .fileio import (CLAIMS, format_certificate, format_correspondence,
                     format_instance, instance_kind, read_certificate,
                     read_instance)
from .search import (find_minimality_counterexamples, minimal_k_extendable_graphs,
                     minimal_k_strong_digraphs)


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
    above order COUNT_BUDGET it is not attempted."""
    if comap is None:
        return "0"
    order = max((len(p.scc) for p in comap.elementary), default=0)
    if order > COUNT_BUDGET:
        return f"not counted (elementary component of order {order} > {COUNT_BUDGET})"
    return str(count_perfect_matchings(comap.graph, comap))


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
    for idx, comp in enumerate(comps, 1):
        lines.append(f"component {idx}: " + " ".join(str(v + 1) for v in sorted(comp)))
    kappa = vertex_connectivity(d)
    lines.append(f"kappa: {kappa}")
    if strong and d.n >= 2 and not d.has_loops():
        dec = ear_decomposition_digraph(d)
        lines.append(f"ear-decomposition: {dec.ear_count} ears")
        for idx, ear in enumerate(dec.ears, 1):
            lines.append(f"ear {idx}: " + " ".join(str(v + 1) for v in ear))
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
    obj = read_instance(args.path)
    try:
        cert = build_certificate(obj, args.claim, args.k, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(format_certificate(cert), args.out)
    if args.out:
        print(f"{'holds' if cert.verdict else 'fails'}: "
              f"{args.claim} k={args.k}; certificate written to {args.out}")
    return 0 if cert.verdict else 1


def cmd_verify(args) -> int:
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


def _instance_block(header: str, obj) -> list[str]:
    return [header] + format_instance(obj).rstrip("\n").split("\n") + ["end-instance"]


def _strong_audit_lines(d: Digraph, k: int, idx: int) -> list[str]:
    audit, trail = _strong_audit(d, k)
    return [f"degree-audit {idx}: {'ok' if audit.ok else 'VIOLATION'} "
            f"out-degree-{k}-count={audit.out_degree_k_count} "
            f"in-degree-{k}-count={audit.in_degree_k_count}",
            f"anti-directed-trail {idx}: "
            + ("none" if trail is None else
               " ".join(f"{a + 1}->{b + 1}" for a, b in trail))]


def _extendable_audit_lines(g: BipartiteGraph, k: int, idx: int) -> list[str]:
    audit = _degree_audit_bipartite(g, k)
    # the sweep's graphs hold the canonical matching, whose digraph has the
    # off-diagonal edges as arcs
    forest = _forest_check(g, k, Digraph(g.n, frozenset(e for e in g.edges
                                                        if e[0] != e[1])))
    return [f"degree-audit {idx}: {'ok' if audit.ok else 'VIOLATION'} "
            f"degree-{k + 1}-total={audit.degree_k_plus_1_total} "
            f"u={audit.degree_k_plus_1_u} w={audit.degree_k_plus_1_w}",
            f"forest-check {idx}: {'ok' if forest.ok else 'VIOLATION'}"]


def cmd_search(args) -> int:
    k = args.k
    if k < 1:
        print(f"error: search needs k >= 1, got {k}", file=sys.stderr)
        return 2
    if args.limit < 1:
        print(f"error: search needs limit >= 1, got {args.limit}", file=sys.stderr)
        return 2
    lines = [f"target: {args.target}", f"k: {k}", f"n-max: {args.n_max}"]
    found = 0
    body: list[str] = []
    sweeps = {"minimal_k_strong": (minimal_k_strong_digraphs, _strong_audit_lines),
              "minimal_k_extendable": (minimal_k_extendable_graphs,
                                       _extendable_audit_lines)}
    if args.target in sweeps:
        generate, audit_lines = sweeps[args.target]
        for n in range(2, args.n_max + 1):
            if found >= args.limit:
                break
            try:
                instances = list(generate(n, k))
            except TooLargeError as exc:
                print(f"note: stopping at n={n - 1}: {exc}", file=sys.stderr)
                break
            for obj in instances:
                found += 1
                body += _instance_block(f"instance {found}:", obj)
                body += audit_lines(obj, k, found)
                if found >= args.limit:
                    break
    else:  # minimality_counterexample
        hits = find_minimality_counterexamples(args.n_max, k, limit=args.limit)
        for d, g, edge in hits:
            found += 1
            body += _instance_block(f"instance {found}:", d)
            body += _instance_block(f"graph {found}:", g)
            body.append(f"deletable-matching-edge {found}: "
                        f"{edge[0] + 1}-{edge[1] + 1}")
    lines.append(f"found: {found}")
    lines += body
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if found else 3


# ---------------------------------------------------------------------------
# randgen


def cmd_randgen(args) -> int:
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
# its options.  The reader and both argparse parsers are built from it.
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
        _Option("--seed", type=int, default=0),
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


def _command_parser(name: str, func):
    """Command ``name``'s own argparse parser, which acts as its subparser
    in ``build_parser`` would."""
    import argparse

    return _declare(argparse.ArgumentParser(prog=f"extendix {name}"), name, func)


def build_parser():
    """The argparse parser of all six subcommands under ``extendix``, for
    the calls whose help, usage and error texts argparse words at the top
    level."""
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
    args = None
    if func is not None:
        args = _read_args(argv[0], func, argv[1:])
        if args is None:
            args, rest = _command_parser(argv[0], func).parse_known_args(argv[1:])
            args = None if rest else args
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
