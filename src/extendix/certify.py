"""Building and checking certificates for the four claim kinds.

A positive certificate carries reach trees at k = 1, fan paths above, or
a perfect matching for the k = 0 boundary; a negative certificate carries
a separator, a deficient vertex set read off a separator, or a zero block
(older certificates may carry a non-extendable matching, and older
positive ones sampled path systems).  Above k = 0 every claim is that one
digraph is k-strong: D itself, D(A), or D(G, M) and D(B(A), M) for the
maximum matching M that building takes anyway.  At k = 1 the out-tree and
in-tree from vertex 1 that the two reaches of that decision grow prove
it.  At k >= 2 S. Even's schedule (``connectivity.is_k_strong``) decides,
and a holding decision hands over the paths of every check that the arcs
leave open (``connectivity._short_check``): the witness of a certifying
algorithm in the sense of McConnell, Mehlhorn, Naeher and Schweitzer
(Comput. Sci. Rev. 2011).
``check_certificate`` checks the witness first.  A witness whose check
alone proves the verdict (every negative one, reach trees, fan paths, a
perfect matching at k = 0, the size cap of k-irreducibility) is the whole
proof, and no decider runs; for the sampled path systems of earlier
versions, and for a witness that fails its check, the verdict is
re-derived from the embedded instance as well.

Cost: building takes one decision, a maximum matching and at most one
``is_k_strong`` call: at k = 1 two reaches of O(n) mask operations,
which also give the trees, else at most k(k-1) + 2(n-k) flows of
O(k (n + m)) on one net per orientation, whose proof a positive
certificate writes.  A negative witness is read off the decision itself:
a separator, a deficient set or a zero block from the cut of the first
failing flow (at k = 1 the empty cut of the failing reach, on the D the
reaches ran on), or a Hall violator from the failing matching.
"""

from __future__ import annotations

from itertools import chain, compress

from .core import (BipartiteGraph, Digraph, Matching, ZeroOneMatrix,
                   connected, parse_vertex_label)
from .correspond import bipartite_of_matrix, digraph_of, digraph_of_matrix
from .connectivity import (_reach_tree, _rows, is_k_strong, strong_components,
                           check_path_system, PathSystem)
from .extendability import (AltPathSystem, _deficient_set, check_alternating_path_system,
                            is_k_extendable)
from .fileio import (CLAIMS, Certificate, LabelIndex, _numbers, format_matching, k_range,
                     read_matching, vertex_labels)
from .matching import first_perfect_matching, has_perfect_matching, max_matching_pairs
from .matrixlab import (_decomposable, _distinct_in_range, _independent_witness, _reducible,
                        _symmetric_witness, check_witness, is_k_partly_decomposable,
                        is_k_reducible)


_NOUNS = {BipartiteGraph: "bipartite graph", Digraph: "digraph", ZeroOneMatrix: "matrix"}


def _vertices(index: LabelIndex, tokens, *where) -> list[int]:
    """``_numbers`` of tokens, read through the instance's label index; a
    token outside it, no number of 1..n, goes to ``_numbers``, which names
    a token that is no number or gives the index out of range that the
    caller reports.  Time: O(len(tokens))."""
    try:
        return list(map(index.__getitem__, tokens))
    except KeyError:
        return _numbers(tokens, *where)


def _field(lines, prefix: str) -> str | None:
    """The text after ``prefix`` on the one line that starts with it, None
    when no line does; a ValueError when more than one does, so a witness
    cannot hide its own line behind another."""
    found = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    if len(found) > 1:
        raise ValueError(f"the {prefix} line appears {len(found)} times")
    return found[0] if found else None


def _indices(lines, prefix: str) -> list[int]:
    """The 1-based numbers of a ``prefix`` line as 0-based indices."""
    return _numbers((_field(lines, prefix) or "").split(), "the", prefix, "line")


def _walk_index(n: int) -> dict:
    """``{"u3": ("u", 2), ...}``: the u and w labels of order n, read off
    one ``vertex_labels`` table.  Time: O(n)."""
    return {side + label: (side, v) for side in "uw" for v, label in enumerate(vertex_labels(n))}


def _parse_walk(text: str, index: dict) -> tuple:
    """The (side, v) of each vertex of text, read through index, the
    instance's ``_walk_index``; a token outside it goes to
    ``parse_vertex_label``, which gives the vertex out of range that the
    caller reports or, for no vertex label, a ValueError.
    Time: O(len(text))."""
    tokens = text.split()
    try:
        return tuple(map(index.__getitem__, tokens))
    except KeyError:
        pass
    out = []
    for token in tokens:
        parsed = parse_vertex_label(token)
        if parsed is None:
            raise ValueError(f"bad walk vertex {token!r}")
        out.append(parsed)
    return tuple(out)


# ---------------------------------------------------------------------------
# building


def _reach_trees(claim: str, obj, d: Digraph, head=()) -> Certificate | None:
    """The certificate of a claim that holds at k = 1 because d, its
    digraph, is strong and has n >= 2 vertices; None otherwise.  Its lines
    are head (the matching line of the bipartite side), then the parent of
    each of vertices 2..n in the breadth-first out-tree and in-tree from
    vertex 1 (``connectivity._reach_tree``, on d's rows).
    Time: O(n) mask operations, the two reaches that decide k = 1."""
    if d.n < 2:
        return None
    full, label, lines = (1 << d.n) - 1, vertex_labels(d.n), list(head)
    for name, rows in zip(("out-tree: ", "in-tree: "), _rows(d)):
        reach, parent = _reach_tree(rows, 0, full)
        if reach != full:
            return None
        lines.append(name + " ".join([label[p] for p in parent[1:]]))
    return Certificate(claim, 1, True, obj, "reach-trees", tuple(lines))


def _fan_paths(claim: str, k: int, obj, n: int, proof: list, head=()) -> Certificate:
    """The certificate of a claim that holds at k >= 2 because its digraph,
    of order n, is k-strong: head (the matching line of the bipartite
    side), then per entry of proof, the schedule's proof
    (``connectivity._short_check``), the check's line and one line per
    path.  Time: O(n) plus the length of the paths."""
    label, lines = vertex_labels(n), list(head)
    for (name, *ends), paths in proof:
        lines.append(f"{name}: " + " ".join([label[v] for v in ends]))
        lines += ["path: " + " ".join([label[v] for v in path]) for path in paths]
    return Certificate(claim, k, True, obj, "fan-paths", tuple(lines))


def _matched(claim: str, k: int, obj, g: BipartiteGraph, pairs: dict) -> tuple:
    """For k >= 1, when pairs, a maximum matching of g, is a perfect one M:
    D(g, M), M's line, and at k = 1 ``_reach_trees`` of D with that line
    first.  Otherwise (None, (), None)."""
    if k < 1 or len(pairs) < g.n:
        return None, (), None
    m = Matching(frozenset(pairs.items()), g)
    d, head = digraph_of(g, m)[0], ("matching: " + format_matching(m.edges, g.n),)
    return d, head, _reach_trees(claim, obj, d, head) if k == 1 else None


def _matching_certificate(claim: str, k: int, obj, g: BipartiteGraph, pairs: dict,
                          proof: list, head: tuple) -> Certificate:
    """Positive certificate for a k-extendable graph g (obj is g or its
    matrix): the first perfect matching at k = 0, else the fan paths of
    proof on D(g, M) after M's line, head, M being pairs, a maximum
    matching of g."""
    if k == 0:
        m = first_perfect_matching(g, pairs)
        return Certificate(claim, k, True, obj, "perfect-matching",
                           ("edges: " + format_matching(m.edges, g.n),))
    return _fan_paths(claim, k, obj, g.n, proof, head)


def _zero_block_certificate(claim: str, k: int, a: ZeroOneMatrix, w) -> Certificate:
    label = vertex_labels(a.n)
    return Certificate(claim, k, False, a, "zero-block", (
        "rows: " + " ".join([label[i] for i in w.row_subset]),
        "cols: " + " ".join([label[j] for j in w.col_subset])))


def build_certificate(obj, claim: str, k: int) -> Certificate:
    """Decide the claim on the instance and package a re-checkable witness.
    Time: O(n^2) mask operations for a maximum matching, and O(n + m) for
    the claim's digraph on the bipartite side at k >= 1.  Then, at k = 1,
    two reaches of O(n) mask operations, the whole of a positive
    certificate, which a failing claim repeats (``is_k_strong``) before the
    O(n^2) strong-component pass of its witness; at k >= 2 one
    ``is_k_strong`` call of at most k(k-1) + 2(n-k) flows of
    O(k (n + m)), on one net per orientation, whose proof a positive
    certificate writes: O(n) per check listed, the sum of the listed path
    lengths, at most k(k-1) + 2(n-k) checks of k paths, O(k n^2) labels."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    if not isinstance(obj, CLAIMS[claim]):
        raise ValueError(f"{claim} applies to {_NOUNS[CLAIMS[claim]]} instances")
    proof: list = []
    if claim == "k-extendable":
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > obj.n - 1:
            return Certificate(claim, k, False, obj, "size-cap",
                               (f"reason: k={k} exceeds n-1={obj.n - 1}",))
        pairs = max_matching_pairs(obj)
        d, head, cert = _matched(claim, k, obj, obj, pairs)
        if cert:
            return cert
        x = _deficient_set(obj, k, pairs, d, proof)
        if x is None:
            return _matching_certificate(claim, k, obj, obj, pairs, proof, head)
        if k >= 1 and not connected(obj):
            return Certificate(claim, k, False, obj, "disconnected", ())
        if len(pairs) < obj.n:
            return Certificate(claim, k, False, obj, "no-perfect-matching", ())
        label = vertex_labels(obj.n)
        return Certificate(claim, k, False, obj, "deficient-set",
                           ("u-set: " + " ".join([label[i] for i in x]),))

    if claim == "k-strong":
        if k < 1:
            raise ValueError("k must be at least 1")
        if k == 1 and (cert := _reach_trees(claim, obj, obj)):
            return cert
        verdict = is_k_strong(obj, k, proof)
        if verdict.holds:
            return _fan_paths(claim, k, obj, obj.n, proof)
        if verdict.separator is None:
            return Certificate(claim, k, False, obj, "too-few-vertices",
                               (f"reason: {verdict.reason}",))
        label = vertex_labels(obj.n)
        sep = " ".join([label[v] for v in verdict.separator])
        return Certificate(claim, k, False, obj, "separator", (f"vertices: {sep}",))

    if claim == "k-indecomposable":
        g = bipartite_of_matrix(obj)
        pairs = max_matching_pairs(g)
        d, head, cert = _matched(claim, k, obj, g, pairs)
        if cert:
            return cert
        res = _decomposable(obj, k, "k_partly_decomposable", g, pairs, d, proof)
        if res.holds:
            return _zero_block_certificate(claim, k, obj, res.witness)
        return _matching_certificate(claim, k, obj, g, pairs, proof, head)

    if claim == "k-irreducible":
        d = digraph_of_matrix(obj)
        if k == 1 and (cert := _reach_trees(claim, obj, d)):
            return cert
        res = _reducible(obj, k, "k_reducible", d, proof)
        if res.holds:
            return _zero_block_certificate(claim, k, obj, res.witness)
        if k == obj.n:
            return Certificate(claim, k, True, obj, "size-cap",
                               ("reason: no matrix of order n is n-reducible",))
        return _fan_paths(claim, k, obj, obj.n, proof)


# ---------------------------------------------------------------------------
# checking


def _recompute_verdict(cert: Certificate) -> bool:
    """The claim's decider on the embedded instance: the proof behind a
    witness that does not prove its verdict alone, the sampled path
    systems of earlier versions, and the verdict problem of a witness that
    fails its check."""
    obj, k = cert.instance, cert.k
    if cert.claim == "k-extendable":
        return is_k_extendable(obj, k)
    if cert.claim == "k-strong":
        return is_k_strong(obj, k).holds
    if cert.claim == "k-indecomposable":
        return not is_k_partly_decomposable(obj, k).holds
    if cert.claim == "k-irreducible":
        return not is_k_reducible(obj, k).holds
    raise ValueError(f"unknown claim {cert.claim!r}")


def _path_line_problems(pair: str, texts, paths, labels: set, span: str) -> list[str]:
    """A pair's empty path lines and paths through a vertex not in labels,
    the instance's vertices, which span names in the certificate's terms."""
    return [f"pair {pair} has an empty path line" if not path else
            f"pair {pair} has path {text} with a vertex outside {span}"
            for text, path in zip(texts, paths) if not path or not labels.issuperset(path)]


def _split_sections(lines) -> list[tuple]:
    """Group 'pair:' headers with their 'path:' payloads: (the pair's
    tokens, its name as the certificate writes it, its path texts)."""
    sections = []
    current = None
    for line in lines:
        if line.startswith("pair:"):
            tokens = line[len("pair:"):].split()
            current = (tokens, " ".join(tokens), [])
            sections.append(current)
        elif line.startswith("path:"):
            if current is None:
                raise ValueError("path line before any pair line")
            current[2].append(line[len("path:"):].strip())
    return sections


def _mate(text: str, has, index: LabelIndex, noun: str) -> tuple[dict | None, str | None]:
    """(the matching of text as ``{i: j}``, None), read by
    ``fileio.read_matching`` through index and has, the instance's; (None,
    its problem after "noun matching invalid:") when the reader refuses it."""
    try:
        return read_matching(text.split(), index, has), None
    except ValueError as exc:
        return None, f"{noun} matching invalid: {exc}"


def _perfect_mate(text: str, has, index: LabelIndex) -> tuple[list | None, str | None]:
    """(M(v) for each vertex v, None) for the perfect matching M of text,
    a ``matching:`` line's, read by ``_mate``; (None, the problem) when
    there is no such M."""
    mate, problem = _mate(text, has, index, "embedded")
    if problem or len(mate) != index.n:
        return None, problem or "embedded matching is not perfect"
    return [mate[v] for v in range(index.n)], None


def _cycle_vertex(parent: list) -> int | None:
    """A vertex on a cycle of the parent map, whose root 0 has none; None
    when every vertex's parents lead to 0.  Time: O(n), as a vertex is
    walked over once before it is known to lead to 0."""
    state = [0] * len(parent)  # 0 unseen, 1 on the current walk, 2 leads to 0
    state[0] = 2
    for start in range(1, len(parent)):
        walk, v = [], start
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = parent[v]
        if state[v] == 1:
            return v
        for u in walk:
            state[u] = 2
    return None


def _lookup(obj):
    """has(i, j): whether the instance holds the arc i->j, the edge u_i w_j
    or the one a_ij, for i and j in range.  Time: O(1) per call."""
    if isinstance(obj, ZeroOneMatrix):
        return lambda i, j: obj.rows[i][j] == 1
    held = obj.arcs if isinstance(obj, Digraph) else obj.edges
    return lambda i, j: (i, j) in held


# the digraph whose arcs the trees and paths of a claim's positive witness use
_DIGRAPH = {"k-strong": "the digraph", "k-irreducible": "D(A)",
            "k-extendable": "D(G, M)", "k-indecomposable": "D(B(A), M)"}


def _reach_tree_problems(cert: Certificate) -> list[str]:
    """The ``reach-trees`` check.  It asks k = 1 and n >= 2; on the
    bipartite side a perfect matching M of the instance; and per tree line
    one parent in 1..n for each of vertices 2..n, never the vertex itself,
    joined to it by a tree arc of the claim's digraph (``_TREE_DIGRAPH``;
    vertex a is u_a on the bipartite side), with no cycle among the
    parents.  Each arc is one lookup in the instance: p->v is a_pv of A,
    or the edge u_p w_M(v) of G or B(A).  No decider, flow net or mask
    build runs.  Time: O(n) lookups."""
    obj, n = cert.instance, cert.instance.n
    if cert.k != 1:
        return [f"reach-trees needs k = 1, has k={cert.k}"]
    if n < 2:
        return [f"reach-trees needs n >= 2, has n={n}"]
    has, mate, index = _lookup(obj), range(n), LabelIndex(n)
    if cert.claim in ("k-extendable", "k-indecomposable"):
        text = _field(cert.witness_lines, "matching:")
        mate, problem = (_perfect_mate(text, has, index) if text is not None
                         else (None, "reach-trees needs one matching: line, has 0"))
        if problem:
            return [problem]
    digraph, problems = _DIGRAPH[cert.claim], []
    for name, out in (("out-tree", True), ("in-tree", False)):
        text = _field(cert.witness_lines, name + ":")
        tokens = (text or "").split()
        if text is None or len(tokens) != n - 1:
            problems.append(f"reach-trees needs one {name}: line, has 0" if text is None
                            else f"{name} has {len(tokens)} parents, expected n-1={n - 1}")
            continue
        parent = [-1] + _vertices(index, tokens, "the", name, "line")
        found = len(problems)
        for v in range(1, n):
            p = parent[v]
            if not 0 <= p < n:
                problems.append(f"{name} gives vertex {v + 1} the parent {p + 1}, "
                                f"outside 1..{n}")
            elif p == v:
                problems.append(f"{name} gives vertex {v + 1} itself as its parent")
            elif not (has(p, mate[v]) if out else has(v, mate[p])):
                tail, head = (p, v) if out else (v, p)
                problems.append(f"{name} arc {tail + 1} -> {head + 1} is not in {digraph}")
        if len(problems) == found and (c := _cycle_vertex(parent)) is not None:
            problems.append(f"{name} parents run in a cycle through vertex {c + 1}")
    return problems


def _fan_digraph(cert: Certificate, index: LabelIndex) -> tuple:
    """((out-rows, in-rows), None) of the digraph whose k-strength a
    ``fan-paths`` witness proves: D, D(A), or D(G, M) and D(B(A), M) for
    the perfect matching M of the ``matching:`` line, read through index;
    (None, the problem) when that line gives no perfect matching of the
    instance.  D(G, M) has the arc p->v for each edge u_p w_M(v), p != v,
    and D(A) the arc p->v for each one a_pv, p != v: the same relabelling
    of B(A) with M(v) = v.
    Time: O(n + m), or O(n^2) for a matrix."""
    obj, claim, n = cert.instance, cert.claim, cert.instance.n
    if claim == "k-strong":
        return _rows(obj), None
    mate = range(n)
    if claim != "k-irreducible":
        text = _field(cert.witness_lines, "matching:")
        if text is None:
            return None, "fan-paths needs a matching: line"
        mate, problem = _perfect_mate(text, _lookup(obj), index)
        if problem:
            return None, problem
    owner, outs, ins = [0] * n, [0] * n, [0] * n
    for v, w in enumerate(mate):
        owner[w] = v
    edges = obj.edges if isinstance(obj, BipartiteGraph) else (
        (p, j) for p, row in enumerate(obj.rows) for j in compress(range(n), row))
    for p, j in edges:
        if (v := owner[j]) != p:
            outs[p] |= 1 << v
            ins[v] |= 1 << p
    return (outs, ins), None


def _fan_sections(lines, index: LabelIndex, matched: bool) -> dict:
    """{check: (its name as written, its paths' token lists)} for the check
    lines of a ``fan-paths`` witness, each check ("pair", s, t),
    ("in-fan", j) or ("out-fan", j) in 0-based vertices, read through
    index.  A ValueError names a path line before any check line, a check
    given twice, and a line of another kind (``matching:`` is one only
    when not matched).  Time: O(len(lines)) plus the tokens."""
    sections, listed = {}, None
    for line in lines:
        kind, _, rest = line.partition(":")
        tokens = rest.split()
        if kind == "path":
            if listed is None:
                raise ValueError("path line before any check line")
            listed.append(tokens)
        elif kind in ("pair", "in-fan", "out-fan"):
            check = (kind, *_vertices(index, tokens, "the", kind, "line"))
            if check in sections:
                raise ValueError(f"the line {line!r} appears twice")
            listed = []
            sections[check] = (" ".join([kind, *tokens]), listed)
        elif not (matched and kind == "matching"):
            raise ValueError(f"fan-paths has no {kind}: lines")
    return sections


def _open_checks(outs, ins, k: int):
    """The checks of S. Even's schedule (``connectivity.is_k_strong``) that
    the arcs leave open, for n >= k + 1, as (check, the paths it needs, the
    mask of its direct tails or heads): each ordered pair s != t < k with
    no arc s->t, needing k paths; for each j >= k, the in-fan into j and
    the out-fan from j, needing k less the arcs between j and {0..j-1}
    that run its way, when that is positive.  Time: O(k^2 + n)."""
    for s in range(k):
        for t in range(k):
            if s != t and not outs[s] >> t & 1:
                yield ("pair", s, t), k, 0
    for j in range(k, len(outs)):
        below = (1 << j) - 1
        for name, rows in (("in-fan", ins), ("out-fan", outs)):
            direct = rows[j] & below
            if direct.bit_count() < k:
                yield (name, j), k - direct.bit_count(), direct


def _fan_path_problems(cert: Certificate) -> list[str]:
    """The ``fan-paths`` check.  It asks k >= 1 and n >= k + 1; on the
    bipartite side a perfect matching M of the instance; one line per
    check the arcs leave open (``_open_checks``) and none for any other;
    and under each, at least as many paths as the check needs, each a path
    of the claim's digraph (``_DIGRAPH``): from s to t for a pair; from a
    vertex below j to j for an in-fan, and from j to one for an out-fan.  One
    mask per check holds the vertices taken: a pair's ends and its paths'
    inner vertices; a fan's j, its direct tails (heads) and every other
    vertex of its paths.  A vertex met twice is a problem.  Each arc is
    one row lookup.  No decider, flow net or matching search runs.
    Time: O(n + m) for the rows, O(k^2 + n) for the schedule, and linear
    in the witness lines."""
    obj, k = cert.instance, cert.k
    n = obj.n
    if k < 1:
        return [f"fan-paths needs k >= 1, has k={k}"]
    if n < k + 1:
        return [f"fan-paths needs n >= k+1={k + 1}, has n={n}"]
    index = LabelIndex(n)
    rows, problem = _fan_digraph(cert, index)
    if problem:
        return [problem]
    outs, ins = rows
    digraph, problems = _DIGRAPH[cert.claim], []
    sections = _fan_sections(cert.witness_lines, index,
                             cert.claim in ("k-extendable", "k-indecomposable"))
    for check, need, direct in _open_checks(outs, ins, k):
        name, *ends = check
        if check not in sections:
            problems.append(f"{name} {' '.join(str(v + 1) for v in ends)} has no line")
            continue
        shown, listed = sections.pop(check)
        if len(listed) < need:
            problems.append(f"{shown} has {len(listed)} paths, needs {need}")
        # the ends each path must have, -1 for any vertex below j; the
        # slice of it whose vertices the check's mask takes
        if name == "pair":
            first, last, inner = ends[0], ends[1], slice(1, -1)
        elif name == "in-fan":
            first, last, inner = -1, ends[0], slice(0, -1)
        else:
            first, last, inner = ends[0], -1, slice(1, None)
        used = direct | 1 << ends[0] | 1 << ends[-1]
        tail = "tail" if name == "in-fan" else "head"
        for i, tokens in enumerate(listed, 1):
            path = _vertices(index, tokens, shown, "path", i)
            where = f"{shown} path {i}"
            if not path or min(path) < 0 or max(path) >= n:
                problems.append(f"{where} is empty" if not path else
                                f"{where} has a vertex outside 1..{n}")
                continue
            if not ((path[0] == first if first >= 0 else path[0] < ends[0])
                    and (path[-1] == last if last >= 0 else path[-1] < ends[0])):
                start, stop = (str(end + 1) if end >= 0 else f"a vertex below {ends[0] + 1}"
                               for end in (first, last))
                problems.append(f"{where} does not run from {start} to {stop}")
            problems += [f"{where} uses the arc {a + 1} -> {b + 1}, not in {digraph}"
                         for a, b in zip(path, path[1:]) if not outs[a] >> b & 1]
            for v in path[inner]:
                if used >> v & 1:
                    problems.append(f"{where} meets the direct {tail} {v + 1}"
                                    if direct >> v & 1 else f"{where} meets {v + 1} twice")
                used |= 1 << v
    return problems + [f"{shown} is no check that the arcs leave open"
                       for shown, _ in sections.values()]


_ANY = (BipartiteGraph, Digraph, ZeroOneMatrix)
# witness kind -> the instance types its check reads; a kind given with an
# instance of another type is a problem, not an AttributeError
_WITNESS_INSTANCES = {
    "reach-trees": _ANY, "fan-paths": _ANY, "size-cap": _ANY, "too-few-vertices": _ANY,
    "alt-path-systems": (BipartiteGraph, ZeroOneMatrix),
    "perfect-matching": (BipartiteGraph, ZeroOneMatrix),
    "no-perfect-matching": (BipartiteGraph, ZeroOneMatrix),
    "menger-path-systems": (Digraph, ZeroOneMatrix),
    "deficient-set": (BipartiteGraph,), "disconnected": (BipartiteGraph,),
    "non-extendable-matching": (BipartiteGraph,),
    "separator": (Digraph,), "zero-block": (ZeroOneMatrix,),
}


def _check_witness(cert: Certificate) -> list[str]:
    obj, k = cert.instance, cert.k
    kind = cert.witness_kind
    problems: list[str] = []

    if kind not in _WITNESS_INSTANCES:
        return [f"unknown witness kind {kind!r}"]
    if not isinstance(obj, _WITNESS_INSTANCES[kind]):
        return [f"witness kind {kind!r} does not apply to a {_NOUNS[type(obj)]}"]

    if kind == "reach-trees":
        return _reach_tree_problems(cert)

    if kind == "fan-paths":
        return _fan_path_problems(cert)

    if kind == "alt-path-systems":
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        m_text = _field(cert.witness_lines, "matching:")
        if m_text is None:
            return ["alt-path witness is missing its matching line"]
        mate, problem = _perfect_mate(m_text, _lookup(obj), LabelIndex(g.n))
        if problem:
            return [problem]
        matching = Matching(frozenset(enumerate(mate)), g)
        index = _walk_index(g.n)
        labels = set(index.values())
        span = f"u1..u{g.n} and w1..w{g.n}"
        for (tokens, pair, path_lines) in _split_sections(cert.witness_lines):
            ends = _parse_walk(pair, index)
            if [side for side, _ in ends] != ["u", "w"]:
                problems.append(f"pair {pair} does not name a U vertex and then a W vertex")
                continue
            if not labels.issuperset(ends):
                problems.append(f"pair {pair} names a vertex outside {span}")
                continue
            pu, pw = ends
            walks = tuple(_parse_walk(p, index) for p in path_lines)
            if len(walks) != k:
                problems.append(f"pair {pair}: {len(walks)} paths, expected {k}")
            if not all(walks) or not labels.issuperset(chain.from_iterable(walks)):
                problems += _path_line_problems(pair, path_lines, walks, labels, span)
                continue
            system = AltPathSystem(walks, matching, pu[1], pw[1])
            problems += [f"pair {pair}: {p}" for p in check_alternating_path_system(g, system)]
        return problems

    if kind == "menger-path-systems":
        d = obj if isinstance(obj, Digraph) else digraph_of_matrix(obj)
        labels, span = set(range(d.n)), f"1..{d.n}"
        index = LabelIndex(d.n)
        for (tokens, pair, path_lines) in _split_sections(cert.witness_lines):
            if len(tokens) != 2:
                problems.append(f"pair {pair} does not name exactly two vertices")
                continue
            s, t = _vertices(index, tokens, "pair", pair)
            if not labels.issuperset((s, t)):
                problems.append(f"pair {pair} names a vertex outside {span}")
                continue
            if s == t:
                problems.append(f"pair {pair} does not join two vertices")
            paths = tuple(tuple(_vertices(index, p.split(), "pair", pair, "path", i))
                          for i, p in enumerate(path_lines, 1))
            if len(paths) != k:
                problems.append(f"pair {pair}: {len(paths)} paths, expected {k}")
            if not all(paths) or not labels.issuperset(chain.from_iterable(paths)):
                problems += _path_line_problems(pair, path_lines, paths, labels, span)
                continue
            system = PathSystem(paths, "internally_disjoint_same_endpoints",
                                (s,), (t,))
            problems += [f"pair {pair}: {p}" for p in check_path_system(d, system)]
        return problems

    if kind == "separator":
        sep = _indices(cert.witness_lines, "vertices:")
        if not _distinct_in_range(sep, obj.n):
            return [f"separator must list distinct vertices of 1..{obj.n}"]
        if len(sep) >= k:
            problems.append(f"separator has order {len(sep)}, not below k={k}")
        if obj.n - len(sep) < 2:
            problems.append("separator leaves fewer than two vertices")
        if len(strong_components(obj, sep)) == 1:
            problems.append("removing the separator leaves a strong digraph")
        return problems

    if kind == "non-extendable-matching":
        mate, problem = _mate(_field(cert.witness_lines, "edges:") or "", _lookup(obj),
                              LabelIndex(obj.n), "witness")
        if problem:
            return [problem]
        if len(mate) != k:
            problems.append(f"witness matching has size {len(mate)}, expected {k}")
        if has_perfect_matching(obj, frozenset(mate), frozenset(mate.values())):
            problems.append("witness matching extends to a perfect matching")
        return problems

    if kind == "deficient-set":
        g = obj
        x = _indices(cert.witness_lines, "u-set:")
        if not (_distinct_in_range(x, g.n) and 1 <= len(x) <= g.n - k):
            return [f"deficient set must be 1 to n-k={g.n - k} distinct vertices of U"]
        neighbours = 0
        for i in x:
            neighbours |= g._u_rows[i]
        if neighbours.bit_count() >= len(x) + k:
            problems.append("the set is not deficient")
        return problems

    if kind == "zero-block":
        rows = tuple(_indices(cert.witness_lines, "rows:"))
        cols = tuple(_indices(cert.witness_lines, "cols:"))
        if cert.claim == "k-irreducible":
            return check_witness(obj, _symmetric_witness("k_reducible", obj, rows, cols, k))
        return check_witness(obj, _independent_witness("k_partly_decomposable", obj,
                                                       rows, cols, k))

    if kind == "perfect-matching":
        if k != 0:
            problems.append(f"perfect-matching needs k = 0, has k={k}")
        mate, problem = _mate(_field(cert.witness_lines, "edges:") or "", _lookup(obj),
                              LabelIndex(obj.n), "witness")
        if problem or len(mate) != obj.n:
            problems.append(problem or "witness matching is not perfect")
        return problems

    if kind == "disconnected":
        if k == 0:
            problems.append("a disconnected graph can still be 0-extendable")
        if connected(obj):
            problems.append("instance is connected")
        return problems

    if kind == "no-perfect-matching":
        g = obj if isinstance(obj, BipartiteGraph) else bipartite_of_matrix(obj)
        if has_perfect_matching(g):
            problems.append("instance has a perfect matching")
        return problems

    if kind == "size-cap":
        if cert.claim == "k-irreducible":
            return [] if k == obj.n else [f"size-cap needs k = n={obj.n}, has k={k}"]
        return [] if k > obj.n - 1 else [f"size-cap needs k > n-1={obj.n - 1}, has k={k}"]

    # too-few-vertices
    return [] if obj.n < k + 1 else [f"too-few-vertices needs n < k+1={k + 1}, has n={obj.n}"]


def _witness_problems(cert: Certificate) -> list[str]:
    """``_check_witness``, with a payload it cannot read as one problem."""
    try:
        return _check_witness(cert)
    except ValueError as exc:
        return [f"witness payload malformed: {exc}"]


# (claim, verdict) -> the witness kinds whose check alone proves that
# verdict; ``check_certificate`` gives the proofs
_SELF_PROVING = {
    ("k-extendable", False): {"deficient-set", "disconnected", "no-perfect-matching",
                              "non-extendable-matching", "size-cap"},
    ("k-extendable", True): {"perfect-matching", "reach-trees", "fan-paths"},
    ("k-strong", False): {"separator", "too-few-vertices"},
    ("k-strong", True): {"reach-trees", "fan-paths"},
    ("k-indecomposable", False): {"zero-block"},
    ("k-indecomposable", True): {"perfect-matching", "reach-trees", "fan-paths"},
    ("k-irreducible", False): {"zero-block"},
    ("k-irreducible", True): {"size-cap", "reach-trees", "fan-paths"},
}


def _self_proving(cert: Certificate) -> bool:
    """Whether cert's witness kind proves its verdict once its check
    passes, on an instance and a k that the claim's decider takes
    (``fileio.k_range``; it raises on any other k, and so must
    ``check_certificate``)."""
    obj, k = cert.instance, cert.k
    if cert.witness_kind not in _SELF_PROVING.get((cert.claim, cert.verdict), ()) \
            or not isinstance(obj, CLAIMS[cert.claim]):
        return False
    least, most = k_range(cert.claim, obj.n)
    return least <= k and (most is None or k <= most)


def check_certificate(cert: Certificate) -> list[str]:
    """The problems of the certificate; empty = verified.

    The witness is checked first.  When its kind proves the verdict
    (``_SELF_PROVING``) and its check finds no problem, the certificate
    is verified and no decider runs.  Why each check is a proof, for G
    with n vertices a side, D a digraph, A an n x n matrix:

    * ``deficient-set`` X, 1 <= |X| <= n-k, |N(X)| < |X|+k: at k = 0 it
      breaks Hall's condition; at k >= 1, G has no perfect matching, or
      for each one M the out-neighbours of X in D(G, M) outside X, fewer
      than k, cut X from the vertex that X and they leave over, so
      D(G, M) is not k-strong;
    * ``disconnected``, k >= 1: a k-extendable graph is connected;
    * ``no-perfect-matching``: a k-extendable graph has a perfect matching;
    * ``non-extendable-matching``: a k-matching in no perfect matching is
      what k-extendability rules out;
    * ``size-cap``, k > n-1: k-extendability asks k <= n-1; and for
      k-irreducible, k = n: a k-reducing block has a row and a column, so
      n-k+1 >= 2 lines, and k = n leaves one;
    * ``separator`` S, |S| < k: D - S has two vertices and is not strong;
    * ``too-few-vertices``, n < k+1: a k-strong digraph has k+1 vertices;
    * ``zero-block``: an all-zero l x (n-k+1-l) block of A, on disjoint
      row and column sets for k-irreducible, is the definition of the
      failing property;
    * ``perfect-matching``, k = 0: 0-extendable and (Frobenius-Koenig)
      0-indecomposable both mean that a perfect matching exists;
    * ``reach-trees``, k = 1, n >= 2: n - 1 parents in 1..n, none its own
      vertex and none on a cycle, lead every vertex to vertex 1, so the
      out-tree's arcs give a path from 1 to every vertex and the
      in-tree's a path from every vertex to 1: the claim's digraph is
      strong.  For k-strong that is the claim.  A is irreducible iff
      D(A) is strong; for a perfect matching M of G, G is 1-extendable iff
      D(G, M) is strong; and A is fully indecomposable iff B(A) is
      1-extendable, so iff D(B(A), M) is strong.  The same three
      equivalences hold for every k >= 1, with k-strong for strong;
    * ``fan-paths``, n >= k + 1: the claim's digraph D is k-strong.  Take
      S, |S| < k, and a split of D - S into X and Y with no arc from X to
      Y, and let v be the least vertex outside S, so v < k.  Say v is in
      X, and j is the least vertex of Y.  If j < k, no arc runs from v to
      j, so the pair (v, j) is a check the arcs leave open, and each of
      its k listed paths, internally disjoint, has an inner vertex in S.
      If j >= k, {0..j-1} lies in S + X, so every direct tail of j (an
      in-neighbour below j) lies in S, and every listed path of the
      in-fan of j, from a vertex below j to j, meets S; the paths are
      disjoint but at j and miss the direct tails, so the direct tails
      and the paths, at least k of them, claim distinct vertices of S.
      v in Y is the mirror case: the pair (j, v), or the out-fan of j,
      j the least vertex of X.  Either way |S| >= k, a contradiction; and
      D has the k + 1 vertices k-strength asks.

    Otherwise (sampled path systems, a witness that fails its check, a
    kind that proves another claim or verdict) the verdict is re-derived
    from the embedded instance, and its problem, if any, comes first.
    Time: a self-proving witness costs its check alone, at most a maximum
    matching or a strong-component pass, each O(n^2) mask steps,
    O(n) for reach trees (one instance lookup per parent and matching
    edge), and for fan paths the O(n + m) rows of D (O(n^2) for
    a matrix), O(k^2 + n) for the schedule and one row lookup per listed
    arc: linear in the certificate, whose paths hold at most
    k(k-1) + 2(n-k) checks of k paths, O(k n^2) labels; otherwise the
    decision of ``build_certificate`` as well, and O(k^2 n) per pair of a
    path-system witness."""
    witness = _witness_problems(cert) if _self_proving(cert) else None
    if witness == []:
        return []
    recomputed = _recompute_verdict(cert)
    problems = [] if recomputed == cert.verdict else [
        f"verdict says {'holds' if cert.verdict else 'fails'} but the claim "
        f"{'holds' if recomputed else 'fails'} on the embedded instance"]
    return problems + (_witness_problems(cert) if witness is None else witness)
