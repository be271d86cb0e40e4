"""Core types: balanced bipartite graphs, matchings, digraphs, 0-1 matrices.

Vertices are index-identified.  A bipartite graph has colour classes
U = {0..n-1} and W = {0..n-1}; an edge ``(i, j)`` joins u_i to w_j, so
intra-class edges are unrepresentable by construction.  Labels such as
``u3``/``w1`` (1-based) appear only in file formats and rendered output.

All types are immutable after construction; nothing here mutates shared
state, so concurrent readers are always safe.  A bipartite graph builds its
u- and w-rows, and a digraph its neighbourhood bitmasks, on first use and
keeps them, outside its fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator


class ExtendixError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(ExtendixError):
    """An instance failed validation; carries the full report."""

    def __init__(self, report: "ValidationReport", message: str = ""):
        self.report = report
        super().__init__(message or str(report))


class TooLargeError(ExtendixError):
    """An exhaustive route was asked to run past ``BUDGETS[budget]``: size
    is what was asked for, limit the most that budget allows."""

    def __init__(self, budget: str, size: int, limit: int, message: str):
        self.budget, self.size, self.limit = budget, size, limit
        super().__init__(message)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...] = ()

    def __str__(self) -> str:
        return "valid" if self.valid else "; ".join(self.violations)


# The size limits of the exhaustive routes: name -> (limit, the size it
# bounds).  ``count`` must stay <= 127, the orders ``_glynn``'s bytes hold.
BUDGETS = {"count": (24, "order"), "sweep_k1": (6, "n"), "sweep": (4, "n"),
           "oracle": (9, "n"), "neighborhood": (16, "n"), "one_way_pairs": (12, "n"),
           "permutations": (7, "n"), "diagonals": (9, "n"), "blocks": (16, "n")}


def check_budget(name: str, size: int, route: str) -> None:
    """Raise ``TooLargeError``, "<route> is guarded to <n or order> <= <limit>",
    when size exceeds the limit of budget name; exhaustive routes call it first."""
    limit, kind = BUDGETS[name]
    if size > limit:
        raise TooLargeError(name, size, limit, f"{route} is guarded to {kind} <= {limit}")


# ---------------------------------------------------------------------------
# labels


def u_label(i: int) -> str:
    return f"u{i + 1}"


def w_label(j: int) -> str:
    return f"w{j + 1}"


def is_int_token(text: str, signed: bool = False) -> bool:
    """Whether text is an integer as the text formats write it: decimal
    digits, after one optional leading ``-`` when signed.  ``int`` reads
    every such token; ``isdigit`` also passes digits ``int`` rejects (a
    superscript two), and ``int`` also takes ``+``, ``_`` and spaces."""
    return (text.removeprefix("-") if signed else text).isdecimal()


def parse_vertex_label(text: str) -> tuple[str, int] | None:
    """Parse ``u3``/``w1`` into (side, 0-based index); None if malformed."""
    if len(text) >= 2 and text[0] in "uw" and is_int_token(text[1:]):
        k = int(text[1:])
        if k >= 1:
            return text[0], k - 1
    return None


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class BipartiteGraph:
    """A balanced bipartite graph on U = W = {0..n-1}.

    ``edges`` holds pairs ``(i, j)`` meaning u_i -- w_j.  Its rows are the
    neighbourhoods as bitmasks, one int per vertex: bit j of the u-row
    ``_u_rows[i]`` and bit i of the w-row ``_w_rows[j]`` for each edge
    u_i w_j.  Each is built on first read and kept, but not as a field:
    equality, hashing, repr and the constructor do not see them.  Every
    production route reads the rows; ``u_neighbors`` and the other
    methods below serve library callers.
    """

    n: int
    edges: frozenset

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Construct and validate; raises InvalidInstanceError on violations."""
        g = cls(n, frozenset(edges))
        report = validate(g)
        if not report.valid:
            raise InvalidInstanceError(report)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _u_rows(self) -> tuple[int, ...]:
        """Bit j of row i for each edge u_i w_j.  Time: O(n + m)."""
        rows = [0] * self.n
        for i, j in self.edges:
            rows[i] |= 1 << j
        return tuple(rows)

    @cached_property
    def _w_rows(self) -> tuple[int, ...]:
        """Bit i of row j for each edge u_i w_j.  Time: O(n + m)."""
        rows = [0] * self.n
        for i, j in self.edges:
            rows[j] |= 1 << i
        return tuple(rows)

    def u_neighbors(self, i: int) -> tuple[int, ...]:
        return _u_adj(self)[i]

    def w_neighbors(self, j: int) -> tuple[int, ...]:
        return _w_adj(self)[j]

    def degree_u(self, i: int) -> int:
        return len(_u_adj(self)[i])

    def degree_w(self, j: int) -> int:
        return len(_w_adj(self)[j])

    def without_edge(self, edge: tuple[int, int]) -> "BipartiteGraph":
        return BipartiteGraph(self.n, self.edges - {tuple(edge)})

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"BipartiteGraph(n={self.n}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class Matching:
    """An edge subset of a host graph in which no two edges share an endpoint."""

    edges: frozenset
    host: BipartiteGraph

    def __post_init__(self):
        us = [e[0] for e in self.edges]
        ws = [e[1] for e in self.edges]
        if len(set(us)) != len(us) or len(set(ws)) != len(ws):
            raise ValueError("matching edges share an endpoint")
        stray = self.edges - self.host.edges
        if stray:
            raise ValueError(f"edges not in host graph: {sorted(stray)}")

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def is_perfect(self) -> bool:
        return len(self.edges) == self.host.n

    def pairing(self) -> dict[int, int]:
        """u index -> matched w index."""
        return {i: j for i, j in self.edges}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"Matching({self.sorted_edges()})"


@dataclass(frozen=True)
class Digraph:
    """A digraph on {0..n-1}.  Loops are representable but only when
    ``loops_allowed``; every connectivity computation ignores them."""

    n: int
    arcs: frozenset
    loops_allowed: bool = False

    @classmethod
    def build(cls, n: int, arcs: Iterable[tuple[int, int]],
              loops_allowed: bool = False) -> "Digraph":
        d = cls(n, frozenset(arcs), loops_allowed)
        report = validate(d)
        if not report.valid:
            raise InvalidInstanceError(report)
        return d

    @property
    def m(self) -> int:
        return len(self.arcs)

    def has_loops(self) -> bool:
        """Whether some vertex has an arc to itself.  Time: O(n), one
        lookup per possible loop (v, v)."""
        return not self.arcs.isdisjoint(zip(range(self.n), range(self.n)))

    def loop_free(self) -> "Digraph":
        return Digraph(self.n, frozenset((a, b) for a, b in self.arcs if a != b))

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``_neighbourhood_masks``, built on first use and kept, but not as a
        field: equality, hashing, repr and the constructor do not see it."""
        return _neighbourhood_masks(self)

    @classmethod
    def _with_masks(cls, n: int, arcs: frozenset, outs: tuple, ins: tuple) -> "Digraph":
        """The loop-free digraph on arcs, with ``_masks`` set to (outs, ins),
        its out- and in-rows, for a builder that made them with the arcs."""
        d = cls(n, arcs)
        d.__dict__["_masks"] = (outs, ins)
        return d

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return _out_adj(self)[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return _in_adj(self)[v]

    def out_degree(self, v: int) -> int:
        """Out-degree, loops not counted."""
        return len(_out_adj(self)[v])

    def in_degree(self, v: int) -> int:
        return len(_in_adj(self)[v])

    def without_arc(self, arc: tuple[int, int]) -> "Digraph":
        return Digraph(self.n, self.arcs - {tuple(arc)}, self.loops_allowed)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.sorted_arcs()})"


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A square matrix over {0,1}, stored as a tuple of row tuples."""

    rows: tuple

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "ZeroOneMatrix":
        m = cls(tuple(tuple(int(x) for x in row) for row in rows))
        report = validate(m)
        if not report.valid:
            raise InvalidInstanceError(report)
        return m

    @classmethod
    def from_array(cls, array) -> "ZeroOneMatrix":
        """Build from nested sequences of 0/1 or anything with ``tolist()``,
        such as a 2-d numpy array."""
        return cls.from_rows(array.tolist() if hasattr(array, "tolist") else array)

    @classmethod
    def identity(cls, n: int) -> "ZeroOneMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def ones(cls, n: int) -> "ZeroOneMatrix":
        return cls(tuple((1,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def to_array(self):
        import numpy as np

        return np.array([list(r) for r in self.rows], dtype=int)

    def __repr__(self) -> str:
        return f"ZeroOneMatrix({list(list(r) for r in self.rows)})"


# ---------------------------------------------------------------------------
# cached adjacency (the types are hashable, so plain lru_cache works)


@lru_cache(maxsize=16384)
def _u_adj(g: BipartiteGraph) -> tuple:
    adj = [[] for _ in range(g.n)]
    for i, j in sorted(g.edges):
        adj[i].append(j)
    return tuple(tuple(a) for a in adj)


@lru_cache(maxsize=16384)
def _w_adj(g: BipartiteGraph) -> tuple:
    adj = [[] for _ in range(g.n)]
    for i, j in sorted(g.edges):
        adj[j].append(i)
    return tuple(tuple(a) for a in adj)


@lru_cache(maxsize=16384)
def _out_adj(d: Digraph) -> tuple:
    adj = [[] for _ in range(d.n)]
    for a, b in sorted(d.arcs):
        if a != b:
            adj[a].append(b)
    return tuple(tuple(x) for x in adj)


@lru_cache(maxsize=16384)
def _in_adj(d: Digraph) -> tuple:
    adj = [[] for _ in range(d.n)]
    for a, b in sorted(d.arcs):
        if a != b:
            adj[b].append(a)
    return tuple(tuple(x) for x in adj)


def _neighbourhood_masks(d: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D's out- and in-neighbourhoods as bitmasks, one int per vertex, loops
    left out, as tuples so that no reader changes them; one pass over the arcs."""
    outs, ins = [0] * d.n, [0] * d.n
    for a, b in d.arcs:
        if a != b:
            outs[a] |= 1 << b
            ins[b] |= 1 << a
    return tuple(outs), tuple(ins)


def _bfs_path(start, neighbors, stop) -> list | None:
    """Breadth-first search from start: the path [start, ..., x, y] to the
    first y with stop(y) met while scanning neighbors(x), or None (a stop
    at start closes a cycle).  With sorted neighbour lists, vertices leave
    the queue in (distance, tree path) order, so the first hit is the
    smallest such path by (length, tuple)."""
    parent = {start: None}
    queue = [start]
    for x in queue:
        for y in neighbors(x):
            if stop(y):
                path = [y, x]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


# ---------------------------------------------------------------------------
# validation


def _validate_pair_list(pairs, n: int, kind: str) -> list[str]:
    """Shared edge/arc checks on 0-based index pairs, so that malformed raw
    input (non-pairs, non-integers, duplicates) can be reported instead of
    rejected at construction time."""
    problems = []
    seen = set()
    for item in pairs:
        try:
            a, b = item
        except (TypeError, ValueError):
            problems.append(f"not a pair: {item!r}")
            continue
        if not (isinstance(a, int) and isinstance(b, int)):
            problems.append(f"non-integer endpoints in {item!r}")
            continue
        if not (0 <= a < n and 0 <= b < n):
            problems.append(f"index out of range in {(a, b)!r} (n={n})")
            continue
        if (a, b) in seen:
            problems.append(f"duplicate {'edge' if kind == 'bg' else 'arc'} {(a, b)!r}")
        seen.add((a, b))
    return problems


def validate(obj) -> ValidationReport:
    """Report every violated invariant of a graph, digraph or matrix.

    Total: never raises, reports instead.  Edges/arcs are 0-based index
    pairs; labels like ``u1``/``w2`` belong to the file formats only.
    """
    problems: list[str] = []
    if isinstance(obj, BipartiteGraph):
        if not isinstance(obj.n, int) or obj.n < 1:
            problems.append(f"n must be a positive integer, got {obj.n!r}")
        else:
            problems.extend(_validate_pair_list(obj.edges, obj.n, "bg"))
    elif isinstance(obj, Digraph):
        if not isinstance(obj.n, int) or obj.n < 1:
            problems.append(f"n must be a positive integer, got {obj.n!r}")
        else:
            problems.extend(_validate_pair_list(obj.arcs, obj.n, "dg"))
            if not obj.loops_allowed:
                loops = sorted((a, b) for a, b in obj.arcs
                               if isinstance(a, int) and a == b)
                problems.extend(f"loop {arc!r} present but loops not allowed"
                                for arc in loops)
    elif isinstance(obj, ZeroOneMatrix):
        rows = obj.rows
        if len(rows) < 1:
            problems.append("matrix must have order at least 1")
        widths = {len(r) for r in rows}
        if widths and widths != {len(rows)}:
            problems.append(f"matrix not square: {len(rows)} rows, widths {sorted(widths)}")
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x not in (0, 1):
                    problems.append(f"non-binary entry {x!r} at ({i + 1},{j + 1})")
    else:
        problems.append(f"unsupported instance type {type(obj).__name__}")
    return ValidationReport(valid=not problems, violations=tuple(problems))


# ---------------------------------------------------------------------------
# small factories


def complete_bipartite(n: int) -> BipartiteGraph:
    return BipartiteGraph(n, frozenset((i, j) for i in range(n) for j in range(n)))


def cycle_bipartite(n: int) -> BipartiteGraph:
    """The even cycle on 2n vertices: edges u_i w_i and u_i w_{i+1 mod n}."""
    if n < 2:
        raise ValueError("a bipartite cycle needs n >= 2")
    edges = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
    return BipartiteGraph(n, frozenset(edges))


def matching_graph(n: int) -> BipartiteGraph:
    """n disjoint edges u_i w_i."""
    return BipartiteGraph(n, frozenset((i, i) for i in range(n)))


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError("a directed cycle needs n >= 2")
    return Digraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


def canonical_matching(g: BipartiteGraph) -> Matching:
    """The matching {u_i w_i}; raises if some diagonal edge is missing."""
    edges = frozenset((i, i) for i in range(g.n))
    if not edges <= g.edges:
        missing = sorted(e for e in edges if e not in g.edges)
        raise ValueError(f"canonical matching edges missing: {missing}")
    return Matching(edges, g)


def _union_of_rows(rows, mask: int) -> int:
    """The OR of rows[v] over the bits v of mask."""
    union = 0
    while mask:
        low = mask & -mask
        union |= rows[low.bit_length() - 1]
        mask ^= low
    return union


def connected(g: BipartiteGraph) -> bool:
    """Connectivity of the underlying graph on the 2n tagged vertices:
    alternating reaches from u_0, each new u-vertex ORing in its u-row and
    each new w-vertex its w-row.
    Time: O(n) mask operations once the rows exist, O(n + m) to build them."""
    if g.n == 0:
        return True
    u_rows, w_rows = g._u_rows, g._w_rows
    seen_u = frontier = 1
    seen_w = 0
    while frontier:
        cols = _union_of_rows(u_rows, frontier) & ~seen_w
        seen_w |= cols
        frontier = _union_of_rows(w_rows, cols) & ~seen_u
        seen_u |= frontier
    full = (1 << g.n) - 1
    return seen_u == full and seen_w == full


# ---------------------------------------------------------------------------
# random generators (deterministic for a fixed seed)


def random_bipartite_with_pm(n: int, edge_probability: float, seed) -> BipartiteGraph:
    """The canonical matching plus each off-diagonal edge independently
    with the given probability."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = {(i, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_probability:
                edges.add((i, j))
    return BipartiteGraph(n, frozenset(edges))


def random_digraph(n: int, arc_probability: float, seed) -> Digraph:
    """Each ordered pair (i, j), i != j, becomes an arc independently;
    no loops are generated."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not 0.0 <= arc_probability <= 1.0:
        raise ValueError("arc_probability must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = set()
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < arc_probability:
                arcs.add((i, j))
    return Digraph(n, frozenset(arcs))


# ---------------------------------------------------------------------------
# exhaustive enumerators (oracle support; 2^(n^2-n) instances each)


def _off_diagonal_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def iter_bipartite_with_canonical(n: int) -> Iterator[BipartiteGraph]:
    """All bipartite graphs on U, W of size n that contain {u_i w_i}."""
    cells = _off_diagonal_cells(n)
    diag = frozenset((i, i) for i in range(n))
    for mask in range(1 << len(cells)):
        extra = frozenset(cells[b] for b in range(len(cells)) if mask >> b & 1)
        yield BipartiteGraph(n, diag | extra)


def iter_digraphs(n: int) -> Iterator[Digraph]:
    """All loop-free digraphs on {0..n-1}."""
    cells = _off_diagonal_cells(n)
    for mask in range(1 << len(cells)):
        arcs = frozenset(cells[b] for b in range(len(cells)) if mask >> b & 1)
        yield Digraph(n, arcs)


def iter_matrices(n: int) -> Iterator[ZeroOneMatrix]:
    """All 2^(n^2) matrices of order n over {0,1}."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(cells)):
        rows = [[0] * n for _ in range(n)]
        for b, (i, j) in enumerate(cells):
            if mask >> b & 1:
                rows[i][j] = 1
        yield ZeroOneMatrix(tuple(tuple(r) for r in rows))
