"""Reducibility and decomposability of 0-1 matrices, their k-generalisations,
diagonals, and the cross-equivalences with graphs and digraphs.

A matrix is reducible when one symmetric permutation exposes an all-zero
l x (n-l) block (equivalently: its digraph is not strong), and partly
decomposable when independent row/column permutations do (equivalently:
its bipartite graph is not 1-extendable).  The k-variants relax the block
to l x (n-k+1-l) and line up with k-strong connectivity respectively
k-extendability.  Witnesses come from the decision itself,
``is_k_strong``, whose first failing flow's cut is the separator S: a
k-reducible block is the last strong component of D(A) - S against the
rest of D(A) - S; a k-partly decomposable block is a deficient row set X
of B(A) (see ``extendability._deficient_set``) against the columns outside
N(X).  Each costs one ``is_k_strong`` call, at most k(k-1) + 2(n-k) flows
on S. Even's schedule, plus a maximum matching on the bipartite side.
The block and permutation searches are definitional test oracles only.

Boundary cases pinned here rather than discovered later:

* k-reducibility at k = n is impossible (both block sides must be
  nonempty), while no digraph on n vertices is n-strong; the digraph
  equivalence therefore holds only for k <= n-1.
* for k = 0 the block bound is l <= n, so an all-zero column (block
  n x 1) counts; 0-indecomposable then coincides exactly with "a perfect
  matching exists".
* at order 1 both matrices are fully indecomposable by the block
  definition, although B([[0]]) has no perfect matching; the bipartite
  route is applied only for n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator

from .core import ZeroOneMatrix, check_budget
from .correspond import bipartite_of_matrix, digraph_of_matrix
from .connectivity import _sink_component, is_k_strong
from .extendability import _deficient_set
from .matching import _augment, _match_w, count_perfect_matchings, max_matching_pairs


# ---------------------------------------------------------------------------
# helpers


def with_unit_diagonal(a: ZeroOneMatrix) -> ZeroOneMatrix:
    """Boolean A + I."""
    return ZeroOneMatrix(tuple(
        tuple(1 if i == j else a.rows[i][j] for j in range(a.n))
        for i in range(a.n)))


def has_positive_main_diagonal(a: ZeroOneMatrix) -> bool:
    return all(a.rows[i][i] == 1 for i in range(a.n))


def _zero_columns(a: ZeroOneMatrix, rows) -> list[int]:
    return [j for j in range(a.n) if all(a.rows[i][j] == 0 for i in rows)]


def _distinct_in_range(indices, n: int) -> bool:
    return len(set(indices)) == len(indices) and all(0 <= i < n for i in indices)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class DecompositionWitness:
    """Location of an all-zero block certifying (k-)reducibility or
    (k-)partial decomposability, with permutations realising the block
    form.  Permutations are index vectors: new position -> original index.
    The reducible family uses one permutation symmetrically."""

    kind: str
    row_subset: tuple
    col_subset: tuple
    l: int
    k: int
    row_permutation: tuple
    col_permutation: tuple


def check_witness(a: ZeroOneMatrix, w: DecompositionWitness) -> list[str]:
    n = a.n
    rows, cols = w.row_subset, w.col_subset
    if not (rows and cols and _distinct_in_range(rows, n) and _distinct_in_range(cols, n)):
        return ["row and column subsets must be nonempty sets of distinct indices"]
    problems = []
    if w.l != len(rows):
        problems.append("l does not match the row subset size")
    # the plain kinds carry k = 1, so one formula covers all four
    expected_cols = n - w.k + 1 - len(rows)
    if len(cols) != expected_cols:
        problems.append(f"column subset has size {len(cols)}, expected {expected_cols}")
    for i in rows:
        for j in cols:
            if a.rows[i][j] != 0:
                problems.append(f"entry ({i + 1},{j + 1}) inside the block is 1")
    if w.kind in ("reducible", "k_reducible"):
        if set(rows) & set(cols):
            problems.append("row and column subsets overlap in the symmetric family")
        if w.row_permutation != w.col_permutation:
            problems.append("symmetric family needs one shared permutation")
    for perm in (w.row_permutation, w.col_permutation):
        if sorted(perm) != list(range(n)):
            problems.append(f"{perm} is not a permutation of 0..{n - 1}")
    if set(w.row_permutation[:len(rows)]) != set(rows):
        problems.append("the row permutation does not start with the block rows")
    if set(w.col_permutation[n - len(cols):]) != set(cols):
        problems.append("the column permutation does not end with the block columns")
    return problems


def _symmetric_witness(kind: str, a: ZeroOneMatrix, rows: tuple, cols: tuple,
                       k: int) -> DecompositionWitness:
    mid = tuple(v for v in range(a.n) if v not in rows and v not in cols)
    perm = tuple(rows) + mid + tuple(cols)
    return DecompositionWitness(kind, tuple(rows), tuple(cols), len(rows), k,
                                perm, perm)


def _independent_witness(kind: str, a: ZeroOneMatrix, rows: tuple, cols: tuple,
                         k: int) -> DecompositionWitness:
    row_perm = tuple(rows) + tuple(i for i in range(a.n) if i not in rows)
    col_perm = tuple(j for j in range(a.n) if j not in cols) + tuple(cols)
    return DecompositionWitness(kind, tuple(rows), tuple(cols), len(rows), k,
                                row_perm, col_perm)


def _block(rows, cols, cells: int) -> tuple:
    """Rows and columns cut to exactly ``cells`` in total, rows first,
    both sides nonempty."""
    rows = tuple(rows[:cells - 1])
    return rows, tuple(cols[:cells - len(rows)])


# ---------------------------------------------------------------------------
# block searches (definitional test oracles)


def _search_block(a: ZeroOneMatrix, k: int, disjoint: bool):
    """Smallest-l, lexicographically first (rows, cols) pair with
    |rows| + |cols| = n - k + 1 and an all-zero block; the two sets are
    disjoint when asked, else independent, and then l may reach n when
    k = 0 (an all-zero column block)."""
    n = a.n
    check_budget("blocks", n, f"the block search at n={n}")
    top = n if k == 0 else n - k
    for l in range(1, top + 1):
        want = n - k + 1 - l
        for rows in combinations(range(n), l):
            zero = [j for j in _zero_columns(a, rows) if not (disjoint and j in rows)]
            if len(zero) >= want:
                return rows, tuple(zero[:want])
    return None


def reducible_by_permutation_search(a: ZeroOneMatrix) -> bool:
    """Literal definition: some symmetric permutation puts an all-zero
    l x (n-l) block in the upper right corner."""
    return k_reducible_by_permutation_search(a, 1)


def k_reducible_by_permutation_search(a: ZeroOneMatrix, k: int) -> bool:
    n = a.n
    check_budget("permutations", n, f"the permutation search at n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    for perm in permutations(range(n)):
        for l in range(1, n - k + 1):
            if all(a.rows[perm[i]][perm[j]] == 0
                   for i in range(l) for j in range(l + k - 1, n)):
                return True
    return False


def k_reducible_by_blocks(a: ZeroOneMatrix, k: int) -> bool:
    """Disjoint-subset form of the definition (equivalent to the symmetric
    permutation search)."""
    if not 1 <= k <= a.n:
        raise ValueError(f"k must lie in 1..{a.n}")
    if k == a.n:
        return False
    return _search_block(a, k, disjoint=True) is not None


def k_partly_decomposable_by_blocks(a: ZeroOneMatrix, k: int) -> bool:
    """Pure zero-submatrix condition with independent row/column choices."""
    if not 0 <= k <= a.n - 1:
        raise ValueError(f"k must lie in 0..{a.n - 1}")
    return _search_block(a, k, disjoint=False) is not None


# ---------------------------------------------------------------------------
# decisions through the graph routes


@dataclass(frozen=True)
class MatrixPropertyResult:
    holds: bool  # True = reducible / decomposable (the witnessed property)
    witness: DecompositionWitness | None = None

    def __bool__(self) -> bool:
        return self.holds


def _reducible(a: ZeroOneMatrix, k: int, kind: str, d=None,
               proof: list | None = None) -> MatrixPropertyResult:
    """Rows: the last strong component X of D(A) - S for the separator S
    (|S| < k) of ``is_k_strong``; columns: the rest of D(A) - S.  No arc
    runs from X to them, and together they hold n - |S| >= n - k + 1.  d
    is D(A) when the caller holds it; proof, a list, receives the proof of
    a holding ``is_k_strong`` decision."""
    if not 1 <= k <= a.n:
        raise ValueError(f"k must lie in 1..{a.n}")
    if k == a.n:
        return MatrixPropertyResult(False)
    d = d or digraph_of_matrix(a)
    verdict = is_k_strong(d, k, proof)
    if verdict.holds:
        return MatrixPropertyResult(False)
    sep = verdict.separator
    rows = _sink_component(d, sep)
    cols = [v for v in range(a.n) if v not in sep and v not in rows]
    return MatrixPropertyResult(
        True, _symmetric_witness(kind, a, *_block(rows, cols, a.n - k + 1), k))


def _decomposable(a: ZeroOneMatrix, k: int, kind: str, g=None,
                  pairs=None, d=None, proof: list | None = None) -> MatrixPropertyResult:
    """Rows: a deficient set X of B(A) (|X| <= n - k, |N(X)| < |X| + k);
    columns: those outside N(X), at least n - k + 1 - |X| of them.  g is
    B(A), pairs a maximum matching of it and d the D(B(A), M) of a perfect
    one when the caller holds them; proof goes to ``_deficient_set``."""
    if not 0 <= k <= a.n - 1:
        raise ValueError(f"k must lie in 0..{a.n - 1}")
    rows = _deficient_set(g or bipartite_of_matrix(a), k, pairs, d, proof)
    if rows is None:
        return MatrixPropertyResult(False)
    cols = _zero_columns(a, rows)
    return MatrixPropertyResult(
        True, _independent_witness(kind, a, *_block(rows, cols, a.n - k + 1), k))


def is_reducible(a: ZeroOneMatrix) -> MatrixPropertyResult:
    """Reducible iff the digraph of A is not strong (loops ignored); the
    witness rows are its last strong component, a sink."""
    return _reducible(a, 1, "reducible")


def is_k_reducible(a: ZeroOneMatrix, k: int) -> MatrixPropertyResult:
    """k-reducible iff the digraph of A is not k-strong, for k <= n-1;
    k = n is impossible by the definition."""
    return _reducible(a, k, "k_reducible")


def is_partly_decomposable(a: ZeroOneMatrix) -> MatrixPropertyResult:
    """Partly decomposable iff B(A) is not 1-extendable (n >= 2); order-1
    matrices are never partly decomposable."""
    if a.n == 1:
        return MatrixPropertyResult(False)
    return _decomposable(a, 1, "partly_decomposable")


def is_k_partly_decomposable(a: ZeroOneMatrix, k: int) -> MatrixPropertyResult:
    """k-partly decomposable iff B(A) is not k-extendable; at k = 0 this is
    exactly the absence of a perfect matching."""
    return _decomposable(a, k, "k_partly_decomposable")


def fully_indecomposable_by_diagonals(a: ZeroOneMatrix) -> bool:
    """Diagonal criterion: every 1-entry lies on an all-ones diagonal and
    every 0-entry on a diagonal whose only zero is itself.  Both demands
    collapse to: every minor's permanent is positive.

    One maximum matching M of B(A) serves all n^2 minors.  Order 1 holds.
    For n >= 2, M must be perfect: if row 0 has a 1 in column j, a perfect
    matching of the minor without row 0 and column j extends by (0, j), and
    if not, the minor without row 1 and column 0 keeps a zero row.  Without
    row i and column j, M - (i, j) is perfect when M(i) = j; otherwise M
    less its edges at i and j misses only row M^-1(j) and column M(i), so
    by Berge's theorem one ``_augment`` from that row, never entering
    column j, decides.
    Time: O(n^2) mask operations for M, then n^2 - n searches of O(n)
    mask operations each, O(n^3) mask operations in all."""
    n = a.n
    g = bipartite_of_matrix(a)
    pairs = max_matching_pairs(g)
    if n == 1 or len(pairs) < n:
        return n == 1
    rows, match_w = g._u_rows, _match_w(g, pairs)
    for c in range(n):  # M(i), for the row i that holds column c
        for j in range(n):
            if j != c:
                freed = match_w.copy()
                freed[c] = -1
                if _augment(rows, freed, match_w[j], 1 << j) is not None:
                    return False
    return True


# ---------------------------------------------------------------------------
# cross-equivalences


@dataclass(frozen=True)
class CrossCheckReport:
    k: int
    k_indecomposable: bool
    k_irreducible: bool
    plus_identity_k_indecomposable: bool
    digraph_k_strong: bool
    positive_diagonal: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def irreducible_indecomposable_cross_check(a: ZeroOneMatrix, k: int) -> CrossCheckReport:
    """Audit, on one matrix: k-indecomposable implies k-irreducible;
    k-irreducible iff A+I is k-indecomposable; and for matrices with a
    positive main diagonal, k-indecomposable iff the digraph of A is
    k-strong.  Any violated implication is reported, not raised."""
    if not 1 <= k <= a.n - 1:
        raise ValueError(f"k must lie in 1..{a.n - 1}")
    k_indec = not is_k_partly_decomposable(a, k).holds
    k_irr = not is_k_reducible(a, k).holds
    plus_indec = not is_k_partly_decomposable(with_unit_diagonal(a), k).holds
    k_strong = is_k_strong(digraph_of_matrix(a), k).holds
    positive = has_positive_main_diagonal(a)
    violations = []
    if k_indec and not k_irr:
        violations.append("k-indecomposable but k-reducible")
    if k_irr != plus_indec:
        violations.append("k-irreducible does not match (A+I) k-indecomposable")
    if positive and k_indec != k_strong:
        violations.append("positive diagonal: k-indecomposable does not match k-strong")
    return CrossCheckReport(k, k_indec, k_irr, plus_indec, k_strong, positive,
                            tuple(violations))


# ---------------------------------------------------------------------------
# diagonals


@dataclass(frozen=True)
class Diagonal:
    """n entries, one per row and column: ``columns[i]`` is row i's column."""

    columns: tuple
    zero_count: int

    @property
    def is_main(self) -> bool:
        return all(c == i for i, c in enumerate(self.columns))


def diagonals(a: ZeroOneMatrix, zero_count: int | None = None) -> Iterator[Diagonal]:
    """Stream all n! diagonals in lexicographic order, optionally only
    those with a given number of zero entries."""
    check_budget("diagonals", a.n, f"diagonal enumeration at n={a.n}")
    for perm in permutations(range(a.n)):
        zeros = sum(1 for i, c in enumerate(perm) if a.rows[i][c] == 0)
        if zero_count is None or zeros == zero_count:
            yield Diagonal(tuple(perm), zeros)


def nonzero_diagonal_count(a: ZeroOneMatrix) -> int:
    """Equals the number of perfect matchings of B(A)."""
    return count_perfect_matchings(bipartite_of_matrix(a))
