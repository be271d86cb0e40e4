import pytest

from extendix import (ZeroOneMatrix, bipartite_of_matrix,
                      count_perfect_matchings, cycle_bipartite, diagonals,
                      irreducible_indecomposable_cross_check,
                      is_k_partly_decomposable, is_k_reducible,
                      is_partly_decomposable, is_reducible, iter_matrices,
                      k_partly_decomposable_by_blocks, k_reducible_by_blocks,
                      nonzero_diagonal_count, reduced_adjacency,
                      reducible_by_permutation_search, with_unit_diagonal)
from extendix.matrixlab import (check_witness, fully_indecomposable_by_diagonals,
                                k_reducible_by_permutation_search)

TRIANGULAR = ZeroOneMatrix(((1, 1), (0, 1)))
SWAP = ZeroOneMatrix(((0, 1), (1, 0)))
CYCLE3 = ZeroOneMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


class TestReducible:
    def test_triangular_reducible(self):
        res = is_reducible(TRIANGULAR)
        assert res.holds
        assert res.witness.row_subset == (1,) and res.witness.col_subset == (0,)
        assert not check_witness(TRIANGULAR, res.witness)

    def test_swap_irreducible(self):
        assert not is_reducible(SWAP).holds

    def test_identity_reducible(self):
        for n in (2, 3):
            assert is_reducible(ZeroOneMatrix.identity(n)).holds

    def test_order_one_never_reducible(self):
        assert not is_reducible(ZeroOneMatrix(((0,),))).holds
        assert not is_reducible(ZeroOneMatrix(((1,),))).holds

    def test_permutation_oracle_agrees_exhaustively(self):
        for n in (1, 2, 3):
            for a in iter_matrices(n):
                assert is_reducible(a).holds == reducible_by_permutation_search(a)


class TestKReducible:
    def test_ones_2_irreducible(self):
        assert not is_k_reducible(ZeroOneMatrix.ones(3), 2).holds

    def test_cycle_2_reducible(self):
        res = is_k_reducible(CYCLE3, 2)
        assert res.holds
        assert not check_witness(CYCLE3, res.witness)

    def test_k1_coincides_with_reducible(self):
        for n in (1, 2, 3):
            for a in iter_matrices(n):
                assert is_k_reducible(a, 1).holds == is_reducible(a).holds

    def test_k_equals_n_impossible(self):
        for a in iter_matrices(2):
            assert not is_k_reducible(a, 2).holds
            assert not k_reducible_by_blocks(a, 2)

    def test_block_and_permutation_oracles_agree(self):
        for a in iter_matrices(3):
            for k in (1, 2, 3):
                assert k_reducible_by_blocks(a, k) == \
                    k_reducible_by_permutation_search(a, k)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            is_k_reducible(CYCLE3, 0)


class TestPartlyDecomposable:
    def test_swap_partly_decomposable(self):
        res = is_partly_decomposable(SWAP)
        assert res.holds
        assert not check_witness(SWAP, res.witness)

    def test_ones_fully_indecomposable(self):
        assert not is_partly_decomposable(ZeroOneMatrix.ones(2)).holds

    def test_triangular_partly_decomposable(self):
        assert is_partly_decomposable(TRIANGULAR).holds

    def test_three_routes_agree(self):
        for n in (2, 3):
            for a in iter_matrices(n):
                by_graph = is_partly_decomposable(a).holds
                by_blocks = k_partly_decomposable_by_blocks(a, 1)
                by_diag = not fully_indecomposable_by_diagonals(a)
                assert by_graph == by_blocks == by_diag

    def test_order_one_corner(self):
        # both order-1 matrices are fully indecomposable by the block
        # definition and by the diagonal criterion
        for a in iter_matrices(1):
            assert not is_partly_decomposable(a).holds
            assert fully_indecomposable_by_diagonals(a)


class TestKPartlyDecomposable:
    def test_ones_top_indecomposable(self):
        assert not is_k_partly_decomposable(ZeroOneMatrix.ones(3), 2).holds

    def test_c6_matrix(self):
        a = reduced_adjacency(cycle_bipartite(3))
        assert not is_k_partly_decomposable(a, 1).holds
        res = is_k_partly_decomposable(a, 2)
        assert res.holds
        assert not check_witness(a, res.witness)

    def test_zero_row_always_0_decomposable(self):
        a = ZeroOneMatrix(((0, 0), (1, 1)))
        assert is_k_partly_decomposable(a, 0).holds

    def test_zero_column_caught_at_k0(self):
        a = ZeroOneMatrix(((1, 0), (1, 0)))
        res = is_k_partly_decomposable(a, 0)
        assert res.holds
        assert not check_witness(a, res.witness)

    def test_blocks_oracle_agrees(self):
        for n in (1, 2, 3):
            for a in iter_matrices(n):
                for k in range(0, n):
                    assert is_k_partly_decomposable(a, k).holds == \
                        k_partly_decomposable_by_blocks(a, k)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            is_k_partly_decomposable(SWAP, 2)


class TestCrossChecks:
    def test_swap_one_directional(self):
        rep = irreducible_indecomposable_cross_check(SWAP, 1)
        assert rep.ok
        assert rep.k_irreducible and not rep.k_indecomposable
        assert rep.plus_identity_k_indecomposable

    def test_ones_3(self):
        assert irreducible_indecomposable_cross_check(ZeroOneMatrix.ones(3), 2).ok

    def test_exhaustive_n3(self):
        for a in iter_matrices(3):
            for k in (1, 2):
                assert irreducible_indecomposable_cross_check(a, k).ok

    def test_fully_indecomposable_implies_irreducible(self):
        for n in (2, 3):
            for a in iter_matrices(n):
                if not is_partly_decomposable(a).holds:
                    assert not is_reducible(a).holds


class TestDiagonals:
    def test_identity_single_nonzero(self):
        ds = list(diagonals(ZeroOneMatrix.identity(3), zero_count=0))
        assert len(ds) == 1 and ds[0].is_main

    def test_ones_all_nonzero(self):
        assert len(list(diagonals(ZeroOneMatrix.ones(3), zero_count=0))) == 6

    def test_swap(self):
        all_ds = list(diagonals(SWAP))
        assert [(d.columns, d.zero_count) for d in all_ds] == [
            ((0, 1), 2), ((1, 0), 0)]

    def test_counts_match_perfect_matchings(self):
        for n in (1, 2, 3):
            for a in iter_matrices(n):
                assert nonzero_diagonal_count(a) == \
                    count_perfect_matchings(bipartite_of_matrix(a)) == \
                    sum(1 for _ in diagonals(a, zero_count=0))


class TestHelpers:
    def test_with_unit_diagonal(self):
        assert with_unit_diagonal(SWAP) == ZeroOneMatrix.ones(2)

    def test_witness_checker_spots_lies(self):
        from extendix import DecompositionWitness

        bogus = DecompositionWitness("reducible", (0,), (1,), 1, 1, (0, 1), (0, 1))
        assert check_witness(ZeroOneMatrix.ones(2), bogus)

    @pytest.mark.parametrize("source,lines", [
        # more than n - k vertices: the neighbourhood criterion's own bound
        ("certify-k-extendable-1-bg10.out", ("u-set: 1 2 3 4 5 6 7 8 9 10",)),
        ("certify-k-extendable-1-bg10.out", ("u-set: 1 1 1",)),
        ("certify-k-extendable-1-bg10.out", ("u-set: 0",)),
        ("certify-k-indecomposable-1-dec6.out", ("rows: 1 1 1 1 1", "cols: 2")),
        ("certify-k-indecomposable-1-dec6.out", ("rows: 1 2 3 4 0", "cols: 2")),
    ])
    def test_certificate_checker_spots_lies(self, source, lines):
        from dataclasses import replace
        from pathlib import Path

        from extendix.certify import check_certificate
        from extendix.fileio import read_certificate

        cert = read_certificate(str(Path(__file__).parent / "golden" / source))
        assert check_certificate(cert) == []
        assert check_certificate(replace(cert, witness_lines=lines))

    def test_disconnected_proves_nothing_at_k0(self):
        from extendix import BipartiteGraph
        from extendix.certify import build_certificate, check_certificate
        from extendix.fileio import Certificate

        # disconnected without a perfect matching; u1w1, u2w2 is disconnected
        # and 0-extendable
        g = BipartiteGraph(2, frozenset({(0, 0), (1, 0)}))
        assert build_certificate(g, "k-extendable", 0).witness_kind == "no-perfect-matching"
        assert check_certificate(Certificate("k-extendable", 0, False, g, "disconnected", ()))
