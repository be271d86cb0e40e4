import random

import pytest

from extendix import (DecompositionWitness, ZeroOneMatrix, bipartite_of_matrix,
                      count_perfect_matchings, cycle_bipartite, diagonals,
                      has_perfect_matching,
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


def _every_minor_has_a_perfect_matching(a: ZeroOneMatrix) -> bool:
    """The diagonal criterion as it was computed before: one maximum
    matching from scratch per minor."""
    g = bipartite_of_matrix(a)
    return all(has_perfect_matching(g, frozenset({i}), frozenset({j}))
               for i in range(a.n) for j in range(a.n))


class TestDiagonalCriterion:
    """One maximum matching repaired by one augmentation per minor gives
    the answers of n^2 fresh matchings."""

    def test_every_order_3_matrix(self):
        held = 0
        for a in iter_matrices(3):
            answer = fully_indecomposable_by_diagonals(a)
            assert answer == _every_minor_has_a_perfect_matching(a), a
            held += answer
        assert 0 < held < 512

    def test_seeded_orders_4_to_12(self):
        rng = random.Random(2024)
        answers = []
        for n in range(4, 13):
            for case in range(16):
                p = (0.2, 0.35, 0.5, 0.7)[case % 4]
                a = ZeroOneMatrix(tuple(
                    tuple(int(case % 3 == 0 and i == j or rng.random() < p) for j in range(n))
                    for i in range(n)))
                answers.append(fully_indecomposable_by_diagonals(a))
                assert answers[-1] == _every_minor_has_a_perfect_matching(a), a
        assert 20 < sum(answers) < len(answers) - 20


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


FULL3 = ZeroOneMatrix(((1, 0, 1), (1, 1, 1), (1, 1, 1)))


class TestWitnessChecker:
    @pytest.mark.parametrize("a,witness", [
        # repeated rows: FULL3 is fully indecomposable and irreducible
        (FULL3, DecompositionWitness("partly_decomposable", (0, 0), (1,), 2, 1,
                                     (0, 1, 2), (0, 2, 1))),
        (FULL3, DecompositionWitness("reducible", (0, 0), (1,), 2, 1,
                                     (0, 2, 1), (0, 2, 1))),
        # a true block whose permutations do not put it in the corner
        (TRIANGULAR, DecompositionWitness("reducible", (1,), (0,), 1, 1, (0, 1), (0, 1))),
        (TRIANGULAR, DecompositionWitness("partly_decomposable", (1,), (0,), 1, 1,
                                          (1, 0), (0, 1))),
        (TRIANGULAR, DecompositionWitness("partly_decomposable", (1,), (2,), 1, 1,
                                          (1, 0), (1, 0))),
    ])
    def test_forgeries_rejected(self, a, witness):
        assert check_witness(a, witness)

    def test_true_block_accepted(self):
        w = DecompositionWitness("partly_decomposable", (1,), (0,), 1, 1, (1, 0), (1, 0))
        assert check_witness(TRIANGULAR, w) == []
        assert not is_partly_decomposable(FULL3).holds and not is_reducible(FULL3).holds


def _seeded(n: int, p: float, seed: int) -> ZeroOneMatrix:
    rng = random.Random(seed)
    return ZeroOneMatrix(tuple(tuple(1 if rng.random() < p else 0 for _ in range(n))
                               for _ in range(n)))


SEEDED = [_seeded(4 + i % 6, (0.3, 0.5, 0.7, 0.85)[i % 4], 800 + i) for i in range(120)]


def _block_triangular(n: int) -> ZeroOneMatrix:
    """[[J, J], [0, J]] with n/2 rows per block."""
    h = n // 2
    return ZeroOneMatrix(tuple(tuple(0 if i >= h and j < h else 1 for j in range(n))
                               for i in range(n)))


class TestFlowRoute:
    """Zero blocks read off the failing flow, at every k."""

    def test_witnesses_at_every_k(self):
        mats = [a for n in (1, 2, 3) for a in iter_matrices(n)] + SEEDED
        for a in mats:
            for k in range(a.n):
                res = is_k_partly_decomposable(a, k)
                if 4 <= a.n <= 7:
                    assert res.holds == k_partly_decomposable_by_blocks(a, k)
                if res.holds:
                    assert res.witness.k == k and check_witness(a, res.witness) == []
            for k in range(1, a.n + 1):
                res = is_k_reducible(a, k)
                if 4 <= a.n <= 7:
                    assert res.holds == k_reducible_by_blocks(a, k)
                if res.holds:
                    assert res.witness.k == k and check_witness(a, res.witness) == []

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_block_triangular_certificates(self, n, tmp_path, capsys):
        from extendix.cli import main
        from extendix.fileio import write_instance

        path, cert = tmp_path / "a.mat", str(tmp_path / "a.cert")
        write_instance(_block_triangular(n), path)
        for claim in ("k-indecomposable", "k-irreducible"):
            for k in (1, 2):
                assert main(["certify", str(path), "--claim", claim, "--k", str(k),
                             "--out", cert]) == 1
                assert main(["verify", cert]) == 0

    def test_block_triangular_analyze(self, tmp_path, capsys):
        from extendix.cli import main
        from extendix.fileio import write_instance

        path = tmp_path / "a.mat"
        write_instance(_block_triangular(18), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "irreducible: no\nfully-indecomposable: no\n" in out
        assert "k-indecomposable: 0\nk-irreducible: none\n" in out

    def test_block_triangular_diagonals(self):
        """Two elementary components of order 12: 12! 12! diagonals."""
        import math

        assert nonzero_diagonal_count(_block_triangular(24)) == math.factorial(12) ** 2

    @pytest.mark.parametrize("claim, built", [
        ("k-indecomposable", ("bipartite_of_matrix", "max_matching_pairs")),
        ("k-irreducible", ("digraph_of_matrix",))], ids=["k-indecomposable", "k-irreducible"])
    def test_certificate_builds_each_view_once(self, claim, built, monkeypatch):
        """A positive certificate reads its fan paths off the B(A) and
        maximum matching, or the D(A), that decided the claim."""
        import sys
        from unittest import mock

        import extendix.certify as cert_mod

        spies = {}
        for name in built:
            original = getattr(cert_mod, name)
            spies[name] = mock.Mock(wraps=original)
            # rebind the name wherever the package binds it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("extendix") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, spies[name])
        cert = cert_mod.build_certificate(with_unit_diagonal(_seeded(10, 0.6, 0)), claim, 2)
        assert cert.verdict and cert.witness_kind == "fan-paths"
        assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(
            built, 1)

    def test_no_production_path_reaches_the_block_search(self, monkeypatch, tmp_path,
                                                         capsys):
        from pathlib import Path

        import extendix.matrixlab as ml
        from extendix.cli import main
        from extendix.fileio import write_instance

        def forbidden(*args, **kwargs):
            raise AssertionError("block search reached")

        monkeypatch.setattr(ml, "combinations", forbidden)
        monkeypatch.setattr(ml, "_search_block", forbidden)
        paths = [str(p) for p in sorted((Path(__file__).parent / "golden").glob("*.mat"))]
        for i, a in enumerate(SEEDED[:30]):
            write_instance(a, tmp_path / f"s{i}.mat")
            paths.append(str(tmp_path / f"s{i}.mat"))
        cert = str(tmp_path / "a.cert")
        for path in paths:
            assert main(["analyze", path]) == 0
            n = int(Path(path).read_text().split()[1])
            for claim, ks in (("k-indecomposable", range(n)),
                              ("k-irreducible", range(1, n + 1))):
                for k in ks:
                    assert main(["certify", path, "--claim", claim, "--k", str(k),
                                 "--out", cert]) in (0, 1)
                    assert main(["verify", cert]) == 0
