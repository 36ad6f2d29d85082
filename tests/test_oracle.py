"""The brute-force cross checks are themselves run under pytest so a
regression in the main code paths trips them immediately."""

import random

import pytest

from hasseforge.datum import Params
from hasseforge.errors import InvariantViolation
from hasseforge.linalg import Matrix, Submodule
from hasseforge.rings import FiniteField

from oracle import (all_subspaces, check_dets, check_kernels_images,
                    check_prop_dual_exhaustive, check_quotients,
                    oracle_prop_dual, perm_det, rref, run_all, tiny_params)


def test_perm_det_matches_elimination():
    par = Params(3, 2, 1, 2, 1)
    rng = random.Random(4)
    for _ in range(60):
        M = Matrix(par.R, [[par.R.random_element(rng) for _ in range(3)]
                           for _ in range(3)])
        assert perm_det(M) == M.det()


def test_rref_is_projection():
    K = tiny_params().k
    rng = random.Random(9)
    for _ in range(40):
        rows = [tuple(K.random_element(rng) for _ in range(5)) for _ in range(3)]
        red, piv = rref(K, rows, 5)
        again, piv2 = rref(K, list(red), 5)
        assert list(again) == list(red) and piv2 == piv
        S = Submodule.span(K, 5, rows)
        assert list(S.rows) == list(red)


def test_oracle_prop_dual_rejects_bad_dims():
    K = tiny_params().k
    line = Submodule.span(K, 3, [(K.one, K.zero, K.zero)])
    with pytest.raises(InvariantViolation):
        oracle_prop_dual(K, 3, line, line)


def test_kernel_image_exhaustive():
    assert check_kernels_images() == 512


def test_det_cross_check():
    assert check_dets(trials=10) == 778


def test_quotient_presentations():
    assert check_quotients(samples=2) == 10


def test_subspace_count_of_tiny_vector_space():
    # Gaussian binomials over F_2: 1 + 15 + 35 + 15 + 1
    assert len(all_subspaces(tiny_params().k, 4)) == 67


def test_prop_dual_exhaustive_pair_count():
    assert check_prop_dual_exhaustive() == 1677


def test_prop_dual_exhaustive_over_gf3():
    # over F_2, -1 = 1 hides the sign of iso; over F_3 it is -1 on 120 of
    # the 1 + 13 + 13 + 1 subspaces' 340 complementary pairs
    assert check_prop_dual_exhaustive(FiniteField(3, 1), 3) == 340


def test_run_all_quick():
    counts = run_all(quick=True)
    assert counts["kernel_image_matrices"] == 512
    assert counts["prop_dual_pairs"] == 1677
    assert set(counts) == {"kernel_image_matrices", "determinants",
                           "quotients", "prop_dual_pairs"}
