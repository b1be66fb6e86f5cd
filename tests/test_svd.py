"""Top-k right-singular-vector oracles.

The implementation goes through the small row-space Gram matrix; the
oracle here goes through the d x d column-space eigendecomposition, so
agreement checks two independent routes.
"""

from __future__ import annotations

import numpy as np
import pytest

from fedfairprompt.svd import top_right_singular_vectors


def test_axis_aligned_rows_frozen_values():
    m = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    basis = top_right_singular_vectors(m, k=2)
    np.testing.assert_allclose(basis, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_duplicated_unit_row_gives_that_direction():
    u = np.array([0.6, 0.8])
    basis = top_right_singular_vectors(np.stack([u, u]), k=1)
    np.testing.assert_allclose(basis[0], u, atol=1e-12)


def test_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((4, 9))
        basis = top_right_singular_vectors(m, k=3)
        for row in basis:
            lead = row[np.abs(row) > 1e-12][0]
            assert lead > 0.0


def test_matches_columnspace_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        rows = int(rng.integers(2, 9))
        d = int(rng.integers(rows, 24))
        m = rng.standard_normal((rows, d))
        k = int(rng.integers(1, rows + 1))
        basis = top_right_singular_vectors(m, k=k)

        evals, evecs = np.linalg.eigh(m.T @ m)
        order = np.argsort(evals)[::-1]
        for i in range(k):
            ref = evecs[:, order[i]]
            got = basis[i]
            # Same direction up to sign.
            assert min(np.linalg.norm(got - ref), np.linalg.norm(got + ref)) < 1e-8

        # Reconstruction error equals the oracle's at matching k.
        proj = m @ basis.T @ basis
        vref = evecs[:, order[:k]].T
        proj_ref = m @ vref.T @ vref
        assert abs(np.linalg.norm(m - proj) - np.linalg.norm(m - proj_ref)) < 1e-8


def test_rows_are_orthonormal():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 15))
    basis = top_right_singular_vectors(m, k=6)
    gram = basis @ basis.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)


def test_singular_values_descend():
    # row i's singular value is the norm of m times it
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 12))
    basis = top_right_singular_vectors(m, k=5)
    assert np.all(np.diff(np.linalg.norm(m @ basis.T, axis=0)) <= 1e-12)


def test_k_beyond_numerical_rank_is_rejected():
    m = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])  # rank 1
    basis = top_right_singular_vectors(m, k=1)
    np.testing.assert_allclose(basis[0], [1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError, match="numerical rank 1"):
        top_right_singular_vectors(m, k=2)
    with pytest.raises(ValueError, match="numerical rank 0"):
        top_right_singular_vectors(np.zeros((2, 3)), k=1)
