"""Top-k right singular vectors of a short, wide matrix.

Built for stacks of a few embedding rows: the decomposition goes
through the small row-space Gram matrix, whose symmetric
eigendecomposition is cheap and deterministic. Rows of the
result are ordered by descending singular value and sign-fixed so the
first nonzero coordinate of each vector is positive, which makes the
basis reproducible across runs.
"""

from __future__ import annotations

import numpy as np

_SIGN_EPS = 1e-12
_RANK_TOL = 1e-10  # singular values at or below this share of the largest count as zero


def _fix_sign(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > _SIGN_EPS:
            return -v if x < 0.0 else v
    return v


def top_right_singular_vectors(m: np.ndarray, k: int) -> np.ndarray:
    """Return the top-``k`` right singular vectors of ``m`` as (k, d)
    orthonormal rows.

    ``m`` is a finite 2-D matrix, one row per embedding, and
    ``1 <= k <= min(rows, d)``. ``k`` larger than the numerical rank of
    ``m`` raises ValueError: a direction with a zero singular value is
    not determined by the data, so it is rejected, never made up.
    """
    m = np.asarray(m, dtype=np.float64)
    gram = m @ m.T
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    sigma = np.sqrt(np.clip(eigvals, 0.0, None))

    cutoff = _RANK_TOL * (sigma[0] if sigma[0] > 0.0 else 1.0)
    rank = int(np.count_nonzero(sigma > cutoff))
    if k > rank:
        raise ValueError(f"k={k} exceeds the numerical rank {rank} of the input")
    return np.stack([_fix_sign((m.T @ eigvecs[:, i]) / sigma[i]) for i in range(k)])
