"""Top-k right singular vectors of a short, wide matrix.

Built for stacks of at most a few (<= 16) embedding rows: the
decomposition goes through the small row-space Gram matrix, whose
symmetric eigendecomposition is cheap and deterministic. Rows of the
result are ordered by descending singular value and sign-fixed so the
first nonzero coordinate of each vector is positive, which makes the
basis reproducible across runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_right_singular_vectors"]

_MAX_ROWS = 16
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

    ``m`` has one row per embedding (at most 16) and ``d`` columns.
    Requires ``1 <= k <= min(rows, d)`` and ``k`` no larger than the
    numerical rank of ``m``: a direction with a zero singular value is
    not determined by the data, so it is rejected, never made up.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {m.shape}")
    rows, d = m.shape
    if rows == 0 or rows > _MAX_ROWS:
        raise ValueError(f"row count {rows} outside supported range 1..{_MAX_ROWS}")
    if not np.isfinite(m).all():
        raise FloatingPointError("non-finite entries in input matrix")
    if not 1 <= k <= min(rows, d):
        raise ValueError(f"k={k} outside 1..min(rows={rows}, d={d})")

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
