"""AdamW (Loshchilov & Hutter 2019, "Decoupled weight decay
regularization"), in place on aligned lists of arrays.

Weight decay is applied directly to the parameters (not folded into the
gradient), so with a zero gradient and fresh moments a step shrinks each
parameter by exactly ``lr * WEIGHT_DECAY``. Every step runs the same
operations in the same order, so optimizer updates replay bit-identically.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


def adamw_step(params: list[np.ndarray], grads: list[np.ndarray], m: list[np.ndarray],
               v: list[np.ndarray], step: int, lr: float) -> None:
    """Step number ``step`` (from 1) on each ``params[i]``, in place.

    ``grads[i]`` is one finite gradient of ``params[i]``'s shape; the
    backward sweep has already rejected non-finite values. ``m[i]`` and
    ``v[i]`` are its first and second moments, also updated in place.
    Any of the arrays may be a view into a larger one.
    """
    bc1, bc2 = 1.0 - BETA1**step, 1.0 - BETA2**step
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= BETA1
        m_i += (1.0 - BETA1) * g
        v_i *= BETA2
        v_i += (1.0 - BETA2) * (g * g)
        decay = lr * WEIGHT_DECAY * p
        p -= lr * (m_i / bc1) / (np.sqrt(v_i / bc2) + EPS)
        p -= decay
