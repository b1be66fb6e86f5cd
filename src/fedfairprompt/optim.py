"""AdamW (Loshchilov & Hutter 2019, "Decoupled weight decay
regularization"), in place on one parameter array.

Weight decay is applied directly to the parameters (not folded into the
gradient), so with a zero gradient and fresh moments a step shrinks each
parameter by exactly ``lr * WEIGHT_DECAY``. Every operation is
elementwise and every step runs them in the same order, so updates
replay bit-identically, and a step on a concatenation of arrays equals
a step on each.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


def adamw_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, step: int,
               lr: float) -> None:
    """Step number ``step`` (from 1) on ``p``, in place.

    ``g`` is one finite gradient of ``p``'s shape; the backward sweep
    has already rejected non-finite values. ``m`` and ``v`` are its
    first and second moments, also updated in place. Any of the arrays
    may be a view into a larger one.
    """
    bc1, bc2 = 1.0 - BETA1**step, 1.0 - BETA2**step
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    decay = lr * WEIGHT_DECAY * p
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    p -= decay
