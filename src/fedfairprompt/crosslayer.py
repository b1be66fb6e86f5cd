"""Cross-layer prompt mixing with learnable gated attention pooling.

Each deeper layer's prompt block is refined by a residual read-out of
the prompt blocks that fed the layers below it: every earlier block is
summarized by its mean row (its context), a learnable per-layer query
scores those contexts, and the softmax-gated convex combination of the
earlier blocks is added to the current one. The blocks are shared
across the batch, so one mixing step is one sample-independent node.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _node, _softmax_vjp, softmax


def apply_cross_layer(tokens: Tensor, history: list[Tensor], query: Tensor) -> Tensor:
    """Residual update: tokens + sum_i w_i * history[i], where ``w`` is
    the softmax over i of ``query`` dotted with history[i]'s mean row.
    Stacked clients prepend a C axis to every operand."""
    blocks = np.stack([h.data for h in history], axis=-3)  # (..., n, K, d)
    contexts = np.add.reduce(blocks, axis=-2) / blocks.shape[-2]  # (..., n, d), the mean rows
    q = query.data
    # One (1, d) @ (d, 1) product per logit and one (1, n) @ (n, d) per
    # client's query gradient: numpy computes each product of a batched
    # matmul with the dot or gemv a lone ``q @ c`` takes, so the bits match
    # a loop over clients. The mat-vec contexts @ q rounds differently (up
    # to 3.8e-15 on a 3-round fvlfp run). The golden runs' queries stay too
    # close to zero to show it; a unit-scale test does.
    qs, cs = q.reshape(-1, q.shape[-1]), contexts.reshape(-1, *contexts.shape[-2:])
    logits = np.matmul(cs[:, :, None, :], qs[:, None, :, None]).reshape(contexts.shape[:-1])
    w = softmax(logits)
    out = tokens.data + np.add.reduce(blocks * w[..., None, None], axis=-3)

    def vjp(g):
        gw = np.add.reduce(blocks * g[..., None, :, :], axis=(-2, -1))
        glogits = _softmax_vjp(gw, w)
        # d(logit_i)/d(block_i) spreads query / K over the block's K rows.
        gblocks = (w[..., None, None] * g[..., None, :, :]
                   + (glogits[..., None] * q[..., None, :])[..., None, :] / blocks.shape[-2])
        gq = np.matmul(glogits.reshape(len(cs), 1, -1), cs).reshape(q.shape)
        return (g, *gblocks.swapaxes(0, -3), gq)  # one (..., K, d) block per context

    return _node(out, (tokens, *history, query), vjp, "apply_cross_layer")
