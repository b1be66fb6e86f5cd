"""Cross-layer prompt mixing with learnable gated attention pooling.

Each deeper layer's prompt block is refined by a residual read-out of
the prompt blocks that fed the layers below it: every earlier block is
summarized by its mean row (its context), a learnable per-layer query
scores those contexts, and the softmax-gated convex combination of the
earlier blocks is added to the current one. All inputs and outputs are
(K, d) prompt blocks shared across the batch, so the mixing itself is
sample-independent.
"""

from __future__ import annotations

from . import tensor as T
from .tensor import Tensor

__all__ = ["contextualize", "gap_weights", "gap_pool", "apply_cross_layer"]


def contextualize(prompt_state: Tensor) -> Tensor:
    """Mean over the K token rows of one prompt block: (K, d) -> (d,)."""
    return T.reduce_mean(prompt_state, axis=0)


def gap_weights(query: Tensor, contexts: list[Tensor]) -> Tensor:
    """Softmax attention of one query over per-layer context vectors."""
    logits = T.stack([T.dot(query, c) for c in contexts], axis=0)
    return T.softmax(logits, axis=0)


def gap_pool(weights: Tensor, history: list[Tensor]) -> Tensor:
    """Convex combination of earlier prompt blocks: sum_i w_i * P_i."""
    stacked = T.stack(history, axis=0)  # (n, K, d)
    w = T.reshape(weights, (weights.shape[0], 1, 1))
    return T.reduce_sum(T.mul(stacked, w), axis=0)


def apply_cross_layer(tokens: Tensor, history: list[Tensor], query: Tensor) -> Tensor:
    """Residual update: tokens + gated pooling of the earlier blocks."""
    weights = gap_weights(query, [contextualize(h) for h in history])
    return T.add(tokens, gap_pool(weights, history))
