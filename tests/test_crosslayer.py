"""Gated cross-layer prompt mixing: value oracles and gradient checks."""

from __future__ import annotations

import re

import numpy as np
import pytest

from fedfairprompt.crosslayer import apply_cross_layer
from fedfairprompt.encoder import PromptSet
from fedfairprompt.tensor import Tensor, backward
from gradcheck import assert_grads_match
import plumbing as P


def _rng(seed=0):
    return np.random.default_rng(seed)


def _pool(history, query):
    """apply_cross_layer with zero tokens: the pooled blocks alone."""
    zero = Tensor(np.zeros(history[0].shape))
    return apply_cross_layer(zero, [Tensor(h) for h in history], Tensor(query)).data


def test_pool_is_history_mean_for_identical_contexts():
    rng = _rng(0)
    base = rng.standard_normal((3, 5))
    # different blocks, one mean row: the gate cannot tell them apart
    history = [base + d - d.mean(axis=0) for d in rng.standard_normal((4, 3, 5))]
    pooled = _pool(history, rng.standard_normal(5))
    np.testing.assert_allclose(pooled, np.mean(history, axis=0), atol=1e-14)


def test_pool_weights_ignore_a_shared_context_shift():
    rng = _rng(2)
    history = [rng.standard_normal((2, 6)) for _ in range(3)]
    query = rng.standard_normal(6)
    shift = rng.standard_normal(6)
    # the gate is unchanged, so the pooled blocks move by the shift alone
    shifted = _pool([h + shift for h in history], query)
    np.testing.assert_allclose(shifted - shift, _pool(history, query), atol=1e-12)


def test_pool_stays_in_blocks_envelope():
    rng = _rng(3)
    history = [rng.standard_normal((2, 4)) for _ in range(3)]
    lo = np.minimum.reduce(history)
    hi = np.maximum.reduce(history)
    for scale in (0.0, 1.0, 50.0):
        pooled = _pool(history, rng.standard_normal(4) * scale)
        assert np.all(pooled >= lo - 1e-12) and np.all(pooled <= hi + 1e-12)


def test_single_predecessor_reduces_to_plain_residual():
    rng = _rng(4)
    tokens = rng.standard_normal((2, 6))
    first = rng.standard_normal((2, 6))
    out = apply_cross_layer(Tensor(tokens), [Tensor(first)], Tensor(rng.standard_normal(6)))
    np.testing.assert_allclose(out.data, tokens + first, rtol=1e-12)


def test_apply_cross_layer_matches_numpy_composition_oracle():
    rng = _rng(5)
    k, d = 2, 8
    tokens = rng.standard_normal((k, d))
    history = [rng.standard_normal((k, d)) for _ in range(3)]
    query = rng.standard_normal(d)

    logits = np.array([query @ h.mean(axis=0) for h in history])
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    expected = tokens + np.tensordot(w, np.stack(history), axes=1)

    got = apply_cross_layer(Tensor(tokens), [Tensor(h) for h in history], Tensor(query)).data
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def _stacked_reference(tokens, history, query, matvec):
    """Stacked forward from the formula; the logits either as one dot per
    (client, context) or as the mat-vec ``contexts @ q``."""
    contexts = np.stack([h.mean(axis=-2) for h in history], axis=-2)  # (C, n, d)
    if matvec:
        logits = (contexts @ query[..., None])[..., 0]
    else:
        logits = np.array([[q @ c for c in cs] for q, cs in zip(query, contexts)])
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return tokens + sum(h * w[:, i, None, None] for i, h in enumerate(history))


def test_stacked_output_is_bitwise_the_per_dot_reference():
    # The two logit forms round differently on unit-scale queries, so this
    # sees a kernel that computes its logits as contexts @ q.
    matvec_differs = []
    for seed in range(5):
        rng = _rng(40 + seed)
        tokens = rng.standard_normal((3, 2, 32))
        history = [rng.standard_normal((3, 2, 32)) for _ in range(3)]
        query = rng.standard_normal((3, 32))
        got = apply_cross_layer(Tensor(tokens), [Tensor(h) for h in history], Tensor(query)).data
        assert np.array_equal(got, _stacked_reference(tokens, history, query, matvec=False))
        matvec_differs.append(not np.array_equal(got, _stacked_reference(tokens, history, query, matvec=True)))
    assert any(matvec_differs)


def test_gradients_reach_query_tokens_and_history():
    rng = _rng(6)
    tokens = Tensor(rng.standard_normal((2, 5)), trainable=True)
    history = [Tensor(rng.standard_normal((2, 5)), trainable=True) for _ in range(2)]
    query = Tensor(rng.standard_normal(5), trainable=True)
    target = Tensor(rng.standard_normal((2, 5)))

    def loss():
        out = apply_cross_layer(tokens, history, query)
        diff = P.sub(out, target)
        return P.reduce_sum(P.mul(diff, diff))

    grads = backward(loss())
    assert query in grads and np.any(grads[query] != 0.0)
    assert_grads_match(loss, [tokens, query, *history])


def test_shape_validation():
    # the mixing trusts its shapes: PromptSet cuts its blocks and queries
    # from one vector of 4·K·32 + 3·32 floats, so it fixes the block and
    # query shapes and the depth and width of the fixed encoder
    for shape in [(96 + 128 * 2 + 1,), (96 + 128 * 2 - 32,), (3, 95 + 128), (2, 3, 224), (), (0,)]:
        with pytest.raises(ValueError, match=re.escape(f"prompt vector of shape {shape} does "
                                                       "not fit the encoder")):
            PromptSet(np.zeros(shape))
    ps = PromptSet(np.zeros((3, 96 + 128 * 2)))
    assert [t.shape for t in ps.tokens] == [(3, 2, 32)] * 4
    assert [q.shape for q in ps.queries] == [(3, 32)] * 3
