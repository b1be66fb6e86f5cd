"""Gated cross-layer prompt mixing: value oracles and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from fedfairprompt import tensor as T
from fedfairprompt.crosslayer import apply_cross_layer, contextualize, gap_pool, gap_weights
from fedfairprompt.encoder import EncoderConfig, PromptSet, VisionEncoder
from fedfairprompt.tensor import Tensor, backward
from gradcheck import assert_grads_match


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_contextualize_is_row_mean():
    block = _rng(0).standard_normal((3, 5))
    got = contextualize(Tensor(block)).data
    np.testing.assert_allclose(got, block.mean(axis=0), rtol=1e-13)


def test_gap_weights_sum_to_one_and_stay_positive():
    rng = _rng(1)
    q = Tensor(rng.standard_normal(6))
    ctxs = [Tensor(rng.standard_normal(6)) for _ in range(4)]
    w = gap_weights(q, ctxs).data
    assert w.shape == (4,)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w > 0.0)


def test_gap_weights_uniform_for_identical_contexts():
    c = Tensor(np.arange(5.0))
    w = gap_weights(Tensor(np.ones(5)), [c, c, c]).data
    np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_gap_weights_invariant_to_shared_context_shift():
    rng = _rng(2)
    q = rng.standard_normal(6)
    ctxs = [rng.standard_normal(6) for _ in range(3)]
    shift = rng.standard_normal(6)
    w0 = gap_weights(Tensor(q), [Tensor(c) for c in ctxs]).data
    w1 = gap_weights(Tensor(q), [Tensor(c + shift) for c in ctxs]).data
    np.testing.assert_allclose(w0, w1, atol=1e-12)


def test_gap_pool_one_hot_selects_entry_and_stays_in_envelope():
    rng = _rng(3)
    history = [rng.standard_normal((2, 4)) for _ in range(3)]
    tensors = [Tensor(h) for h in history]
    picked = gap_pool(Tensor([0.0, 1.0, 0.0]), tensors).data
    np.testing.assert_array_equal(picked, history[1])

    w = rng.dirichlet(np.ones(3))
    pooled = gap_pool(Tensor(w), tensors).data
    lo = np.minimum.reduce(history)
    hi = np.maximum.reduce(history)
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


def test_gradients_reach_query_tokens_and_history():
    rng = _rng(6)
    tokens = Tensor(rng.standard_normal((2, 5)), trainable=True)
    history = [Tensor(rng.standard_normal((2, 5)), trainable=True) for _ in range(2)]
    query = Tensor(rng.standard_normal(5), trainable=True)
    target = Tensor(rng.standard_normal((2, 5)))

    def loss():
        out = apply_cross_layer(tokens, history, query)
        diff = T.sub(out, target)
        return T.reduce_sum(T.mul(diff, diff))

    grads = backward(loss())
    assert query in grads and np.any(grads[query] != 0.0)
    assert_grads_match(loss, [tokens, query, *history])


def test_shape_validation():
    # the mixing trusts its shapes: PromptSet fixes the block and query
    # shapes, and encode_image matches the prompt set to the encoder
    block = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="share one shape"):
        PromptSet(tokens=[block, Tensor(np.zeros((3, 4)))], queries=[Tensor(np.zeros(4))])
    with pytest.raises(ValueError, match="query shape"):
        PromptSet(tokens=[block, block], queries=[Tensor(np.zeros(5))])
    with pytest.raises(ValueError, match="queries"):
        PromptSet(tokens=[block, block], queries=[])
    cfg = EncoderConfig(embed_dim=8, layers=2, heads=2, image_size=16, patch_size=8)
    other = PromptSet.initialize(EncoderConfig(embed_dim=8, layers=3, heads=2), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        VisionEncoder(cfg).encode_image(np.zeros((1, 4, 8)), other)
