"""Frozen encoder oracles.

The whole prompt-threaded forward pass is checked against an
independent pure-numpy re-derivation (per-head loops, no tape), plus
determinism, freezing, and template contracts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erf

from fedfairprompt import tensor as T
from fedfairprompt.encoder import (
    EncoderConfig,
    FrozenBackbone,
    PromptSet,
    VisionEncoder,
    build_prompt_templates,
)
from fedfairprompt.tensor import Tensor, backward
from gradcheck import assert_grads_match

SMALL = EncoderConfig(embed_dim=8, layers=2, heads=2, image_size=16, patch_size=8, prompt_tokens=2, seed=11)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# independent numpy re-derivation of the forward pass


def _ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _sm(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _numpy_forward(enc, e0, blocks, queries, cdfp=True, compound=True):
    cfg, bb = enc.config, enc.backbone
    k = blocks[0].shape[0]
    seq = np.vstack([(bb.cls + bb.pos[0])[None], blocks[0], e0 + bb.pos[1:]])
    hist = [blocks[0]]
    for layer_idx, w in enumerate(bb.layers, start=1):
        h = _ln(seq, w["ln1_g"], w["ln1_b"])
        q, kk, v = h @ w["wq"], h @ w["wk"], h @ w["wv"]
        dh = cfg.embed_dim // cfg.heads
        ctx = np.zeros_like(seq)
        for head in range(cfg.heads):
            cols = slice(head * dh, (head + 1) * dh)
            att = _sm(q[:, cols] @ kk[:, cols].T / math.sqrt(dh))
            ctx[:, cols] = att @ v[:, cols]
        seq = seq + ctx @ w["wo"]
        h2 = _ln(seq, w["ln2_g"], w["ln2_b"])
        seq = seq + _gelu(h2 @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"]
        if layer_idx == cfg.layers:
            break
        base = blocks[layer_idx]
        if cdfp and k > 0:
            logits = np.array([queries[layer_idx - 1] @ hh.mean(axis=0) for hh in hist])
            wts = _sm(logits[None])[0]
            used = base + np.tensordot(wts, np.stack(hist), axes=1)
        else:
            used = base
        hist.append(used if compound else base)
        seq = np.vstack([seq[:1], used, seq[1 + k:]])
    cls = _ln(seq[:1], bb.lnf_g, bb.lnf_b) @ bb.out_proj
    return (cls / np.linalg.norm(cls))[0]


def _random_prompts(cfg, seed=0, sigma=0.5):
    rng = _rng(seed)
    ps = PromptSet.initialize(cfg, seed=seed)
    for t in ps.tokens:
        t.data = rng.standard_normal(t.shape) * sigma
    for q in ps.queries:
        q.data = rng.standard_normal(q.shape) * sigma
    return ps


def test_forward_matches_numpy_oracle_with_and_without_mixing():
    enc = VisionEncoder(SMALL)
    rng = _rng(1)
    img = rng.random((1, 16, 16))
    e0 = enc.embed_patches(img)
    ps = _random_prompts(SMALL, seed=2)
    blocks = [t.data for t in ps.tokens]
    queries = [q.data for q in ps.queries]
    for cdfp in (True, False):
        for compound in (True, False):
            z = enc.encode_image(e0, ps, cdfp_enabled=cdfp, compound=compound)
            ref = _numpy_forward(enc, e0[0], blocks, queries, cdfp=cdfp, compound=compound)
            np.testing.assert_allclose(z.data[0], ref, rtol=1e-10, atol=1e-12)


def test_forward_matches_oracle_on_default_sized_config():
    cfg = EncoderConfig(seed=3)
    enc = VisionEncoder(cfg)
    rng = _rng(4)
    img = rng.random((1, 32, 32))
    e0 = enc.embed_patches(img)
    ps = _random_prompts(cfg, seed=5, sigma=0.3)
    z = enc.encode_image(e0, ps)
    ref = _numpy_forward(enc, e0[0], [t.data for t in ps.tokens], [q.data for q in ps.queries])
    np.testing.assert_allclose(z.data[0], ref, rtol=1e-10, atol=1e-12)


def test_batched_forward_matches_per_sample():
    enc = VisionEncoder(SMALL)
    rng = _rng(6)
    imgs = rng.random((3, 16, 16))
    ps = _random_prompts(SMALL, seed=7)
    z_batch = enc.encode_image(enc.embed_patches(imgs), ps)
    for i in range(3):
        z_one = enc.encode_image(enc.embed_patches(imgs[i : i + 1]), ps)
        np.testing.assert_allclose(z_batch.data[i], z_one.data[0], rtol=1e-9, atol=1e-11)


def test_embedding_is_unit_norm_and_deterministic():
    cfg = EncoderConfig(seed=9)
    rng = _rng(8)
    img = rng.random((1, 32, 32))
    ps = _random_prompts(cfg, seed=10)
    z1 = VisionEncoder(cfg).encode_image(VisionEncoder(cfg).embed_patches(img), ps)
    z2 = VisionEncoder(cfg).encode_image(VisionEncoder(cfg).embed_patches(img), ps)
    assert abs(np.linalg.norm(z1.data) - 1.0) <= 1e-12
    assert np.array_equal(z1.data, z2.data)


def test_zero_image_patch_rows_equal_frozen_bias():
    enc = VisionEncoder(EncoderConfig(seed=12))
    e0 = enc.embed_patches(np.zeros((1, 32, 32)))
    assert e0.shape == (1, 16, 32)
    np.testing.assert_array_equal(e0, np.broadcast_to(enc.backbone.patch_b, (1, 16, 32)))


def test_patch_embedding_is_affine_in_pixels():
    enc = VisionEncoder(EncoderConfig(seed=13))
    rng = _rng(14)
    a, b = rng.random((2, 32, 32)), rng.random((2, 32, 32))
    lhs = enc.embed_patches(a + b)
    rhs = enc.embed_patches(a) + enc.embed_patches(b) - enc.embed_patches(np.zeros((2, 32, 32)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_zero_prompts_match_promptless_pass_under_neutralized_attention():
    cfg = EncoderConfig(embed_dim=8, layers=1, heads=2, image_size=16, patch_size=8,
                        prompt_tokens=2, seed=15)
    backbone = FrozenBackbone(cfg)
    for w in backbone.layers:
        w["wv"] = np.zeros_like(w["wv"])  # attention writes nothing back
    enc = VisionEncoder(cfg, backbone=backbone)
    img = _rng(16).random((1, 16, 16))
    e0 = enc.embed_patches(img)

    zero_ps = PromptSet.initialize(cfg, seed=0, sigma=0.0)
    z_zero = enc.encode_image(e0, zero_ps, cdfp_enabled=False)
    none_cfg = EncoderConfig(**{**cfg.__dict__, "prompt_tokens": 0})
    z_none = enc.encode_image(e0, PromptSet.initialize(none_cfg, seed=0), cdfp_enabled=False)
    np.testing.assert_allclose(z_zero.data, z_none.data, atol=1e-12)

    # With generic weights the zero tokens still participate in attention
    # normalization, so the two passes differ.
    enc_full = VisionEncoder(cfg)
    z_zero_full = enc_full.encode_image(e0, zero_ps, cdfp_enabled=False)
    z_none_full = enc_full.encode_image(e0, PromptSet.initialize(none_cfg, seed=0), cdfp_enabled=False)
    assert np.abs(z_zero_full.data - z_none_full.data).max() > 1e-9


def test_gradients_flow_only_to_prompt_leaves_and_match_fd():
    enc = VisionEncoder(SMALL)
    rng = _rng(17)
    e0 = enc.embed_patches(rng.random((2, 16, 16)))
    ps = _random_prompts(SMALL, seed=18, sigma=0.3)
    probe = rng.standard_normal((2, SMALL.embed_dim))

    def loss():
        z = enc.encode_image(e0, ps)
        return T.reduce_sum(T.mul(z, Tensor(probe)))

    grads = backward(loss())
    leaves = list(ps.parameters().values())
    assert set(grads) == set(leaves)  # nothing but prompt state is trainable
    assert_grads_match(loss, leaves)


def test_queries_get_no_gradient_when_mixing_disabled():
    enc = VisionEncoder(SMALL)
    e0 = enc.embed_patches(_rng(19).random((1, 16, 16)))
    ps = _random_prompts(SMALL, seed=20)
    z = enc.encode_image(e0, ps, cdfp_enabled=False)
    grads = backward(T.reduce_sum(z))
    assert all(q not in grads for q in ps.queries)
    assert all(t in grads for t in ps.tokens)


def test_single_feature_row_input_is_accepted():
    enc = VisionEncoder(SMALL)
    feature = _rng(21).standard_normal((1, 1, SMALL.embed_dim))
    z = enc.encode_image(feature, _random_prompts(SMALL, seed=22))
    assert z.shape == (1, SMALL.embed_dim)
    assert abs(np.linalg.norm(z.data) - 1.0) <= 1e-12


def test_encode_text_contract():
    enc = VisionEncoder(EncoderConfig(seed=23))
    a = enc.encode_text("a photo of a man")
    b = enc.encode_text("a photo of a woman")
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert np.array_equal(a, enc.encode_text("A  PHOTO of a MAN"))  # case/spacing folded
    assert float(a @ b) < 1.0 - 1e-6
    with pytest.raises(ValueError):
        enc.encode_text("   ")
    other = VisionEncoder(EncoderConfig(seed=24))
    assert not np.array_equal(a, other.encode_text("a photo of a man"))


def test_backbone_hash_is_stable_and_seed_sensitive():
    h1 = VisionEncoder(EncoderConfig(seed=25)).backbone_hash()
    h2 = VisionEncoder(EncoderConfig(seed=25)).backbone_hash()
    h3 = VisionEncoder(EncoderConfig(seed=26)).backbone_hash()
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 64


def test_templates_exact_strings():
    t = build_prompt_templates("smiling", "gender")
    assert t.class_templates == [
        "a photo of a person who is smiling",
        "a photo of a person who is not smiling",
    ]
    assert t.group_templates == ["a photo of a man", "a photo of a woman"]
    t2 = build_prompt_templates("age", "gender")
    assert t2.class_templates == ["a photo of a young person", "a photo of a older person"]
    with pytest.raises(ValueError):
        build_prompt_templates("profession", "gender")
    with pytest.raises(ValueError):
        build_prompt_templates("smiling", "income")


def test_prompt_set_shapes_copy_and_round_trip():
    cfg = EncoderConfig(seed=27)
    ps = PromptSet.initialize(cfg, seed=28)
    assert ps.depth == cfg.layers and ps.token_count == 2 and ps.dim == 32
    assert all(np.all(q.data == 0.0) for q in ps.queries)  # uniform mixing at init
    assert all(t.trainable for t in ps.tokens)

    dup = ps.copy()
    dup.tokens[0].data[0, 0] += 1.0
    assert ps.tokens[0].data[0, 0] != dup.tokens[0].data[0, 0]

    arrays = ps.to_arrays()
    assert set(arrays) == {"tokens0", "tokens1", "tokens2", "tokens3", "query1", "query2", "query3"}
    blank = PromptSet.initialize(cfg, seed=99)
    blank.load_arrays(arrays)
    for name, t in blank.parameters().items():
        assert np.array_equal(t.data, arrays[name])


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(embed_dim=30, heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(image_size=30, patch_size=8)
    with pytest.raises(ValueError):
        EncoderConfig(temperature=0.0)
    with pytest.raises(ValueError):
        EncoderConfig(prompt_tokens=-1)
