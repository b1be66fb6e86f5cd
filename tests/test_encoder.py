"""Frozen encoder oracles.

The whole prompt-threaded forward pass is checked against an
independent pure-numpy re-derivation (per-head loops, no tape) and
against a taped full-row reference that computes every row of every
block, plus determinism, freezing, tape size and template contracts.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import erf

from fedfairprompt.crosslayer import apply_cross_layer
from fedfairprompt.config import Config
from fedfairprompt.encoder import (
    CLASS_TEMPLATES,
    GROUP_TEMPLATES,
    EncoderConfig,
    FrozenBackbone,
    PromptSet,
    VisionEncoder,
    _head,
    _mlp,
)
from fedfairprompt.federation import PromptedModel, refinement_loss
from fedfairprompt.tensor import NonFiniteError, Tensor, backward
from gradcheck import assert_grads_match
import plumbing as P
from plumbing import concat, slice_axis, swap_axes, tile_leading

SMALL = EncoderConfig(prompt_tokens=2, seed=11)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# independent numpy re-derivation of the forward pass


def _ln(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _sm(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _numpy_forward(enc, e0, blocks, queries, cdfp=True):
    cfg, bb = enc.config, enc.backbone
    k = blocks[0].shape[0]
    seq = np.vstack([(bb.cls + bb.pos[0])[None], blocks[0], e0 + bb.pos[1:]])
    hist = [blocks[0]]
    for layer_idx, w in enumerate(bb.layers, start=1):
        h = _ln(seq)
        q, kk, v = h @ w["wq"], h @ w["wk"], h @ w["wv"]
        dh = cfg.embed_dim // cfg.heads
        ctx = np.zeros_like(seq)
        for head in range(cfg.heads):
            cols = slice(head * dh, (head + 1) * dh)
            att = _sm(q[:, cols] @ kk[:, cols].T / math.sqrt(dh))
            ctx[:, cols] = att @ v[:, cols]
        seq = seq + ctx @ w["wo"]
        seq = seq + _gelu(_ln(seq) @ w["w1"]) @ w["w2"]
        if layer_idx == cfg.layers:
            break
        used = blocks[layer_idx]
        if cdfp:
            logits = np.array([queries[layer_idx - 1] @ hh.mean(axis=0) for hh in hist])
            wts = _sm(logits[None])[0]
            used = used + np.tensordot(wts, np.stack(hist), axes=1)
        hist.append(used)
        seq = np.vstack([seq[:1], used, seq[1 + k:]])
    cls = _ln(seq[:1]) @ bb.out_proj
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
    img = rng.random((1, 32, 32))
    e0 = enc.embed_patches(img)
    ps = _random_prompts(SMALL, seed=2)
    blocks = [t.data for t in ps.tokens]
    queries = [q.data for q in ps.queries]
    for cdfp in (True, False):
        z = enc.encode_image(e0, ps, cdfp_enabled=cdfp)
        ref = _numpy_forward(enc, e0[0], blocks, queries, cdfp=cdfp)
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


# ---------------------------------------------------------------------------
# taped full-row reference: every block computes queries and the MLP for
# every row, on the [CLS, prompts, patches] layout, and the splice
# replaces the prompt rows afterwards


def _full_row_layer(enc, seq, idx):
    cfg, w = enc.config, enc.backbone.layers[idx]
    batch, length, d = seq.shape
    heads, head_dim = cfg.heads, d // cfg.heads
    h = P.layernorm(seq)
    q = P.matmul(h, Tensor(w["wq"] * head_dim**-0.5))
    k = P.matmul(h, Tensor(w["wk"]))
    v = P.matmul(h, Tensor(w["wv"]))
    split = lambda x: swap_axes(P.reshape(x, (batch, length, heads, head_dim)), 1, 2)
    q4, k4, v4 = split(q), split(k), split(v)
    attn = P.softmax(P.matmul(q4, swap_axes(k4, 2, 3)), axis=-1)
    ctx = P.reshape(swap_axes(P.matmul(attn, v4), 1, 2), (batch, length, d))
    seq = P.add(seq, P.matmul(ctx, Tensor(w["wo"])))
    return P.composed_mlp(seq, w["w1"], w["w2"])


def _full_row_encode(enc, e0, prompts, cdfp_enabled=True, mixed_history=True):
    cfg, bb = enc.config, enc.backbone
    batch, width = e0.shape[0], e0.shape[1]
    data = e0 + bb.pos[1:] if width == cfg.patch_count else e0
    k = prompts.token_count
    cls_rows = Tensor(np.broadcast_to(bb.cls + bb.pos[0], (batch, 1, cfg.embed_dim)))
    used = prompts.tokens[0]
    history = [used]
    seq = concat([cls_rows, tile_leading(used, batch), Tensor(data)], axis=1)
    for layer in range(1, cfg.layers + 1):
        seq = _full_row_layer(enc, seq, layer - 1)
        if layer == cfg.layers:
            break
        base = prompts.tokens[layer]
        used = apply_cross_layer(base, history, prompts.queries[layer - 1]) if cdfp_enabled else base
        history.append(used if mixed_history else base)
        seq = concat(
            [slice_axis(seq, 1, 0, 1), tile_leading(used, batch),
             slice_axis(seq, 1, 1 + k, 1 + k + width)],
            axis=1,
        )
    return P.composed_head(slice_axis(seq, 1, 0, 1), bb.out_proj)


def _assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    scale = np.abs(want).max() if want.size else 0.0
    assert np.abs(got - want).max(initial=0.0) <= rel * scale


# The encoder's history holds the mixed blocks. A reference whose history
# holds the raw blocks instead agrees with it only when mixing is off.
_MIXING = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("cdfp,mixed_history", _MIXING)
@pytest.mark.parametrize("rows", [16, 1])
@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("tokens", [2, 1])
def test_pruned_forward_matches_full_row_reference(tokens, batch, rows, cdfp, mixed_history):
    cfg = EncoderConfig(prompt_tokens=tokens, seed=30)
    enc = VisionEncoder(cfg)
    rng = _rng(31)
    e0 = rng.standard_normal((batch, rows, cfg.embed_dim))
    ps = _random_prompts(cfg, seed=32, sigma=0.5)
    probe = Tensor(rng.standard_normal((batch, cfg.embed_dim)))

    z = enc.encode_image(e0, ps, cdfp_enabled=cdfp)
    ref = _full_row_encode(enc, e0, ps, cdfp_enabled=cdfp, mixed_history=mixed_history)
    if cdfp and not mixed_history:
        assert np.abs(z.data - ref.data).max() > 1e-6
        return
    _assert_rel_close(z.data, ref.data)

    grads = backward(P.reduce_sum(P.mul(z, probe)))
    ref_grads = backward(P.reduce_sum(P.mul(ref, probe)))
    assert set(grads) == set(ref_grads)
    assert all(t in grads for t in ps.tokens)
    for leaf, g in ref_grads.items():
        _assert_rel_close(grads[leaf], g)


@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_head_equals_its_composition_bit_for_bit(lead, batch):
    # Unit-scale CLS rows, unstacked and stacked over C = 3 clients. A
    # head whose gemm ran on the rows flattened to (C·B, d) would differ
    # from the stacked products in the last bits on some of these draws
    # (on x86-64 OpenBLAS, on every stacked draw with B = 1).
    cfg = EncoderConfig()
    out_proj = FrozenBackbone(cfg).out_proj
    for seed in range(10):
        rng = _rng(50 + seed)
        state = Tensor(rng.standard_normal(lead + (batch, 1, cfg.embed_dim)), trainable=True)
        probe = Tensor(rng.standard_normal(lead + (batch, cfg.embed_dim)))
        fused, composed = _head(state, out_proj), P.composed_head(state, out_proj)
        assert fused.parents == (state,)
        assert np.array_equal(fused.data, composed.data)
        grad = backward(P.reduce_sum(P.mul(fused, probe)))[state]
        assert np.array_equal(grad, backward(P.reduce_sum(P.mul(composed, probe)))[state])


@pytest.mark.parametrize("rows", [17, 1])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_mlp_equals_its_composition_bit_for_bit(lead, rows):
    # The default block's weights on unit-scale rows: 17 rows (CLS and
    # 16 patches) and CLS alone, unstacked and stacked over C = 3 clients.
    cfg = EncoderConfig()
    w = FrozenBackbone(cfg).layers[0]
    for seed in range(10):
        rng = _rng(60 + seed)
        x = Tensor(rng.standard_normal(lead + (4, rows, cfg.embed_dim)), trainable=True)
        probe = Tensor(rng.standard_normal(x.shape))
        fused, composed = _mlp(x, w["w1"], w["w2"]), P.composed_mlp(x, w["w1"], w["w2"])
        assert fused.parents == (x,)
        assert np.array_equal(fused.data, composed.data)
        grad = backward(P.reduce_sum(P.mul(fused, probe)))[x]
        assert np.array_equal(grad, backward(P.reduce_sum(P.mul(composed, probe)))[x])
    # A constant input records no node to sweep.
    frozen = _mlp(Tensor(x.data), w["w1"], w["w2"])
    assert frozen.parents == () and not frozen.needs_grad
    assert np.array_equal(frozen.data, fused.data)


def _tape_nodes(output):
    # Distinct tensors that need a gradient, reachable through .parents.
    seen, todo = set(), [output]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.needs_grad:
            continue
        seen.add(id(node))
        todo.extend(node.parents)
    return len(seen)


def test_default_forward_tape_size_is_pinned():
    # 2 nodes per block, 8 in all: the attention sublayer and the MLP
    # sublayer. Block 1's state is constant, but its prompt block is
    # not, so both its nodes are on the tape too. Then 1 for the head
    # and the 4 token leaves: 13. Mixing adds one node and one query
    # leaf per layer above the first: 19. The full-row forward records
    # 121 and 115.
    cfg = EncoderConfig()
    enc = VisionEncoder(cfg)
    e0 = enc.embed_patches(_rng(36).random((16, cfg.image_size, cfg.image_size)))
    ps = PromptSet.initialize(cfg, seed=37)
    assert _tape_nodes(enc.encode_image(e0, ps)) == 19
    assert _tape_nodes(enc.encode_image(e0, ps, cdfp_enabled=False)) == 13


def test_lockstep_step_tape_size_matches_one_client():
    # A client step under fvlfp records 23 nodes: the 19 of the forward
    # and one per loss head (projection, task, hinge, joint). Stacking
    # three clients on a leading axis records the same 23, one
    # per-client loss vector.
    model = PromptedModel.for_config(Config(method="fvlfp"))
    enc, cfg = model.encoder, model.encoder.config
    e0 = enc.embed_patches(_rng(38).random((3, 16, cfg.image_size, cfg.image_size)).reshape(
        48, cfg.image_size, cfg.image_size)).reshape(3, 16, cfg.patch_count, cfg.embed_dim)
    targets = enc.class_text[_rng(39).integers(0, 2, size=(3, 16))]
    ps = PromptSet.initialize(cfg, seed=40)
    one = model.local_loss(ps, e0[0], targets[0], mu=0.3, lam1=0.5)
    stacked = model.local_loss(ps.map(lambda a: np.stack([a] * 3)), e0, targets, mu=0.3, lam1=0.5)
    assert one.shape == () and stacked.shape == (3,)
    assert _tape_nodes(one) == _tape_nodes(stacked) == 23


def test_refinement_step_tape_size_is_pinned():
    # 21 nodes: the 19 of the forward, the projection and the
    # refinement head, which re-normalizes the debiased rows itself.
    model = PromptedModel.for_config(Config(method="fvlfp"))
    enc, cfg = model.encoder, model.encoder.config
    e0 = enc.embed_patches(_rng(41).random((16, cfg.image_size, cfg.image_size)))
    labels, groups = _rng(42).integers(0, 2, size=16), np.repeat([0, 1], 8)
    loss = refinement_loss(model, PromptSet.initialize(cfg, seed=43), e0, labels, groups, lam2=1.0)
    assert loss.shape == ()
    assert _tape_nodes(loss) == 21


def test_batched_forward_matches_per_sample():
    enc = VisionEncoder(SMALL)
    rng = _rng(6)
    imgs = rng.random((3, 32, 32))
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


def _promptless_encode(enc, e0):
    # The frozen backbone on [CLS, patches] rows, with no prompt rows at all.
    cfg, bb = enc.config, enc.backbone
    batch = e0.shape[0]
    cls_rows = np.broadcast_to(bb.cls + bb.pos[0], (batch, 1, cfg.embed_dim))
    seq = Tensor(np.concatenate([cls_rows, e0 + bb.pos[1:]], axis=1))
    for idx in range(cfg.layers):
        seq = _full_row_layer(enc, seq, idx)
    return P.composed_head(slice_axis(seq, 1, 0, 1), bb.out_proj)


def test_zero_prompts_match_promptless_pass_under_neutralized_attention():
    cfg = EncoderConfig(prompt_tokens=2, seed=15)
    backbone = FrozenBackbone(cfg)
    for w in backbone.layers:
        w["wv"] = np.zeros_like(w["wv"])  # attention writes nothing back
    enc = VisionEncoder(cfg, backbone=backbone)
    img = _rng(16).random((1, 32, 32))
    e0 = enc.embed_patches(img)

    zero_ps = PromptSet.initialize(cfg, seed=0, sigma=0.0)
    z_zero = enc.encode_image(e0, zero_ps, cdfp_enabled=False)
    np.testing.assert_allclose(z_zero.data, _promptless_encode(enc, e0).data, atol=1e-12)

    # With generic weights the zero tokens still participate in attention
    # normalization, so the two passes differ.
    enc_full = VisionEncoder(cfg)
    z_zero_full = enc_full.encode_image(e0, zero_ps, cdfp_enabled=False)
    z_none_full = _promptless_encode(enc_full, e0)
    assert np.abs(z_zero_full.data - z_none_full.data).max() > 1e-9


def test_gradients_flow_only_to_prompt_leaves_and_match_fd():
    enc = VisionEncoder(SMALL)
    rng = _rng(17)
    e0 = enc.embed_patches(rng.random((2, 32, 32)))
    ps = _random_prompts(SMALL, seed=18, sigma=0.3)
    probe = rng.standard_normal((2, SMALL.embed_dim))

    def loss():
        z = enc.encode_image(e0, ps)
        return P.reduce_sum(P.mul(z, Tensor(probe)))

    grads = backward(loss())
    leaves = list(ps.parameters().values())
    assert set(grads) == set(leaves)  # nothing but prompt state is trainable
    assert_grads_match(loss, leaves)


def test_queries_get_no_gradient_when_mixing_disabled():
    enc = VisionEncoder(SMALL)
    e0 = enc.embed_patches(_rng(19).random((1, 32, 32)))
    ps = _random_prompts(SMALL, seed=20)
    z = enc.encode_image(e0, ps, cdfp_enabled=False)
    grads = backward(P.reduce_sum(z))
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


def test_every_array_the_forward_reads_is_read_only():
    # Nothing in a run can change the frozen weights in place, the three
    # derived in VisionEncoder (the CLS row, the scaled wq and the class
    # text rows) included.
    enc = VisionEncoder(SMALL)
    arrays = list(enc.backbone._iter_arrays()) + [enc._cls_row, enc._patch_pos, enc._out_proj,
                                                   enc.class_text]
    for attention, w1, w2 in enc._layer_consts:
        assert len(attention) == 4
        arrays += [*attention, w1, w2]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def _frozen_outputs(enc, img, ps):
    e0 = enc.embed_patches(img)
    return [e0, enc.encode_image(e0, ps).data, *enc.class_text]


def test_backbone_holds_exactly_the_weights_the_forward_reads():
    img = _rng(44).random((2, 32, 32))
    ps = _random_prompts(SMALL, seed=45)
    reference = FrozenBackbone(SMALL)
    for layer in reference.layers:
        assert set(layer) == {"wq", "wk", "wv", "wo", "w1", "w2"}
    base = _frozen_outputs(VisionEncoder(SMALL, backbone=reference), img, ps)
    # Each hashed array in turn, perturbed before the encoder wraps it,
    # must move some frozen output.
    for idx in range(len(list(reference._iter_arrays()))):
        backbone = FrozenBackbone(SMALL)
        arr = list(backbone._iter_arrays())[idx]
        arr.setflags(write=True)
        arr += 0.1 * _rng(46 + idx).standard_normal(arr.shape)
        moved = _frozen_outputs(VisionEncoder(SMALL, backbone=backbone), img, ps)
        assert any(np.abs(a - b).max() > 1e-9 for a, b in zip(moved, base)), idx


def test_templates_exact_strings():
    assert CLASS_TEMPLATES == (
        "a photo of a person who is smiling",
        "a photo of a person who is not smiling",
    )
    assert GROUP_TEMPLATES == ("a photo of a man", "a photo of a woman")


def test_prompt_set_shapes_copy_and_round_trip():
    cfg = EncoderConfig(seed=27)
    ps = PromptSet.initialize(cfg, seed=28)
    assert [t.shape for t in ps.tokens] == [(2, 32)] * cfg.layers and ps.token_count == 2
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


def test_prompt_set_rejects_an_empty_token_block():
    empty = [Tensor(np.zeros((0, 32)), trainable=True) for _ in range(4)]
    queries = [Tensor(np.zeros(32), trainable=True) for _ in range(3)]
    with pytest.raises(ValueError, match="K >= 1"):
        PromptSet(tokens=empty, queries=queries)


@pytest.mark.parametrize("missing, unexpected",
                         [([], ["query4", "tokens4"]), (["query3", "tokens3"], [])])
def test_load_arrays_requires_exactly_the_sets_names(missing, unexpected):
    # A 5-layer file used to load into the 4-layer set, dropping layer 4,
    # and a 3-layer file raised a bare KeyError. Now both raise, writing
    # nothing; the names are checked before any array is read.
    ps = PromptSet.initialize(EncoderConfig(seed=27), seed=29)
    before = ps.to_arrays()
    arrays = PromptSet.initialize(EncoderConfig(seed=27), seed=28).to_arrays()
    for name in missing:
        del arrays[name]
    arrays.update({name: arrays["tokens0"] for name in unexpected})
    with pytest.raises(ValueError, match=re.escape(f"missing {missing}, unexpected {unexpected}")):
        ps.load_arrays(arrays)
    assert all(np.array_equal(t.data, before[name]) for name, t in ps.parameters().items())


def test_load_arrays_rejects_non_finite_array():
    ps = PromptSet.initialize(EncoderConfig(seed=27), seed=28)
    arrays = ps.to_arrays()
    arrays["tokens1"][0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="'tokens1'"):
        ps.load_arrays(arrays)


def test_load_arrays_rejects_an_array_of_the_wrong_shape():
    ps = PromptSet.initialize(EncoderConfig(seed=27), seed=28)
    before = ps.to_arrays()
    arrays = PromptSet.initialize(EncoderConfig(seed=27), seed=29).to_arrays()
    arrays["query2"] = arrays["query2"][:-1]
    with pytest.raises(ValueError, match=re.escape("array for 'query2' has shape (31,), "
                                                   "expected (32,)")):
        ps.load_arrays(arrays)
    assert all(np.array_equal(t.data, before[name]) for name, t in ps.parameters().items())


def test_load_arrays_writes_nothing_when_a_later_array_is_bad():
    # tokens0 and tokens1 come before tokens2; a load that wrote each
    # array as it checked it left them replaced by seed 2's values.
    cfg = EncoderConfig()
    ps = PromptSet.initialize(cfg, seed=1)
    before = ps.to_arrays()
    arrays = PromptSet.initialize(cfg, seed=2).to_arrays()
    arrays["tokens2"][0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="'tokens2'"):
        ps.load_arrays(arrays)
    assert all(np.array_equal(t.data, before[name]) for name, t in ps.parameters().items())


def test_config_validation():
    # The shape is fixed: a run sets only the seed, the MLP ratio and the
    # prompt count, and Config checks those.
    assert [f.name for f in dataclasses.fields(EncoderConfig)] == ["prompt_tokens", "seed",
                                                                   "mlp_ratio"]
    with pytest.raises(TypeError):
        EncoderConfig(embed_dim=8)
    assert VisionEncoder(EncoderConfig()).config.layers == 4


def test_embed_patches_rejects_images_of_another_size():
    with pytest.raises(ValueError, match=re.escape("expected (B, 32, 32) images, got (2, 16, 16)")):
        VisionEncoder(SMALL).embed_patches(np.zeros((2, 16, 16)))


def test_encode_image_rejects_rows_of_another_width():
    with pytest.raises(ValueError, match=re.escape("expected (B, J, 32) patch rows, got (2, 16, 31)")):
        VisionEncoder(SMALL).encode_image(np.zeros((2, 16, 31)), PromptSet.initialize(SMALL))
