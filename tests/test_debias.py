"""Subspace construction, projection and loss contracts.

Reference values come from scalar/numpy re-derivations written before
the implementation (eigendecomposition for the subspace, plain-python
loops for the contrastive loss) plus finite differences for gradients.
"""

import math

import numpy as np
import pytest

import fedfairprompt.tensor as T
from fedfairprompt.debias import (
    DemographicSubspace,
    build_subspace,
    fairness_loss,
    joint_loss,
    project_out,
    task_loss,
)
from fedfairprompt.encoder import EncoderConfig, VisionEncoder
from fedfairprompt.tensor import Tensor, backward

from gradcheck import assert_grads_match


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_orthonormal(rng, k, d):
    m = rng.normal(size=(d, k))
    q, _ = np.linalg.qr(m)
    return q.T[:k]


def _make_subspace(basis, templates):
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    templates = np.atleast_2d(np.asarray(templates, dtype=np.float64))
    return DemographicSubspace(basis=basis, templates=templates)


# ---------------------------------------------------------------------------
# subspace construction


def test_build_subspace_identical_templates_recovers_direction():
    enc = VisionEncoder(EncoderConfig())
    text = "a photo of a man"
    sub = build_subspace(enc, [text, text], k=1)
    t = enc.encode_text(text)
    row = sub.basis[0]
    # sign convention: first non-negligible coordinate positive
    lead = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
    assert lead > 0
    np.testing.assert_allclose(np.abs(row @ t), 1.0, atol=1e-10)
    assert sub.basis.shape == (1, EncoderConfig().embed_dim)
    assert sub.templates.shape == (2, EncoderConfig().embed_dim)


def test_build_subspace_matches_eigendecomposition_oracle():
    enc = VisionEncoder(EncoderConfig())
    templates = ["a photo of a man", "a photo of a woman"]
    sub = build_subspace(enc, templates, k=1)
    rows = np.stack([enc.encode_text(s) for s in templates])
    evals, evecs = np.linalg.eigh(rows.T @ rows)
    dominant = evecs[:, -1]
    cos = abs(float(sub.basis[0] @ dominant))
    assert cos > 1.0 - 1e-8


def test_build_subspace_full_rank_spans_templates():
    enc = VisionEncoder(EncoderConfig())
    templates = ["a photo of a man", "a photo of a woman"]
    sub = build_subspace(enc, templates, k=2)
    rows = sub.templates
    proj = sub.basis.T @ sub.basis
    # projector onto span(rows), computed independently
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    ref = vt.T @ vt
    assert np.linalg.norm(proj - ref) <= 1e-9
    np.testing.assert_allclose(sub.basis @ sub.basis.T, np.eye(2), atol=1e-9)


def test_build_subspace_validation_errors():
    enc = VisionEncoder(EncoderConfig())
    two = ["a photo of a man", "a photo of a woman"]
    with pytest.raises(ValueError):
        build_subspace(enc, ["lone template"], k=1)
    with pytest.raises(ValueError):
        build_subspace(enc, two, k=3)
    with pytest.raises(ValueError):
        build_subspace(enc, two, k=0)


# ---------------------------------------------------------------------------
# projection


def test_project_out_axis_aligned_case():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    deb, bias = project_out(np.array([[3.0, 4.0, 0.0]]), sub)
    np.testing.assert_array_equal(deb.data, [[0.0, 4.0, 0.0]])
    np.testing.assert_array_equal(bias.data, [[3.0, 0.0, 0.0]])


def test_project_out_orthogonal_input_passes_through():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    z = np.array([[0.0, 2.0, -1.0]])
    deb, bias = project_out(z, sub)
    np.testing.assert_allclose(deb.data, z, atol=1e-15)
    np.testing.assert_allclose(bias.data, 0.0, atol=1e-15)


def test_project_out_properties_random():
    rng = np.random.default_rng(41)
    d, k = 12, 3
    basis = _random_orthonormal(rng, k, d)
    sub = _make_subspace(basis, rng.normal(size=(4, d)))
    z = rng.normal(size=(6, d))
    deb, bias = project_out(z, sub)
    # exact decomposition
    np.testing.assert_allclose(deb.data + bias.data, z, atol=1e-12)
    # debiased part orthogonal to every basis row
    residual = deb.data @ basis.T
    assert np.max(np.abs(residual)) <= 1e-10 * np.linalg.norm(z)
    # idempotence
    deb2, bias2 = project_out(deb, sub)
    np.testing.assert_allclose(deb2.data, deb.data, atol=1e-12)
    np.testing.assert_allclose(bias2.data, 0.0, atol=1e-12)
    # batch equals the per-row loop
    for i in range(z.shape[0]):
        di, bi = project_out(z[i : i + 1], sub)
        np.testing.assert_allclose(di.data[0], deb.data[i], atol=1e-13)
        np.testing.assert_allclose(bi.data[0], bias.data[i], atol=1e-13)


def test_project_out_shape_mismatch():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        project_out(np.zeros((2, 4)), sub)
    with pytest.raises(ValueError):
        project_out(np.zeros(3), sub)  # a batch axis is required


def test_project_out_gradients():
    rng = np.random.default_rng(5)
    basis = _random_orthonormal(rng, 2, 6)
    sub = _make_subspace(basis, rng.normal(size=(2, 6)))
    leaf = Tensor(rng.normal(size=(3, 6)), trainable=True)

    def run():
        deb, bias = project_out(leaf, sub)
        return T.reduce_sum(T.add(T.mul(deb, deb), bias))

    assert_grads_match(run, [leaf])


# ---------------------------------------------------------------------------
# fairness hinge


def test_fairness_loss_inactive_below_margin():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    z = Tensor(_unit([0.1, 0.1, 1.0])[None], trainable=True)
    loss = fairness_loss(z, sub, mu=0.5)
    assert loss.item() == 0.0
    grads = backward(loss)
    np.testing.assert_array_equal(grads[z], 0.0)


def test_fairness_loss_single_template_frozen_value():
    sub = _make_subspace([[1.0, 0.0]], [[1.0, 0.0]])
    # unit vector with cosine exactly 0.9 against the template
    z = np.array([[0.9, math.sqrt(1.0 - 0.81)]])
    loss = fairness_loss(z, sub, mu=0.3)
    assert abs(loss.item() - 0.6) < 1e-12


def test_fairness_loss_matches_scalar_reference():
    rng = np.random.default_rng(17)
    d = 8
    templates = np.stack([_unit(rng.normal(size=d)) for _ in range(3)])
    basis = _random_orthonormal(rng, 2, d)
    sub = _make_subspace(basis, templates)
    z = rng.normal(size=(5, d))
    mu = 0.2
    got = fairness_loss(Tensor(z), sub, mu).data
    for i in range(5):
        want = 0.0
        zi = z[i] / np.linalg.norm(z[i])
        for t in templates:
            want += max(0.0, float(zi @ t) - mu)
        assert abs(got[i] - want) < 1e-12


def test_fairness_loss_monotone_in_margin():
    rng = np.random.default_rng(23)
    d = 8
    sub = _make_subspace(
        _random_orthonormal(rng, 1, d), np.stack([_unit(rng.normal(size=d)) for _ in range(2)])
    )
    z = rng.normal(size=(4, d))
    grid = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    totals = [float(np.sum(fairness_loss(Tensor(z), sub, m).data)) for m in grid]
    for lo, hi in zip(totals[1:], totals[:-1]):
        assert lo <= hi + 1e-15  # smaller margin never gives a smaller loss


def test_fairness_loss_errors():
    sub = _make_subspace([[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        fairness_loss(np.zeros((1, 2)), sub, mu=0.3)  # zero-norm input
    with pytest.raises(ValueError):
        fairness_loss(np.array([1.0, 0.0]), sub, mu=0.3)  # a batch axis is required


def test_fairness_loss_gradient_off_kinks():
    rng = np.random.default_rng(31)
    d = 6
    templates = np.stack([_unit(rng.normal(size=d)) for _ in range(2)])
    sub = _make_subspace(_random_orthonormal(rng, 1, d), templates)
    mu = 0.25
    # resample until every cosine is well away from the hinge kink
    for seed in range(100):
        z = np.random.default_rng(seed).normal(size=(3, d))
        cos = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ templates.T
        if np.min(np.abs(cos - mu)) > 5e-2:
            break
    leaf = Tensor(z, trainable=True)
    assert_grads_match(lambda: T.reduce_sum(fairness_loss(leaf, sub, mu)), [leaf])


# ---------------------------------------------------------------------------
# contrastive task loss


def _task_loss_reference(zd, zr, targets, tau):
    """Plain-python loop re-derivation (independent of the tape)."""
    zd = zd / np.linalg.norm(zd, axis=1, keepdims=True)
    zr = zr / np.linalg.norm(zr, axis=1, keepdims=True)
    n = zd.shape[0]
    total1 = 0.0
    for i in range(n):
        num = math.exp(float(zd[i] @ targets[i]) / tau)
        den = sum(math.exp(float(zd[i] @ targets[j]) / tau) for j in range(n))
        total1 += -math.log(num / den)
    total2 = 0.0
    for i in range(n):
        num = math.exp(float(zr[i] @ targets[i]) / tau)
        den = sum(math.exp(float(zr[j] @ targets[i]) / tau) for j in range(n))
        total2 += -math.log(num / den)
    return total1 / n + total2 / n


def test_task_loss_single_sample_is_zero():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(1, 8)))
    t = _unit(rng.normal(size=8))[None]
    loss = task_loss(z, z, t, temperature=0.07)
    assert abs(loss.item()) < 1e-12


def test_task_loss_uniform_logits_frozen_value():
    # identical embeddings and identical targets -> every softmax uniform
    u = _unit([1.0, 2.0, 3.0])
    v = _unit([0.5, -1.0, 0.25])
    z = Tensor(np.stack([u, u]))
    targets = np.stack([v, v])
    loss = task_loss(z, z, targets, temperature=0.5)
    assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-12


def test_task_loss_matches_scalar_reference():
    rng = np.random.default_rng(11)
    n, d = 4, 10
    zd = rng.normal(size=(n, d))
    zr = rng.normal(size=(n, d))
    targets = np.stack([_unit(rng.normal(size=d)) for _ in range(n)])
    tau = 0.07
    got = task_loss(Tensor(zd), Tensor(zr), targets, tau)
    want = _task_loss_reference(zd, zr, targets, tau)
    assert abs(got.item() - want) < 1e-10


def test_task_loss_validation_errors():
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(size=(2, 4)))
    t = rng.normal(size=(2, 4))
    with pytest.raises(ValueError):
        task_loss(z, Tensor(rng.normal(size=(3, 4))), t, temperature=0.1)
    with pytest.raises(ValueError):
        task_loss(z, z, rng.normal(size=(2, 5)), temperature=0.1)


def test_task_loss_gradients():
    rng = np.random.default_rng(19)
    n, d = 3, 5
    leaf = Tensor(rng.normal(size=(n, d)), trainable=True)
    raw = Tensor(rng.normal(size=(n, d)), trainable=True)
    targets = np.stack([_unit(rng.normal(size=d)) for _ in range(n)])
    assert_grads_match(lambda: task_loss(leaf, raw, targets, 0.2), [leaf, raw])


# ---------------------------------------------------------------------------
# joint objective


def test_joint_loss_lambda_zero():
    task = Tensor(1.25)
    fair = Tensor([0.5, 0.7])
    out = joint_loss(task, fair, lam1=0.0)
    assert out.item() == 1.25


def test_joint_loss_frozen_value():
    out = joint_loss(Tensor(1.0), Tensor([0.5, 0.5]), lam1=2.0)
    assert abs(out.item() - 2.0) < 1e-12


def test_joint_loss_additivity_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        task = float(rng.normal())
        fair = rng.uniform(0.0, 1.0, size=4)
        lam1 = float(rng.uniform(0.0, 3.0))
        out = joint_loss(Tensor(task), Tensor(fair), lam1)
        assert abs(out.item() - (task + lam1 * float(np.mean(fair)))) < 1e-12


# ---------------------------------------------------------------------------
# end-to-end differentiability through the encoder


def test_losses_backpropagate_into_prompts():
    from fedfairprompt.encoder import PromptSet

    cfg = EncoderConfig(embed_dim=8, layers=2, heads=2, image_size=16,
                        patch_size=8, prompt_tokens=2, seed=11)
    enc = VisionEncoder(cfg)
    rng = np.random.default_rng(2)
    e0 = enc.embed_patches(rng.normal(size=(3, 16, 16)))
    prompts = PromptSet.initialize(cfg, seed=4)
    sub = build_subspace(enc, ["a photo of a man", "a photo of a woman"], k=1)
    targets = np.stack([enc.encode_text("a photo of a person who is smiling")] * 3)

    def run():
        z = enc.encode_image(e0, prompts)
        deb, _ = project_out(z, sub)
        fair = fairness_loss(deb, sub, mu=0.3)
        task = task_loss(deb, z, targets, cfg.temperature)
        return joint_loss(task, fair, lam1=1.0)

    leaves = list(prompts.parameters().values())
    grads = backward(run())
    assert set(grads) == set(leaves)
    assert any(np.linalg.norm(g) > 1e-12 for g in grads.values())
    # temperature 0.07 makes the loss stiff; shrink the FD step to keep
    # truncation error inside the shared tolerance
    assert_grads_match(run, leaves[:2], step=1e-4)
