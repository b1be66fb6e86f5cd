"""Subspace construction, projection and loss contracts.

Reference values come from scalar/numpy re-derivations written before
the implementation (eigendecomposition for the subspace, plain-python
loops for the contrastive loss) plus finite differences for gradients.
"""

import math

import numpy as np
import pytest

from fedfairprompt.debias import (
    DemographicSubspace,
    build_subspace,
    fairness_loss,
    joint_loss,
    project_out,
    task_loss,
)
from fedfairprompt.encoder import TEMPERATURE, EncoderConfig, VisionEncoder
from fedfairprompt.tensor import Tensor, backward

from gradcheck import assert_grads_match
import plumbing as P


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


# ---------------------------------------------------------------------------
# projection


def test_project_out_axis_aligned_case():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    deb = project_out(np.array([[3.0, 4.0, 0.0]]), sub)
    np.testing.assert_array_equal(deb.data, [[0.0, 4.0, 0.0]])


def test_project_out_orthogonal_input_passes_through():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    z = np.array([[0.0, 2.0, -1.0]])
    deb = project_out(z, sub)
    np.testing.assert_allclose(deb.data, z, atol=1e-15)


def test_project_out_properties_random():
    rng = np.random.default_rng(41)
    d, k = 12, 3
    basis = _random_orthonormal(rng, k, d)
    sub = _make_subspace(basis, rng.normal(size=(4, d)))
    z = rng.normal(size=(6, d))
    deb = project_out(z, sub)
    # exact decomposition against the removed part, computed independently
    np.testing.assert_allclose(deb.data + (z @ basis.T) @ basis, z, atol=1e-12)
    # debiased part orthogonal to every basis row
    residual = deb.data @ basis.T
    assert np.max(np.abs(residual)) <= 1e-10 * np.linalg.norm(z)
    # idempotence
    np.testing.assert_allclose(project_out(deb, sub).data, deb.data, atol=1e-12)
    # batch equals the per-row loop
    for i in range(z.shape[0]):
        np.testing.assert_allclose(project_out(z[i : i + 1], sub).data[0], deb.data[i], atol=1e-13)


def test_project_out_shape_mismatch():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        project_out(np.zeros((2, 4)), sub)


def test_project_out_gradients():
    rng = np.random.default_rng(5)
    basis = _random_orthonormal(rng, 2, 6)
    sub = _make_subspace(basis, rng.normal(size=(2, 6)))
    leaf = Tensor(rng.normal(size=(3, 6)), trainable=True)

    def run():
        deb = project_out(leaf, sub)
        return P.reduce_sum(P.mul(deb, deb))

    assert_grads_match(run, [leaf])


# ---------------------------------------------------------------------------
# fairness hinge


def test_fairness_loss_inactive_below_margin():
    sub = _make_subspace([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    z = Tensor(_unit([0.1, 0.1, 1.0])[None], trainable=True)
    loss = fairness_loss(z, sub, mu=0.5)
    assert float(loss.data[0]) == 0.0
    grads = backward(loss)
    np.testing.assert_array_equal(grads[z], 0.0)


def test_fairness_loss_single_template_frozen_value():
    sub = _make_subspace([[1.0, 0.0]], [[1.0, 0.0]])
    # unit vector with cosine exactly 0.9 against the template
    z = np.array([[0.9, math.sqrt(1.0 - 0.81)]])
    loss = fairness_loss(z, sub, mu=0.3)
    assert abs(float(loss.data[0]) - 0.6) < 1e-12


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
    assert_grads_match(lambda: P.reduce_sum(fairness_loss(leaf, sub, mu)), [leaf])


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
    assert abs(float(loss.data)) < 1e-12


def test_task_loss_uniform_logits_frozen_value():
    # identical embeddings and identical targets -> every softmax uniform
    u = _unit([1.0, 2.0, 3.0])
    v = _unit([0.5, -1.0, 0.25])
    z = Tensor(np.stack([u, u]))
    targets = np.stack([v, v])
    loss = task_loss(z, z, targets, temperature=0.5)
    assert abs(float(loss.data) - 2.0 * math.log(2.0)) < 1e-12


def test_task_loss_matches_scalar_reference():
    rng = np.random.default_rng(11)
    n, d = 4, 10
    zd = rng.normal(size=(n, d))
    zr = rng.normal(size=(n, d))
    targets = np.stack([_unit(rng.normal(size=d)) for _ in range(n)])
    tau = 0.07
    got = task_loss(Tensor(zd), Tensor(zr), targets, tau)
    want = _task_loss_reference(zd, zr, targets, tau)
    assert abs(float(got.data) - want) < 1e-10


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
    assert float(out.data) == 1.25


def test_joint_loss_frozen_value():
    out = joint_loss(Tensor(1.0), Tensor([0.5, 0.5]), lam1=2.0)
    assert abs(float(out.data) - 2.0) < 1e-12


def test_joint_loss_additivity_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        task = float(rng.normal())
        fair = rng.uniform(0.0, 1.0, size=4)
        lam1 = float(rng.uniform(0.0, 3.0))
        out = joint_loss(Tensor(task), Tensor(fair), lam1)
        assert abs(float(out.data) - (task + lam1 * float(np.mean(fair)))) < 1e-12


# ---------------------------------------------------------------------------
# fused heads against their compositions in plumbing, bit for bit
#
# Golden prompts catch a changed gradient order only on the machine they
# were written on; these hold each head to the kernels it was built from
# on any machine. Inputs are stacked like a lockstep step (C = 3 clients)
# and unit scale, with DSOP on and the hinge active (mu = 0).


def _stacked_case(seed):
    rng = np.random.default_rng(seed)
    c, b, d = 3, 6, 8
    z = rng.normal(size=(c, b, d))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    targets = rng.normal(size=(c, b, d))
    targets /= np.linalg.norm(targets, axis=-1, keepdims=True)
    templates = np.stack([_unit(rng.normal(size=d)) for _ in range(3)])
    sub = _make_subspace(_random_orthonormal(rng, 2, d), templates)
    return rng, z, targets, sub


def _assert_bitwise_equal(fused, composed, leaves, probe=None):
    assert np.array_equal(fused.data, composed.data)
    if probe is not None:
        fused, composed = (P.reduce_sum(P.mul(out, probe)) for out in (fused, composed))
    got, want = backward(fused), backward(composed)
    assert set(got) == set(want) == set(leaves)
    for leaf in leaves:
        assert np.array_equal(got[leaf], want[leaf])


def test_project_out_equals_its_composition_bit_for_bit():
    rng, z, _, sub = _stacked_case(50)
    leaf = Tensor(z, trainable=True)
    probe = Tensor(rng.normal(size=z.shape))
    fused = project_out(leaf, sub)
    assert fused.parents == (leaf, leaf)
    _assert_bitwise_equal(fused, P.composed_project_out(leaf, sub), [leaf], probe)


def test_fairness_loss_equals_its_composition_bit_for_bit():
    rng, z, _, sub = _stacked_case(51)
    leaf = Tensor(project_out(z, sub).data, trainable=True)
    cos = (leaf.data / np.linalg.norm(leaf.data, axis=-1, keepdims=True)) @ sub.templates.T
    assert (cos > 0.0).any() and (cos < 0.0).any()  # the hinge is active and inactive
    probe = Tensor(rng.normal(size=z.shape[:-1]))
    _assert_bitwise_equal(fairness_loss(leaf, sub, 0.0), P.composed_fairness_loss(leaf, sub, 0.0),
                          [leaf], probe)


def test_task_loss_equals_its_composition_bit_for_bit():
    _, z, targets, sub = _stacked_case(52)
    raw = Tensor(z, trainable=True)
    deb = Tensor(project_out(z, sub).data, trainable=True)
    _assert_bitwise_equal(task_loss(deb, raw, targets, 0.07),
                          P.composed_task_loss(deb, raw, targets, 0.07), [deb, raw])
    # without DSOP both terms read the same tensor
    _assert_bitwise_equal(task_loss(raw, raw, targets, 0.07),
                          P.composed_task_loss(raw, raw, targets, 0.07), [raw])


def test_joint_loss_equals_its_composition_bit_for_bit():
    rng = np.random.default_rng(53)
    task = Tensor(rng.normal(size=3), trainable=True)
    fair = Tensor(rng.uniform(0.0, 2.0, size=(3, 6)), trainable=True)
    _assert_bitwise_equal(joint_loss(task, fair, 0.7), P.composed_joint_loss(task, fair, 0.7),
                          [task, fair])


@pytest.mark.parametrize("seed", range(54, 59))
def test_local_objective_gradient_at_z_equals_its_composition(seed):
    # Under DSOP ``z`` gets three gradient parts, summed as (task term two
    # + the projection's direct path) + its projected path. Adding the
    # projection's two parts inside its node changes the sum's rounding.
    _, z, targets, sub = _stacked_case(seed)
    leaf = Tensor(z, trainable=True)

    def objective(project, task, fair, joint):
        deb = project(leaf, sub)
        return joint(task(deb, leaf, targets, 0.07), fair(deb, sub, 0.0), 0.5)

    fused = objective(project_out, task_loss, fairness_loss, joint_loss)
    composed = objective(P.composed_project_out, P.composed_task_loss,
                         P.composed_fairness_loss, P.composed_joint_loss)
    _assert_bitwise_equal(fused, composed, [leaf])


# ---------------------------------------------------------------------------
# end-to-end differentiability through the encoder


def test_losses_backpropagate_into_prompts():
    from fedfairprompt.encoder import PromptSet

    cfg = EncoderConfig(prompt_tokens=2, seed=11)
    enc = VisionEncoder(cfg)
    rng = np.random.default_rng(2)
    e0 = enc.embed_patches(rng.normal(size=(3, 32, 32)))
    prompts = PromptSet.initialize(cfg, seed=4)
    sub = build_subspace(enc, ["a photo of a man", "a photo of a woman"], k=1)
    targets = np.stack([enc.encode_text("a photo of a person who is smiling")] * 3)

    def run():
        z = enc.encode_image(e0, prompts)
        deb = project_out(z, sub)
        fair = fairness_loss(deb, sub, mu=0.3)
        task = task_loss(deb, z, targets, TEMPERATURE)
        return joint_loss(task, fair, lam1=1.0)

    leaves = prompts.leaves
    grads = backward(run())
    assert set(grads) == set(leaves)
    assert any(np.linalg.norm(g) > 1e-12 for g in grads.values())
    # temperature 0.07 makes the loss stiff; shrink the FD step to keep
    # truncation error inside the shared tolerance
    assert_grads_match(run, leaves[:2], step=1e-4)
