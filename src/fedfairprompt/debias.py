"""Demographic-subspace debiasing and the training losses.

The sensitive directions are estimated once from the demographic text
prompts, image embeddings keep only their debiased remainder (the
orthogonal complement of the subspace), and the losses combine a hinge
that caps similarity to any demographic prompt with a two-term
(image-to-text and text-to-image) contrastive alignment objective.
``project_out`` and the three losses each record one tape node whose
VJP repeats the numpy operations and gradient order of the generic
kernels they were once composed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .svd import top_right_singular_vectors
from .tensor import Tensor, _log_softmax, _log_softmax_vjp, _node, _unit, _unit_vjp


@dataclass(frozen=True)
class DemographicSubspace:
    """Orthonormal basis of the sensitive-attribute directions.

    ``basis`` rows span the demographic subspace; ``templates`` holds
    the unit text embeddings the basis was estimated from (one row per
    demographic category, in template order). Immutable and shareable.
    """

    basis: np.ndarray
    templates: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.templates.setflags(write=False)


def build_subspace(encoder, templates: Sequence[str], k: int = 1) -> DemographicSubspace:
    """Estimate the top-k demographic directions from template strings.

    Each template is embedded with the frozen text tower; the stacked
    rows are reduced to their leading right singular vectors. ``k`` lies
    in [1, len(templates)], as ``Config`` bounds ``subspace_rank``.
    """
    rows = np.stack([encoder.encode_text(s) for s in templates])
    return DemographicSubspace(basis=top_right_singular_vectors(rows, k), templates=rows)


def project_out(z: Tensor, sub: DemographicSubspace) -> Tensor:
    """The (..., B, d) embeddings minus their orthogonal projection onto
    the basis rows, as one differentiable node.

    ``z`` is listed as a parent twice, the direct path first and the
    projection second, so the sweep adds the two gradient parts to
    ``z``'s slot in the order the composed kernels did.
    """
    basis = sub.basis
    out = z.data - (z.data @ basis.T) @ basis

    def vjp(g):
        return g, ((-g) @ basis.T) @ basis

    return _node(out, (z, z), vjp, "project_out")


def fairness_loss(z_debiased: Tensor, sub: DemographicSubspace, mu: float) -> Tensor:
    """Hinge on similarity to every demographic prompt, per sample.

    Takes (..., B, d) embeddings and returns the (..., B) per-sample sums
    over categories of max(0, cos - mu). The gradient vanishes once every
    cosine is at or below the margin.
    """
    unit, norm = _unit(z_debiased.data)  # raises on a zero-norm row
    if unit.ndim < 2:
        raise ValueError(f"fairness_loss needs (..., B, d) embeddings, got {unit.shape}")
    templates = sub.templates
    margin = unit @ templates.T - float(mu)
    out = np.add.reduce(np.maximum(margin, 0.0), axis=-1)

    def vjp(g):
        g_cos = np.where(margin > 0.0, np.expand_dims(g, -1), 0.0)
        return (_unit_vjp(g_cos @ templates, unit, norm),)

    return _node(out, (z_debiased,), vjp, "fairness_loss")


def task_loss(z_debiased: Tensor, z_raw: Tensor, targets: np.ndarray,
              temperature: float) -> Tensor:
    """Two-term in-batch contrastive alignment loss.

    Term one aligns each debiased image embedding with its own target
    text against the other samples' targets; term two runs the reverse
    direction (text against images) on the raw embeddings. Both
    embeddings and ``targets`` are (B, d) with B >= 1, or (C, B, d) for C
    stacked clients, each with its own (B, B) logits and loss.
    """
    targets = np.asarray(targets, dtype=np.float64)
    inv_t = 1.0 / float(temperature)
    n = targets.shape[-2]
    diag = np.arange(n)
    # (unit rows, norms, log-probabilities, softmax axis) for each term
    terms = []
    for x, axis in ((z_debiased, -1), (z_raw, -2)):
        unit, norm = _unit(x.data)
        terms.append((unit, norm, _log_softmax((unit @ targets.swapaxes(-1, -2)) * inv_t, axis), axis))
    term1, term2 = (-(np.add.reduce(lp[..., diag, diag], axis=-1) / n) for _, _, lp, _ in terms)

    def vjp(g):
        g_diag = np.expand_dims(-g * (1.0 / n), -1)
        grads = []
        for unit, norm, lp, axis in terms:
            g_lp = np.zeros_like(lp)
            g_lp[..., diag, diag] = g_diag
            g_unit = (_log_softmax_vjp(g_lp, lp, axis) * inv_t) @ targets
            grads.append(_unit_vjp(g_unit, unit, norm))
        return tuple(grads)

    return _node(term1 + term2, (z_debiased, z_raw), vjp, "task_loss")


def joint_loss(task: Tensor, fair_per_sample: Tensor, lam1: float) -> Tensor:
    """Combine task and (..., B) fairness terms: task + lam1 * mean(fair)."""
    lam1, shape = float(lam1), fair_per_sample.shape
    n = shape[-1]
    out = task.data + np.add.reduce(fair_per_sample.data, axis=-1) / n * lam1

    def vjp(g):
        return g, np.broadcast_to(np.expand_dims(g * lam1 * (1.0 / n), -1), shape).copy()

    return _node(out, (task, fair_per_sample), vjp, "joint_loss")
