"""Demographic-subspace debiasing and the training losses.

The sensitive directions are estimated once from the demographic text
prompts, image embeddings are split into a bias component (inside the
subspace) and a debiased remainder (orthogonal complement), and the
losses combine a hinge that caps similarity to any demographic prompt
with a two-term (image-to-text and text-to-image) contrastive
alignment objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .svd import top_right_singular_vectors
from .tensor import Tensor


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


def project_out(z: Tensor | np.ndarray, sub: DemographicSubspace) -> tuple[Tensor, Tensor]:
    """Split (B, d) embeddings into (debiased, bias) parts against the subspace.

    The bias part is the orthogonal projection onto the basis rows,
    and the split is differentiable. debiased + bias reconstructs the
    input up to rounding: the subtraction and the addition each round,
    so some elements come back an ulp off.
    """
    z = z if isinstance(z, Tensor) else Tensor(z)
    coeffs = T.matmul(z, Tensor(sub.basis.T))
    bias = T.matmul(coeffs, Tensor(sub.basis))
    return T.sub(z, bias), bias


def fairness_loss(z_debiased: Tensor | np.ndarray, sub: DemographicSubspace,
                  mu: float) -> Tensor:
    """Hinge on similarity to every demographic prompt, per sample.

    Takes (..., B, d) embeddings and returns the (..., B) per-sample sums
    over categories of max(0, cos - mu). The gradient vanishes once every
    cosine is at or below the margin.
    """
    unit = T.l2_normalize(z_debiased)  # raises on a zero-norm row
    if unit.ndim < 2:
        raise ValueError(f"fairness_loss needs (..., B, d) embeddings, got {unit.shape}")
    cos = T.matmul(unit, Tensor(sub.templates.T))
    return T.reduce_sum(T.relu(T.sub(cos, Tensor(float(mu)))), axis=-1)


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
    text = Tensor(targets.swapaxes(-1, -2))
    inv_t = 1.0 / float(temperature)
    diag = np.arange(targets.shape[-2])

    image_rows = T.l2_normalize(z_debiased)
    logits_i2t = T.scale(T.matmul(image_rows, text), inv_t)
    term1 = T.scale(T.reduce_mean(T.take_per_row(T.log_softmax(logits_i2t, axis=-1), diag),
                                  axis=-1), -1.0)

    logits_t2i = T.scale(T.matmul(T.l2_normalize(z_raw), text), inv_t)
    term2 = T.scale(T.reduce_mean(T.take_per_row(T.log_softmax(logits_t2i, axis=-2), diag),
                                  axis=-1), -1.0)
    return T.add(term1, term2)


def joint_loss(task: Tensor, fair_per_sample: Tensor, lam1: float) -> Tensor:
    """Combine task and (..., B) fairness terms: task + lam1 * mean(fair)."""
    return T.add(task, T.scale(T.reduce_mean(fair_per_sample, axis=-1), float(lam1)))
