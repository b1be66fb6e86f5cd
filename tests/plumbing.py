"""Kernels and formulas that only the test references use.

``concat`` and ``tile_leading`` build the full-row encoder reference
and the composition oracles of the fused head kernels. The pipeline
itself never records them, so they live here rather than in
``fedfairprompt.tensor``; they are ordinary tape nodes and are
gradient-checked in ``test_tensor``.

``one_shot_synthetic`` and ``one_shot_embed`` are the full-size
formulas that ``generate_synthetic`` and ``embed_patches`` compute in
blocks of samples; ``test_setup_blocks`` holds the two to equal bytes.
"""

from __future__ import annotations

import numpy as np

from fedfairprompt.data import SyntheticSpec, _group_pattern, _label_pattern
from fedfairprompt.tensor import Tensor, _lift, _node


def concat(parts: list[Tensor] | tuple[Tensor, ...], axis: int = 0) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, parts, vjp, "concat")


def tile_leading(x: Tensor, n: int) -> Tensor:
    """Repeat a tensor along a new leading axis (shared parameters)."""
    x = _lift(x)
    if n < 0:
        raise ValueError("tile_leading needs n >= 0")
    out = np.broadcast_to(x.data, (n,) + x.shape).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return _node(out, (x,), vjp, "tile_leading")


def one_shot_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pixels, labels, groups) with every term and the noise made full size."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    labels = np.arange(spec.n, dtype=np.int64) % 2
    groups = np.empty(spec.n, dtype=np.int64)
    align_rate = spec.spurious_strength + (1.0 - spec.spurious_strength) / 2.0
    for y in (0, 1):
        members = np.flatnonzero(labels == y)
        aligned = int(round(align_rate * members.size))
        order = rng.permutation(members)
        groups[order[:aligned]] = y
        groups[order[aligned:]] = 1 - y
    signs = (2 * labels - 1).astype(np.float64)
    cue = spec.label_signal * (1.0 - spec.minority_attenuation * groups)
    amp = 0.25 * cue * signs
    images = np.full((spec.n, 32, 32), 0.5)
    images += amp[:, None, None] * _label_pattern()
    images += 0.25 * spec.group_signal * groups[:, None, None].astype(np.float64) * _group_pattern()
    images += rng.normal(scale=spec.noise_sigma, size=images.shape) if spec.noise_sigma else 0.0
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels, groups


def one_shot_embed(encoder, images: np.ndarray) -> np.ndarray:
    """Patch embedding of all images as one transposed copy and one matmul."""
    cfg = encoder.config
    n, grid, patch = images.shape[0], cfg.image_size // cfg.patch_size, cfg.patch_size
    rows = (
        images.reshape(n, grid, patch, grid, patch)
        .transpose(0, 1, 3, 2, 4)
        .reshape(n, cfg.patch_count, cfg.patch_pixels)
    )
    return rows @ encoder.backbone.patch_w + encoder.backbone.patch_b
