"""Kernels and formulas that only the test references use.

``add``, ``matmul``, ``layernorm``, ``gelu``, ``softmax``,
``l2_normalize`` and ``reshape`` are the general tape's kernels:
broadcasting sums, gradients for both matmul operands, a node each for
layer norm, GELU and a differentiable softmax. The pipeline only ever
differentiates prompt-dependent rows against frozen weights, one node
per stage, so ``fedfairprompt.tensor`` keeps ``layernorm``, ``gelu``,
``matmul`` and ``softmax`` as forward-only array functions beside
their VJPs, and the stages fuse the rest. ``composed_mlp`` and
``composed_head`` rebuild the encoder's MLP sublayer and head from
them. ``sub``, ``mul``, ``scale``, ``relu``, ``abs_value``,
``log_softmax``, ``reduce_sum``, ``reduce_mean`` and ``take_per_row``
are the generic kernels the loss heads were built from.
``composed_project_out``, ``composed_task_loss``,
``composed_fairness_loss``, ``composed_joint_loss`` and
``composed_refinement_loss`` rebuild each head from them: the
compositions the fused nodes in ``encoder``, ``debias`` and
``federation`` are held to, bit for bit. Tests also use them as probes
(``reduce_sum(mul(z, probe))``).

``concat``, ``tile_leading``, ``slice_axis`` and ``swap_axes`` build
the full-row encoder reference. ``project_heads``,
``project_prefixed_heads`` and ``merge_heads`` are the per-head
projections that ``tensor.prompted_attention`` fuses; with the shape
kernels they make up the composition it is held to, bit for bit. The
pipeline itself never records any of them, so they live here rather
than in ``fedfairprompt.tensor``; they are ordinary tape nodes and are
gradient-checked in ``test_tensor``. Weights are frozen: only the rows
receive gradients.

``one_shot_synthetic`` and ``one_shot_embed`` are the full-size
formulas that ``generate_synthetic`` and ``embed_patches`` compute in
blocks of samples; ``test_setup_blocks`` holds the two to equal bytes.
"""

from __future__ import annotations

import numpy as np

from fedfairprompt import tensor as T
from fedfairprompt.data import SyntheticSpec, _group_pattern, _label_pattern
from fedfairprompt.debias import DemographicSubspace
from fedfairprompt.encoder import TEMPERATURE
from fedfairprompt.tensor import (_INV_SQRT_2PI, Tensor, _lift, _ln_vjp, _node, _unit,
                                  _unit_vjp)


# ---------------------------------------------------------------------------
# the general tape's kernels, which the pipeline's specialised ones replace


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data + b.data
    na, nb = a.needs_grad, b.needs_grad
    ash, bsh = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, ash) if na else None,
                _unbroadcast(g, bsh) if nb else None)

    return _node(out, (a, b), vjp, "add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matrix semantics.

    Both operands must be at least 2-D; leading batch axes follow the
    usual broadcast rules (weights stay 2-D, activations may carry
    batch axes). numpy rejects differing inner dims.
    """
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    out = ad @ bd
    na, nb = a.needs_grad, b.needs_grad

    def vjp(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape) if na else None
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape) if nb else None
        return (ga, gb)

    return _node(out, (a, b), vjp, "matmul")


def layernorm(x: Tensor) -> Tensor:
    """Per-slice (last axis) zero-mean unit-variance, with no affine."""
    x = _lift(x)
    out, inv = T.layernorm(x.data)

    def vjp(g):
        return (_ln_vjp(g, out, inv),)

    return _node(out, (x,), vjp, "layernorm")


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = _lift(x)
    xd = x.data
    out, cdf = T.gelu(xd)

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return _node(out, (x,), vjp, "gelu")


def l2_normalize(x: Tensor) -> Tensor:
    """Normalize the last axis to unit Euclidean norm."""
    x = _lift(x)
    out, norm = _unit(x.data)

    def vjp(g):
        return (_unit_vjp(g, out, norm),)

    return _node(out, (x,), vjp, "l2_normalize")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along a non-empty ``axis``."""
    x = _lift(x)
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def vjp(g):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (x,), vjp, "softmax")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _lift(x)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _node(out, (x,), vjp, "reshape")


# ---------------------------------------------------------------------------
# generic kernels the loss heads were built from


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data - b.data
    na, nb = a.needs_grad, b.needs_grad
    ash, bsh = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, ash) if na else None,
                _unbroadcast(-g, bsh) if nb else None)

    return _node(out, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    out = ad * bd
    na, nb = a.needs_grad, b.needs_grad

    def vjp(g):
        return (_unbroadcast(g * bd, ad.shape) if na else None,
                _unbroadcast(g * ad, bd.shape) if nb else None)

    return _node(out, (a, b), vjp, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    x = _lift(x)
    c = float(c)
    out = x.data * c

    def vjp(g):
        return (g * c,)

    return _node(out, (x,), vjp, "scale")


def relu(x: Tensor) -> Tensor:
    x = _lift(x)
    xd = x.data
    out = np.maximum(xd, 0.0)

    def vjp(g):
        return (np.where(xd > 0.0, g, 0.0),)

    return _node(out, (x,), vjp, "relu")


def abs_value(x: Tensor) -> Tensor:
    x = _lift(x)
    xd = x.data
    out = np.abs(xd)

    def vjp(g):
        return (g * np.sign(xd),)

    return _node(out, (x,), vjp, "abs")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along a non-empty ``axis``."""
    x = _lift(x)
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    out = shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    p = np.exp(out)

    def vjp(g):
        return (g - p * np.add.reduce(g, axis=axis, keepdims=True),)

    return _node(out, (x,), vjp, "log_softmax")


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _lift(x)
    out = np.asarray(np.add.reduce(x.data, axis=axis))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _node(out, (x,), vjp, "reduce_sum")


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean over every element of a non-empty tensor, or along ``axis``."""
    x = _lift(x)
    count = x.data.size if axis is None else x.shape[axis]
    out = np.asarray(np.add.reduce(x.data, axis=axis) / count)
    inv = 1.0 / count

    def vjp(g):
        g = g * inv if axis is None else np.expand_dims(g * inv, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _node(out, (x,), vjp, "reduce_mean")


def take_per_row(m: Tensor, cols: np.ndarray) -> Tensor:
    """out[..., i] = m[..., i, cols[i]]: one in-range column per row of
    the last two axes of ``m``."""
    m = _lift(m)
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(m.shape[-2])
    out = m.data[..., rows, cols]

    def vjp(g):
        full = np.zeros_like(m.data)
        full[..., rows, cols] = g
        return (full,)

    return _node(out, (m,), vjp, "take_per_row")


# ---------------------------------------------------------------------------
# the loss heads as compositions of those kernels


def composed_mlp(rows: Tensor, w1: np.ndarray, w2: np.ndarray) -> Tensor:
    """``encoder._mlp``: 5 tape nodes."""
    rows = _lift(rows)
    inner = matmul(layernorm(rows), Tensor(w1))
    return add(rows, matmul(gelu(inner), Tensor(w2)))


def composed_head(state: Tensor, out_proj: np.ndarray) -> Tensor:
    """``encoder._head``: 4 tape nodes."""
    state = _lift(state)
    rows = reshape(state, state.shape[:-2] + state.shape[-1:])
    return l2_normalize(matmul(layernorm(rows), Tensor(out_proj)))


def composed_project_out(z: Tensor, subspace: DemographicSubspace) -> Tensor:
    """``debias.project_out``: 3 tape nodes."""
    z = _lift(z)
    coeffs = matmul(z, Tensor(subspace.basis.T))
    return sub(z, matmul(coeffs, Tensor(subspace.basis)))


def composed_fairness_loss(z_debiased: Tensor, subspace: DemographicSubspace, mu: float) -> Tensor:
    """``debias.fairness_loss``: 5 tape nodes."""
    cos = matmul(l2_normalize(z_debiased), Tensor(subspace.templates.T))
    return reduce_sum(relu(sub(cos, Tensor(float(mu)))), axis=-1)


def composed_task_loss(z_debiased: Tensor, z_raw: Tensor, targets: np.ndarray,
                       temperature: float) -> Tensor:
    """``debias.task_loss``: 15 tape nodes."""
    targets = np.asarray(targets, dtype=np.float64)
    text = Tensor(targets.swapaxes(-1, -2))
    inv_t = 1.0 / float(temperature)
    diag = np.arange(targets.shape[-2])
    terms = []
    for x, axis in ((z_debiased, -1), (z_raw, -2)):
        logits = scale(matmul(l2_normalize(x), text), inv_t)
        picked = take_per_row(log_softmax(logits, axis=axis), diag)
        terms.append(scale(reduce_mean(picked, axis=-1), -1.0))
    return add(*terms)


def composed_joint_loss(task: Tensor, fair_per_sample: Tensor, lam1: float) -> Tensor:
    """``debias.joint_loss``: 3 tape nodes."""
    return add(task, scale(reduce_mean(fair_per_sample, axis=-1), float(lam1)))


def composed_refinement_loss(model, prompts, features: np.ndarray, labels: np.ndarray,
                             groups: np.ndarray, lam2: float) -> Tensor:
    """``federation.refinement_loss``: 17 tape nodes after the projection
    (16 without DSOP, which has no re-normalization)."""
    groups = np.asarray(groups)
    masks = []
    for g in (0, 1):
        sel = (groups == g).astype(np.float64)
        masks.append(Tensor(sel / float(sel.sum())))
    z, z_debiased = model.embed(prompts, features)
    emb = z if z_debiased is z else l2_normalize(z_debiased)
    logits = scale(matmul(emb, Tensor(model.encoder.class_text.T)), 1.0 / TEMPERATURE)
    nll = scale(reduce_mean(take_per_row(log_softmax(logits, axis=1), labels)), -1.0)
    correct_prob = take_per_row(softmax(logits, axis=1), labels)
    group_means = [reduce_sum(mul(correct_prob, m)) for m in masks]
    gap = abs_value(sub(group_means[0], group_means[1]))
    return add(nll, scale(gap, float(lam2)))


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


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    x = _lift(x)
    axis = axis % x.data.ndim
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"slice [{start}:{stop}] outside axis of length {n}")
    index = tuple(slice(None) if i != axis else slice(start, stop) for i in range(x.data.ndim))
    out = x.data[index]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _node(out, (x,), vjp, "slice")


def swap_axes(x: Tensor, a: int, b: int) -> Tensor:
    x = _lift(x)
    out = x.data.swapaxes(a, b)

    def vjp(g):
        return (g.swapaxes(a, b),)

    return _node(out, (x,), vjp, "swap_axes")


def project_heads(x: Tensor, w, heads: int) -> Tensor:
    """(B, n, d) rows times a frozen (d, e) weight, split into heads:
    (B, heads, n, e // heads)."""
    x, wd = _lift(x), _lift(w).data
    batch, n, _ = x.shape
    e = wd.shape[1]
    out = (x.data @ wd).reshape(batch, n, heads, e // heads).swapaxes(1, 2)

    def vjp(g):
        return (g.swapaxes(1, 2).reshape(batch, n, e) @ wd.T,)

    return _node(out, (x,), vjp, "project_heads")


def project_prefixed_heads(prefix: Tensor, x: Tensor, w, heads: int) -> Tensor:
    """``project_heads`` of a shared (K, d) prefix block, tiled over the
    batch, concatenated with that of (B, n, d) rows: (B, heads, K + n,
    e // heads). The prefix is projected once."""
    prefix, x, wd = _lift(prefix), _lift(x), _lift(w).data
    batch, n, _ = x.shape
    k, e = prefix.shape[0], wd.shape[1]
    c = e // heads
    out = np.empty((batch, heads, k + n, c))
    out[:, :, :k] = (prefix.data @ wd).reshape(k, heads, c).swapaxes(0, 1)
    out[:, :, k:] = (x.data @ wd).reshape(batch, n, heads, c).swapaxes(1, 2)
    npre, nx = prefix.needs_grad, x.needs_grad

    def vjp(g):
        gp = np.add.reduce(g[:, :, :k], axis=0).swapaxes(0, 1).reshape(k, e) @ wd.T if npre else None
        gx = g[:, :, k:].swapaxes(1, 2).reshape(batch, n, e) @ wd.T if nx else None
        return (gp, gx)

    return _node(out, (prefix, x), vjp, "project_prefixed_heads")


def merge_heads(x: Tensor, w) -> Tensor:
    """(B, heads, n, c) per-head rows merged to (B, n, heads * c), times
    a frozen weight."""
    x, wd = _lift(x), _lift(w).data
    batch, heads, n, c = x.shape
    out = x.data.swapaxes(1, 2).reshape(batch, n, heads * c) @ wd

    def vjp(g):
        return ((g @ wd.T).reshape(batch, n, heads, c).swapaxes(1, 2),)

    return _node(out, (x,), vjp, "merge_heads")


def composed_attention(prefix: Tensor, state: Tensor, wq, wk, wv, wo, heads: int,
                       cls_only: bool) -> Tensor:
    """``tensor.prompted_attention`` as the composition of single kernels
    the encoder recorded before it was fused: 11 tape nodes."""
    p, h = layernorm(prefix), layernorm(state)
    k4 = project_prefixed_heads(p, h, wk, heads)
    v4 = project_prefixed_heads(p, h, wv, heads)
    if cls_only:
        state, h = slice_axis(state, 1, 0, 1), slice_axis(h, 1, 0, 1)
    q4 = project_heads(h, wq, heads)
    attn = softmax(matmul(q4, swap_axes(k4, 2, 3)), axis=-1)
    return add(state, merge_heads(matmul(attn, v4), wo))


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
