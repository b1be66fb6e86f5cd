"""Dense float64 tensors with taped reverse-mode gradients.

The kernel vocabulary is deliberately small: matmul, the two
attention-head projections (project_heads: matmul by a frozen weight,
then split heads; merge_heads: merge heads, then matmul by a frozen
weight), elementwise add/sub/mul, scalar scale, softmax, log-softmax,
layer norm, GELU, concat, slice, stack, reshape, axis swaps,
reductions, L2 normalization, dot, relu (hinge), abs, per-row gather
and a leading-axis tile. Every kernel is pure (identical inputs give
bit-identical outputs), validates its output for NaN/Inf, and records
just enough structure to replay the chain rule. Gradients flow only
into tensors created with ``trainable=True``; everything else is a
frozen constant and its subgraph is skipped during backprop.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "NonFiniteError",
    "no_grad",
    "backward",
    "matmul",
    "project_heads",
    "merge_heads",
    "add",
    "sub",
    "mul",
    "scale",
    "softmax",
    "log_softmax",
    "layernorm",
    "gelu",
    "relu",
    "abs_value",
    "l2_normalize",
    "concat",
    "stack",
    "slice_axis",
    "reshape",
    "swap_axes",
    "reduce_sum",
    "reduce_mean",
    "dot",
    "take_per_row",
    "tile_leading",
]

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_grad_enabled = True


class no_grad:
    """Context manager that suppresses graph recording (pure inference)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class NonFiniteError(FloatingPointError):
    """A kernel produced (or was handed) a NaN or Inf value."""


def _ensure_finite(arr: np.ndarray, where: str) -> None:
    # One-pass reduction: the sum is NaN or Inf iff the array holds a
    # NaN/Inf (values here are nowhere near the overflow regime).
    if arr.size and not np.isfinite(arr.sum()):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in {where}")


class Tensor:
    """Node of the implicit computation graph.

    Leaves are built directly; interior nodes are produced by kernels
    and carry a vector-Jacobian closure.
    """

    __slots__ = ("data", "trainable", "needs_grad", "parents", "vjp", "name")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, f"tensor '{name}'" if name else "tensor")
        self.data = arr
        self.trainable = bool(trainable)
        self.needs_grad = self.trainable
        self.parents: tuple[Tensor, ...] = ()
        self.vjp = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        kind = "param" if self.trainable else "const"
        return f"Tensor{tag}({kind}, shape={self.shape})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str,
          check: bool = True) -> Tensor:
    # Pure data-movement kernels pass check=False: they cannot mint a
    # NaN/Inf that was not already present in a validated input.
    if check:
        _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.trainable = False
    out.name = ""
    if _grad_enabled and any(p.needs_grad for p in parents):
        out.needs_grad = True
        out.parents = parents
        out.vjp = vjp
    else:
        # Constant subgraph: keep no references so it can be collected.
        out.needs_grad = False
        out.parents = ()
        out.vjp = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar output.

    Returns a mapping from each reachable trainable leaf to its
    gradient. Gradients of frozen tensors are absent by construction.
    Raises if ``output`` is not scalar or if any accumulated gradient
    is non-finite.
    """
    if output.data.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.needs_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        _ensure_finite(g, "gradient")
        if node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if not parent.needs_grad or pg is None:
                    continue
                slot = grads.get(id(parent))
                grads[id(parent)] = pg if slot is None else slot + pg
        elif node.trainable:
            leaves[node] = g
    return leaves


# ---------------------------------------------------------------------------
# elementwise and arithmetic kernels


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data + b.data
    na, nb = a.needs_grad, b.needs_grad
    ash, bsh = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, ash) if na else None,
                _unbroadcast(g, bsh) if nb else None)

    return _node(out, (a, b), vjp, "add")


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


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = _lift(x)
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd / _SQRT2))
    out = xd * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return _node(out, (x,), vjp, "gelu")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matrix semantics.

    Both operands must be at least 2-D; leading batch axes follow the
    usual broadcast rules (weights stay 2-D, activations may carry
    batch axes).
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    na, nb = a.needs_grad, b.needs_grad

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if na else None
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if nb else None
        return (ga, gb)

    return _node(out, (a, b), vjp, "matmul")


def _frozen_weight(w: Tensor, rows: int, op: str) -> np.ndarray:
    w = _lift(w)
    if w.needs_grad:
        raise ValueError(f"{op} takes a frozen weight; this one needs a gradient")
    if w.ndim != 2 or w.shape[0] != rows:
        raise ValueError(f"{op}: weight of shape {w.shape} does not take {rows} input features")
    return w.data


def project_heads(x: Tensor, w: Tensor, heads: int) -> Tensor:
    """(B, n, d) rows times a frozen (d, e) weight, split into heads.

    Returns (B, heads, n, e // heads): the same values as ``matmul``,
    ``reshape`` to (B, n, heads, e // heads) and ``swap_axes(1, 2)``,
    recorded as one node. Only ``x`` receives a gradient.
    """
    x = _lift(x)
    if x.ndim != 3:
        raise ValueError(f"project_heads needs (B, n, d) rows, got {x.shape}")
    wd = _frozen_weight(w, x.shape[-1], "project_heads")
    batch, n, _ = x.shape
    e = wd.shape[1]
    if e % heads != 0:
        raise ValueError(f"project_heads: {e} output features do not split into {heads} heads")
    out = np.swapaxes((x.data @ wd).reshape(batch, n, heads, e // heads), 1, 2)

    def vjp(g):
        return (np.swapaxes(g, 1, 2).reshape(batch, n, e) @ wd.T,)

    return _node(out, (x,), vjp, "project_heads")


def merge_heads(x: Tensor, w: Tensor) -> Tensor:
    """(B, heads, n, c) per-head rows merged to (B, n, heads * c), times
    a frozen weight.

    The same values as ``swap_axes(1, 2)``, ``reshape`` and ``matmul``,
    recorded as one node. Only ``x`` receives a gradient.
    """
    x = _lift(x)
    if x.ndim != 4:
        raise ValueError(f"merge_heads needs (B, heads, n, c) rows, got {x.shape}")
    batch, heads, n, c = x.shape
    wd = _frozen_weight(w, heads * c, "merge_heads")
    out = np.swapaxes(x.data, 1, 2).reshape(batch, n, heads * c) @ wd

    def vjp(g):
        return (np.swapaxes((g @ wd.T).reshape(batch, n, heads, c), 1, 2),)

    return _node(out, (x,), vjp, "merge_heads")


def dot(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot needs equal-length vectors, got {a.shape}, {b.shape}")
    out = np.asarray(a.data @ b.data)

    def vjp(g):
        return (g * b.data, g * a.data)

    return _node(out, (a, b), vjp, "dot")


def l2_normalize(x: Tensor, eps: float = 0.0) -> Tensor:
    """Normalize the last axis to unit Euclidean norm.

    A (near-)zero-norm slice is an error rather than a silent rescale.
    """
    x = _lift(x)
    norm = np.sqrt(np.sum(x.data * x.data, axis=-1, keepdims=True))
    if np.any(norm <= max(eps, 1e-30)):
        raise ValueError("l2_normalize: zero-norm slice")
    out = x.data / norm

    def vjp(g):
        inner = np.sum(g * out, axis=-1, keepdims=True)
        return ((g - out * inner) / norm,)

    return _node(out, (x,), vjp, "l2_normalize")


# ---------------------------------------------------------------------------
# normalization and attention nonlinearities


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _lift(x)
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (x,), vjp, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _lift(x)
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ValueError("log_softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    p = np.exp(out)

    def vjp(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _node(out, (x,), vjp, "log_softmax")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-slice (last axis) zero-mean unit-variance, then affine."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layernorm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data
    out = xhat * gd + bias.data
    nx, ng, nb = x.needs_grad, gain.needs_grad, bias.needs_grad

    def vjp(g):
        gx = None
        if nx:
            gy = g * gd
            gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - xhat * np.mean(gy * xhat, axis=-1, keepdims=True))
        lead = tuple(range(g.ndim - 1))
        return (gx,
                (g * xhat).sum(axis=lead) if ng else None,
                g.sum(axis=lead) if nb else None)

    return _node(out, (x, gain, bias), vjp, "layernorm")


# ---------------------------------------------------------------------------
# shape plumbing


def concat(parts: list[Tensor] | tuple[Tensor, ...], axis: int = 0) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, parts, vjp, "concat", check=False)


def stack(parts: list[Tensor] | tuple[Tensor, ...], axis: int = 0) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts:
        raise ValueError("stack of zero tensors")
    out = np.stack([p.data for p in parts], axis=axis)

    def vjp(g):
        pieces = np.split(g, len(parts), axis=axis)
        return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

    return _node(out, parts, vjp, "stack", check=False)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    x = _lift(x)
    axis = axis % x.ndim
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"slice [{start}:{stop}] outside axis of length {n}")
    index = tuple(slice(None) if i != axis else slice(start, stop) for i in range(x.ndim))
    out = x.data[index]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _node(out, (x,), vjp, "slice", check=False)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _lift(x)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _node(out, (x,), vjp, "reshape", check=False)


def swap_axes(x: Tensor, a: int, b: int) -> Tensor:
    x = _lift(x)
    out = np.swapaxes(x.data, a, b)

    def vjp(g):
        return (np.swapaxes(g, a, b),)

    return _node(out, (x,), vjp, "swap_axes", check=False)


def tile_leading(x: Tensor, n: int) -> Tensor:
    """Repeat a tensor along a new leading axis (shared parameters)."""
    x = _lift(x)
    if n < 0:
        raise ValueError("tile_leading needs n >= 0")
    out = np.broadcast_to(x.data, (n,) + x.shape).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return _node(out, (x,), vjp, "tile_leading", check=False)


# ---------------------------------------------------------------------------
# reductions and gathers


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _lift(x)
    out = np.asarray(x.data.sum(axis=axis))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _node(out, (x,), vjp, "reduce_sum")


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _lift(x)
    count = x.data.size if axis is None else x.shape[axis]
    if count == 0:
        raise ValueError("reduce_mean over an empty axis")
    out = np.asarray(x.data.mean(axis=axis))
    inv = 1.0 / count

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g * inv, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g * inv, axis), x.shape).copy(),)

    return _node(out, (x,), vjp, "reduce_mean")


def take_per_row(m: Tensor, cols: np.ndarray) -> Tensor:
    """Pick one column per row of a 2-D tensor: out[i] = m[i, cols[i]]."""
    m = _lift(m)
    if m.ndim != 2:
        raise ValueError(f"take_per_row needs a 2-D tensor, got {m.shape}")
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape != (m.shape[0],):
        raise ValueError(f"need one column index per row, got {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= m.shape[1]):
        raise ValueError("column index out of range")
    rows = np.arange(m.shape[0])
    out = m.data[rows, cols]

    def vjp(g):
        full = np.zeros_like(m.data)
        full[rows, cols] = g
        return (full,)

    return _node(out, (m,), vjp, "take_per_row", check=False)
