"""Dense float64 tensors with taped reverse-mode gradients.

The tape records only what a run differentiates, the prompt-dependent
rows of a frozen encoder, as one node per stage: ``prompted_attention``
here, an encoder block's whole attention sublayer over a shared prompt
prefix, and the encoder's MLP and head, the cross-layer mixing and the
loss heads elsewhere. They are built on the forward/VJP pairs here:
``layernorm``/``_ln_vjp``, ``gelu``/``_gelu_vjp``, ``softmax``/
``_softmax_vjp``, ``_unit`` and ``_log_softmax``. ``layernorm``,
``gelu``, ``softmax`` and ``matmul`` are public forward-only array
functions and record no node. Every kernel is pure (identical inputs
give bit-identical outputs) and records just enough structure to
replay the chain rule. Gradients flow only into tensors created with
``trainable=True``; everything else is a frozen constant and its
subgraph is skipped during backprop. Kernels and ``Tensor`` trust their
operands; finiteness is checked once, at the boundaries: input rows by
``data.Dataset``, the loss and leaf gradients by ``backward``, eval
embeddings and loaded prompts by their readers.

On small sequences a node costs more in call overhead than in
arithmetic, so kernels call ``np.add.reduce``, ``np.maximum.reduce`` and
``ndarray.swapaxes`` directly, not the ``sum``/``mean``/``max`` wrappers;
a mean is ``np.add.reduce(...) / n``, bit-identical to ``ndarray.mean``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "NonFiniteError",
    "backward",
    "matmul",
    "prompted_attention",
    "softmax",
    "layernorm",
    "gelu",
]

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5  # layernorm's variance floor

class NonFiniteError(FloatingPointError):
    """A NaN or Inf value reached a boundary that checks finiteness."""


def _ensure_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {where}")


class Tensor:
    """Node of the implicit computation graph.

    Leaves are built directly; interior nodes are produced by kernels,
    carry a vector-Jacobian closure and are named after their op.
    """

    __slots__ = ("data", "trainable", "needs_grad", "parents", "vjp", "name")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.trainable = bool(trainable)
        self.needs_grad = self.trainable
        self.parents: tuple[Tensor, ...] = ()
        self.vjp = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        kind = "param" if self.trainable else "node" if self.needs_grad else "const"
        return f"Tensor{tag}({kind}, shape={self.shape})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.trainable = False
    out.name = op
    for p in parents:
        if p.needs_grad:
            out.needs_grad = True
            out.parents = parents
            out.vjp = vjp
            return out
    # Constant subgraph: keep no references so it can be collected.
    out.needs_grad = False
    out.parents = ()
    out.vjp = None
    return out


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar output, or from the sum of a
    vector of stacked clients' losses.

    Returns a mapping from each reachable trainable leaf to its
    gradient. Gradients of frozen tensors are absent by construction.
    Raises if ``output`` has more than one axis. Raises NonFiniteError
    if it is not finite, naming the first recorded op with a non-finite
    output, or if a leaf's gradient is not finite.

    Each node drops its parents and its VJP closure once the closure
    has run, and the sweep drops the node, so intermediates are freed
    as it goes. A second sweep over the same tape raises ValueError.
    """
    if output.data.ndim > 1:
        raise ValueError(f"backward needs a scalar or vector output, got shape {output.shape}")

    # Depth-first post-order over the nodes that need a gradient, each
    # expanded once: ``order`` lists every node after its parents.
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)] if output.needs_grad else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            if node.vjp is None and not node.trainable:
                raise ValueError(f"'{node.name}' was released by an earlier backward")
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p.needs_grad and p not in seen:
                    stack.append((p, False))
    del seen

    if not np.isfinite(output.data).all():
        first = next((n for n in order if not np.isfinite(n.data).all()), output)
        raise NonFiniteError(f"non-finite loss; first non-finite output is from '{first.name}'")

    grads: dict[Tensor, np.ndarray] = {output: np.ones_like(output.data)}
    leaves: dict[Tensor, np.ndarray] = {}
    while order:
        node = order.pop()
        g = grads.pop(node)
        if node.vjp is None:  # a trainable leaf
            _ensure_finite(g, f"gradient of '{node.name}'")
            leaves[node] = g
            continue
        parents, vjp = node.parents, node.vjp
        node.parents, node.vjp = (), None
        for parent, pg in zip(parents, vjp(g)):
            if pg is not None and parent.needs_grad:
                slot = grads.get(parent)
                grads[parent] = pg if slot is None else slot + pg
    return leaves


# ---------------------------------------------------------------------------
# elementwise functions and linear algebra


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (erf-based) GELU: (output, normal CDF of ``x``)."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def _gelu_vjp(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w``. The MLP calls it rather than ``@`` only so that the
    benchmark's ``tensor.matmul`` span still records its two products."""
    return a @ w


def _unit(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Last-axis unit rows: (output, norm). A (near-)zero-norm row is
    an error rather than a silent rescale."""
    norm = np.sqrt(np.add.reduce(xd * xd, axis=-1, keepdims=True))
    if np.any(norm <= 1e-30):
        raise ValueError(f"zero-norm row at index {np.argwhere(norm[..., 0] <= 1e-30)[0].tolist()}")
    return xd / norm, norm


def _unit_vjp(g: np.ndarray, out: np.ndarray, norm: np.ndarray) -> np.ndarray:
    return (g - out * np.add.reduce(g * out, axis=-1, keepdims=True)) / norm


# ---------------------------------------------------------------------------
# normalization and attention nonlinearities


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of an array along a non-empty ``axis``; records no node."""
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient at the logits of a last-axis softmax with output ``probs``."""
    return probs * (g - np.add.reduce(g * probs, axis=-1, keepdims=True))


def _log_softmax(xd: np.ndarray, axis: int) -> np.ndarray:
    """Log-softmax along a non-empty ``axis``."""
    shifted = xd - np.maximum.reduce(xd, axis=axis, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


def _log_softmax_vjp(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    return g - np.exp(out) * np.add.reduce(g, axis=axis, keepdims=True)


def layernorm(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Last-axis layer norm without affine: (output, 1 / deviation)."""
    d = xd.shape[-1]
    xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    return xc * inv, inv


def _ln_vjp(g: np.ndarray, out: np.ndarray, inv: np.ndarray) -> np.ndarray:
    d = out.shape[-1]
    return inv * (g - np.add.reduce(g, axis=-1, keepdims=True) / d
                  - out * (np.add.reduce(g * out, axis=-1, keepdims=True) / d))


def prompted_attention(prefix: Tensor, state: Tensor, wq: np.ndarray, wk: np.ndarray,
                       wv: np.ndarray, wo: np.ndarray, heads: int, cls_only: bool) -> Tensor:
    """A pre-LN attention sublayer over a shared prompt prefix, as one node.

    Layer-norms the (K, d) ``prefix`` and the (B, n, d) ``state``. Keys
    and values come from the K prefix rows (projected once for the
    batch) and the n state rows, queries from the first m state rows
    only (m = 1 if ``cls_only``, else n). Returns the (B, m, d) rows
    ``state[:, :m] + softmax(q kᵀ) v @ wo``, heads merged before ``wo``.
    Stacked clients prepend a C axis to both: (C, K, d) and (C, B, n, d).
    The weights are frozen arrays, the attention scale folded into
    ``wq``. Value and gradients are bit-identical to the per-kernel
    composition: same numpy operations, gradients summed in the tape's
    order. ``heads`` divides d, as in ``EncoderConfig``'s fixed shape.
    """
    prefix, state = _lift(prefix), _lift(state)
    *lead, batch, n, _ = state.shape
    k, e = prefix.shape[-2], wk.shape[1]
    c = e // heads
    p, p_inv = layernorm(prefix.data)
    h, h_inv = layernorm(state.data)
    k4, v4 = np.empty((*lead, batch, heads, k + n, c)), np.empty((*lead, batch, heads, k + n, c))
    for w, out in ((wk, k4), (wv, v4)):
        out[..., :k, :] = (p @ w).reshape(*lead, 1, k, heads, c).swapaxes(-3, -2)
        out[..., k:, :] = (h @ w).reshape(*lead, batch, n, heads, c).swapaxes(-3, -2)
    m = 1 if cls_only else n
    q4 = (h[..., :m, :] @ wq).reshape(*lead, batch, m, heads, c).swapaxes(-3, -2)
    probs = softmax(q4 @ k4.swapaxes(-2, -1))
    out = state.data[..., :m, :] + (probs @ v4).swapaxes(-3, -2).reshape(*lead, batch, m, e) @ wo
    n_prefix, n_state = prefix.needs_grad, state.needs_grad

    def vjp(g):
        g_ctx = (g @ wo.T).reshape(*lead, batch, m, heads, c).swapaxes(-3, -2)
        g_probs = g_ctx @ v4.swapaxes(-1, -2)
        g_v4 = probs.swapaxes(-1, -2) @ g_ctx
        gs = _softmax_vjp(g_probs, probs)
        g_k4 = (q4.swapaxes(-1, -2) @ gs).swapaxes(-2, -1)
        g_prefix = g_state = None
        if n_prefix:
            # summed over the client's own batch axis only
            gk, gv = (np.add.reduce(g4[..., :k, :], axis=-4).swapaxes(-3, -2).reshape(*lead, k, e)
                      @ w.T for g4, w in ((g_k4, wk), (g_v4, wv)))
            g_prefix = _ln_vjp(gk + gv, p, p_inv)
        if n_state:
            # keys, then queries, then values, as the composed tape sums them
            g_state = g_k4[..., k:, :].swapaxes(-3, -2).reshape(*lead, batch, n, e) @ wk.T
            g_state[..., :m, :] += (gs @ k4).swapaxes(-3, -2).reshape(*lead, batch, m, e) @ wq.T
            g_state += g_v4[..., k:, :].swapaxes(-3, -2).reshape(*lead, batch, n, e) @ wv.T
            g_state = _ln_vjp(g_state, h, h_inv)
            g_state[..., :m, :] += g
        return g_prefix, g_state

    return _node(out, (prefix, state), vjp, "prompted_attention")
