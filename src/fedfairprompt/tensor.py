"""Dense float64 tensors with taped reverse-mode gradients.

The tape records only what a run differentiates, the prompt-dependent
rows of a frozen encoder, as one node per stage: ``prompted_attention``
here, an encoder block's whole attention sublayer over a shared prompt
prefix, and the encoder's MLP and head, the cross-layer mixing and the
loss heads elsewhere. They are built on the forward/VJP pairs here:
``layernorm``/``_ln_vjp``, ``gelu``/``_gelu_slope`` (whose VJP is
``g * slope``, so a node keeps one array), ``softmax``/``_softmax_vjp``,
``_unit`` and ``_log_softmax``. ``layernorm``,
``gelu``, ``softmax`` and ``matmul`` are public forward-only array
functions and record no node. Every kernel is pure (identical inputs
give bit-identical outputs) and records just enough structure to
replay the chain rule. The encoder's nodes keep what their VJPs read,
never their inputs, so ``encode_image`` releases each interior output
(``_release``) once the next stage has read it. A ``Tensor``'s data
is written through, never rebound. Gradients flow only into tensors
created with ``trainable=True``; everything else is a frozen constant
and its subgraph is skipped during backprop. Kernels and ``Tensor``
trust their operands; finiteness is checked once, at the boundaries:
input rows by ``data.Dataset``, the loss and leaf gradients by
``backward``, eval embeddings and loaded prompts by their readers.
``backward`` names no op: a failed step is run again inside
``checked()``, where each recorded op checks its trainable inputs and
its output, to name the first non-finite leaf or op.

On small sequences a node costs more in call overhead than in
arithmetic, so kernels call ``np.add.reduce``, ``np.maximum.reduce`` and
``ndarray.swapaxes`` directly, not the ``sum``/``mean``/``max`` wrappers;
a mean is ``np.add.reduce(...) / n``, bit-identical to ``ndarray.mean``.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

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

    __slots__ = ("_data", "trainable", "needs_grad", "parents", "vjp", "name")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        self._data = np.asarray(data, dtype=np.float64)
        self.trainable = bool(trainable)
        self.needs_grad = self.trainable
        self.parents: tuple[Tensor, ...] = ()
        self.vjp = None
        self.name = name

    @property
    def data(self) -> np.ndarray | None:
        """The value, or None once the stage that owns an interior node
        has released it (``_release``). It is written through
        (``t.data[...] = a``), never rebound: a leaf that views a
        ``PromptSet``'s ``flat`` must stay that view."""
        return self._data

    @data.setter
    def data(self, value) -> None:
        raise AttributeError(f"cannot rebind the data of {self!r}; write through it: "
                             f"t.data[...] = value")

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        kind = "param" if self.trainable else "node" if self.needs_grad else "const"
        return f"Tensor{tag}({kind}, shape={self.shape})"


def _release(t: Tensor) -> None:
    """Drop an interior node's value once every stage that reads it has
    run; the tape keeps the node, and its VJP keeps what it reads."""
    t._data = None


# Set inside ``checked()``: each recorded op checks its operands.
_checking = False


@contextlib.contextmanager
def checked():
    """Within the block, each op recorded on the tape checks its
    trainable inputs, then its output, and raises NonFiniteError naming
    the first that is not finite: run a failed forward again inside it
    to learn where its loss stopped being finite."""
    global _checking
    saved, _checking = _checking, True
    try:
        yield
    finally:
        _checking = saved


def _check(parents: tuple[Tensor, ...], out: Tensor) -> None:
    for t in (*(p for p in parents if p.trainable), out):
        if not np.isfinite(t.data).all():
            raise NonFiniteError(f"non-finite loss; first non-finite output is from '{t.name}'")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out._data = data
    out.trainable = False
    out.name = op
    for p in parents:
        if p.needs_grad:
            if _checking:
                _check(parents, out)
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
    if it is not finite, or if a leaf's gradient is not finite; neither
    names the op that made the value, which a forward run again inside
    ``checked()`` does.

    Each node drops its parents and its VJP closure once the closure
    has run, and the sweep drops the node, so intermediates are freed
    as it goes. A second sweep over the same tape raises ValueError.
    """
    if output.data.ndim > 1:
        raise ValueError(f"backward needs a scalar or vector output, got shape {output.shape}")
    _ensure_finite(output.data, "loss")

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


# The normal CDF as a cubic Hermite spline: the table holds Phi and its
# exact slope phi at every knot of [-8.5, 8.5], 2048 cells per unit, so
# each cell's cubic matches both (Fritsch & Carlson 1980). On 4 M points
# of [-12, 12] its largest error against scipy's ndtr was 3.3e-16, and it
# never decreased. Below -8.5, where Phi < 1e-17, a zero cell makes it
# exactly 0.0; at and above 8.5 a constant cell makes it exactly 1.0.
_PHI_EDGE = 8.5
_PHI_CELLS = 2048
_PHI_FLOOR = -_PHI_EDGE - 1.0 / _PHI_CELLS  # left end of the zero cell
_PHI_SHIFT = _PHI_EDGE * _PHI_CELLS + 1.0  # maps _PHI_FLOOR to cell 0
_PHI_CHUNK = 1024  # spline cells per pass of the table build


def _phi_table() -> tuple[np.ndarray, ...]:
    """Horner coefficients ``(c0, c1, c2, c3)`` of each cell in the
    cell's own coordinate ``u`` in [0, 1): the zero cell, the
    ``2 * 8.5 * 2048`` spline cells, and the constant cell at 8.5.

    The spline cells are filled ``_PHI_CHUNK`` at a time, each chunk
    from its own knots and the first knot of the next, so no full-length
    list or temporary outlives the build; every coefficient is
    elementwise, so the bits equal a one-shot build."""
    cells = int(2 * _PHI_EDGE * _PHI_CELLS)
    c0, c1, c2, c3 = table = tuple(np.zeros(cells + 2) for _ in range(4))
    for lo in range(0, cells, _PHI_CHUNK):
        hi = min(lo + _PHI_CHUNK, cells)
        knots = np.arange(lo, hi + 1) / _PHI_CELLS - _PHI_EDGE
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in knots.tolist()])
        slope = _INV_SQRT_2PI * np.exp(-0.5 * knots * knots) / _PHI_CELLS
        step, left, right = np.diff(cdf), slope[:-1], slope[1:]
        c0[lo + 1 : hi + 1] = cdf[:-1]
        c1[lo + 1 : hi + 1] = left
        c2[lo + 1 : hi + 1] = 3.0 * step - 2.0 * left - right
        c3[lo + 1 : hi + 1] = left + right - 2.0 * step
    c0[-1] = cdf[-1]
    return table


_PHI_C0, _PHI_C1, _PHI_C2, _PHI_C3 = _phi_table()


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact GELU, ``x * Phi(x)``: (output, normal CDF of ``x``).

    Phi comes from the tabulated spline above. ``x`` is clamped before
    it is scaled, so no finite input overflows. A NaN is read as 8.5 by
    ``fmin`` (no NaN reaches the index cast) and stays NaN in the
    output; -inf multiplies the clamped ``_PHI_FLOOR``, not itself, so
    it gives -0.0 without an ``inf * 0``."""
    lo = np.maximum(x, _PHI_FLOOR)
    u = np.fmin(lo, _PHI_EDGE)
    u *= _PHI_CELLS
    u += _PHI_SHIFT
    cell = u.astype(np.intp)
    u -= cell
    cdf = _PHI_C3[cell]
    cdf *= u
    cdf += _PHI_C2[cell]
    cdf *= u
    cdf += _PHI_C1[cell]
    cdf *= u
    cdf += _PHI_C0[cell]
    return lo * cdf, cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative at ``x``, ``Phi(x) + x * phi(x)``, from the CDF
    ``gelu`` returned; the VJP is ``g * slope``."""
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


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
    if not n_state:  # only the state's gradient reads them
        h = h_inv = k4 = None

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
