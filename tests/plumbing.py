"""Taped shape kernels that only the test references use.

``concat`` and ``tile_leading`` build the full-row encoder reference
and the composition oracles of the fused head kernels. The pipeline
itself never records them, so they live here rather than in
``fedfairprompt.tensor``; they are ordinary tape nodes and are
gradient-checked in ``test_tensor``.
"""

from __future__ import annotations

import numpy as np

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
