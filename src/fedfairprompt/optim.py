"""AdamW with decoupled weight decay over named parameter arrays.

The step is pure-functional: it returns fresh parameter and state
dictionaries so optimizer updates replay bit-identically. Weight decay
is applied directly to the parameters (not folded into the gradient),
so with a zero gradient and fresh state a step shrinks each parameter
by exactly ``lr * weight_decay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdamWState", "adamw_init", "adamw_step"]

Params = dict[str, np.ndarray]


@dataclass
class AdamWState:
    """First/second moment accumulators and the shared step counter."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step: int = 0


def adamw_init(params: Params) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
    )


def adamw_step(
    params: Params,
    grads: Params,
    state: AdamWState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> tuple[Params, AdamWState]:
    """One optimizer step; returns (new params, new state).

    ``grads`` holds one finite gradient of each parameter's shape under
    the same keys; the caller builds it from the same dict and the
    backward sweep has already rejected non-finite values.
    """
    t = state.step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_params: Params = {}
    new_m: Params = {}
    new_v: Params = {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        m = beta1 * state.m[key] + (1.0 - beta1) * g
        v = beta2 * state.v[key] + (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[key] = p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * p
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamWState(m=new_m, v=new_v, step=t)
