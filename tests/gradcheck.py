"""Shared finite-difference oracle for gradient tests.

Central differences with step 1e-3 against analytic gradients, compared
at relative tolerance 1e-4. Kept independent of the tensor kernels: it
only mutates leaf arrays in place and re-evaluates the closure.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from fedfairprompt.tensor import Tensor, backward

FD_STEP = 1e-3
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def fd_gradient(f: Callable[[], Tensor], leaf: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. one leaf."""
    flat = leaf.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = float(f().data)
        flat[i] = orig - step
        down = float(f().data)
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad.reshape(leaf.data.shape)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), ABS_FLOOR)


def assert_grads_match(f: Callable[[], Tensor], leaves: Iterable[Tensor],
                       tol: float = REL_TOL, step: float = FD_STEP) -> None:
    """Analytic vs finite-difference gradients, coordinate by coordinate.

    Stiff objectives (sharp exponentials) need a smaller ``step`` to
    keep the central-difference truncation error under ``tol``.
    """
    leaves = list(leaves)
    analytic = backward(f())
    for leaf in leaves:
        assert leaf in analytic, f"no gradient reached leaf {leaf!r}"
        numeric = fd_gradient(f, leaf, step)
        a = analytic[leaf].reshape(-1)
        n = numeric.reshape(-1)
        for i in range(a.size):
            err = relative_error(a[i], n[i])
            assert err <= tol, (
                f"gradient mismatch at {leaf!r}[{i}]: analytic={a[i]:.10g} "
                f"fd={n[i]:.10g} rel_err={err:.3g}"
            )
