"""Kernel-level oracles for the tensor module.

Forward values are checked against independent references (triple-loop
matmul, per-scalar formulas); gradients against central finite
differences via the shared checker.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fedfairprompt import tensor as T
from fedfairprompt.tensor import NonFiniteError, Tensor, backward
from gradcheck import assert_grads_match


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# forward oracles


def _matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_matmul_small_frozen_value():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_triple_loop():
    rng = _rng(1)
    for m, k, n in [(3, 4, 5), (1, 7, 2), (6, 1, 3)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, _matmul_loops(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_batched_matches_per_slice():
    rng = _rng(2)
    a = rng.standard_normal((4, 3, 5))
    w = rng.standard_normal((5, 2))
    got = T.matmul(Tensor(a), Tensor(w)).data
    for i in range(4):
        np.testing.assert_allclose(got[i], _matmul_loops(a[i], w), rtol=1e-13, atol=1e-13)
    b4 = rng.standard_normal((2, 3, 5, 4))
    c4 = rng.standard_normal((2, 3, 4, 6))
    got4 = T.matmul(Tensor(b4), Tensor(c4)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(
                got4[i, j], _matmul_loops(b4[i, j], c4[i, j]), rtol=1e-13, atol=1e-13
            )


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_softmax_uniform_on_equal_logits():
    out = T.softmax(Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [0.5, 0.5])


def test_softmax_matches_scalar_formula_and_sums_to_one():
    rng = _rng(3)
    x = rng.standard_normal((5, 7)) * 30.0  # large spread exercises max-shift
    got = T.softmax(Tensor(x), axis=-1).data
    for i in range(5):
        e = [math.exp(v - max(x[i])) for v in x[i]]
        s = sum(e)
        for j in range(7):
            assert abs(got[i, j] - e[j] / s) < 1e-14
    sums = got.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.all(got > 0.0) and np.all(got <= 1.0)


def test_softmax_empty_axis_rejected():
    with pytest.raises(ValueError):
        T.softmax(Tensor(np.zeros((3, 0))), axis=-1)


def test_log_softmax_consistent_with_softmax():
    rng = _rng(4)
    x = rng.standard_normal((4, 6)) * 12.0
    ls = T.log_softmax(Tensor(x), axis=1).data
    sm = T.softmax(Tensor(x), axis=1).data
    np.testing.assert_allclose(np.exp(ls), sm, rtol=1e-12, atol=1e-14)


def test_layernorm_constant_row_returns_bias():
    gain = Tensor(np.full(4, 2.0))
    bias = Tensor(np.array([1.0, -1.0, 0.5, 0.0]))
    out = T.layernorm(Tensor(np.full((3, 4), 7.0)), gain, bias)
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias.data, (3, 4)))


def test_layernorm_matches_scalar_reference():
    rng = _rng(5)
    x = rng.standard_normal((2, 6))
    gain = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    eps = 1e-5
    got = T.layernorm(Tensor(x), Tensor(gain), Tensor(bias), eps=eps).data
    for i in range(2):
        mu = sum(x[i]) / 6
        var = sum((v - mu) ** 2 for v in x[i]) / 6
        for j in range(6):
            ref = (x[i, j] - mu) / math.sqrt(var + eps) * gain[j] + bias[j]
            assert abs(got[i, j] - ref) < 1e-12


def test_gelu_matches_erf_formula():
    xs = np.array([-3.0, -0.5, 0.0, 0.7, 2.4])
    got = T.gelu(Tensor(xs)).data
    for x, g in zip(xs, got):
        ref = 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert abs(g - ref) < 1e-14


def test_l2_normalize_unit_rows_and_zero_error():
    rng = _rng(6)
    x = rng.standard_normal((5, 8))
    out = T.l2_normalize(Tensor(x)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, x / np.linalg.norm(x, axis=-1, keepdims=True), rtol=1e-13)
    with pytest.raises(ValueError):
        T.l2_normalize(Tensor(np.zeros(4)))


def test_take_per_row_picks_and_validates():
    m = Tensor(np.arange(12.0).reshape(3, 4))
    got = T.take_per_row(m, np.array([0, 3, 1]))
    assert np.array_equal(got.data, [0.0, 7.0, 9.0])
    with pytest.raises(ValueError):
        T.take_per_row(m, np.array([0, 4, 1]))


def test_shape_plumbing_round_trips():
    rng = _rng(7)
    x = rng.standard_normal((2, 3, 4))
    assert np.array_equal(T.reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(T.swap_axes(Tensor(x), 0, 1).data, np.swapaxes(x, 0, 1))
    sl = T.slice_axis(Tensor(x), 1, 1, 3)
    assert np.array_equal(sl.data, x[:, 1:3, :])
    with pytest.raises(ValueError):
        T.slice_axis(Tensor(x), 1, 2, 5)
    cat = T.concat([Tensor(x), Tensor(x)], axis=2)
    assert cat.shape == (2, 3, 8)
    st = T.stack([Tensor(x[0]), Tensor(x[1])], axis=0)
    assert np.array_equal(st.data, x)
    tiled = T.tile_leading(Tensor(x[0]), 5)
    assert tiled.shape == (5, 3, 4)
    assert np.array_equal(tiled.data[3], x[0])


def _split_heads(x: Tensor, heads: int) -> Tensor:
    batch, n, e = x.shape
    return T.swap_axes(T.reshape(x, (batch, n, heads, e // heads)), 1, 2)


def _merged(x: Tensor) -> Tensor:
    batch, heads, n, c = x.shape
    return T.reshape(T.swap_axes(x, 1, 2), (batch, n, heads * c))


def test_head_kernels_equal_their_composition_bit_for_bit():
    rng = _rng(12)
    w = Tensor(rng.standard_normal((8, 12)))
    x = Tensor(rng.standard_normal((3, 5, 8)), trainable=True)
    probe = Tensor(rng.standard_normal((3, 4, 5, 3)))
    fused = T.project_heads(x, w, 4)
    composed = _split_heads(T.matmul(x, w), 4)
    assert np.array_equal(fused.data, composed.data)
    grad = backward(T.reduce_sum(T.mul(fused, probe)))[x]
    assert np.array_equal(grad, backward(T.reduce_sum(T.mul(composed, probe)))[x])

    wo = Tensor(rng.standard_normal((12, 7)))
    y = Tensor(rng.standard_normal((3, 4, 5, 3)), trainable=True)
    probe = Tensor(rng.standard_normal((3, 5, 7)))
    fused = T.merge_heads(y, wo)
    composed = T.matmul(_merged(y), wo)
    assert np.array_equal(fused.data, composed.data)
    grad = backward(T.reduce_sum(T.mul(fused, probe)))[y]
    assert np.array_equal(grad, backward(T.reduce_sum(T.mul(composed, probe)))[y])


def test_head_kernels_reject_trainable_weights_and_bad_shapes():
    rng = _rng(13)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    y = Tensor(rng.standard_normal((2, 2, 3, 2)))
    trainable = Tensor(rng.standard_normal((4, 4)), trainable=True)
    with pytest.raises(ValueError, match="frozen weight"):
        T.project_heads(x, trainable, 2)
    with pytest.raises(ValueError, match="frozen weight"):
        T.merge_heads(y, trainable)
    with pytest.raises(ValueError):
        T.project_heads(x, Tensor(np.ones((5, 4))), 2)  # wrong input width
    with pytest.raises(ValueError):
        T.project_heads(x, Tensor(np.ones((4, 6))), 4)  # 6 features, 4 heads
    with pytest.raises(ValueError):
        T.merge_heads(y, Tensor(np.ones((3, 4))))


# ---------------------------------------------------------------------------
# purity and finiteness


def test_kernels_are_bit_identical_across_calls():
    rng = _rng(8)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    first = T.matmul(Tensor(a), Tensor(b)).data
    second = T.matmul(Tensor(a.copy()), Tensor(b.copy())).data
    assert np.array_equal(first, second)
    s1 = T.softmax(Tensor(a)).data
    s2 = T.softmax(Tensor(a.copy())).data
    assert np.array_equal(s1, s2)


def test_non_finite_inputs_are_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with np.errstate(over="ignore"):
        big = Tensor(np.full((2, 2), 1e308))  # finite, but sums past the float cap
        with pytest.raises(NonFiniteError):
            T.matmul(big, big)  # overflow to inf inside the kernel


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_requires_scalar_output():
    x = Tensor(np.ones((2, 2)), trainable=True)
    with pytest.raises(ValueError):
        backward(T.scale(x, 2.0))


def test_backward_reaches_only_trainable_leaves():
    w = Tensor(np.ones((2, 2)), trainable=True, name="w")
    frozen = Tensor(np.full((2, 2), 3.0), name="frozen")
    out = T.reduce_sum(T.matmul(w, frozen))
    grads = backward(out)
    assert set(grads) == {w}
    assert frozen not in grads
    np.testing.assert_allclose(grads[w], np.full((2, 2), 6.0))


def test_backward_accumulates_through_shared_nodes():
    x = Tensor([2.0, 3.0], trainable=True)
    y = T.add(x, x)  # diamond: x used twice
    out = T.reduce_sum(T.mul(y, y))
    grads = backward(out)
    # d/dx sum((2x)^2) = 8x
    np.testing.assert_allclose(grads[x], 8.0 * x.data, rtol=1e-12)


def test_no_grad_suppresses_graph_but_not_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    tracked = T.reduce_sum(T.gelu(T.matmul(x, x)))
    with T.no_grad():
        untracked = T.reduce_sum(T.gelu(T.matmul(x, x)))
        assert not untracked.needs_grad and untracked.parents == ()
    assert untracked.item() == tracked.item()
    # the flag is restored on exit, including across nesting
    with T.no_grad():
        with T.no_grad():
            pass
        assert not T.matmul(x, x).needs_grad
    assert T.matmul(x, x).needs_grad
    grads = backward(tracked)
    assert x in grads


def test_gradients_match_finite_differences_per_kernel():
    rng = _rng(9)
    x = Tensor(rng.standard_normal((3, 4)), trainable=True)
    w = Tensor(rng.standard_normal((4, 5)), trainable=True)
    bias = Tensor(rng.standard_normal(5), trainable=True)

    assert_grads_match(lambda: T.reduce_sum(T.mul(T.matmul(x, w), T.matmul(x, w))), [x, w])
    assert_grads_match(lambda: T.reduce_mean(T.add(T.matmul(x, w), bias)), [x, w, bias])
    assert_grads_match(lambda: T.reduce_sum(T.softmax(x, axis=1)), [x])
    assert_grads_match(
        lambda: T.reduce_sum(T.mul(T.softmax(x, axis=1), Tensor(rng.standard_normal((3, 4)) * 0 + np.arange(12.0).reshape(3, 4)))),
        [x],
    )
    assert_grads_match(lambda: T.reduce_sum(T.log_softmax(x, axis=0)), [x])
    assert_grads_match(lambda: T.reduce_sum(T.gelu(x)), [x])
    assert_grads_match(lambda: T.reduce_sum(T.l2_normalize(x)), [x])

    h = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    wh = Tensor(rng.standard_normal((4, 6)))
    probe4 = Tensor(rng.standard_normal((2, 2, 3, 3)))
    assert_grads_match(lambda: T.reduce_sum(T.mul(T.project_heads(h, wh, 2), probe4)), [h])
    heads4 = Tensor(rng.standard_normal((2, 2, 3, 3)), trainable=True)
    wm = Tensor(rng.standard_normal((6, 4)))
    probe3 = Tensor(rng.standard_normal((2, 3, 4)))
    assert_grads_match(lambda: T.reduce_sum(T.mul(T.merge_heads(heads4, wm), probe3)), [heads4])


def test_gradients_match_finite_differences_composites():
    rng = _rng(10)
    x = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    gain = Tensor(rng.standard_normal(4), trainable=True)
    bias = Tensor(rng.standard_normal(4), trainable=True)
    assert_grads_match(lambda: T.reduce_sum(T.layernorm(x, gain, bias)), [x, gain, bias])

    a = Tensor(rng.standard_normal(6) + 3.0, trainable=True)  # keep relu/abs off kinks
    b = Tensor(rng.standard_normal(6) - 3.0, trainable=True)
    assert_grads_match(lambda: T.reduce_sum(T.relu(T.mul(a, a))), [a])
    assert_grads_match(lambda: T.reduce_sum(T.abs_value(b)), [b])

    m = Tensor(rng.standard_normal((4, 3)), trainable=True)
    idx = np.array([0, 2, 1, 2])
    assert_grads_match(lambda: T.reduce_mean(T.take_per_row(m, idx)), [m])

    p = Tensor(rng.standard_normal((2, 4)), trainable=True)
    q = Tensor(rng.standard_normal((3, 4)), trainable=True)

    def stitched():
        joined = T.concat([T.reshape(p, (1, 2, 4)), T.reshape(q, (1, 3, 4))], axis=1)
        sliced = T.slice_axis(joined, 1, 1, 5)
        return T.reduce_sum(T.mul(sliced, sliced))

    assert_grads_match(stitched, [p, q])

    u = Tensor(rng.standard_normal(5), trainable=True)
    v = Tensor(rng.standard_normal(5), trainable=True)
    assert_grads_match(lambda: T.dot(u, v), [u, v])


def test_stack_and_swap_gradients():
    rng = _rng(11)
    xs = [Tensor(rng.standard_normal((2, 3)), trainable=True) for _ in range(3)]

    def f():
        s = T.stack(xs, axis=0)
        return T.reduce_sum(T.mul(T.swap_axes(s, 0, 2), T.swap_axes(s, 0, 2)))

    assert_grads_match(f, xs)
