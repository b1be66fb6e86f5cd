"""Kernel-level oracles for the tensor module.

Forward values are checked against independent references (triple-loop
matmul, per-scalar formulas); gradients against central finite
differences via the shared checker. The generic kernels in
``tests/plumbing.py``, which other tests use as probes and as the
encoder and loss heads' references, are checked here the same way, and
so are the fused stage nodes.
"""

from __future__ import annotations

import ast
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedfairprompt import tensor as T
from fedfairprompt.crosslayer import apply_cross_layer
from fedfairprompt.encoder import _mlp
from fedfairprompt.tensor import NonFiniteError, Tensor, backward
from gradcheck import assert_grads_match
import plumbing as P
from plumbing import (
    composed_attention,
    concat,
    merge_heads,
    project_heads,
    project_prefixed_heads,
    slice_axis,
    swap_axes,
    tile_leading,
)


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
    out = T.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_triple_loop():
    rng = _rng(1)
    for m, k, n in [(3, 4, 5), (1, 7, 2), (6, 1, 3)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = T.matmul(a, b)
        np.testing.assert_allclose(got, _matmul_loops(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_batched_matches_per_slice():
    rng = _rng(2)
    a = rng.standard_normal((4, 3, 5))
    w = rng.standard_normal((5, 2))
    got = T.matmul(a, w)
    for i in range(4):
        np.testing.assert_allclose(got[i], _matmul_loops(a[i], w), rtol=1e-13, atol=1e-13)
    b4 = rng.standard_normal((2, 3, 5, 4))
    c4 = rng.standard_normal((2, 3, 4, 6))
    got4 = P.matmul(Tensor(b4), Tensor(c4)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(
                got4[i, j], _matmul_loops(b4[i, j], c4[i, j]), rtol=1e-13, atol=1e-13
            )


def test_matmul_rejects_mismatched_inner_dims():
    with pytest.raises(ValueError):
        T.matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_softmax_uniform_on_equal_logits():
    out = T.softmax(np.array([0.0, 0.0]))
    assert np.array_equal(out, [0.5, 0.5])


def test_softmax_matches_scalar_formula_and_sums_to_one():
    rng = _rng(3)
    x = rng.standard_normal((5, 7)) * 30.0  # large spread exercises max-shift
    got = T.softmax(x, axis=-1)
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
        T.softmax(np.zeros((3, 0)), axis=-1)


def test_log_softmax_consistent_with_softmax():
    rng = _rng(4)
    x = rng.standard_normal((4, 6)) * 12.0
    ls = P.log_softmax(Tensor(x), axis=1).data
    sm = T.softmax(x, axis=1)
    np.testing.assert_allclose(np.exp(ls), sm, rtol=1e-12, atol=1e-14)


def test_softmax_equals_the_taped_softmax_bit_for_bit():
    # The forward-only array function and the general tape's node
    # compute the same numpy operations.
    rng = _rng(11)
    for shape, axis in (((4, 6), 1), ((3, 2, 5, 7), -1), ((5, 3), 0)):
        x = rng.standard_normal(shape) * 8.0
        assert np.array_equal(T.softmax(x, axis=axis), P.softmax(Tensor(x), axis=axis).data)


def test_layernorm_constant_row_returns_zeros():
    out, _ = T.layernorm(np.full((3, 4), 7.0))
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_layernorm_matches_scalar_reference():
    rng = _rng(5)
    x = rng.standard_normal((2, 6))
    eps = 1e-5
    got, _ = T.layernorm(x)
    for i in range(2):
        mu = sum(x[i]) / 6
        var = sum((v - mu) ** 2 for v in x[i]) / 6
        for j in range(6):
            ref = (x[i, j] - mu) / math.sqrt(var + eps)
            assert abs(got[i, j] - ref) < 1e-12


def test_gelu_matches_erf_formula():
    xs = np.array([-3.0, -0.5, 0.0, 0.7, 2.4])
    got, _ = T.gelu(xs)
    for x, g in zip(xs, got):
        ref = 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert abs(g - ref) < 1e-14


def test_l2_normalize_unit_rows_and_zero_error():
    rng = _rng(6)
    x = rng.standard_normal((5, 8))
    out = P.l2_normalize(Tensor(x)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, x / np.linalg.norm(x, axis=-1, keepdims=True), rtol=1e-13)
    with pytest.raises(ValueError):
        P.l2_normalize(Tensor(np.zeros(4)))
    x[3] = 0.0
    with pytest.raises(ValueError, match=r"zero-norm row at index \[3\]"):
        P.l2_normalize(Tensor(x))


def test_take_per_row_picks():
    m = Tensor(np.arange(12.0).reshape(3, 4))
    got = P.take_per_row(m, np.array([0, 3, 1]))
    assert np.array_equal(got.data, [0.0, 7.0, 9.0])


def test_shape_plumbing_round_trips():
    rng = _rng(7)
    x = rng.standard_normal((2, 3, 4))
    assert np.array_equal(P.reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(swap_axes(Tensor(x), 0, 1).data, np.swapaxes(x, 0, 1))
    sl = slice_axis(Tensor(x), 1, 1, 3)
    assert np.array_equal(sl.data, x[:, 1:3, :])
    with pytest.raises(ValueError):
        slice_axis(Tensor(x), 1, 2, 5)
    cat = concat([Tensor(x), Tensor(x)], axis=2)
    assert cat.shape == (2, 3, 8)
    tiled = tile_leading(Tensor(x[0]), 5)
    assert tiled.shape == (5, 3, 4)
    assert np.array_equal(tiled.data[3], x[0])


def _split_heads(x: Tensor, heads: int) -> Tensor:
    batch, n, e = x.shape
    return swap_axes(P.reshape(x, (batch, n, heads, e // heads)), 1, 2)


def _merged(x: Tensor) -> Tensor:
    batch, heads, n, c = x.shape
    return P.reshape(swap_axes(x, 1, 2), (batch, n, heads * c))


def test_head_kernels_equal_their_composition_bit_for_bit():
    rng = _rng(12)
    w = Tensor(rng.standard_normal((8, 12)))
    x = Tensor(rng.standard_normal((3, 5, 8)), trainable=True)
    probe = Tensor(rng.standard_normal((3, 4, 5, 3)))
    fused = project_heads(x, w, 4)
    composed = _split_heads(P.matmul(x, w), 4)
    assert np.array_equal(fused.data, composed.data)
    grad = backward(P.reduce_sum(P.mul(fused, probe)))[x]
    assert np.array_equal(grad, backward(P.reduce_sum(P.mul(composed, probe)))[x])

    wo = Tensor(rng.standard_normal((12, 7)))
    y = Tensor(rng.standard_normal((3, 4, 5, 3)), trainable=True)
    probe = Tensor(rng.standard_normal((3, 5, 7)))
    fused = merge_heads(y, wo)
    composed = P.matmul(_merged(y), wo)
    assert np.array_equal(fused.data, composed.data)
    grad = backward(P.reduce_sum(P.mul(fused, probe)))[y]
    assert np.array_equal(grad, backward(P.reduce_sum(P.mul(composed, probe)))[y])


def _tiled_prefix_composition(p: Tensor, x: Tensor, w: Tensor, heads: int) -> Tensor:
    batch = x.shape[0]
    k, d = p.shape
    proj = project_heads(P.reshape(p, (1, k, d)), w, heads)
    tiled = tile_leading(P.reshape(proj, proj.shape[1:]), batch)
    return concat([tiled, project_heads(x, w, heads)], axis=2)


@pytest.mark.parametrize("k", [3, 0])
def test_prefixed_heads_match_tiled_concat_composition(k):
    rng = _rng(14)
    w = Tensor(rng.standard_normal((8, 12)))
    p = Tensor(rng.standard_normal((k, 8)), trainable=True)
    x = Tensor(rng.standard_normal((4, 5, 8)), trainable=True)
    probe = Tensor(rng.standard_normal((4, 3, k + 5, 4)))
    fused = project_prefixed_heads(p, x, w, 3)
    composed = _tiled_prefix_composition(p, x, w, 3)
    assert fused.shape == composed.shape == (4, 3, k + 5, 4)
    scale = np.abs(composed.data).max()
    assert np.abs(fused.data - composed.data).max() <= 1e-12 * scale
    grads = backward(P.reduce_sum(P.mul(fused, probe)))
    ref = backward(P.reduce_sum(P.mul(composed, probe)))
    for leaf in (p, x):
        assert grads[leaf].shape == leaf.shape
        scale = np.abs(ref[leaf]).max(initial=0.0)
        assert np.abs(grads[leaf] - ref[leaf]).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("state_trainable", [True, False])
@pytest.mark.parametrize("cls_only", [False, True])
def test_prompted_attention_equals_its_composition_bit_for_bit(cls_only, state_trainable, k, batch):
    rng = _rng(15)
    d, heads, n = 8, 2, 5
    weights = [rng.standard_normal((d, d)) * d**-0.5 for _ in range(4)]
    prefix = Tensor(rng.standard_normal((k, d)), trainable=True)
    state = Tensor(rng.standard_normal((batch, n, d)), trainable=state_trainable)
    probe = Tensor(rng.standard_normal((batch, 1 if cls_only else n, d)))
    fused = T.prompted_attention(prefix, state, *weights, heads, cls_only)
    composed = composed_attention(prefix, state, *weights, heads, cls_only)
    assert fused.parents == (prefix, state)
    assert np.array_equal(fused.data, composed.data)
    grads = backward(P.reduce_sum(P.mul(fused, probe)))
    ref = backward(P.reduce_sum(P.mul(composed, probe)))
    assert set(grads) == set(ref) == ({prefix, state} if state_trainable else {prefix})
    for leaf, g in ref.items():
        assert np.array_equal(grads[leaf], g)


# ---------------------------------------------------------------------------
# purity and finiteness


def test_kernels_are_bit_identical_across_calls():
    rng = _rng(8)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    first = T.matmul(a, b)
    second = T.matmul(a.copy(), b.copy())
    assert np.array_equal(first, second)
    s1 = T.softmax(a)
    s2 = T.softmax(a.copy())
    assert np.array_equal(s1, s2)


def test_non_finite_inputs_are_rejected():
    with np.errstate(over="ignore"):
        big = Tensor(np.full((2, 2), 1e308), trainable=True)  # finite, but sums past the float cap
        # matmul overflows to inf; backward rejects the loss and names
        # matmul, the first op with a non-finite output, not gelu after it
        with pytest.raises(NonFiniteError, match="'matmul'"):
            backward(P.reduce_sum(P.gelu(P.matmul(big, Tensor(big.data)))))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_requires_scalar_output():
    x = Tensor(np.ones((2, 2)), trainable=True)
    with pytest.raises(ValueError):
        backward(P.scale(x, 2.0))


def test_backward_reaches_only_trainable_leaves():
    w = Tensor(np.ones((2, 2)), trainable=True, name="w")
    frozen = Tensor(np.full((2, 2), 3.0), name="frozen")
    out = P.reduce_sum(P.matmul(w, frozen))
    grads = backward(out)
    assert set(grads) == {w}
    assert frozen not in grads
    np.testing.assert_allclose(grads[w], np.full((2, 2), 6.0))


def test_backward_accumulates_through_shared_nodes():
    x = Tensor([2.0, 3.0], trainable=True)
    y = P.add(x, x)  # diamond: x used twice
    out = P.reduce_sum(P.mul(y, y))
    grads = backward(out)
    # d/dx sum((2x)^2) = 8x
    np.testing.assert_allclose(grads[x], 8.0 * x.data, rtol=1e-12)


def test_backward_releases_the_tape_of_a_kept_loss():
    x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), trainable=True)
    hidden = P.gelu(P.matmul(x, Tensor(np.ones((3, 4)))))
    alive = weakref.ref(hidden.data)
    loss = P.reduce_sum(hidden)
    del hidden
    assert alive() is not None  # held by the tape of ``loss``
    grads = backward(loss)
    assert x in grads and float(loss.data) > 0.0
    assert alive() is None
    assert loss.parents == () and loss.vjp is None


def test_second_backward_over_a_released_tape_raises():
    x = Tensor([1.0, 2.0], trainable=True)
    loss = P.reduce_sum(P.mul(x, x))
    np.testing.assert_array_equal(backward(loss)[x], [2.0, 4.0])
    with pytest.raises(ValueError, match="released by an earlier backward"):
        backward(loss)


def _reachable(output):
    seen, todo = set(), [output]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node.parents)
    return seen


def test_tape_walk_visits_each_node_once_across_paths_of_different_depth():
    rng = _rng(16)
    x = Tensor(rng.standard_normal((3, 4)), trainable=True, name="x")
    col = Tensor(rng.standard_normal((3, 1)), trainable=True, name="col")
    row = Tensor(rng.standard_normal(4), trainable=True, name="row")
    w = Tensor(rng.standard_normal((4, 4)), name="w")  # frozen
    shift = Tensor(rng.standard_normal(4), name="shift")  # frozen

    def loss():
        # ``hub`` is read directly and again three frozen-weight layers
        # further down, so the two paths to it differ in depth; the
        # broadcasting (3, 1) and (4,) leaves cover both sum-down cases.
        hub = P.add(P.mul(x, col), row)
        deep = hub
        for _ in range(3):
            deep = P.gelu(P.add(P.matmul(deep, w), shift))
        return P.reduce_sum(P.mul(P.add(hub, deep), P.sub(hub, shift)))

    out = loss()
    calls = {}
    for node in _reachable(out):
        if node.vjp is not None:
            def counted(g, node=node, vjp=node.vjp):
                calls[node] = calls.get(node, 0) + 1
                return vjp(g)
            node.vjp = counted
    grads = backward(out)
    assert calls and set(calls.values()) == {1}
    assert len(grads) == 3 and set(grads) == {x, col, row}
    assert all(grads[leaf].shape == leaf.shape for leaf in (x, col, row))
    assert_grads_match(loss, [x, col, row])


def test_repr_tells_params_tape_nodes_and_constants_apart():
    w = Tensor(np.ones((2, 3)), trainable=True, name="w")
    frozen = Tensor(np.ones((3, 4)), name="frozen")
    assert repr(w) == "Tensor 'w'(param, shape=(2, 3))"
    assert repr(frozen) == "Tensor 'frozen'(const, shape=(3, 4))"
    assert repr(P.matmul(w, frozen)) == "Tensor 'matmul'(node, shape=(2, 4))"


def test_gradients_match_finite_differences_per_kernel():
    rng = _rng(9)
    x = Tensor(rng.standard_normal((3, 4)), trainable=True)
    w = Tensor(rng.standard_normal((4, 5)), trainable=True)
    bias = Tensor(rng.standard_normal(5), trainable=True)

    assert_grads_match(lambda: P.reduce_sum(P.mul(P.matmul(x, w), P.matmul(x, w))), [x, w])
    assert_grads_match(lambda: P.reduce_mean(P.add(P.matmul(x, w), bias)), [x, w, bias])
    assert_grads_match(lambda: P.reduce_sum(P.softmax(x, axis=1)), [x])
    ramp = Tensor(np.arange(12.0).reshape(3, 4))
    assert_grads_match(lambda: P.reduce_sum(P.mul(P.softmax(x, axis=1), ramp)), [x])
    assert_grads_match(lambda: P.reduce_sum(P.log_softmax(x, axis=0)), [x])
    assert_grads_match(lambda: P.reduce_sum(P.gelu(x)), [x])
    assert_grads_match(lambda: P.reduce_sum(P.l2_normalize(x)), [x])

    # The attention and cross-layer checks draw from their own generator,
    # so a change to the checks above cannot move their inputs. The
    # attention's softmax is stiff: at the default step, 23 of 80
    # attention checks over 40 seeds missed the tolerance; at 1e-4, one
    # did, on a 1e-9 gradient component where the difference quotient's
    # rounding error (about 2e-11) exceeds the absolute floor.
    rng = _rng(18)
    prefix = Tensor(rng.standard_normal((2, 4)), trainable=True)
    state = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    weights = [rng.standard_normal((4, 4)) for _ in range(4)]
    for cls_only, rows in ((False, 3), (True, 1)):
        probe = Tensor(rng.standard_normal((2, rows, 4)))
        assert_grads_match(
            lambda: P.reduce_sum(P.mul(
                T.prompted_attention(prefix, state, *weights, 2, cls_only), probe)),
            [prefix, state], step=1e-4,
        )

    tokens = Tensor(rng.standard_normal((2, 4)), trainable=True)
    history = [Tensor(rng.standard_normal((2, 4)), trainable=True) for _ in range(3)]
    query = Tensor(rng.standard_normal(4), trainable=True)
    probe2 = Tensor(rng.standard_normal((2, 4)))
    assert_grads_match(
        lambda: P.reduce_sum(P.mul(apply_cross_layer(tokens, history, query), probe2)),
        [tokens, query, *history],
    )

    # The encoder's MLP sublayer, on its own generator too, with weights
    # at the backbone's scale. Over 40 seeds of these draws the worst
    # relative error is 4.4e-6 at step 1e-4; at the default step, or
    # with unit-scale weights, some seeds miss the tolerance.
    rng = _rng(19)
    rows = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    w1, w2 = rng.standard_normal((4, 8)) * 4**-0.5, rng.standard_normal((8, 4)) * 8**-0.5
    probe3 = Tensor(rng.standard_normal((2, 3, 4)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(_mlp(rows, w1, w2), probe3)), [rows],
                       step=1e-4)


def test_gradients_match_finite_differences_composites():
    rng = _rng(10)
    x = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    # A plain sum of layer-norm rows is constant, so a probe weights them.
    ln_probe = Tensor(rng.standard_normal((2, 3, 4)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(P.layernorm(x), ln_probe)), [x])

    a = Tensor(rng.standard_normal(6) + 3.0, trainable=True)  # keep relu/abs off kinks
    b = Tensor(rng.standard_normal(6) - 3.0, trainable=True)
    assert_grads_match(lambda: P.reduce_sum(P.relu(P.mul(a, a))), [a])
    assert_grads_match(lambda: P.reduce_sum(P.abs_value(b)), [b])

    m = Tensor(rng.standard_normal((4, 3)), trainable=True)
    idx = np.array([0, 2, 1, 2])
    assert_grads_match(lambda: P.reduce_mean(P.take_per_row(m, idx)), [m])

    p = Tensor(rng.standard_normal((2, 4)), trainable=True)
    q = Tensor(rng.standard_normal((3, 4)), trainable=True)

    def stitched():
        joined = concat([P.reshape(p, (1, 2, 4)), P.reshape(q, (1, 3, 4))], axis=1)
        sliced = slice_axis(joined, 1, 1, 5)
        return P.reduce_sum(P.mul(sliced, sliced))

    assert_grads_match(stitched, [p, q])
    tiled_probe = Tensor(rng.standard_normal((3, 2, 4)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(tile_leading(p, 3), tiled_probe)), [p])

    s = Tensor(rng.standard_normal((3, 2, 3)), trainable=True)
    probe = Tensor(rng.standard_normal((3, 2, 3)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(swap_axes(s, 0, 2), probe)), [s])

    h = Tensor(rng.standard_normal((2, 3, 4)), trainable=True)
    wh = Tensor(rng.standard_normal((4, 6)))
    probe4 = Tensor(rng.standard_normal((2, 2, 3, 3)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(project_heads(h, wh, 2), probe4)), [h])
    heads4 = Tensor(rng.standard_normal((2, 2, 3, 3)), trainable=True)
    wm = Tensor(rng.standard_normal((6, 4)))
    probe3 = Tensor(rng.standard_normal((2, 3, 4)))
    assert_grads_match(lambda: P.reduce_sum(P.mul(merge_heads(heads4, wm), probe3)), [heads4])
    prefix = Tensor(rng.standard_normal((2, 4)), trainable=True)
    probe5 = Tensor(rng.standard_normal((2, 2, 5, 3)))
    assert_grads_match(
        lambda: P.reduce_sum(P.mul(project_prefixed_heads(prefix, h, wh, 2), probe5)), [prefix, h]
    )


# ---------------------------------------------------------------------------
# no dead kernels


def test_every_exported_kernel_is_used_by_the_package():
    # Each name in ``tensor.__all__`` must be read somewhere else in the
    # package, as ``T.<name>`` or through ``from .tensor import``.
    package = Path(T.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tensor":
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "T"):
                used.add(node.attr)
    assert sorted(set(T.__all__) - used) == []
