"""AdamW oracles: closed-form single steps and a frozen trajectory."""

from __future__ import annotations

import math

import numpy as np

from fedfairprompt.optim import BETA1, BETA2, EPS, WEIGHT_DECAY, adamw_step


def test_zero_gradient_applies_pure_decay():
    before = np.array([1.0, -2.0, 0.5])
    p, m, v = before.copy(), np.zeros(3), np.zeros(3)
    adamw_step(p, np.zeros(3), m, v, 1, 0.1)
    np.testing.assert_allclose(p, before * (1.0 - 0.1 * WEIGHT_DECAY), rtol=1e-15)
    assert not m.any() and not v.any()


def test_first_step_is_closed_form():
    # Bias-corrected first step: m_hat = g, v_hat = g^2, so the Adam part
    # is lr * g / (|g| + EPS), about lr * sign(g); the decay reads the old p.
    before, g = np.array([3.0, -4.0]), np.array([0.7, -0.2])
    p = before.copy()
    adamw_step(p, g, np.zeros(2), np.zeros(2), 1, 0.05)
    want = before - 0.05 * g / (np.abs(g) + EPS) - 0.05 * WEIGHT_DECAY * before
    np.testing.assert_allclose(p, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p, before - 0.05 * np.sign(g) - 0.05 * WEIGHT_DECAY * before,
                               rtol=0, atol=1e-8)


def test_matches_an_adam_reference_with_decoupled_decay():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(5)
    p, m, v = theta.copy(), np.zeros(5), np.zeros(5)
    ref, ref_m, ref_v = theta.copy(), np.zeros(5), np.zeros(5)
    lr = 0.01
    for t in range(1, 6):
        g = rng.standard_normal(5)
        adamw_step(p, g, m, v, t, lr)
        ref_m = BETA1 * ref_m + (1 - BETA1) * g
        ref_v = BETA2 * ref_v + (1 - BETA2) * g * g
        adam = lr * (ref_m / (1 - BETA1**t)) / (np.sqrt(ref_v / (1 - BETA2**t)) + EPS)
        ref = ref - adam - lr * WEIGHT_DECAY * ref
        np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m, ref_m, rtol=1e-15)
        np.testing.assert_allclose(v, ref_v, rtol=1e-15)


def test_quadratic_descent_trajectory_frozen_value():
    # f(x) = 0.5*x^2, grad = x; 10 steps from 1.0 at lr 0.1.
    x, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
    for t in range(1, 11):
        adamw_step(x, x.copy(), m, v, t, 0.1)
    assert abs(x[0] - 0.0716955020745644) < 1e-15

    # Dual route: the same trajectory from a pure-python scalar loop.
    theta, m1, v1 = 1.0, 0.0, 0.0
    lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 11):
        g = theta
        m1 = b1 * m1 + (1 - b1) * g
        v1 = b2 * v1 + (1 - b2) * g * g
        theta = theta - lr * (m1 / (1 - b1**t)) / (math.sqrt(v1 / (1 - b2**t)) + eps) - lr * wd * theta
    assert abs(x[0] - theta) < 1e-15


def test_a_step_on_views_writes_only_their_rows_bit_for_bit():
    # What the lockstep does: step rows 1..2 of a stack of three through
    # views. Those rows match a step on standalone copies exactly; row 0
    # and its moments are untouched.
    rng = np.random.default_rng(1)
    stack, g = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
    m, v = rng.standard_normal((3, 4)) * 0.1, rng.random((3, 4)) * 0.1
    lone = [a[1:].copy() for a in (stack, m, v)]
    before = [a.copy() for a in (stack, m, v)]
    adamw_step(stack[1:], g, m[1:], v[1:], 3, 0.02)
    adamw_step(lone[0], g, lone[1], lone[2], 3, 0.02)
    for got, want, old in zip((stack, m, v), lone, before):
        assert np.array_equal(got[1:], want)
        assert np.array_equal(got[0], old[0])
        assert not np.array_equal(got[1:], old[1:])


def test_a_step_on_joined_arrays_equals_a_step_on_each_bit_for_bit():
    # What one prompt vector does: its seven leaves' spans take one step
    # on the joined gradient, with the values per-leaf steps would give.
    rng = np.random.default_rng(2)
    sizes = [64] * 4 + [32] * 3
    leaves = [[rng.standard_normal(n) * s for n in sizes] for s in (1.0, 1.0, 0.1)]
    leaves.append([rng.random(n) * 0.1 for n in sizes])  # p, g, m, v
    joined = [np.concatenate(arrays) for arrays in leaves]
    for step in (1, 4):
        adamw_step(*joined, step, 0.03)
        for p, g, m, v in zip(*leaves):
            adamw_step(p, g, m, v, step, 0.03)
    for got, arrays in zip(joined, leaves):
        assert np.array_equal(got, np.concatenate(arrays))
