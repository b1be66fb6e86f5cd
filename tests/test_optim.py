"""AdamW oracles: closed-form single steps and a frozen trajectory."""

from __future__ import annotations

import math

import numpy as np

from fedfairprompt.optim import adamw_init, adamw_step


def test_zero_gradient_applies_pure_decay():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    state = adamw_init(params)
    new, state = adamw_step(params, {"w": np.zeros(3)}, state, lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(new["w"], params["w"] * (1.0 - 0.1 * 0.01), rtol=1e-15)
    assert state.step == 1


def test_first_step_is_signed_lr_when_eps_vanishes():
    params = {"w": np.array([3.0, -4.0])}
    grads = {"w": np.array([0.7, -0.2])}
    new, _ = adamw_step(params, grads, adamw_init(params), lr=0.05, eps=1e-16, weight_decay=0.0)
    # Bias-corrected first step: m_hat = g, v_hat = g^2 -> update = -lr*sign(g).
    np.testing.assert_allclose(new["w"], params["w"] - 0.05 * np.sign(grads["w"]), atol=1e-12)


def test_weight_decay_zero_matches_plain_adam_reference():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(5)
    params = {"w": theta.copy()}
    state = adamw_init(params)
    m = np.zeros(5)
    v = np.zeros(5)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    ref = theta.copy()
    for t in range(1, 6):
        g = rng.standard_normal(5)
        params, state = adamw_step(params, {"w": g}, state, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params["w"], ref, rtol=1e-12, atol=1e-12)


def test_quadratic_descent_trajectory_frozen_value():
    # f(x) = 0.5*x^2, grad = x; 10 steps from 1.0 with the defaults below.
    params = {"x": np.array([1.0])}
    state = adamw_init(params)
    for _ in range(10):
        params, state = adamw_step(params, {"x": params["x"].copy()}, state, lr=0.1)
    assert abs(params["x"][0] - 0.0716955020745644) < 1e-15

    # Dual route: the same trajectory from a pure-python scalar loop.
    theta, m, v = 1.0, 0.0, 0.0
    lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 11):
        g = theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps) - lr * wd * theta
    assert abs(params["x"][0] - theta) < 1e-15


def test_step_is_pure_functional():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.3, -0.1])}
    state = adamw_init(params)
    before = params["w"].copy()
    new, new_state = adamw_step(params, grads, state, lr=0.1)
    assert np.array_equal(params["w"], before)
    assert state.step == 0 and new_state.step == 1
    assert not np.array_equal(new["w"], before)
