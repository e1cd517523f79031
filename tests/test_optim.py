import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from callseg.errors import ShapeError
from callseg.optim import AdamState, adam_step


def test_first_step_closed_form():
    theta = np.array([0.5])
    state = AdamState.for_params([theta])
    adam_step([theta], [np.array([1.0])], state)
    # m_hat = v_hat = 1 after bias correction, so delta = -alpha / (1 + eps)
    expected = 0.5 - 1e-3 / (1.0 + 1e-8)
    npt.assert_allclose(theta, [expected], rtol=1e-12)
    assert state.step == 1


def test_zero_gradient_leaves_params_unchanged():
    theta = np.array([1.0, -2.0, 3.0])
    before = theta.copy()
    state = AdamState.for_params([theta])
    adam_step([theta], [np.zeros(3)], state)
    npt.assert_array_equal(theta, before)


def test_two_steps_match_hand_rolled_trace():
    alpha, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.7
    # independent scalar trace
    theta_ref, m, v = 0.2, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta_ref -= alpha * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    theta = np.array([0.2])
    state = AdamState.for_params([theta], alpha=alpha)
    for _ in range(2):
        adam_step([theta], [np.array([g])], state)
    npt.assert_allclose(theta, [theta_ref], rtol=1e-12)


def test_state_holds_only_the_learning_rate_moments_and_step():
    # beta1, beta2 and eps are optim's constants, not per-state settings
    assert [f.name for f in dataclasses.fields(AdamState)] == ["alpha", "m", "v", "step"]


def test_second_moment_stays_nonnegative_and_step_counts():
    rng = np.random.default_rng(0)
    params = [rng.standard_normal((4, 3)), rng.standard_normal(5)]
    state = AdamState.for_params(params)
    for i in range(10):
        grads = [rng.standard_normal(p.shape) for p in params]
        adam_step(params, grads, state)
        assert state.step == i + 1
        assert all(np.all(v >= 0) for v in state.v)


def test_shape_mismatch_rejected():
    theta = np.zeros(3)
    state = AdamState.for_params([theta])
    with pytest.raises(ShapeError):
        adam_step([theta], [np.zeros(4)], state)
    with pytest.raises(ShapeError):
        adam_step([theta, np.zeros(2)], [np.zeros(3)], state)
