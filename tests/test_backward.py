"""Finite-difference verification of every backward pass, layer by layer."""

import numpy as np
import numpy.testing as npt
import pytest

import callseg
from callseg.errors import NumericError, StateError
from callseg.layers import Activation, Conv2d, Dropout, MaxPool2d, cross_entropy
from callseg.recurrent import GRULayer, LSTMLayer


def fd_param_check(layer, loss_fn, eps=1e-6, tol=1e-6):
    """Central differences on every parameter element of a layer."""
    for grad in layer.grads.values():
        grad[...] = 0.0
    loss_fn(backward=True)
    worst = 0.0
    for name in layer.param_names:
        flat = getattr(layer, name).reshape(-1)
        gflat = layer.grads[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            lp = loss_fn(backward=False)
            flat[i] = saved - eps
            lm = loss_fn(backward=False)
            flat[i] = saved
            numeric = (lp - lm) / (2 * eps)
            worst = max(worst, abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8))
    assert worst < tol, f"{type(layer).__name__}: max relative error {worst}"


def fd_input_check(forward, backward, x, eps=1e-6, tol=1e-6):
    """Central differences on every input element against the returned dx."""
    probe = np.random.default_rng(99).standard_normal(forward(x).shape)
    forward(x)
    dx = backward(probe.copy())
    worst = 0.0
    flat = x.reshape(-1)
    gflat = dx.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        lp = float((forward(x) * probe).sum())
        flat[i] = saved - eps
        lm = float((forward(x) * probe).sum())
        flat[i] = saved
        numeric = (lp - lm) / (2 * eps)
        worst = max(worst, abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8))
    assert worst < tol


rng = np.random.default_rng(12)


def test_conv_gradients():
    layer = Conv2d(2, 3, rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 6))
    probe = rng.standard_normal((3, 5, 6))

    def loss(backward):
        y = layer.forward(x)
        if backward:
            layer.backward(probe.copy())
        return float((y * probe).sum())

    fd_param_check(layer, loss)
    fd_input_check(layer.forward, layer.backward, rng.standard_normal((2, 5, 6)))


def test_activation_gradients():
    for kind in ("elu", "relu", "linear"):
        layer = Activation(kind)
        # keep values away from the relu kink
        x = rng.standard_normal((2, 4, 5))
        x[np.abs(x) < 0.05] = 0.1
        fd_input_check(layer.forward, layer.backward, x)


def test_maxpool_gradients():
    layer = MaxPool2d((3, 3))
    fd_input_check(layer.forward, layer.backward, rng.standard_normal((2, 7, 8)))


def test_gru_gradients():
    layer = GRULayer(4, 3, rng, dtype=np.float64)
    xs = rng.standard_normal((5, 4))
    probe = rng.standard_normal((5, 3))

    def loss(backward):
        hs = layer.forward(xs)
        if backward:
            layer.backward(probe.copy())
        return float((hs * probe).sum())

    fd_param_check(layer, loss)
    fd_input_check(layer.forward, layer.backward, rng.standard_normal((5, 4)))


def test_lstm_gradients():
    layer = LSTMLayer(4, 3, rng, dtype=np.float64)
    xs = rng.standard_normal((6, 4))
    probe = rng.standard_normal((6, 3))

    def loss(backward):
        hs = layer.forward(xs)
        if backward:
            layer.backward(probe.copy())
        return float((hs * probe).sum())

    fd_param_check(layer, loss)
    fd_input_check(layer.forward, layer.backward, rng.standard_normal((6, 4)))


def test_softmax_cross_entropy_combined_gradient_is_probs_minus_onehot():
    config = callseg.ModelConfig(
        conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 4), dropout_p=0.0, input_shape=(12, 20), n_classes=4
    )
    model = callseg.build_crnn(config, seed=2, dtype=np.float64)
    x = rng.standard_normal((12, 20))
    model.zero_grads()
    probs = model.forward(x)
    model.backward(2)
    expected = probs.copy()
    expected[2] -= 1.0
    npt.assert_allclose(model.head.grads["bias"], expected, atol=1e-15)

    def loss(backward):
        p = model.forward(x)
        if backward:
            model.backward(2)
        return cross_entropy(p, 2)

    # the head's input is ~0.01 here, so at eps 1e-6 the central differences
    # of its weight gradients are dominated by rounding; the tolerance stays 1e-6
    fd_param_check(model.head, loss, eps=1e-4)


def test_dropout_backward_uses_stored_mask():
    layer = Dropout(0.4)
    x = rng.standard_normal((8, 8))
    out = layer.forward(x, training=True, rng=np.random.default_rng(0))
    mask = (out != 0).astype(float)
    g = rng.standard_normal((8, 8))
    dx = layer.backward(g)
    npt.assert_allclose(dx, g * mask / 0.6)


def test_dropout_expectation_preserved():
    # E[output] = input under inverted dropout
    x = np.full(50_000, 2.0)
    total = np.zeros_like(x)
    for seed in range(20):
        out = Dropout(0.1).forward(x, training=True, rng=np.random.default_rng(seed))
        total += out
    npt.assert_allclose((total / 20).mean(), 2.0, rtol=0.01)


def test_backward_without_forward_raises():
    config = callseg.ModelConfig(
        conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), dropout_p=0.0, input_shape=(12, 20)
    )
    model = callseg.build_crnn(config, seed=0)
    with pytest.raises(StateError):
        model.backward(0)
    x = np.random.default_rng(0).standard_normal((12, 20)).astype(np.float32)
    model.forward(x)
    model.backward(0)
    with pytest.raises(StateError):  # one backward per forward
        model.backward(0)


def test_failed_forward_leaves_no_probabilities():
    config = callseg.ModelConfig(
        conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), dropout_p=0.0, input_shape=(12, 20)
    )
    model = callseg.build_crnn(config, seed=0)
    x = np.random.default_rng(0).standard_normal((12, 20)).astype(np.float32)
    model.loss(x, 0)  # a forward with no backward
    x[3, 5] = np.nan
    with pytest.raises(NumericError):
        model.forward(x)
    with pytest.raises(StateError):  # the layer caches hold the failed forward
        model.backward(0)


def test_gradients_deterministic_with_dropout_off():
    config = callseg.ModelConfig(
        conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), dropout_p=0.0, input_shape=(12, 20)
    )
    x = np.random.default_rng(1).standard_normal((12, 20)).astype(np.float32)

    def run():
        model = callseg.build_crnn(config, seed=4)
        model.zero_grads()
        model.forward(x)
        return [g.copy() for g in model.backward(1)]

    for a, b in zip(run(), run()):
        npt.assert_array_equal(a, b)
