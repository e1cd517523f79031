import numpy as np
import pytest

import callseg
from callseg.errors import PrecisionError, StateError
from callseg.gradcheck import gradient_check

TINY = dict(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), dropout_p=0.0, input_shape=(12, 50))


def tiny_model(rnn_kind="gru", dtype=np.float64, dropout_p=0.0):
    config = callseg.ModelConfig(rnn_kind=rnn_kind, **{**TINY, "dropout_p": dropout_p})
    return callseg.build_crnn(config, seed=3, dtype=dtype)


def tiny_input():
    return np.random.default_rng(2).standard_normal((12, 50)) * 2.0


def test_tiny_gru_passes():
    assert gradient_check(tiny_model("gru"), tiny_input(), eps=1e-4, label=1) < 1e-4


def test_tiny_lstm_passes():
    assert gradient_check(tiny_model("lstm"), tiny_input(), eps=1e-4, label=1) < 1e-4


@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_batch_of_three_passes(rnn_kind):
    # the summed loss of three samples, whose gradients one batched backward accumulates
    batch = np.random.default_rng(4).standard_normal((3, 12, 50)) * 2.0
    assert gradient_check(tiny_model(rnn_kind), batch, eps=1e-4, label=[1, 0, 1]) < 1e-4


class LinearProbe:
    """No activations anywhere: loss is exactly linear in the parameters."""

    dtype = np.float64

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = rng.standard_normal((6, 4))
        self.bias = rng.standard_normal(4)
        self.readout = rng.standard_normal(4)
        self.grads_ = [np.zeros_like(self.weights), np.zeros_like(self.bias)]
        self._x = None

    def param_arrays(self):
        return [self.weights, self.bias]

    def grad_arrays(self):
        return self.grads_

    def zero_grads(self):
        for g in self.grads_:
            g[...] = 0.0

    def forward(self, x, training=False, rng=None):
        self._x = np.asarray(x)
        return self._x @ self.weights + self.bias

    def backward(self, label):
        self.grads_[0] += np.outer(self._x, self.readout)
        self.grads_[1] += self.readout
        return self.grads_

    def loss(self, x, label, training=False, rng=None):
        return float(self.forward(x) @ self.readout)


def test_linear_network_is_exact():
    probe = LinearProbe()
    x = np.random.default_rng(1).standard_normal(6)
    assert gradient_check(probe, x, eps=1e-4) < 1e-7


def test_float32_model_rejected():
    with pytest.raises(PrecisionError):
        gradient_check(tiny_model(dtype=np.float32), tiny_input())


def test_dropout_enabled_rejected():
    with pytest.raises(StateError):
        gradient_check(tiny_model(dropout_p=0.1), tiny_input())
