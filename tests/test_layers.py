import math

import numpy as np
import numpy.testing as npt
import pytest

from callseg.errors import ConfigError, LabelError, NumericError, ShapeError, StateError
from callseg.layers import (
    Conv2d,
    Dense,
    Dropout,
    MaxPool2d,
    cross_entropy,
    elu,
    softmax,
)
from callseg.model import ModelConfig, build_crnn


def reference_conv2d(x, kernels, bias):
    """Direct nested-loop same convolution, the brute-force oracle."""
    c_out, c_in, _, _ = kernels.shape
    _, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = bias[co]
                for ci in range(c_in):
                    for a in range(3):
                        for b in range(3):
                            acc += padded[ci, i + a, j + b] * kernels[co, ci, a, b]
                out[co, i, j] = acc
    return out


def reference_maxpool(x, kernel):
    """Brute-force window enumeration with ceil-mode edges."""
    kh, kw = kernel
    c, h, w = x.shape
    h_out, w_out = -(-h // kh), -(-w // kw)
    out = np.empty((c, h_out, w_out), dtype=x.dtype)
    for ch in range(c):
        for i in range(h_out):
            for j in range(w_out):
                out[ch, i, j] = x[ch, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw].max()
    return out


def conv_layer(kernels, bias):
    """A float64 Conv2d holding the given (C_out, C_in, 3, 3) kernels and bias."""
    layer = Conv2d(kernels.shape[1], kernels.shape[0], np.random.default_rng(0), dtype=np.float64)
    layer.kernels[...] = kernels
    layer.bias[...] = bias
    return layer


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 6, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        npt.assert_allclose(conv_layer(k, np.zeros(1)).forward(x), x)

    def test_all_ones_kernel_on_ones_input(self):
        x = np.ones((1, 5, 5))
        out = conv_layer(np.ones((1, 1, 3, 3)), np.zeros(1)).forward(x)[0]
        assert out[2, 2] == 9
        assert out[0, 0] == out[0, 4] == out[4, 0] == out[4, 4] == 4
        assert out[0, 2] == out[2, 0] == out[2, 4] == out[4, 2] == 6

    def test_zero_input_gives_bias(self):
        bias = np.array([1.5, -2.0])
        layer = conv_layer(np.random.default_rng(1).standard_normal((2, 3, 3, 3)), bias)
        out = layer.forward(np.zeros((3, 4, 4)))
        npt.assert_allclose(out[0], 1.5)
        npt.assert_allclose(out[1], -2.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        npt.assert_allclose(conv_layer(k, b).forward(x), reference_conv2d(x, k, b), atol=1e-12)

    def test_channel_mismatch(self):
        layer = conv_layer(np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((3, 4)))


class TestMaxPool:
    def test_single_window_is_global_max(self):
        x = np.arange(9, dtype=float).reshape(1, 3, 3)
        out = MaxPool2d((3, 3)).forward(x)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 8

    def test_ramp_ceil_mode(self):
        x = np.arange(25, dtype=float).reshape(1, 5, 5)
        out = MaxPool2d((3, 3)).forward(x)
        npt.assert_array_equal(out[0], [[12, 14], [22, 24]])

    def test_conv_stack_pool_chain(self):
        shape = (96, 1000)
        for kernel in [(2, 2), (3, 3), (4, 2), (4, 2)]:
            shape = (-(-shape[0] // kernel[0]), -(-shape[1] // kernel[1]))
        assert shape == (1, 42)

    @pytest.mark.parametrize("shape,kernel", [((2, 7, 9), (3, 3)), ((1, 5, 5), (2, 2)), ((3, 4, 10), (4, 2))])
    def test_matches_bruteforce_oracle(self, shape, kernel):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        out = MaxPool2d(kernel).forward(x)
        npt.assert_array_equal(out, reference_maxpool(x, kernel))

    def test_tie_breaks_to_first_row_major(self):
        pool = MaxPool2d((3, 3))
        pool.forward(np.ones((1, 3, 3)))
        dx = pool.backward(np.ones((1, 1, 1)))
        # the whole gradient lands at window position 0
        assert dx[0, 0, 0] == 1 and np.count_nonzero(dx) == 1

    def test_backward_routes_and_conserves_mass(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 7, 9))
        pool = MaxPool2d((3, 3))
        out = pool.forward(x)
        g = rng.standard_normal(out.shape)
        dx = pool.backward(g)
        assert dx.shape == x.shape
        npt.assert_allclose(dx.sum(), g.sum(), atol=1e-12)
        # exactly one receiving position per window
        assert np.count_nonzero(dx) == g.size


class TestDropout:
    def test_inference_identity(self):
        x = np.random.default_rng(0).standard_normal((10, 10))
        layer = Dropout(0.5)
        out = layer.forward(x, training=False, rng=None)
        npt.assert_array_equal(out, x)
        g = np.ones_like(x)
        assert layer.backward(g) is g  # no mask was drawn

    def test_p_zero_identity_in_training(self):
        x = np.ones((4, 4))
        out = Dropout(0.0).forward(x, training=True, rng=np.random.default_rng(0))
        npt.assert_array_equal(out, x)

    def test_zero_fraction_and_survivor_scaling(self):
        p = 0.1
        rng = np.random.default_rng(42)
        x = np.ones(200_000)
        out = Dropout(p).forward(x, training=True, rng=rng)
        zero_fraction = np.mean(out == 0)
        sigma = math.sqrt(p * (1 - p) / x.size)
        assert abs(zero_fraction - p) < 3 * sigma
        # inverted dropout keeps the expected value: mean(out) ~ mean(x)
        assert abs(out.mean() - 1.0) < 0.01
        npt.assert_allclose(out[out != 0], 1.0 / (1 - p))

    def test_bad_probability(self):
        for p in (1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                Dropout(p)

    def test_training_requires_rng(self):
        with pytest.raises(StateError):
            Dropout(0.5).forward(np.zeros(3), training=True, rng=None)


def dense_softmax(h, weights, bias):
    """Softmax of a Dense layer holding ``weights`` and ``bias``, the model's head."""
    layer = Dense(*weights.shape, np.random.default_rng(0), dtype=np.float64)
    layer.weights[...] = weights
    layer.bias[...] = bias
    return softmax(layer.forward(h))


class TestDenseSoftmax:
    def test_zero_head_two_classes(self):
        probs = dense_softmax(np.random.default_rng(0).standard_normal(5), np.zeros((5, 2)), np.zeros(2))
        npt.assert_allclose(probs, [0.5, 0.5])

    def test_zero_logits_four_classes(self):
        probs = dense_softmax(np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        npt.assert_allclose(probs, [0.25, 0.25, 0.25, 0.25])

    def test_large_logit_stability(self):
        w = np.array([[1000.0], [0.0]]).reshape(2, 1) @ np.array([[1.0, 0.0]])
        probs = dense_softmax(np.array([1.0, 0.0]), w, np.zeros(2))
        assert np.all(np.isfinite(probs))
        # 64-bit oracle on the shifted logits
        expected = np.exp([0.0, -1000.0]) / np.exp([0.0, -1000.0]).sum()
        npt.assert_allclose(probs, expected)

    def test_sum_law_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = rng.standard_normal(6)
            w = rng.standard_normal((6, 4))
            b = rng.standard_normal(4)
            probs = dense_softmax(h, w, b)
            assert np.all(probs > 0)
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_softmax_preserves_logit_ranking(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = rng.standard_normal(5)
            w = rng.standard_normal((5, 4))
            b = rng.standard_normal(4)
            probs = dense_softmax(h, w, b)
            assert int(np.argmax(probs)) == int(np.argmax(h @ w + b))

    def test_nonfinite_logits(self):
        with pytest.raises(NumericError):
            dense_softmax(np.array([np.inf, 1.0]), np.eye(2), np.zeros(2))

    def test_single_output_rejected(self):
        with pytest.raises(ConfigError):
            dense_softmax(np.zeros(3), np.zeros((3, 1)), np.zeros(1))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_even_split(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_batch_mean_is_mean_of_losses(self):
        a = cross_entropy(np.array([0.9, 0.1]), 0)
        b = cross_entropy(np.array([0.2, 0.8]), 1)
        assert np.mean([a, b]) == pytest.approx((a + b) / 2)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(LabelError):
            cross_entropy(np.array([0.5, 0.5]), -1)

    def test_floor_keeps_loss_finite(self):
        assert np.isfinite(cross_entropy(np.array([1.0, 0.0]), 1))


# ---------------------------------------------------------------------------
# golden tests: the conv blocks pool before the activation, and pool by
# strided slices, and must reproduce activation-then-pool exactly

def old_elu(x):
    """ELU in its np.where form, the reference for the np.maximum form."""
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


ACTIVATIONS = {"elu": old_elu, "relu": lambda x: np.maximum(x, 0), "linear": lambda x: x}


def reference_forward(model, features, activation):
    """Activation-then-pool forward with the brute-force pool, dropout off."""
    out = np.asarray(features, dtype=model.dtype)[None, :, :]
    for conv, _act, pool, _drop in model.blocks:
        out = reference_maxpool(ACTIVATIONS[activation](conv.forward(out)), pool.kernel)
    hs1 = model.rnn1.forward(out[:, 0, :].T)
    return softmax(model.head.forward(model.rnn2.forward(hs1)[-1]))


def reference_maxpool_backward(x, grad_out, kernel):
    """Route each gradient to the window's first max in row-major order."""
    kh, kw = kernel
    dx = np.zeros_like(x)
    for ch, i, j in np.ndindex(grad_out.shape):
        window = x[ch, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw]
        a, b = np.unravel_index(np.argmax(window), window.shape)
        dx[ch, i * kh + a, j * kw + b] = grad_out[ch, i, j]
    return dx


@pytest.mark.parametrize("activation", ["elu", "relu", "linear"])
def test_model_forward_matches_activation_then_pool(activation):
    config = ModelConfig(conv_filters=(4, 4, 4, 3), rnn_hidden=(5, 4), input_shape=(96, 41),
                         conv_activation=activation)
    model = build_crnn(config, seed=3)
    rng = np.random.default_rng(5)
    for scale in (1.0, 30.0):  # 30: deep ELU saturation, many tied outputs
        x = (scale * rng.standard_normal((96, 41))).astype(np.float32)
        probs = model.forward(x)
        assert np.array_equal(probs, reference_forward(model, x, activation))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_matches_where_formula_on_edge_values(dtype):
    info = np.finfo(dtype)
    x = np.array(
        [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, -info.tiny / 3,
         info.tiny, -info.tiny, -1e-8, 1e-8, -0.5, -20.0, -1e4, info.max, info.min,
         np.inf, -np.inf, np.nan],
        dtype=dtype,
    )
    x = np.concatenate([x, np.linspace(-30, 5, 2001, dtype=dtype)])
    new, old = elu(x), old_elu(x)
    assert new.dtype == old.dtype == dtype
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


POOL_CASES = [((2, 7, 9), (3, 3)), ((3, 5, 11), (4, 2)), ((2, 5, 5), (2, 2)), ((1, 2, 3), (4, 2))]


def reference_first_max(x, kernel):
    """Each window's value at its np.argmax position, signed zeros included."""
    kh, kw = kernel
    c, h, w = x.shape
    out = np.empty((c, -(-h // kh), -(-w // kw)), dtype=x.dtype)
    for ch, i, j in np.ndindex(out.shape):
        window = x[ch, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw]
        out[ch, i, j] = window.flat[np.argmax(window)]
    return out


@pytest.mark.parametrize("shape,kernel", POOL_CASES)
@pytest.mark.parametrize("ties", [False, True])
def test_pool_layer_backward_matches_argmax_routing(shape, kernel, ties):
    rng = np.random.default_rng(len(shape) + sum(shape))
    # ties: values from {-0.0, 0.0, 1.0}, so most windows hold their max twice
    # or more, and the first of two tied zeros decides the pooled zero's sign
    x = rng.choice([-0.0, 0.0, 1.0], shape) if ties else rng.standard_normal(shape)
    layer = MaxPool2d(kernel)
    out = layer.forward(x)
    g = rng.standard_normal(out.shape)
    dx = layer.backward(g)
    assert np.array_equal(out, reference_maxpool(x, kernel))
    assert np.array_equal(np.signbit(out), np.signbit(reference_first_max(x, kernel)))
    assert np.array_equal(dx, reference_maxpool_backward(x, g, kernel))


def test_pool_argmax_follows_first_nan_like_argmax():
    x = np.array([[[1.0, np.nan, 5.0], [np.nan, 2.0, 0.0]]])
    pool = MaxPool2d((2, 2))
    out = pool.forward(x)
    assert np.isnan(out[0, 0, 0]) and out[0, 0, 1] == 5.0
    dx = pool.backward(np.ones((1, 1, 2)))
    # window 0 routes to its first NaN, position 1; window 1 to position 0
    npt.assert_array_equal(dx, [[[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]])
    npt.assert_array_equal(dx, reference_maxpool_backward(x, np.ones((1, 1, 2)), (2, 2)))
