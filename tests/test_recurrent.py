import math

import numpy as np
import numpy.testing as npt
import pytest

from callseg.errors import ShapeError
from callseg.layers import glorot_uniform, orthogonal
from callseg.recurrent import GRULayer, LSTMLayer


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def zeroed(layer):
    for name in layer.param_names:
        getattr(layer, name)[...] = 0.0
    return layer


class TestGRU:
    def test_zero_weights_fixed_point(self):
        g = zeroed(GRULayer(3, 4, np.random.default_rng(0), dtype=np.float64))
        hs = g.forward(np.random.default_rng(1).standard_normal((6, 3)))
        npt.assert_array_equal(hs, np.zeros((6, 4)))

    def test_scalar_closed_form_single_step(self):
        # the one-step closed form at every step; step 2 starts from h0 = h1 != 0
        g = GRULayer(1, 1, np.random.default_rng(0), dtype=np.float64)
        wz, wr, wc = 0.4, -0.3, 0.8
        uz, ur, uc = 0.2, 0.5, -0.6
        bz, br, bc = 0.1, -0.2, 0.05
        for name, val in zip(g.param_names, (wz, wr, wc, uz, ur, uc, bz, br, bc)):
            getattr(g, name)[...] = val

        def step(x, h0):
            z = sigmoid(wz * x + uz * h0 + bz)
            r = sigmoid(wr * x + ur * h0 + br)
            c = math.tanh(wc * x + uc * (r * h0) + bc)
            return (1 - z) * h0 + z * c

        xs = [0.9, 0.7]
        h1 = step(xs[0], 0.0)
        hs = g.forward(np.array(xs).reshape(2, 1))
        assert hs[0, 0] == pytest.approx(h1, rel=1e-12)
        assert hs[1, 0] == pytest.approx(step(xs[1], h1), rel=1e-12)

    def test_scalar_closed_form_two_steps(self):
        g = GRULayer(1, 1, np.random.default_rng(5), dtype=np.float64)
        params = {n: getattr(g, n).item() for n in g.param_names}
        xs = [0.25, -0.6]
        h = 0.0
        for x in xs:
            z = sigmoid(params["wz"] * x + params["uz"] * h + params["bz"])
            r = sigmoid(params["wr"] * x + params["ur"] * h + params["br"])
            c = math.tanh(params["wc"] * x + params["uc"] * (r * h) + params["bc"])
            h = (1 - z) * h + z * c
        hs = g.forward(np.array(xs).reshape(2, 1))
        assert hs[1, 0] == pytest.approx(h, rel=1e-12)

    def test_empty_sequence(self):
        g = GRULayer(3, 4, np.random.default_rng(0))
        hs = g.forward(np.zeros((0, 3)))
        assert hs.shape == (0, 4)

    def test_param_count_formula(self):
        g = GRULayer(32, 84, np.random.default_rng(0))
        assert sum(getattr(g, n).size for n in g.param_names) == 3 * (32 * 84 + 84 * 84 + 84)

    def test_shape_mismatch(self):
        g = GRULayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            g.forward(np.zeros((5, 2)))


class TestLSTM:
    def test_zero_weights_fixed_point(self):
        layer = zeroed(LSTMLayer(3, 4, np.random.default_rng(0), dtype=np.float64))
        hs = layer.forward(np.random.default_rng(1).standard_normal((6, 3)))
        npt.assert_array_equal(hs, np.zeros((6, 4)))

    def test_scalar_closed_form_single_step(self):
        # the one-step closed form at every step; step 2 starts from h1, c1 != 0
        layer = LSTMLayer(1, 1, np.random.default_rng(0), dtype=np.float64)
        vals = dict(wi=0.3, wf=-0.4, wg=0.9, wo=0.2, ui=0.1, uf=0.6, ug=-0.5, uo=0.7,
                    bi=0.05, bf=-0.1, bg=0.2, bo=0.0)
        for name, val in vals.items():
            getattr(layer, name)[...] = val

        def step(x, h0, c0):
            i = sigmoid(vals["wi"] * x + vals["ui"] * h0 + vals["bi"])
            f = sigmoid(vals["wf"] * x + vals["uf"] * h0 + vals["bf"])
            g = math.tanh(vals["wg"] * x + vals["ug"] * h0 + vals["bg"])
            o = sigmoid(vals["wo"] * x + vals["uo"] * h0 + vals["bo"])
            c = f * c0 + i * g
            return o * math.tanh(c), c

        xs = [-0.6, 0.8]
        h1, c1 = step(xs[0], 0.0, 0.0)
        hs = layer.forward(np.array(xs).reshape(2, 1))
        assert hs[0, 0] == pytest.approx(h1, rel=1e-12)
        assert hs[1, 0] == pytest.approx(step(xs[1], h1, c1)[0], rel=1e-12)

    def test_param_count_formula(self):
        # the counting identity feeding the model-level LSTM/GRU comparison
        for f, h in [(32, 84), (84, 84), (3, 3)]:
            layer = LSTMLayer(f, h, np.random.default_rng(0))
            assert sum(getattr(layer, n).size for n in layer.param_names) == 4 * (f * h + h * h + h)

    def test_empty_sequence(self):
        layer = LSTMLayer(2, 3, np.random.default_rng(0))
        assert layer.forward(np.zeros((0, 2))).shape == (0, 3)

    def test_shape_mismatch(self):
        layer = LSTMLayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 4)))


@pytest.mark.parametrize("cls,names", [
    (GRULayer, ("wz", "wr", "wc", "uz", "ur", "uc", "bz", "br", "bc")),
    (LSTMLayer, ("wi", "wf", "wg", "wo", "ui", "uf", "ug", "uo", "bi", "bf", "bg", "bo")),
])
def test_parameters_drawn_in_checkpoint_order(cls, names):
    # a seed keeps its initial bits: every w Glorot, then every u orthogonal, zero b
    layer = cls(3, 4, np.random.default_rng(0), dtype=np.float64)
    assert layer.param_names == names
    rng = np.random.default_rng(0)
    for name in names:
        if name[0] == "w":
            expected = glorot_uniform((3, 4), 3, 4, rng, np.float64)
        elif name[0] == "u":
            expected = orthogonal(4, rng, np.float64)
        else:
            expected = np.zeros(4)
        npt.assert_array_equal(getattr(layer, name), expected)
