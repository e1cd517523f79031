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


# ---------------------------------------------------------------------------
# golden reference: the per-gate, per-step recurrences with per-step gradient
# accumulation, against which the gate-major, hoisted layers are held to
# max |new - ref| / max |ref| <= GOLDEN_TOL[dtype]

GOLDEN_TOL = {np.float32: 1e-5, np.float64: 1e-12}


def _ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru(p, xs, grad_hs):
    T, H = xs.shape[0], p["uz"].shape[0]
    h, steps, hs = np.zeros(H), [], np.zeros((T, H))
    for t in range(T):
        x = xs[t]
        z = _ref_sigmoid(x @ p["wz"] + h @ p["uz"] + p["bz"])
        r = _ref_sigmoid(x @ p["wr"] + h @ p["ur"] + p["br"])
        c = np.tanh(x @ p["wc"] + (r * h) @ p["uc"] + p["bc"])
        steps.append((x, h, z, r, c))
        h = hs[t] = (1.0 - z) * h + z * c
    g = {n: np.zeros_like(v) for n, v in p.items()}
    dxs, dh = np.zeros_like(xs), np.zeros(H)
    for t in range(T - 1, -1, -1):
        x, h_prev, z, r, c = steps[t]
        dh = dh + grad_hs[t]
        dac = dh * z * (1.0 - c * c)
        drh = dac @ p["uc"].T
        daz = dh * (c - h_prev) * z * (1.0 - z)
        dar = drh * h_prev * r * (1.0 - r)
        for gate, da, state in (("z", daz, h_prev), ("r", dar, h_prev), ("c", dac, r * h_prev)):
            g["w" + gate] += np.outer(x, da)
            g["u" + gate] += np.outer(state, da)
            g["b" + gate] += da
        dxs[t] = daz @ p["wz"].T + dar @ p["wr"].T + dac @ p["wc"].T
        dh = dh * (1.0 - z) + drh * r + daz @ p["uz"].T + dar @ p["ur"].T
    return hs, dxs, g


def reference_lstm(p, xs, grad_hs):
    T, H = xs.shape[0], p["ui"].shape[0]
    h, c, steps, hs = np.zeros(H), np.zeros(H), [], np.zeros((T, H))
    for t in range(T):
        x = xs[t]
        i = _ref_sigmoid(x @ p["wi"] + h @ p["ui"] + p["bi"])
        f = _ref_sigmoid(x @ p["wf"] + h @ p["uf"] + p["bf"])
        gc = np.tanh(x @ p["wg"] + h @ p["ug"] + p["bg"])
        o = _ref_sigmoid(x @ p["wo"] + h @ p["uo"] + p["bo"])
        c_new = f * c + i * gc
        tc = np.tanh(c_new)
        steps.append((x, h, c, i, f, gc, o, tc))
        h, c = o * tc, c_new
        hs[t] = h
    g = {n: np.zeros_like(v) for n, v in p.items()}
    dxs, dh, dc = np.zeros_like(xs), np.zeros(H), np.zeros(H)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, i, f, gc, o, tc = steps[t]
        dh = dh + grad_hs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        das = {
            "i": dc * gc * i * (1.0 - i),
            "f": dc * c_prev * f * (1.0 - f),
            "g": dc * i * (1.0 - gc * gc),
            "o": dh * tc * o * (1.0 - o),
        }
        dxs[t] = sum(da @ p["w" + gate].T for gate, da in das.items())
        dh = sum(da @ p["u" + gate].T for gate, da in das.items())
        for gate, da in das.items():
            g["w" + gate] += np.outer(x, da)
            g["u" + gate] += np.outer(h_prev, da)
            g["b" + gate] += da
        dc = dc * f
    return hs, dxs, g


def assert_golden(new, ref, tol):
    assert new.shape == ref.shape
    err = np.abs(new.astype(np.float64) - ref).max(initial=0.0)
    assert err <= tol * np.abs(ref).max(initial=0.0), (err, np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T", [0, 1, 42])
@pytest.mark.parametrize("cls,reference", [(GRULayer, reference_gru), (LSTMLayer, reference_lstm)])
def test_matches_per_gate_reference(cls, reference, T, dtype):
    # F != H, non-zero biases, and gradients accumulated over two sequences
    F, H = 5, 7
    rng = np.random.default_rng(T)
    layer = cls(F, H, rng, dtype=dtype)
    for name in layer.param_names:
        if name[0] == "b":
            getattr(layer, name)[...] = 0.5 * rng.standard_normal(H)
    p = {n: getattr(layer, n).astype(np.float64) for n in layer.param_names}
    expected = {n: np.zeros_like(v) for n, v in p.items()}
    tol = GOLDEN_TOL[dtype]
    for _ in range(2):
        xs = rng.standard_normal((T, F)).astype(dtype)
        grad_hs = rng.standard_normal((T, H)).astype(dtype)
        hs_ref, dxs_ref, g_ref = reference(p, xs.astype(np.float64), grad_hs.astype(np.float64))
        hs = layer.forward(xs)
        dxs = layer.backward(grad_hs)
        assert hs.dtype == dxs.dtype == dtype
        assert_golden(hs, hs_ref, tol)
        assert_golden(dxs, dxs_ref, tol)
        for name in layer.param_names:
            expected[name] += g_ref[name]
    for name in layer.param_names:
        assert layer.grads[name].dtype == dtype
        assert_golden(layer.grads[name], expected[name], tol)


@pytest.mark.parametrize("cls", [GRULayer, LSTMLayer])
def test_gate_names_are_contiguous_views_of_the_fused_arrays(cls):
    layer = cls(3, 4, np.random.default_rng(0))
    gates = len(layer.param_names) // 3
    assert layer.w.shape == (gates, 3, 4) and layer.u.shape == (gates, 4, 4)
    assert layer.b.shape == (gates, 4)
    for k, name in enumerate(layer.param_names):
        fused, grad = getattr(layer, name[0]), getattr(layer, "d" + name[0])
        view = getattr(layer, name)
        assert np.shares_memory(view, fused) and np.shares_memory(layer.grads[name], grad)
        assert view.flags.c_contiguous and layer.grads[name].flags.c_contiguous
        # a flat write reaches the fused array, as the gradient check relies on
        view.reshape(-1)[0] = 7.0
        layer.grads[name].reshape(-1)[0] = 3.0
        assert fused[k % gates].flat[0] == 7.0 and grad[k % gates].flat[0] == 3.0
