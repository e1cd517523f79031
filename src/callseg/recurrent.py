"""GRU and LSTM layers over full sequences, with backpropagation through time.

Conventions (one bias vector per gate, no separate recurrent bias):

GRU:   z = sigmoid(x Wz + h Uz + bz)
       r = sigmoid(x Wr + h Ur + br)
       c = tanh(x Wc + (r * h) Uc + bc)      # reset applied before Uc
       h' = (1 - z) * h + z * c

LSTM:  i, f, o = sigmoid gates; g = tanh candidate
       c' = f * c + i * g
       h' = o * tanh(c')

Input-side matrices are Glorot-uniform, recurrent matrices orthogonal,
biases zero. Sequences are (T, F) rows; hidden output is (T, H); the state
starts at zero.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, StateError
from .layers import glorot_uniform, orthogonal


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _Recurrent:
    """GRU/LSTM base: per gate a ``w``, ``u`` and ``b`` array, drawn in ``param_names`` order."""

    def __init__(self, in_features, hidden, rng, dtype=np.float32):
        self.in_features = in_features
        self.hidden = hidden
        init = {
            "w": lambda: glorot_uniform((in_features, hidden), in_features, hidden, rng, dtype),
            "u": lambda: orthogonal(hidden, rng, dtype),
            "b": lambda: np.zeros(hidden, dtype=dtype),
        }
        for name in self.param_names:
            setattr(self, name, init[name[0]]())
        self.grads = {n: np.zeros_like(getattr(self, n)) for n in self.param_names}
        self._cache = None

    def _sequence(self, xs):
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.in_features:
            raise ShapeError(f"expected (T, {self.in_features}) inputs, got {xs.shape}")
        return xs


class GRULayer(_Recurrent):
    """Single GRU layer; parameter count is 3*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "zrc")

    def forward(self, xs: np.ndarray, training=False, rng=None) -> np.ndarray:
        """Run the recurrence over (T, F) inputs; returns all T hidden states."""
        xs = self._sequence(xs)
        h = np.zeros(self.hidden, dtype=self.wz.dtype)

        steps = []
        hs = np.empty((xs.shape[0], self.hidden), dtype=self.wz.dtype)
        for t in range(xs.shape[0]):
            x = xs[t]
            z = _sigmoid(x @ self.wz + h @ self.uz + self.bz)
            r = _sigmoid(x @ self.wr + h @ self.ur + self.br)
            c = np.tanh(x @ self.wc + (r * h) @ self.uc + self.bc)
            h_new = (1.0 - z) * h + z * c
            steps.append((x, h, z, r, c))
            hs[t] = h_new
            h = h_new
        self._cache = steps
        return hs

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """BPTT given a gradient for every hidden state; returns input gradients."""
        if self._cache is None:
            raise StateError("GRU backward called before forward")
        steps = self._cache
        T = len(steps)
        dxs = np.empty((T, self.in_features), dtype=self.wz.dtype)
        dh = np.zeros(self.hidden, dtype=self.wz.dtype)
        g = self.grads
        for t in range(T - 1, -1, -1):
            x, h_prev, z, r, c = steps[t]
            dh = dh + grad_hs[t]

            dz = dh * (c - h_prev)
            dc = dh * z
            dac = dc * (1.0 - c * c)
            drh = dac @ self.uc.T
            dr = drh * h_prev
            daz = dz * z * (1.0 - z)
            dar = dr * r * (1.0 - r)

            g["wz"] += np.outer(x, daz)
            g["wr"] += np.outer(x, dar)
            g["wc"] += np.outer(x, dac)
            g["uz"] += np.outer(h_prev, daz)
            g["ur"] += np.outer(h_prev, dar)
            g["uc"] += np.outer(r * h_prev, dac)
            g["bz"] += daz
            g["br"] += dar
            g["bc"] += dac

            dxs[t] = daz @ self.wz.T + dar @ self.wr.T + dac @ self.wc.T
            dh = dh * (1.0 - z) + drh * r + daz @ self.uz.T + dar @ self.ur.T
        return dxs


class LSTMLayer(_Recurrent):
    """Single LSTM layer; parameter count is 4*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "ifgo")

    def forward(self, xs, training=False, rng=None):
        xs = self._sequence(xs)
        dtype = self.wi.dtype
        h = np.zeros(self.hidden, dtype=dtype)
        c = np.zeros(self.hidden, dtype=dtype)

        steps = []
        hs = np.empty((xs.shape[0], self.hidden), dtype=dtype)
        for t in range(xs.shape[0]):
            x = xs[t]
            i = _sigmoid(x @ self.wi + h @ self.ui + self.bi)
            f = _sigmoid(x @ self.wf + h @ self.uf + self.bf)
            gc = np.tanh(x @ self.wg + h @ self.ug + self.bg)
            o = _sigmoid(x @ self.wo + h @ self.uo + self.bo)
            c_new = f * c + i * gc
            tc = np.tanh(c_new)
            h_new = o * tc
            steps.append((x, h, c, i, f, gc, o, tc))
            hs[t] = h_new
            h, c = h_new, c_new
        self._cache = steps
        return hs

    def backward(self, grad_hs):
        if self._cache is None:
            raise StateError("LSTM backward called before forward")
        steps = self._cache
        T = len(steps)
        dtype = self.wi.dtype
        dxs = np.empty((T, self.in_features), dtype=dtype)
        dh = np.zeros(self.hidden, dtype=dtype)
        dc = np.zeros(self.hidden, dtype=dtype)
        g = self.grads
        for t in range(T - 1, -1, -1):
            x, h_prev, c_prev, i, f, gc, o, tc = steps[t]
            dh = dh + grad_hs[t]

            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * gc
            df = dc * c_prev
            dg = dc * i

            dai = di * i * (1.0 - i)
            daf = df * f * (1.0 - f)
            dag = dg * (1.0 - gc * gc)
            dao = do * o * (1.0 - o)

            g["wi"] += np.outer(x, dai)
            g["wf"] += np.outer(x, daf)
            g["wg"] += np.outer(x, dag)
            g["wo"] += np.outer(x, dao)
            g["ui"] += np.outer(h_prev, dai)
            g["uf"] += np.outer(h_prev, daf)
            g["ug"] += np.outer(h_prev, dag)
            g["uo"] += np.outer(h_prev, dao)
            g["bi"] += dai
            g["bf"] += daf
            g["bg"] += dag
            g["bo"] += dao

            dxs[t] = dai @ self.wi.T + daf @ self.wf.T + dag @ self.wg.T + dao @ self.wo.T
            dh = dai @ self.ui.T + daf @ self.uf.T + dag @ self.ug.T + dao @ self.uo.T
            dc = dc * f
        return dxs
