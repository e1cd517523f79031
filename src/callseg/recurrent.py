"""GRU and LSTM layers over full sequences, with backpropagation through time.

Conventions (one bias vector per gate, no separate recurrent bias):

GRU:   z = sigmoid(x Wz + h Uz + bz)
       r = sigmoid(x Wr + h Ur + br)
       c = tanh(x Wc + (r * h) Uc + bc)      # reset applied before Uc
       h' = (1 - z) * h + z * c

LSTM:  i, f, o = sigmoid gates; g = tanh candidate
       c' = f * c + i * g
       h' = o * tanh(c')

Parameters are gate-major: ``w`` (G, F, H), ``u`` (G, H, H), ``b`` (G, H),
with gates z, r, c (GRU) or i, f, g, o (LSTM). The per-gate names in
``param_names`` are the contiguous views ``w[k]``, ``u[k]``, ``b[k]``, and
``grads[name]`` views ``dw``, ``du``, ``db`` alike, so an in-place write
through either name reaches the same memory. Each gate is drawn in
``param_names`` order: Glorot-uniform ``w``, orthogonal ``u``, zero ``b``.

Sequences are (N, T, F), hidden output is (N, T, H), and every state
starts at zero. Inside, the layer runs time-major: (T, N, ...) with the
G gates side by side, so each step's rows are contiguous. Forward computes
``xs @ w + b`` for all T steps and N samples in one GEMM before the time
loop, so each step multiplies only the (N, H) states by ``u``; backward's loop
yields only the gate pre-activation gradients, and the weight, bias and
input gradients are products over all steps and samples after it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, StateError
from .layers import glorot_uniform, orthogonal


def _sigmoid(x, out=None):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def _previous(states):
    """The (T, N, H) states before each step: zero, then ``states[:-1]``."""
    prev = np.zeros_like(states)
    prev[1:] = states[:-1]
    return prev


def _side_by_side(a):
    """(G, I, H) gate-major weights as one (I, G*H) matrix, gate g in columns g*H..(g+1)*H."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


class _Recurrent:
    """GRU/LSTM base: gate-major parameters, their per-gate views and the post-loop gradients."""

    def __init__(self, in_features, hidden, rng, dtype=np.float32):
        self.in_features = in_features
        self.hidden = hidden
        gates = len(self.param_names) // 3
        self.w = np.empty((gates, in_features, hidden), dtype=dtype)
        self.u = np.empty((gates, hidden, hidden), dtype=dtype)
        self.b = np.zeros((gates, hidden), dtype=dtype)
        self.dw, self.du, self.db = (np.zeros_like(a) for a in (self.w, self.u, self.b))
        init = {
            "w": lambda: glorot_uniform((in_features, hidden), in_features, hidden, rng, dtype),
            "u": lambda: orthogonal(hidden, rng, dtype),
            "b": lambda: 0.0,
        }
        self.grads = {}
        for k, name in enumerate(self.param_names):
            kind, gate = name[0], k % gates
            getattr(self, kind)[gate] = init[kind]()
            setattr(self, name, getattr(self, kind)[gate])
            self.grads[name] = getattr(self, "d" + kind)[gate]
        self._cache = None

    def _project(self, xs):
        """Time-major (T*N, F) inputs and their (T, N, G, H) gate pre-activations ``x w + b``."""
        xs = np.asarray(xs)
        if xs.ndim != 3 or xs.shape[2] != self.in_features:
            raise ShapeError(f"expected (N, T, {self.in_features}) inputs, got {xs.shape}")
        n, steps = xs.shape[:2]
        rows = xs.transpose(1, 0, 2).reshape(steps * n, self.in_features)
        gates = rows @ _side_by_side(self.w) + self.b.reshape(-1)
        return rows, gates.reshape(steps, n, *self.b.shape)

    def _cached(self):
        if self._cache is None:
            raise StateError(f"{type(self).__name__} backward needs a training forward")
        cache, self._cache = self._cache, None
        return cache

    def _gradients(self, rows, states, da):
        """Accumulate dw, du, db from the (T, N, G, H) pre-activation gradients ``da``.

        ``rows`` are the (T*N, F) inputs and ``states`` what each ``u``
        multiplied, (T*N, H) or (G, T*N, H); returns the (N, T, F) dxs.
        """
        steps, n, gates, hidden = da.shape
        flat = da.reshape(steps * n, gates * hidden)
        self.dw += (rows.T @ flat).reshape(-1, gates, hidden).transpose(1, 0, 2)
        self.du += np.swapaxes(states, -1, -2) @ flat.reshape(-1, gates, hidden).transpose(1, 0, 2)
        self.db += flat.sum(axis=0).reshape(gates, hidden)
        dxs = flat @ _side_by_side(self.w).T
        return dxs.reshape(steps, n, self.in_features).transpose(1, 0, 2)


class GRULayer(_Recurrent):
    """Single GRU layer; parameter count is 3*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "zrc")

    def forward(self, xs: np.ndarray, training=False, rng=None) -> np.ndarray:
        """Run the recurrence over (N, T, F) inputs; returns all (N, T, H) hidden states."""
        rows, gates = self._project(xs)  # pre-activations, overwritten by z, r, c
        steps, n = gates.shape[:2]
        u_zr = _side_by_side(self.u[:2])
        h = np.zeros((n, self.hidden), dtype=self.w.dtype)
        hs = np.empty((steps, n, self.hidden), dtype=self.w.dtype)
        for t in range(steps):  # each step's last op writes into gates and hs, no copy
            a = gates[t]
            zr = _sigmoid(a[:, :2] + (h @ u_zr).reshape(n, 2, -1), out=a[:, :2])
            z, r = zr[:, 0], zr[:, 1]
            c = np.tanh(a[:, 2] + (r * h) @ self.u[2], out=a[:, 2])
            h = np.add((1.0 - z) * h, z * c, out=hs[t])
        self._cache = (rows, hs, gates) if training else None
        return hs.transpose(1, 0, 2)

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """BPTT given a gradient for every (N, T, H) hidden state; returns input gradients."""
        rows, hs, gates = self._cached()
        h_prev = _previous(hs)
        grad_hs = grad_hs.transpose(1, 0, 2)
        steps, n = gates.shape[:2]
        u_zr_t = self.u[:2].transpose(0, 2, 1).reshape(-1, self.hidden)
        da = np.empty_like(gates)
        dh = np.zeros((n, self.hidden), dtype=self.w.dtype)
        for t in range(steps - 1, -1, -1):
            z, r, c = gates[t].transpose(1, 0, 2)
            dh = dh + grad_hs[t]
            dac = da[t, :, 2] = dh * z * (1.0 - c * c)
            drh = dac @ self.u[2].T
            da[t, :, 0] = dh * (c - h_prev[t]) * z * (1.0 - z)
            da[t, :, 1] = drh * h_prev[t] * r * (1.0 - r)
            dh = dh * (1.0 - z) + drh * r + da[t, :, :2].reshape(n, -1) @ u_zr_t
        prev = h_prev.reshape(steps * n, self.hidden)
        states = np.stack((prev, prev, gates[:, :, 1].reshape(steps * n, self.hidden) * prev))
        return self._gradients(rows, states, da)


class LSTMLayer(_Recurrent):
    """Single LSTM layer; parameter count is 4*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "ifgo")

    def forward(self, xs, training=False, rng=None):
        rows, gates = self._project(xs)  # pre-activations, overwritten by i, f, g, o
        steps, n = gates.shape[:2]
        u_all = _side_by_side(self.u)
        h = np.zeros((n, self.hidden), dtype=self.w.dtype)
        c = np.zeros((n, self.hidden), dtype=self.w.dtype)
        hs = np.empty((steps, n, self.hidden), dtype=self.w.dtype)
        cs, tanh_cs = np.empty_like(hs), np.empty_like(hs)
        for t in range(steps):
            a = gates[t]
            a += (h @ u_all).reshape(n, 4, -1)
            g = np.tanh(a[:, 2])
            _sigmoid(a, out=a)
            a[:, 2] = g
            i, f, _g, o = a.transpose(1, 0, 2)
            c = np.add(f * c, i * g, out=cs[t])
            h = np.multiply(o, np.tanh(c, out=tanh_cs[t]), out=hs[t])
        self._cache = (rows, hs, cs, tanh_cs, gates) if training else None
        return hs.transpose(1, 0, 2)

    def backward(self, grad_hs):
        rows, hs, cs, tanh_cs, gates = self._cached()
        c_prev = _previous(cs)
        grad_hs = grad_hs.transpose(1, 0, 2)
        steps, n = gates.shape[:2]
        u_t = self.u.transpose(0, 2, 1).reshape(-1, self.hidden)
        da = np.empty_like(gates)
        dh = np.zeros((n, self.hidden), dtype=self.w.dtype)
        dc = np.zeros((n, self.hidden), dtype=self.w.dtype)
        for t in range(steps - 1, -1, -1):
            i, f, g, o = gates[t].transpose(1, 0, 2)
            tc = tanh_cs[t]
            dh = dh + grad_hs[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            da[t, :, 0] = dc * g * i * (1.0 - i)
            da[t, :, 1] = dc * c_prev[t] * f * (1.0 - f)
            da[t, :, 2] = dc * i * (1.0 - g * g)
            da[t, :, 3] = dh * tc * o * (1.0 - o)
            dh = da[t].reshape(n, -1) @ u_t
            dc = dc * f
        return self._gradients(rows, _previous(hs).reshape(steps * n, self.hidden), da)
