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

Forward computes ``xs @ w + b`` for all T steps before the time loop;
backward's loop yields only the gate pre-activation gradients, and the
weight, bias and input gradients are products over all steps after it.
Sequences are (T, F) rows; hidden output is (T, H); the state starts at zero.
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


def _previous(states):
    """The (T, H) states before each step: zero, then ``states[:-1]``."""
    prev = np.zeros_like(states)
    prev[1:] = states[:-1]
    return prev


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

    def _sequence(self, xs):
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.in_features:
            raise ShapeError(f"expected (T, {self.in_features}) inputs, got {xs.shape}")
        return xs

    def _gradients(self, xs, states, da):
        """Accumulate dw, du, db from the (G, T, H) pre-activation gradients ``da``.

        ``states`` is what each ``u`` multiplied, (T, H) or (G, T, H); returns dxs.
        """
        self.dw += xs.T @ da
        self.du += np.swapaxes(states, -1, -2) @ da
        self.db += da.sum(axis=1)
        return (da @ np.swapaxes(self.w, 1, 2)).sum(axis=0)


class GRULayer(_Recurrent):
    """Single GRU layer; parameter count is 3*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "zrc")

    def forward(self, xs: np.ndarray, training=False, rng=None) -> np.ndarray:
        """Run the recurrence over (T, F) inputs; returns all T hidden states."""
        xs = self._sequence(xs)
        gates = xs @ self.w + self.b[:, None]  # pre-activations, overwritten by z, r, c
        h = np.zeros(self.hidden, dtype=self.w.dtype)
        hs = np.empty((xs.shape[0], self.hidden), dtype=self.w.dtype)
        for t in range(xs.shape[0]):
            z, r = gates[:2, t] = _sigmoid(gates[:2, t] + h @ self.u[:2])
            c = gates[2, t] = np.tanh(gates[2, t] + (r * h) @ self.u[2])
            h = hs[t] = (1.0 - z) * h + z * c
        self._cache = xs, hs, gates
        return hs

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """BPTT given a gradient for every hidden state; returns input gradients."""
        if self._cache is None:
            raise StateError("GRU backward called before forward")
        xs, hs, gates = self._cache
        h_prev = _previous(hs)
        da = np.empty_like(gates)
        dh = np.zeros(self.hidden, dtype=self.w.dtype)
        for t in range(xs.shape[0] - 1, -1, -1):
            z, r, c = gates[:, t]
            dh = dh + grad_hs[t]
            dac = da[2, t] = dh * z * (1.0 - c * c)
            drh = dac @ self.u[2].T
            da[0, t] = dh * (c - h_prev[t]) * z * (1.0 - z)
            da[1, t] = drh * h_prev[t] * r * (1.0 - r)
            dh = dh * (1.0 - z) + drh * r + np.einsum("gj,gij->i", da[:2, t], self.u[:2])
        return self._gradients(xs, np.stack((h_prev, h_prev, gates[1] * h_prev)), da)


class LSTMLayer(_Recurrent):
    """Single LSTM layer; parameter count is 4*(F*H + H*H + H)."""

    param_names = tuple(kind + gate for kind in "wub" for gate in "ifgo")

    def forward(self, xs, training=False, rng=None):
        xs = self._sequence(xs)
        gates = xs @ self.w + self.b[:, None]  # pre-activations, overwritten by i, f, g, o
        h = np.zeros(self.hidden, dtype=self.w.dtype)
        c = np.zeros(self.hidden, dtype=self.w.dtype)
        hs = np.empty((xs.shape[0], self.hidden), dtype=self.w.dtype)
        cs, tanh_cs = np.empty_like(hs), np.empty_like(hs)
        for t in range(xs.shape[0]):
            a = gates[:, t] + h @ self.u
            i, f, g, o = gates[:, t] = _sigmoid(a)
            g = gates[2, t] = np.tanh(a[2])
            c = cs[t] = f * c + i * g
            tanh_cs[t] = np.tanh(c)
            h = hs[t] = o * tanh_cs[t]
        self._cache = xs, hs, cs, tanh_cs, gates
        return hs

    def backward(self, grad_hs):
        if self._cache is None:
            raise StateError("LSTM backward called before forward")
        xs, hs, cs, tanh_cs, gates = self._cache
        c_prev = _previous(cs)
        da = np.empty_like(gates)
        dh = np.zeros(self.hidden, dtype=self.w.dtype)
        dc = np.zeros(self.hidden, dtype=self.w.dtype)
        for t in range(xs.shape[0] - 1, -1, -1):
            i, f, g, o = gates[:, t]
            tc = tanh_cs[t]
            dh = dh + grad_hs[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            da[0, t] = dc * g * i * (1.0 - i)
            da[1, t] = dc * c_prev[t] * f * (1.0 - f)
            da[2, t] = dc * i * (1.0 - g * g)
            da[3, t] = dh * tc * o * (1.0 - o)
            dh = np.einsum("gj,gij->i", da[:, t], self.u)
            dc = dc * f
        return self._gradients(xs, _previous(hs), da)
