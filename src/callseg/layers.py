"""Layers with hand-written forward and backward passes.

Everything operates on single samples (no batch axis): convolution input is
(C, H, W), recurrent input is (T, F). Batching is a loop plus gradient
accumulation in the trainer, which keeps shapes exactly as the architecture
diagrams read and makes runs bit-deterministic.

Layer protocol, here and in ``recurrent``: ``forward(x, training=False,
rng=None)`` returns the output and caches what backward needs (only dropout
reads ``training`` and ``rng``); ``backward(grad_out)`` maps the gradient
at the latest output to the gradient at its input. A layer with parameters
names them in ``param_names`` and accumulates into ``self.grads``, so a
batch can sum gradients before the optimizer step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LabelError, NumericError, ShapeError, StateError

CE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# initializers

def glorot_uniform(shape, fan_in, fan_out, rng, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(n, rng, dtype):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # sign fix makes the decomposition unique, hence seed-deterministic
    return (q * np.sign(np.diag(r))).astype(dtype)


# ---------------------------------------------------------------------------
# functional ops

def _im2col3(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unfold (C, H, W) into (C*9, H*W) columns for 3x3 same convolution.

    The columns are written into ``out`` when its shape and dtype fit, else
    into a new array.
    """
    c, h, w = x.shape
    if out is None or out.shape != (c * 9, h * w) or out.dtype != x.dtype:
        out = np.empty((c * 9, h * w), dtype=x.dtype)
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    view = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    np.copyto(out.reshape(c, 3, 3, h, w), view.transpose(0, 3, 4, 1, 2))
    return out


def _window_slices(x, kernel):
    """The kh*kw strided slices of (C, H, W) ``x``, one per window position.

    Slice k = a*kw + b holds element (a, b) of every pooling window, so
    ``slices[k][:, i, j]`` sits in output cell (i, j). In ceil mode a slice
    whose position the partial edge windows lack is shorter than the output
    by one row or column.
    """
    kh, kw = kernel
    if kh < 1 or kw < 1:
        raise ConfigError(f"pool kernel must be >= 1, got {kernel}")
    return [x[:, a::kh, b::kw] for a in range(kh) for b in range(kw)]


def _edge(arr, part):
    """The leading block of ``arr`` that window slice ``part`` covers."""
    return arr[:, : part.shape[1], : part.shape[2]]


def _maxpool(x, kernel):
    """Ceil-mode max pooling as a running np.maximum over the window slices.

    Partial windows pool over their valid elements; no padding is built.
    """
    first, *rest = _window_slices(x, kernel)
    out = first.copy()
    for part in rest:
        view = _edge(out, part)
        # np.maximum returns its second operand on ties, so the earlier
        # element wins and a tie of -0.0 and 0.0 keeps the first one's sign
        np.maximum(part, view, out=view)
    return out


def _first_max_hits(x, out, kernel):
    """Per window position k (row-major), the windows whose first max is at k.

    ``out`` is ``_maxpool(x, kernel)``. Each mask has the shape of window
    slice k, and every window is marked exactly once. A window whose max is
    NaN is marked at its first NaN, as np.argmax does.
    """
    nan_windows = bool(np.isnan(out).any())
    taken = np.zeros(out.shape, dtype=bool)
    hits = []
    for part in _window_slices(x, kernel):
        hit = part == _edge(out, part)
        if nan_windows:
            hit |= np.isnan(part)
        done = _edge(taken, part)
        hit &= ~done
        done |= hit
        hits.append(hit)
    return hits


def _scatter(grad_out, hits, kernel, input_shape):
    """Input gradient with each output gradient at the position ``hits`` marks.

    ``hits[k]`` marks the windows routed to position k. The window slices
    tile the input, so each is written once: grad where marked, else grad*0,
    which is 0 for a finite gradient.
    """
    dx = np.empty(input_shape, dtype=grad_out.dtype)
    for part, hit in zip(_window_slices(dx, kernel), hits):
        np.multiply(_edge(grad_out, part), _edge(hit, part), out=part)
    return dx


def elu(x: np.ndarray) -> np.ndarray:
    # expm1(x) >= x for x <= 0 and expm1(0) == 0 < x for x > 0, so the max
    # picks the right branch; with numpy 2.4 it matches the np.where form bit
    # for bit on all 2**32 float32 inputs. Capping at 0 keeps expm1 finite.
    return np.maximum(x, np.expm1(np.minimum(x, 0)))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over K >= 2 logits; non-finite logits raise NumericError."""
    if logits.ndim != 1 or logits.shape[0] < 2:
        raise ConfigError(f"softmax head needs K >= 2 output nodes, got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in softmax head")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """Negative log-likelihood of the true class, floored at 1e-12."""
    label = int(label)
    if not 0 <= label < probs.shape[0]:
        raise LabelError(f"label {label} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(float(probs[label]), CE_FLOOR)))


# ---------------------------------------------------------------------------
# layer classes

class Conv2d:
    """3x3 same convolution, Glorot-uniform kernels, zero bias.

    With ``input_grad=False`` backward computes only the parameter gradients
    and returns None; the model builds its first conv that way, because
    nothing reads the gradient of the spectrogram.
    """

    param_names = ("kernels", "bias")

    def __init__(self, in_channels, out_channels, rng, dtype=np.float32, input_grad=True):
        fan = 9 * in_channels, 9 * out_channels
        self.kernels = glorot_uniform((out_channels, in_channels, 3, 3), *fan, rng, dtype)
        self.bias = np.zeros(out_channels, dtype=dtype)
        self.grads = {n: np.zeros_like(getattr(self, n)) for n in self.param_names}
        self.input_grad = input_grad
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[0] != self.kernels.shape[1]:
            raise ShapeError(f"input {x.shape} does not match kernels {self.kernels.shape}")
        # Backward reads the columns of the latest forward only, so the next
        # forward rebuilds them in the same buffer: a fresh (C*9, H*W) array
        # per call costs more in page faults than the copy into it.
        previous = None if self._cache is None else self._cache[1]
        cols = _im2col3(x, previous)
        c_out = self.kernels.shape[0]
        out = self.kernels.reshape(c_out, -1) @ cols
        out += self.bias[:, None]
        self._cache = (x.shape, cols)
        return out.reshape(c_out, *x.shape[1:])

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("conv backward called before forward")
        in_shape, cols = self._cache
        c_out = self.kernels.shape[0]
        g = grad_out.reshape(c_out, -1)
        self.grads["kernels"] += (g @ cols.T).reshape(self.kernels.shape)
        self.grads["bias"] += g.sum(axis=1)
        if not self.input_grad:
            return None
        # input gradient = same-conv of grad_out with channel-swapped, flipped kernels
        flipped = self.kernels.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        dx = flipped.reshape(in_shape[0], -1) @ _im2col3(grad_out)
        return dx.reshape(in_shape)


class Activation:
    """Pointwise nonlinearity of each conv block: elu, relu or linear.

    All three are monotone non-decreasing, so max-pooling commutes with them
    and the model applies them after the pool, on fewer elements, with the
    same forward values. Gradients then route by the pre-activation argmax;
    the model docstring gives the one case where that differs.
    """

    def __init__(self, kind: str = "elu"):
        if kind not in ("elu", "relu", "linear"):
            raise ConfigError(f"unknown activation {kind!r}")
        self.kind = kind
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if self.kind == "elu":
            y = elu(x)
        elif self.kind == "relu":
            y = np.maximum(x, 0)
        else:
            y = x
        self._cache = (x, y)
        return y

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("activation backward called before forward")
        x, y = self._cache
        if self.kind == "elu":
            return grad_out * np.where(x > 0, 1.0, y + 1.0).astype(x.dtype)
        if self.kind == "relu":
            return grad_out * (x > 0)
        return grad_out


class MaxPool2d:
    """Ceil-mode max pool; forward computes no argmax.

    Forward keeps its input and output, and backward recovers the
    row-major first-occurrence argmax from them.
    """

    def __init__(self, kernel: tuple[int, int]):
        self.kernel = (int(kernel[0]), int(kernel[1]))
        self._cache = None

    def forward(self, x, training=False, rng=None):
        out = _maxpool(x, self.kernel)
        self._cache = (x, out)
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("pool backward called before forward")
        x, out = self._cache
        return _scatter(grad_out, _first_max_hits(x, out, self.kernel), self.kernel, x.shape)


class Dropout:
    """Inverted dropout: when training, zero with probability p and scale survivors by 1/(1-p)."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._mask = None

    def forward(self, x, training=False, rng=None):
        self._mask = None
        if not training or self.p == 0.0:
            return x
        if rng is None:
            raise StateError("training-mode dropout needs a seeded generator")
        self._mask = (rng.random(x.shape) >= self.p).astype(x.dtype)
        return x * self._mask / (1.0 - self.p)

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask / (1.0 - self.p)


class ToSequence:
    """The (C, 1, T) map of the last conv block read as a (T, C) sequence."""

    def forward(self, x, training=False, rng=None):
        return x[:, 0, :].T

    def backward(self, grad_out):
        return np.ascontiguousarray(grad_out.T)[:, None, :]


class LastStep:
    """The last row of a (T, H) sequence; backward gives the other rows zero gradient."""

    def __init__(self):
        self._cache = None

    def forward(self, x, training=False, rng=None):
        self._cache = x
        return x[-1]

    def backward(self, grad_out):
        grad = np.zeros_like(self._cache)
        grad[-1] = grad_out
        return grad


class Dense:
    """Affine map of an (F,) vector to K outputs; the model's head returns logits."""

    param_names = ("weights", "bias")

    def __init__(self, n_in, n_out, rng, dtype=np.float32):
        self.weights = glorot_uniform((n_in, n_out), n_in, n_out, rng, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)
        self.grads = {n: np.zeros_like(getattr(self, n)) for n in self.param_names}
        self._cache = None

    def forward(self, x, training=False, rng=None):
        self._cache = x
        with np.errstate(invalid="ignore", over="ignore"):  # softmax checks finiteness
            return x @ self.weights + self.bias

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("dense backward called before forward")
        self.grads["weights"] += np.outer(self._cache, grad_out)
        self.grads["bias"] += grad_out
        return grad_out @ self.weights.T
