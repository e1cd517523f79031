"""Layers with hand-written forward and backward passes.

Every layer has a leading batch axis: convolution maps are (N, C, H, W),
recurrent sequences (N, T, F) and the head's features (N, F). The model
runs a micro-batch of samples through each layer in one call and sums
their parameter gradients.

Layer protocol, here and in ``recurrent``: ``forward(x, training=False,
rng=None)`` returns the output; only dropout reads ``rng``. A training
forward caches what backward needs, and ``backward(grad_out)`` maps the
gradient at that output to the gradient at its input and drops the cache,
so each training forward permits one backward. An inference forward
caches nothing, and a backward after it raises StateError (the stateless
ToSequence, and Dropout without a drawn mask, pass the gradient through).
A layer with parameters names them in ``param_names`` and accumulates into
``self.grads``, so a batch can sum gradients before the optimizer step.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LabelError, NumericError, ShapeError, StateError

CE_FLOOR = 1e-12
# Largest im2col block a convolution builds at once, so memory is bounded
# for any map and batch. The default model's inference forward took 65 ms
# with it, 69 ms at 8 MiB and 72 ms with whole-map columns (2 vCPU, BLAS at
# 1 thread). Smaller blocks mean more GEMM calls: at 2 MiB that conv2 runs
# 48, and with 2 BLAS threads on a busy CPU each call took about 24 ms.
COLUMN_BYTES = 3 << 20


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

def _unfold3(padded: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unfold a zero-padded (N, C, H+2, W+2) map into (N, C*9, H*W) 3x3 columns in ``out``."""
    n, c, h, w = padded.shape[0], padded.shape[1], padded.shape[2] - 2, padded.shape[3] - 2
    view = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
    np.copyto(out.reshape(n, c, 3, 3, h, w), view.transpose(0, 1, 4, 5, 2, 3))
    return out.reshape(n, c * 9, h * w)


def _window_slices(x, kernel):
    """The kh*kw strided slices of ``x`` (pooled over its last two axes), one per window position.

    Slice k = a*kw + b holds element (a, b) of every pooling window, so
    ``slices[k][..., i, j]`` sits in output cell (i, j). In ceil mode a
    slice whose position the partial edge windows lack is shorter than
    the output by one row or column.
    """
    kh, kw = kernel
    return [x[..., a::kh, b::kw] for a in range(kh) for b in range(kw)]


def _edge(arr, part):
    """The leading block of ``arr`` that window slice ``part`` covers."""
    return arr[..., : part.shape[-2], : part.shape[-1]]


def elu(x: np.ndarray) -> np.ndarray:
    # expm1(x) >= x for x <= 0 and expm1(0) == 0 < x for x > 0, so the max
    # picks the right branch; with numpy 2.4 it matches the np.where form bit
    # for bit on all 2**32 float32 inputs. Capping at 0 keeps expm1 finite.
    return np.maximum(x, np.expm1(np.minimum(x, 0)))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis of K >= 2 logits.

    Non-finite logits raise NumericError.
    """
    if logits.ndim not in (1, 2) or logits.shape[-1] < 2:
        raise ConfigError(f"softmax head needs K >= 2 output nodes, got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in softmax head")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def label_array(labels, n_samples: int, n_classes: int) -> np.ndarray:
    """One class index per sample as an (N,) array: an int for a batch of one, or N of them."""
    labels = np.asarray(labels).reshape(-1)
    if labels.shape != (n_samples,):
        raise ShapeError(f"{labels.size} labels for {n_samples} samples")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelError(f"label out of range for {n_classes} classes: {labels}")
    return labels.astype(np.intp)


def cross_entropy(probs: np.ndarray, labels):
    """Negative log-likelihood of the true class, floored at 1e-12.

    A float for one (K,) sample and its int label, an (N,) array for
    (N, K) probabilities and N labels.
    """
    batch = np.atleast_2d(probs)
    rows = label_array(labels, *batch.shape)
    losses = -np.log(np.maximum(batch[np.arange(rows.size), rows].astype(np.float64), CE_FLOOR))
    return float(losses[0]) if probs.ndim == 1 else losses


# ---------------------------------------------------------------------------
# layer classes

class Workspace:
    """A growable buffer for layers that never run at the same time to share."""

    def __init__(self):
        self._array = np.empty(0)

    def take(self, size, dtype):
        """A 1-D view of ``size`` elements of ``dtype``; its values are undefined."""
        if self._array.size < size or self._array.dtype != dtype:
            self._array = np.empty(size, dtype=dtype)
        return self._array[:size]


class Conv2d:
    """3x3 same convolution, Glorot-uniform kernels, zero bias.

    With ``input_grad=False`` backward computes only the parameter gradients
    and returns None; the model builds its first conv that way, because
    nothing reads the gradient of the spectrogram. The model's convs share
    one ``workspace`` buffer for their columns.

    Forward and backward build im2col columns in row blocks under
    COLUMN_BYTES (see ``_row_blocks``), so memory stays bounded for any map
    width and batch size. A training forward caches only its input, and
    backward rebuilds the columns from it.
    """

    param_names = ("kernels", "bias")

    def __init__(self, in_channels, out_channels, rng, dtype=np.float32, input_grad=True,
                 workspace=None):
        fan = 9 * in_channels, 9 * out_channels
        self.kernels = glorot_uniform((out_channels, in_channels, 3, 3), *fan, rng, dtype)
        self.bias = np.zeros(out_channels, dtype=dtype)
        self.grads = {n: np.zeros_like(getattr(self, n)) for n in self.param_names}
        self.input_grad = input_grad
        self.workspace = Workspace() if workspace is None else workspace
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4 or x.shape[1] != self.kernels.shape[1]:
            raise ShapeError(f"input {x.shape} does not match kernels {self.kernels.shape}")
        self._cache = x if training else None
        out = self._conv3(x, self.kernels)
        out += self.bias[:, None, None]
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("conv backward needs a training forward")
        x, self._cache = self._cache, None
        n, c_out, h, w = grad_out.shape
        g = grad_out.reshape(n, c_out, h * w)
        dk = self.grads["kernels"].reshape(c_out, -1)
        for top, bottom, cols in self._row_blocks(x):
            dk += np.matmul(g[:, :, top * w : bottom * w], cols.transpose(0, 2, 1)).sum(axis=0)
        self.grads["bias"] += g.sum(axis=(0, 2))
        if not self.input_grad:
            return None
        # input gradient = same-conv of grad_out with channel-swapped, flipped kernels
        return self._conv3(grad_out, self.kernels.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])

    def _row_blocks(self, x):
        """(top, bottom, columns) over blocks of rows of an (N, C, H, W) map.

        ``columns`` are the (N, C*9, rows*W) 3x3 same-convolution columns
        of output rows top..bottom, at most COLUMN_BYTES of them (one row
        at least), each written into the ``workspace`` buffer: a fresh array
        per call costs more in page faults than the copy into it.
        """
        n, c, h, w = x.shape
        rows = min(h, max(1, COLUMN_BYTES // (9 * c * w * n * x.itemsize)))
        buffer = self.workspace.take(n * c * 9 * rows * w, x.dtype)
        # np.pad without its setup cost: zero the four borders, copy the map in
        padded = np.empty((n, c, h + 2, w + 2), dtype=x.dtype)
        padded[:, :, 0] = padded[:, :, -1] = padded[:, :, :, 0] = padded[:, :, :, -1] = 0
        padded[:, :, 1:-1, 1:-1] = x
        for top in range(0, h, rows):
            bottom = min(top + rows, h)
            cols = buffer[: n * c * 9 * (bottom - top) * w]
            yield top, bottom, _unfold3(padded[:, :, top : bottom + 2], cols)

    def _conv3(self, x, kernels):
        """3x3 same convolution of (N, C, H, W) ``x`` with (C_out, C, 3, 3) kernels, no bias.

        Each row block is one batched GEMM, a product per sample written
        straight into the output; one GEMM over all samples measured
        slower, for the copies that put its result in sample order. Every
        output column is the kernel matrix times its own input column, so
        where BLAS computes each column alone the values do not depend on
        the block size or N (tests/test_analyze.py checks this bit for bit
        for the model's shapes).
        """
        n, _, h, w = x.shape
        weights = kernels.reshape(kernels.shape[0], -1)
        out = np.empty((n, len(weights), h * w), dtype=np.result_type(weights, x))
        for top, bottom, cols in self._row_blocks(x):
            np.matmul(weights, cols, out=out[:, :, top * w : bottom * w])
        return out.reshape(n, -1, h, w)


class Activation:
    """ELU, the pointwise nonlinearity of each conv block.

    ELU is monotone non-decreasing, so max-pooling commutes with it and the
    model applies it after the pool, on fewer elements, with the same
    forward values. Gradients then route by the pre-activation argmax; the
    model docstring gives the one case where that differs. Backward reads
    only the output: y > 0 exactly where x > 0, and the slope is y + 1
    elsewhere.
    """

    def __init__(self):
        self._cache = None

    def forward(self, x, training=False, rng=None):
        y = elu(x)
        self._cache = y if training else None
        return y

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("activation backward needs a training forward")
        y, self._cache = self._cache, None
        return grad_out * np.where(y > 0, 1.0, y + 1.0).astype(y.dtype)


class MaxPool2d:
    """Ceil-mode max pool over the last two axes, as a running np.maximum over the window slices.

    Partial windows pool over their valid elements; no padding is built.
    A training forward also records, per output cell, the row-major
    position of its window's first max (its first NaN, as np.argmax has
    it), and backward routes each gradient there.
    """

    def __init__(self, kernel: tuple[int, int]):
        self.kernel = (int(kernel[0]), int(kernel[1]))
        if min(self.kernel) < 1:
            raise ConfigError(f"pool kernel must be >= 1, got {kernel}")
        self._cache = None

    def forward(self, x, training=False, rng=None):
        first, *rest = _window_slices(x, self.kernel)
        out = first.copy()
        first_max = np.zeros(out.shape, np.min_scalar_type(len(rest))) if training else None
        for k, part in enumerate(rest, 1):
            view = _edge(out, part)
            if training:
                # a later element takes over only when strictly greater, or when it is
                # the window's first NaN: not (part <= view), unless view is NaN already
                hit = ~(part <= view)
                hit &= view == view
                # k exceeds every earlier position, so a max sets the index to k where hit
                index = _edge(first_max, part)
                np.maximum(index, hit * first_max.dtype.type(k), out=index)
            # np.maximum returns its second operand on ties, so the earlier
            # element wins and a tie of -0.0 and 0.0 keeps the first one's sign
            np.maximum(part, view, out=view)
        self._cache = (first_max, x.shape) if training else None
        return out

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("pool backward needs a training forward")
        (first_max, shape), self._cache = self._cache, None
        # the window slices tile the input, so each is written once: grad
        # where its position holds the first max, else grad*0, which is 0
        # for a finite gradient
        dx = np.empty(shape, dtype=grad_out.dtype)
        for k, part in enumerate(_window_slices(dx, self.kernel)):
            np.multiply(_edge(grad_out, part), _edge(first_max, part) == k, out=part)
        return dx


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
        self._mask = rng.random(x.shape, dtype=np.float32) >= self.p
        return x * self._mask / (1.0 - self.p)

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        mask, self._mask = self._mask, None
        return grad_out * mask / (1.0 - self.p)


class ToSequence:
    """The (N, C, 1, T) map of the last conv block read as (N, T, C) sequences."""

    def forward(self, x, training=False, rng=None):
        return x[:, :, 0, :].transpose(0, 2, 1)

    def backward(self, grad_out):
        return np.ascontiguousarray(grad_out.transpose(0, 2, 1))[:, :, None, :]


class LastStep:
    """The last step of (N, T, H) sequences; backward gives the other steps zero gradient."""

    def __init__(self):
        self._cache = None

    def forward(self, x, training=False, rng=None):
        self._cache = (x.shape, x.dtype) if training else None
        return x[:, -1]

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("last-step backward needs a training forward")
        (shape, dtype), self._cache = self._cache, None
        grad = np.zeros(shape, dtype=dtype)
        grad[:, -1] = grad_out
        return grad


class Dense:
    """Affine map of (N, F) features to K outputs; the model's head returns logits."""

    param_names = ("weights", "bias")

    def __init__(self, n_in, n_out, rng, dtype=np.float32):
        self.weights = glorot_uniform((n_in, n_out), n_in, n_out, rng, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)
        self.grads = {n: np.zeros_like(getattr(self, n)) for n in self.param_names}
        self._cache = None

    def forward(self, x, training=False, rng=None):
        self._cache = x if training else None
        with np.errstate(invalid="ignore", over="ignore"):  # softmax checks finiteness
            return x @ self.weights + self.bias

    def backward(self, grad_out):
        if self._cache is None:
            raise StateError("dense backward needs a training forward")
        x, self._cache = self._cache, None
        self.grads["weights"] += x.T @ grad_out
        self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.weights.T
