"""The convolutional-recurrent classifier.

Four conv blocks (3x3 same conv -> activation -> ceil-mode max pool ->
dropout) collapse the 96-band spectrogram's frequency axis to 1; the
blocks' pool kernels are POOL_KERNELS, fixed as in the music-tagging CRNN
the model comes from, and only the filter counts are settable. The
surviving (channels, time) map is read as a sequence, passed through two
recurrent layers (full sequence, then final state only), and a dense
head gives the logits of a softmax; the model runs all of it as one layer list.

Each block computes conv -> pool -> ELU -> dropout. ELU is monotone
non-decreasing, so pooling first gives the same forward values while the
activation touches 1/(kh*kw) of the elements. Backward routes each pooled
gradient by the pre-activation argmax. Where ELU saturates to the same
float near -1 for different inputs of one window, that can be another
position than the one activation-then-pool would pick; the gradient there
is g*(y+1) with y close to -1, so zero or nearly zero.

With the default configuration a (96, 1000) input reaches the recurrent
layers as 42 time steps of 32 features.
"""

from __future__ import annotations

import json
import math
import operator
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .dbas import label_names
from .errors import CheckpointError, ConfigError, JsonConfig, ShapeError, StateError, atomic_write
from .layers import (
    Activation,
    Conv2d,
    Dense,
    Dropout,
    LastStep,
    MaxPool2d,
    Workspace,
    ToSequence,
    cross_entropy,
    label_array,
    softmax,
)
from .recurrent import GRULayer, LSTMLayer

_CKPT_MAGIC = b"CSEGCKP1"
# (freq, time) max-pool kernel of each conv block
POOL_KERNELS = ((2, 2), (3, 3), (4, 2), (4, 2))
# header config keys of settings that became constants, each with the one value it may still hold
_RETIRED_KEYS = {"conv_activation": "elu", "pool_kernels": [list(k) for k in POOL_KERNELS]}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _int(value) -> int:
    """An integer as an int; TypeError for anything else, a bool or a whole float included."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


@dataclass
class ModelConfig(JsonConfig):
    conv_filters: tuple = (64, 64, 64, 32)
    dropout_p: float = 0.1
    rnn_kind: str = "gru"
    rnn_hidden: tuple = (84, 84)
    n_classes: int = 2
    input_shape: tuple = (96, 1000)

    def __post_init__(self):
        for name in ("conv_filters", "rnn_hidden", "input_shape"):
            value = getattr(self, name)
            try:
                setattr(self, name, tuple(_int(v) for v in value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {name} {value!r}: {exc}") from exc
        self._check_field_types()
        self.validate()

    def validate(self):
        if len(self.conv_filters) != 4 or any(f < 1 for f in self.conv_filters):
            raise ConfigError(f"need four positive conv filter counts, got {self.conv_filters}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.rnn_kind not in ("gru", "lstm"):
            raise ConfigError(f"rnn_kind must be 'gru' or 'lstm', got {self.rnn_kind!r}")
        if len(self.rnn_hidden) != 2 or any(h < 1 for h in self.rnn_hidden):
            raise ConfigError(f"need two positive hidden sizes, got {self.rnn_hidden}")
        if self.n_classes not in (2, 4):
            raise ConfigError(f"n_classes must be 2 or 4, got {self.n_classes}")
        if len(self.input_shape) != 2 or any(s < 1 for s in self.input_shape):
            raise ConfigError(f"bad input_shape {self.input_shape}")
        _, freq, _ = self.conv_output_shape()
        if freq != 1:
            raise ConfigError(
                f"pool kernels {POOL_KERNELS} leave frequency axis at {freq}, "
                f"must collapse {self.input_shape[0]} bands to 1"
            )

    def conv_output_shape(self):
        """(channels, freq, time) after the four conv/pool blocks."""
        freq, time = self.input_shape
        for kh, kw in POOL_KERNELS:
            freq = _ceil_div(freq, kh)
            time = _ceil_div(time, kw)
        return self.conv_filters[-1], freq, time


class CrnnModel:
    """Built via build_crnn or load_checkpoint; owns parameters and caches."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.normalization: tuple[float, float] | None = None

        # perfbench's span tracer wraps the instances in ``blocks`` (as
        # (conv, act, pool, drop)), ``rnn1``, ``rnn2`` and ``head``
        channels_in = 1
        self.blocks = []
        self.layers = []
        workspace = Workspace()  # the convs run one at a time, so they share one column buffer
        for i, (filters, kernel) in enumerate(zip(config.conv_filters, POOL_KERNELS)):
            # nothing reads the gradient with respect to the spectrogram
            conv = Conv2d(channels_in, filters, rng, dtype=self.dtype, input_grad=i > 0,
                          workspace=workspace)
            act, pool = Activation(), MaxPool2d(kernel)
            drop = Dropout(config.dropout_p)
            self.blocks.append((conv, act, pool, drop))
            self.layers += [conv, pool, act, drop]  # pool before the activation, see above
            channels_in = filters

        rnn_cls = GRULayer if config.rnn_kind == "gru" else LSTMLayer
        seq_features = config.conv_filters[-1]
        self.rnn1 = rnn_cls(seq_features, config.rnn_hidden[0], rng, dtype=self.dtype)
        self.rnn2 = rnn_cls(config.rnn_hidden[0], config.rnn_hidden[1], rng, dtype=self.dtype)
        self.head = Dense(config.rnn_hidden[1], config.n_classes, rng, dtype=self.dtype)
        self.layers += [ToSequence(), self.rnn1, self.rnn2, LastStep(), self.head]
        self._probs = None

    # -- parameter bookkeeping ---------------------------------------------

    def _layers(self):
        convs = [(f"conv{i}", block[0]) for i, block in enumerate(self.blocks, 1)]
        return convs + [("rnn1", self.rnn1), ("rnn2", self.rnn2), ("head", self.head)]

    def named_params(self):
        """Ordered (name, array) pairs; order defines the checkpoint layout."""
        return [
            (f"{lname}.{pname}", getattr(layer, pname))
            for lname, layer in self._layers()
            for pname in layer.param_names
        ]

    def param_arrays(self):
        return [arr for _name, arr in self.named_params()]

    def grad_arrays(self):
        return [
            layer.grads[pname]
            for _lname, layer in self._layers()
            for pname in layer.param_names
        ]

    def zero_grads(self):
        for grad in self.grad_arrays():
            grad[...] = 0.0

    def count_params(self) -> int:
        return sum(arr.size for arr in self.param_arrays())

    def set_params(self, arrays):
        own = self.param_arrays()
        if len(arrays) != len(own):
            raise ShapeError("parameter list length mismatch")
        for dst, src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ShapeError(f"param shape {src.shape} does not match {dst.shape}")
            dst[...] = src.astype(dst.dtype)

    def copy_params(self):
        return [arr.copy() for arr in self.param_arrays()]

    # -- forward / backward --------------------------------------------------

    def _prepare_input(self, features):
        """An (H, W) spectrogram or an (N, H, W) batch as an (N, 1, H, W) normalized batch."""
        values = np.asarray(features)
        if values.ndim not in (2, 3) or values.shape[-2:] != self.config.input_shape:
            raise ShapeError(
                f"features shape {values.shape} does not match model input {self.config.input_shape}"
            )
        return self.normalize(values.reshape(-1, 1, *self.config.input_shape))

    def normalize(self, values):
        """Spectrogram values of any width in the model's dtype, normalized as in training."""
        x = np.asarray(values).astype(self.dtype)
        if self.normalization is not None:
            mean, std = self.normalization
            x = (x - self.dtype.type(mean)) / self.dtype.type(std)
        return x

    def cache_bytes(self) -> int:
        """Bytes the conv blocks of a training forward cache per sample.

        Each block caches its conv input, and per pooled element the
        activation output, a one-byte first-max index and a one-byte
        dropout mask. The recurrent caches are a few percent of that.
        """
        item = self.dtype.itemsize
        (freq, time), channels, total = self.config.input_shape, 1, 0
        for filters, (kh, kw) in zip(self.config.conv_filters, POOL_KERNELS):
            total += channels * freq * time * item
            freq, time, channels = _ceil_div(freq, kh), _ceil_div(time, kw), filters
            total += channels * freq * time * (item + 2)
        return total

    def forward(self, features, training: bool = False, rng: np.random.Generator | None = None):
        """Class probabilities, (K,) for one (H, W) spectrogram or (N, K) for an (N, H, W) batch.

        Dropout runs and the layers cache for backward only when training.
        """
        self._probs = None
        x = self._prepare_input(features)
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        probs = softmax(x)
        if training:
            self._probs = probs
        return probs[0] if np.ndim(features) == 2 else probs

    def conv_stack_output(self, features):
        """The (channels, time) map the recurrent layers see for one spectrogram, dropout off."""
        x = self._prepare_input(features)
        for layer in self.layers[: self.layers.index(self.rnn1)]:
            x = layer.forward(x)
        return x[0].T

    def backward(self, labels):
        """Accumulate the gradients of the cross-entropy losses summed over the batch.

        ``labels`` holds one class per sample of the latest forward, which
        must have been a training forward; each permits one backward. An
        int is the label of a batch of one. Returns the ordered gradient
        list (aliasing the layers' .grads).
        """
        if self._probs is None:
            raise StateError("backward needs a completed training forward")
        # softmax + cross-entropy: the loss gradient at the logits is probs - onehot
        g = self._probs.astype(self.dtype)
        self._probs = None
        g[np.arange(len(g)), label_array(labels, *g.shape)] -= 1.0
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return self.grad_arrays()

    def loss(self, features, labels, training: bool = False, rng=None) -> float:
        """Cross-entropy summed over a batch (forward only); one sample's for an (H, W) input."""
        probs = self.forward(features, training=training, rng=rng)
        return float(np.sum(cross_entropy(probs, labels)))


def build_crnn(config: ModelConfig, seed: int, dtype=np.float32) -> CrnnModel:
    """Deterministically initialize a model: same seed, same bits."""
    return CrnnModel(config, np.random.default_rng(seed), dtype=dtype)


# ---------------------------------------------------------------------------
# checkpoint container: magic, JSON header, raw <f4 blocks, CRC-32 of blocks

def _normalization(norm, path: str):
    """A header's ``{"mean", "std"}`` entry as a (mean, std) pair, or None for None.

    CheckpointError unless the mean is finite and the std finite and > 0.
    """
    if norm is None:
        return None
    try:
        mean, std = float(norm["mean"]), float(norm["std"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad normalization {norm!r}") from exc
    if not (math.isfinite(mean) and 0.0 < std < math.inf):
        raise CheckpointError(f"{path}: normalization needs a finite mean and a finite std > 0, "
                              f"got {norm!r}")
    return mean, std


def save_checkpoint(model: CrnnModel, path: str) -> None:
    """Write ``model`` to ``path``; a normalization load would reject raises CheckpointError first."""
    norm = (None if model.normalization is None
            else {"mean": float(model.normalization[0]), "std": float(model.normalization[1])})
    _normalization(norm, path)
    named = model.named_params()
    header = {
        "format_version": 1,
        "config": model.config.to_dict(),
        "label_convention": {str(i): n for i, n in enumerate(label_names(model.config.n_classes))},
        "normalization": norm,
        "params": [[name, list(arr.shape)] for name, arr in named],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes() for _n, arr in named)
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_checkpoint(path: str, dtype=np.float32) -> CrnnModel:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(raw) < len(_CKPT_MAGIC) + 4 or raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    offset = len(_CKPT_MAGIC)
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if offset + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    offset += header_len

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != 1:
        raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")

    config = header.get("config")
    if isinstance(config, dict):
        for key in _RETIRED_KEYS.keys() & config.keys():
            if config[key] != _RETIRED_KEYS[key]:
                raise CheckpointError(f"{path}: {key} {config[key]!r} is not supported; "
                                      f"only {_RETIRED_KEYS[key]!r} is")
        config = {k: v for k, v in config.items() if k not in _RETIRED_KEYS}
    try:
        model = build_crnn(ModelConfig.from_dict(config), seed=0, dtype=dtype)
    except (ConfigError, ShapeError) as exc:
        raise CheckpointError(f"{path}: bad model configuration: {exc}") from exc
    named = model.named_params()
    if header.get("params") != [[name, list(arr.shape)] for name, arr in named]:
        raise CheckpointError(f"{path}: parameter layout does not match the configuration")
    blob_len = sum(arr.size for _name, arr in named) * 4
    if len(raw) != offset + blob_len + 4:
        raise CheckpointError(f"{path}: truncated or oversized parameter section")
    (crc_stored,) = struct.unpack_from("<I", raw, offset + blob_len)
    if zlib.crc32(raw[offset : offset + blob_len]) != crc_stored:
        raise CheckpointError(f"{path}: parameter checksum mismatch")

    arrays = []
    for _name, arr in named:
        arrays.append(np.frombuffer(raw, dtype="<f4", count=arr.size, offset=offset).reshape(arr.shape))
        offset += arr.size * 4
    model.set_params(arrays)

    model.normalization = _normalization(header.get("normalization"), path)
    return model
