"""Adam training with early stopping, evaluation.

Labels are decoded purely from corpus path components. Training monitors
validation accuracy (computed with dropout off after every epoch), keeps
the best-epoch weights, and stops after ``patience`` epochs without
improvement, or at once when validation accuracy reaches 1.0, which no
later epoch could beat. Adam uses the published beta1 0.9, beta2 0.999
and eps 1e-8 (optim.BETA1, BETA2 and EPS); only its learning rate is set. Feature
normalization statistics always come from the training split only and
are stored on the model so checkpoints stay self-contained.
Both read only a finished corpus run: a root without ``manifest.json``,
which a failed ``prepare`` or ``synth`` can leave, raises DataError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dbas import SPLITS, scan_corpus
from .errors import (
    ConfigError, DataError, DivergenceError, JsonConfig, NumericError, ShapeError,
    atomic_write,
)
from .features import load_features
from .layers import cross_entropy
from .metrics import accuracy, confusion
from .model import CrnnModel
from .optim import AdamState, adam_step

# Budget for the training caches of one forward/backward pass (see
# CrnnModel.cache_bytes), which sets how many samples of a mini-batch run
# through the layers together: 4 for the reduced 8-filter 96x250 model,
# 1 for the default 64-filter 96x1000 one. On the reduced model 6 samples
# trained 10% faster than 4, but peak RSS grew 6.5% instead of 2.7%.
BATCH_BYTES = 5 << 19


@dataclass
class TrainConfig(JsonConfig):
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        self._check_field_types()
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, patience and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    best_epoch: int = 0  # 1-based

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for i in range(len(self)):
            lines.append(
                f"{i + 1},{self.train_loss[i]!r},{self.train_acc[i]!r},"
                f"{self.val_loss[i]!r},{self.val_acc[i]!r}"
            )
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_csv())


def _labels_for(items, n_classes):
    return np.array([it.label2 if n_classes == 2 else it.label4 for it in items], dtype=np.intp)


def _normalization_stats(items) -> tuple[float, float]:
    count, total, total_sq = 0, 0.0, 0.0
    for item in items:
        values = load_features(item.path).astype(np.float64)
        count += values.size
        total += float(values.sum())
        total_sq += float((values * values).sum())
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, max(np.sqrt(var), 1e-8)


def micro_batch_size(model: CrnnModel) -> int:
    """Samples per forward/backward pass: as many as fit BATCH_BYTES of training caches."""
    return max(1, BATCH_BYTES // model.cache_bytes())


def _passes(model, items, labels, order):
    """(N, H, W) features and labels of ``items[order]``, micro_batch_size(model) at a time."""
    step = micro_batch_size(model)
    for start in range(0, len(order), step):
        indices = order[start : start + step]
        batch = np.empty((len(indices), *model.config.input_shape), dtype=np.float32)
        for row, i in zip(batch, indices):
            values = load_features(items[i].path)
            if values.shape != row.shape:
                raise ShapeError(f"{items[i].path}: features shape {values.shape} does not match "
                                 f"model input {row.shape}")
            row[...] = values
        yield batch, labels[indices]


def _eval_items(model, items, labels):
    losses, preds = [], []
    for features, part in _passes(model, items, labels, np.arange(len(items))):
        probs = model.forward(features)
        losses.append(cross_entropy(probs, part))
        preds.append(np.argmax(probs, axis=1))
    cm = confusion(np.concatenate(preds), labels, model.config.n_classes)
    return float(np.mean(np.concatenate(losses))), accuracy(cm), cm


def split_items(corpus_root: str, split: str):
    """A split's items; DataError if the root has no manifest.json or the split is empty."""
    if not os.path.isfile(os.path.join(corpus_root, "manifest.json")):
        raise DataError(f"{corpus_root} holds no finished corpus run: no manifest.json")
    items = scan_corpus(corpus_root, split)
    if not items:
        raise DataError(f"no data in split {split!r} under {corpus_root}")
    return items


def train(model: CrnnModel, corpus_root: str, config: TrainConfig):
    """Train in place; returns (model restored to its best epoch, history)."""
    train_items = split_items(corpus_root, "train")
    val_items = split_items(corpus_root, "validation")

    n_classes = model.config.n_classes
    train_labels = _labels_for(train_items, n_classes)
    val_labels = _labels_for(val_items, n_classes)

    model.normalization = _normalization_stats(train_items)

    params = model.param_arrays()
    state = AdamState.for_params(params, alpha=config.learning_rate)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))

    history = TrainHistory()
    best_acc, best_params, since_improve = -1.0, None, 0

    for epoch in range(1, config.max_epochs + 1):
        order = np.arange(len(train_items))
        np.random.default_rng(config.seed + epoch).shuffle(order)

        epoch_loss, epoch_correct = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grads()
            for features, labels in _passes(model, train_items, train_labels, batch):
                try:
                    probs = model.forward(features, training=True, rng=dropout_rng)
                    losses = cross_entropy(probs, labels)
                except NumericError as exc:
                    raise DivergenceError(
                        f"non-finite values at epoch {epoch}, batch {start // config.batch_size}"
                    ) from exc
                epoch_loss += float(losses.sum())
                epoch_correct += int(np.sum(np.argmax(probs, axis=1) == labels))
                model.backward(labels)
            grads = model.grad_arrays()
            for grad in grads:
                grad /= len(batch)
            adam_step(params, grads, state)

        val_loss, val_acc, _cm = _eval_items(model, val_items, val_labels)
        history.train_loss.append(epoch_loss / len(train_items))
        history.train_acc.append(epoch_correct / len(train_items))
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)

        if val_acc > best_acc:
            best_acc, best_params, since_improve = val_acc, model.copy_params(), 0
            history.best_epoch = epoch
            if best_acc == 1.0:  # no later epoch can beat it
                break
        else:
            since_improve += 1
            if since_improve >= config.patience:
                break

    if best_params is not None:
        model.set_params(best_params)
    return model, history


@dataclass
class EvalResult:
    loss: float
    accuracy: float
    confusion: np.ndarray


def evaluate(model: CrnnModel, corpus_root: str, split: str) -> EvalResult:
    """Loss, accuracy and confusion matrix over one of dbas.SPLITS, dropout off."""
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {', '.join(SPLITS)}, got {split!r}")
    items = split_items(corpus_root, split)
    labels = _labels_for(items, model.config.n_classes)
    loss, acc, cm = _eval_items(model, items, labels)
    return EvalResult(loss=loss, accuracy=acc, confusion=cm)
