"""Corpus scanning, Adam training with early stopping, evaluation.

Labels are decoded purely from corpus path components. Training monitors
validation accuracy (computed with dropout off after every epoch), keeps
the best-epoch weights, and stops after ``patience`` epochs without
improvement. Feature normalization statistics come from the training
split only and are stored on the model so checkpoints stay self-contained.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dbas import GENDERS, ROLES, class_label_of
from .errors import ConfigError, DataError, DivergenceError, JsonConfig, LayoutError, NumericError
from .features import load_features
from .layers import cross_entropy
from .metrics import confusion
from .model import CrnnModel
from .optim import AdamState, adam_step


@dataclass
class CorpusItem:
    path: str
    label2: int
    label4: int
    speaker_id: str


def scan_corpus(root: str, split: str) -> list[CorpusItem]:
    """List a split's feature files with labels decoded from the folder names.

    Returns records in sorted path order; a missing split directory is an
    empty list, an unrecognized path component is a LayoutError.
    """
    split_dir = os.path.join(root, split)
    if not os.path.isdir(split_dir):
        return []
    items = []
    for role in sorted(os.listdir(split_dir)):
        role_dir = os.path.join(split_dir, role)
        if role not in ROLES or not os.path.isdir(role_dir):
            raise LayoutError(f"unexpected corpus entry: {role_dir}")
        for gender in sorted(os.listdir(role_dir)):
            gender_dir = os.path.join(role_dir, gender)
            if gender not in GENDERS or not os.path.isdir(gender_dir):
                raise LayoutError(f"unexpected corpus entry: {gender_dir}")
            label4 = class_label_of(role, gender)
            for speaker in sorted(os.listdir(gender_dir)):
                speaker_dir = os.path.join(gender_dir, speaker)
                if not os.path.isdir(speaker_dir):
                    raise LayoutError(f"unexpected corpus entry: {speaker_dir}")
                for name in sorted(os.listdir(speaker_dir)):
                    path = os.path.join(speaker_dir, name)
                    stem, ext = os.path.splitext(name)
                    if ext != ".npy" or not stem.isdigit():
                        raise LayoutError(f"unexpected corpus entry: {path}")
                    items.append(CorpusItem(path, label4 // 2, label4, speaker))
    return items


@dataclass
class TrainConfig(JsonConfig):
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 50
    seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        self._check_field_types()
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, patience and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.eps < math.inf):
            raise ConfigError(f"learning_rate and eps must be positive and finite, "
                              f"got {self.learning_rate} and {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} and {self.beta2}")


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
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _labels_for(items, n_classes):
    return [it.label2 if n_classes == 2 else it.label4 for it in items]


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


def _eval_items(model, items, labels):
    losses, preds = [], []
    for item, label in zip(items, labels):
        probs = model.forward(load_features(item.path), training=False)
        losses.append(cross_entropy(probs, label))
        preds.append(int(np.argmax(probs)))
    cm = confusion(preds, labels, model.config.n_classes)
    return float(np.mean(losses)), float(np.mean(np.array(preds) == np.array(labels))), cm


def train(model: CrnnModel, corpus_root: str, config: TrainConfig):
    """Train in place; returns (model restored to its best epoch, history)."""
    train_items = scan_corpus(corpus_root, "train")
    val_items = scan_corpus(corpus_root, "validation")
    if not train_items:
        raise DataError(f"no training data under {corpus_root}")
    if not val_items:
        raise DataError(f"no validation data under {corpus_root}")

    n_classes = model.config.n_classes
    train_labels = _labels_for(train_items, n_classes)
    val_labels = _labels_for(val_items, n_classes)

    if config.normalize:
        model.normalization = _normalization_stats(train_items)

    params = model.param_arrays()
    state = AdamState.for_params(
        params, alpha=config.learning_rate, beta1=config.beta1,
        beta2=config.beta2, eps=config.eps,
    )
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
            for idx in batch:
                item, label = train_items[idx], train_labels[idx]
                features = load_features(item.path)
                try:
                    probs = model.forward(features, training=True, rng=dropout_rng)
                    loss = cross_entropy(probs, label)
                except NumericError as exc:
                    raise DivergenceError(
                        f"non-finite values at epoch {epoch}, batch {start // config.batch_size}"
                    ) from exc
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                    )
                epoch_loss += loss
                epoch_correct += int(np.argmax(probs)) == label
                model.backward(label)
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
    """Loss, accuracy and confusion matrix over one split, dropout off."""
    items = scan_corpus(corpus_root, split)
    if not items:
        raise DataError(f"no data in split {split!r} under {corpus_root}")
    labels = _labels_for(items, model.config.n_classes)
    loss, acc, cm = _eval_items(model, items, labels)
    return EvalResult(loss=loss, accuracy=acc, confusion=cm)
