import math
import os
import tracemalloc

import numpy as np
import pytest

import callseg
from callseg.errors import ConfigError, DataError, DivergenceError, LayoutError
from callseg.features import save_features
from callseg.synth import SynthSpec, synth_corpus
import callseg.training as training_mod
from callseg.training import TrainConfig, evaluate, micro_batch_size, scan_corpus, train
from tests.conftest import write_half_run

TINY_MODEL = dict(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), input_shape=(96, 50))


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    """0.5 s utterances -> (96, 50) features; 2+1 speakers per class, 3 utts each."""
    root = str(tmp_path_factory.mktemp("corpus") / "micro")
    spec = SynthSpec(train_speakers_per_class=2, val_speakers_per_class=1,
                     utterances_per_speaker=3, utterance_seconds=0.5)
    synth_corpus(spec, seed=21, out_root=root)
    return root


def tiny_model(n_classes=2, seed=0, **overrides):
    config = callseg.ModelConfig(n_classes=n_classes, **{**TINY_MODEL, **overrides})
    return callseg.build_crnn(config, seed=seed)


class TestScanCorpus:
    def test_decodes_labels_from_path(self, tmp_path):
        leaf = tmp_path / "validation" / "customer" / "male" / "spk77"
        leaf.mkdir(parents=True)
        save_features(str(leaf / "12.npy"), np.zeros((4, 4), dtype=np.float32))
        items = scan_corpus(str(tmp_path), "validation")
        assert len(items) == 1
        assert items[0].label2 == 0
        assert items[0].label4 == 1
        assert items[0].speaker_id == "spk77"

    def test_empty_tree(self, tmp_path):
        assert scan_corpus(str(tmp_path), "train") == []

    def test_unknown_component_raises(self, tmp_path):
        leaf = tmp_path / "train" / "agent" / "unknown" / "x"
        leaf.mkdir(parents=True)
        save_features(str(leaf / "0.npy"), np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(LayoutError) as err:
            scan_corpus(str(tmp_path), "train")
        assert "unknown" in str(err.value)

    def test_stray_file_raises(self, tmp_path):
        leaf = tmp_path / "train" / "agent" / "female" / "spk1"
        leaf.mkdir(parents=True)
        (leaf / "notes.txt").write_text("hello")
        with pytest.raises(LayoutError):
            scan_corpus(str(tmp_path), "train")

    def test_sorted_order(self, micro_corpus):
        items = scan_corpus(micro_corpus, "train")
        assert [i.path for i in items] == sorted(i.path for i in items)
        assert len(items) == 4 * 2 * 3


class TestTrain:
    def test_frozen_validation_stops_after_patience(self, micro_corpus, monkeypatch):
        # an optimizer step that updates nothing freezes the model, so
        # validation accuracy never improves
        monkeypatch.setattr("callseg.training.adam_step", lambda params, grads, state: state)
        model = tiny_model(n_classes=2)
        config = TrainConfig(max_epochs=50, patience=3, seed=0)
        _model, history = train(model, micro_corpus, config)
        assert len(history) == 1 + 3
        assert history.best_epoch == 1

    def test_stops_at_the_first_epoch_with_perfect_validation_accuracy(self, micro_corpus,
                                                                       monkeypatch):
        # validation accuracy 0.5, then 1.0: no later epoch could be kept
        scores = iter([0.5, 1.0, 0.5, 0.5, 0.5, 0.5])
        evaluate_items = training_mod._eval_items

        def scripted(model, items, labels):
            loss, _acc, cm = evaluate_items(model, items, labels)
            return loss, next(scores), cm

        monkeypatch.setattr(training_mod, "_eval_items", scripted)
        model = tiny_model(n_classes=2)
        _model, history = train(model, micro_corpus, TrainConfig(max_epochs=6, patience=5, seed=0))
        assert history.val_acc == [0.5, 1.0]
        assert history.best_epoch == 2

    def test_runs_exactly_max_epochs_when_patience_never_exhausted(self, micro_corpus):
        model = tiny_model(n_classes=2)
        config = TrainConfig(max_epochs=3, patience=10, seed=0)
        _model, history = train(model, micro_corpus, config)
        assert len(history) == 3

    def test_best_epoch_is_argmax_of_validation_accuracy(self, micro_corpus):
        model = tiny_model(n_classes=4)
        config = TrainConfig(max_epochs=4, patience=10, seed=1)
        _model, history = train(model, micro_corpus, config)
        assert history.val_acc[history.best_epoch - 1] == max(history.val_acc)

    def test_determinism_bit_identical_histories(self, micro_corpus):
        def run():
            model = tiny_model(n_classes=2, seed=5)
            config = TrainConfig(max_epochs=2, patience=5, seed=9)
            _m, history = train(model, micro_corpus, config)
            return history.to_csv()

        assert run() == run()

    def test_initial_loss_near_log_n_classes(self, micro_corpus):
        for k in (2, 4):
            model = tiny_model(n_classes=k, seed=3)
            result = evaluate(model, micro_corpus, "validation")
            assert abs(result.loss - math.log(k)) / math.log(k) < 0.2

    def test_normalization_stats_from_train_split_only(self, micro_corpus, tmp_path):
        import shutil

        root = str(tmp_path / "skewed")
        shutil.copytree(micro_corpus, root)
        # poison the validation features; training stats must not move
        items = scan_corpus(root, "validation")
        for item in items:
            save_features(item.path, 1e6 * np.ones((96, 50), dtype=np.float32))

        model = tiny_model(n_classes=2)
        train(model, root, TrainConfig(max_epochs=1, patience=1, seed=0))
        from callseg.training import _normalization_stats

        expected = _normalization_stats(scan_corpus(root, "train"))
        assert model.normalization == pytest.approx(expected)

    def test_empty_split_raises(self, tmp_path):
        with pytest.raises(DataError):
            train(tiny_model(), str(tmp_path), TrainConfig())

    def test_root_without_manifest_raises(self, tmp_path):
        write_half_run(tmp_path / "corpus")
        with pytest.raises(DataError, match="manifest.json"):
            train(tiny_model(), str(tmp_path / "corpus"), TrainConfig(max_epochs=2, patience=5))

    def test_divergence_reported_with_context(self, micro_corpus):
        model = tiny_model(n_classes=2)
        model.head.bias[...] = np.float32(np.nan)  # forces non-finite logits
        model.normalization = None
        with pytest.raises(DivergenceError) as err:
            train(model, micro_corpus, TrainConfig(max_epochs=1, patience=1))
        assert "epoch 1" in str(err.value)

    def test_optimizer_steps_per_epoch(self, micro_corpus, monkeypatch):
        import callseg.training as training_mod

        calls = []
        real = training_mod.adam_step

        def counting(params, grads, state):
            calls.append(1)
            return real(params, grads, state)

        monkeypatch.setattr(training_mod, "adam_step", counting)
        model = tiny_model(n_classes=2)
        config = TrainConfig(max_epochs=2, patience=5, batch_size=5, seed=0)
        train(model, micro_corpus, config)
        n_train = len(scan_corpus(micro_corpus, "train"))
        assert len(calls) == 2 * math.ceil(n_train / 5)

    def test_returned_model_is_best_epoch_weights(self, micro_corpus):
        model = tiny_model(n_classes=2, seed=2)
        config = TrainConfig(max_epochs=3, patience=10, seed=2)
        best_model, history = train(model, micro_corpus, config)
        result = evaluate(best_model, micro_corpus, "validation")
        assert result.accuracy == pytest.approx(max(history.val_acc))


class TestMicroBatches:
    def test_size_comes_from_the_model_config(self):
        reduced = callseg.ModelConfig(conv_filters=(8, 8, 8, 8), rnn_hidden=(16, 16),
                                      n_classes=4, input_shape=(96, 250))
        assert micro_batch_size(callseg.build_crnn(reduced, seed=0)) == 4
        assert micro_batch_size(callseg.build_crnn(reduced, seed=9)) == 4
        assert micro_batch_size(callseg.build_crnn(callseg.ModelConfig(), seed=0)) == 1

    def test_each_batch_and_the_validation_split_run_in_micro_batches(self, micro_corpus,
                                                                       monkeypatch):
        model = tiny_model(n_classes=2)
        monkeypatch.setattr(training_mod, "BATCH_BYTES", 4 * model.cache_bytes())
        passes = []
        forward = model.forward

        def counting(features, training=False, rng=None):
            passes.append((len(features), training))
            return forward(features, training, rng)

        model.forward = counting
        train(model, micro_corpus, TrainConfig(max_epochs=1, patience=5, batch_size=10, seed=0))
        # 24 training samples in batches of 10, 10 and 4; 12 validation samples
        assert [n for n, training in passes if training] == [4, 4, 2, 4, 4, 2, 4]
        assert [n for n, training in passes if not training] == [4, 4, 4]

    @staticmethod
    def train_peak(corpus, batch_size):
        tracemalloc.start()
        try:
            train(tiny_model(n_classes=2), corpus,
                  TrainConfig(max_epochs=1, patience=5, batch_size=batch_size, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_batch_size(self, micro_corpus, monkeypatch):
        per_sample = tiny_model().cache_bytes()
        monkeypatch.setattr(training_mod, "BATCH_BYTES", 4 * per_sample)
        small = self.train_peak(micro_corpus, 4)
        large = self.train_peak(micro_corpus, 32)  # all 24 samples in one batch
        assert large <= small + (64 << 10)
        # the check can fail: one pass over all 24 samples holds their caches together
        monkeypatch.setattr(training_mod, "BATCH_BYTES", 1 << 40)
        assert self.train_peak(micro_corpus, 32) > small + 10 * per_sample


class TestEvaluate:
    def test_hardwired_class_zero_model(self, micro_corpus):
        model = tiny_model(n_classes=2)
        for _name, param in model.named_params():
            param[...] = 0.0
        model.head.bias[...] = np.array([1.0, 0.0], dtype=np.float32)
        result = evaluate(model, micro_corpus, "validation")
        items = scan_corpus(micro_corpus, "validation")
        n_class0 = sum(1 for it in items if it.label2 == 0)
        assert result.accuracy == pytest.approx(n_class0 / len(items))
        assert result.confusion[:, 1].sum() == 0  # nothing predicted as class 1

    def test_accuracy_equals_trace_over_total(self, micro_corpus):
        model = tiny_model(n_classes=4, seed=8)
        result = evaluate(model, micro_corpus, "validation")
        cm = result.confusion
        assert result.accuracy == pytest.approx(np.trace(cm) / cm.sum())

    def test_missing_split_raises(self, micro_corpus):
        with pytest.raises(ConfigError):
            evaluate(tiny_model(), micro_corpus, "test")

    def test_split_path_raises(self, micro_corpus, tmp_path):
        other = tmp_path / "other"
        synth_corpus(SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                               utterances_per_speaker=2, utterance_seconds=0.5), 3, str(other))
        with pytest.raises(ConfigError, match="split"):  # another root's split, past our manifest
            evaluate(tiny_model(), micro_corpus, os.path.relpath(other / "train", micro_corpus))

    def test_root_without_manifest_raises(self, tmp_path):
        write_half_run(tmp_path / "corpus")
        with pytest.raises(DataError, match="manifest.json"):
            evaluate(tiny_model(), str(tmp_path / "corpus"), "validation")


def test_history_csv_format(micro_corpus):
    model = tiny_model(n_classes=2)
    _m, history = train(model, micro_corpus, TrainConfig(max_epochs=2, patience=5))
    lines = history.to_csv().strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + len(history)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert len(first) == 5
