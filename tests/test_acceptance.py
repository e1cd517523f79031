"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The training-based criteria share one synthetic corpus and one pair
of trained models (GRU and LSTM), built on first use.
"""

import hashlib
import json
import math
import pathlib
import os
import time

import numpy as np
import pytest

import callseg
from callseg.audio import AudioBuffer, load_audio, save_wav
from callseg.cli import main as cli_main
from callseg.dbas import CallMetadata, SegmentAnnotation, prepare_corpus
from callseg.features import log_mel_spectrogram
from callseg.gradcheck import gradient_check
from callseg.metrics import class_scores, confusion
from callseg.model import ModelConfig, build_crnn, save_checkpoint
from callseg.synth import SynthSpec, synth_call, synth_corpus
from callseg.training import TrainConfig, train
from tests.conftest import tree_digest, write_tone_wav


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared training fixtures (criteria 4 and 9) -----------------------------

REDUCED = dict(conv_filters=(8, 8, 8, 8), rnn_hidden=(16, 16), n_classes=4,
               input_shape=(96, 250))


@pytest.fixture(scope="module")
def accept_corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("accept") / "corpus")
    spec = SynthSpec(train_speakers_per_class=6, val_speakers_per_class=2,
                     utterances_per_speaker=20, utterance_seconds=2.5)
    synth_corpus(spec, seed=11, out_root=root)
    return root


@pytest.fixture(scope="module")
def trained_models(accept_corpus):
    results = {}
    for kind in ("gru", "lstm"):
        model = build_crnn(ModelConfig(rnn_kind=kind, **REDUCED), seed=5)
        config = TrainConfig(max_epochs=50, patience=10, seed=5)
        start = time.perf_counter()
        model, history = train(model, accept_corpus, config)
        results[kind] = {"model": model, "history": history,
                         "seconds": time.perf_counter() - start}
    return results


# -- criteria -----------------------------------------------------------------

def test_criterion_1_shape_reproduction(tmp_path):
    wav = tmp_path / "ten_seconds.wav"
    write_tone_wav(wav, seconds=10.0, freq=350.0)
    model = build_crnn(ModelConfig(), seed=0)

    start = time.perf_counter()
    buffer = load_audio(str(wav))
    features = log_mel_spectrogram(buffer)
    conv_out = model.conv_stack_output(features.values)
    elapsed = time.perf_counter() - start

    ok = features.values.shape == (96, 1000) and conv_out.shape == (32, 42) and elapsed < 1.0
    report(1, ok,
           f"features {features.values.shape}, conv stack {conv_out.shape}, {elapsed:.2f}s")


def test_criterion_2_parameter_head_law():
    diffs = {}
    for kind in ("gru", "lstm"):
        two = build_crnn(ModelConfig(rnn_kind=kind, n_classes=2), seed=0)
        four = build_crnn(ModelConfig(rnn_kind=kind, n_classes=4), seed=0)
        diffs[kind] = four.count_params() - two.count_params()
    ok = diffs == {"gru": 170, "lstm": 170}
    report(2, ok, f"4-class minus 2-class parameters: {diffs} (expected 170 each)")


def test_criterion_3_gradient_correctness():
    errors = {}
    start = time.perf_counter()
    for kind in ("gru", "lstm"):
        config = ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), dropout_p=0.0,
                             rnn_kind=kind, n_classes=2, input_shape=(12, 50))
        model = build_crnn(config, seed=3, dtype=np.float64)
        x = np.random.default_rng(2).standard_normal((12, 50)) * 2.0
        errors[kind] = gradient_check(model, x, eps=1e-4, label=1)
    elapsed = time.perf_counter() - start
    ok = all(err < 1e-4 for err in errors.values()) and elapsed < 120.0
    report(3, ok,
           "max relative gradient error "
           + ", ".join(f"{k}={v:.2e}" for k, v in errors.items())
           + f" (tolerance 1e-4), {elapsed:.1f}s")


def test_criterion_4_synthetic_training_accuracy(trained_models):
    total_seconds = sum(r["seconds"] for r in trained_models.values())
    summary = {}
    ok = total_seconds <= 1200.0
    for kind, r in trained_models.items():
        history = r["history"]
        best = max(history.val_acc)
        summary[kind] = f"val_acc {best:.4f} at epoch {history.best_epoch}/{len(history)}"
        ok = ok and best >= 0.95 and len(history) <= 50
    report(4, ok, f"{summary} in {total_seconds:.0f}s total (limits: 0.95, 50 epochs, 1200s)")


def test_criterion_5_metrics_against_bruteforce():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.choice([2, 4]))
        n = int(rng.integers(1, 201))
        truths = rng.integers(0, k, n)
        preds = rng.integers(0, k, n)
        scores = class_scores(confusion(preds, truths, k))
        for c in range(k):
            tp = int(np.sum((preds == c) & (truths == c)))
            fp = int(np.sum((preds == c) & (truths != c)))
            fn = int(np.sum((preds != c) & (truths == c)))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            worst = max(worst, abs(scores.precision[c] - precision),
                        abs(scores.recall[c] - recall), abs(scores.f1[c] - f1))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(5, ok, f"1000 random instances, max deviation {worst:.1e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_6_aggregation_semantics():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        windows = [rng.dirichlet(np.ones(4)) for _ in range(int(rng.integers(1, 30)))]
        verdict = callseg.aggregate_speaker(windows)
        hand_mean = sum(windows) / len(windows)
        worst = max(worst, float(np.max(np.abs(verdict.mean_probs - hand_mean))))
        assert verdict.label == int(np.argmax(hand_mean))

    sample = np.array([3.0491428e-08, 8.8888891e-02, 9.1111112e-01, 4.6577166e-11])
    label = callseg.aggregate_speaker([sample]).label
    ok = worst < 1e-12 and label == 2
    report(6, ok, f"hand-mean deviation {worst:.1e} (tol 1e-12); "
                  f"reported sample vector -> class {label} (expected 2, female agent)")


def _golden_fixture_calls():
    """Eight calls covering every annotation acceptance/rejection path."""
    def tone(call_index, seconds):
        rng = np.random.default_rng(1000 + call_index)
        t = np.arange(int(seconds * 8000)) / 8000
        return AudioBuffer(
            0.4 * np.sin(2 * np.pi * (150 + 30 * call_index) * t)
            + 0.01 * rng.standard_normal(t.size),
            8000,
        )

    def segs(*triples):
        return [SegmentAnnotation(a, b, label) for a, b, label in triples]

    calls, segments, audio = [], {}, {}
    def add(call_id, agent, gender, duration, seg_list, audio_seconds, idx):
        calls.append(CallMetadata(call_id, agent, gender, duration, f"{call_id}.wav"))
        segments[call_id] = seg_list
        audio[call_id] = tone(idx, audio_seconds)

    add("c01", "agentA", "female", 30, segs((0, 10, "speech_female"), (10, 20, "speech_male")), 20, 1)
    add("c02", "agentA", "female", 700, segs((0, 10, "speech_female"), (10, 20, "speech_male")), 20, 2)
    add("c03", "agentA", "female", 120,
        segs((0, 30, "speech_female"), (30, 40, "noise"), (40, 70, "speech_female")), 70, 3)
    add("c04", "agentB", "male", 90, segs((0, 50, "music"), (50, 80, "silence")), 80, 4)
    add("c05", "agentA", "female", 120,
        segs((0, 25, "speech_female"), (25, 30, "noise"), (30, 62, "speech_male"),
             (62, 70, "speech_female")), 70, 5)
    add("c06", "agentB", "male", 100,
        segs((0, 15, "speech_male"), (20, 45, "speech_female"), (50, 68, "speech_male")), 68, 6)
    add("c07", "agentC", "female", 80,
        segs((0, 22, "speech_female"), (30, 52, "speech_male")), 52, 7)
    add("c08", "agentC", "male", 60,
        segs((0, 21, "speech_male"), (25, 57, "speech_female")), 57, 8)
    return calls, segments, audio


EXPECTED_GOLDEN_FILES = sorted([
    "manifest.json",
    *[f"train/agent/female/agentA/{i}.npy" for i in range(3)],
    *[f"train/agent/male/agentB/{i}.npy" for i in range(3)],
    *[f"train/customer/male/c05.customer/{i}.npy" for i in range(3)],
    *[f"train/customer/female/c06.customer/{i}.npy" for i in range(2)],
    *[f"train/customer/male/c07.customer/{i}.npy" for i in range(2)],
    *[f"train/customer/female/c08.customer/{i}.npy" for i in range(3)],
])


def test_criterion_7_dbas_golden_fixture(tmp_path):
    calls, segments, audio = _golden_fixture_calls()

    def run(root):
        return prepare_corpus(calls, segments, lambda c: audio[c.call_id], root,
                              val_fraction=0.0, seed=0)

    result = run(str(tmp_path / "a"))
    run(str(tmp_path / "b"))

    found = sorted(
        os.path.relpath(os.path.join(d, f), tmp_path / "a")
        for d, _dirs, files in os.walk(tmp_path / "a") for f in files
    )
    rejections = sorted(result.rejections)
    train_node = result.manifest.splits["train"]
    checks = {
        "tree": found == EXPECTED_GOLDEN_FILES,
        "rejections": rejections == [("c01", "duration"), ("c02", "duration"),
                                     ("c03", "single_gender"), ("c04", "no_speech")],
        "dropped": result.dropped_speakers == {"agentC"},
        "totals": (train_node["speakers"], train_node["utterances"]) == (6, 16),
        "customer": train_node["classes"]["customer"]["utterances"] == 10,
        "agent": train_node["classes"]["agent"]["utterances"] == 6,
        "byte_identical": tree_digest(str(tmp_path / "a")) == tree_digest(str(tmp_path / "b")),
    }
    ok = all(checks.values())
    report(7, ok, f"golden fixture checks: {checks}")


def test_criterion_8_training_determinism(tmp_path):
    corpus = str(tmp_path / "corpus")
    spec = SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                     utterances_per_speaker=2, utterance_seconds=0.5)
    synth_corpus(spec, seed=41, out_root=corpus)

    def run(tag):
        config = ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3),
                             n_classes=4, input_shape=(96, 50))
        model = build_crnn(config, seed=6)
        model, history = train(model, corpus, TrainConfig(max_epochs=3, patience=5, seed=6))
        ckpt = str(tmp_path / f"{tag}.ckpt")
        hist = str(tmp_path / f"{tag}.csv")
        save_checkpoint(model, ckpt)
        history.save_csv(hist)
        return (hashlib.sha256(pathlib.Path(ckpt).read_bytes()).hexdigest(),
                hashlib.sha256(pathlib.Path(hist).read_bytes()).hexdigest())

    first, second = run("a"), run("b")
    ok = first == second
    report(8, ok, f"checkpoint/history checksums identical across runs: {ok}")


def test_criterion_9_end_to_end_analyze(tmp_path, trained_models):
    ckpt = str(tmp_path / "gru.ckpt")
    save_checkpoint(trained_models["gru"]["model"], ckpt)

    # seed 777 never appears in the corpus seed sequences: held-out speakers
    audio, segments, truth = synth_call(seed=777, agent_gender="female",
                                        turns=4, turn_seconds=11.0)
    wav = str(tmp_path / "call.wav")
    save_wav(wav, audio)
    seg_path = tmp_path / "call.csv"
    seg_path.write_text(
        "start,end,label\n"
        + "".join(f"{s.start},{s.end},{s.label}\n" for s in segments)
    )
    out = str(tmp_path / "report.json")

    start = time.perf_counter()
    code = cli_main(["analyze", "--wav", wav, "--segments", str(seg_path),
                     "--model", ckpt, "--out", out])
    elapsed = time.perf_counter() - start

    reportdoc = json.loads(pathlib.Path(out).read_text())
    by_gender = {e["gender"]: e for e in reportdoc["speakers"]}
    expected = {"female": truth["agent"], "male": truth["customer"]}
    got = {g: by_gender[g]["label_index"] for g in expected}
    ok = code == 0 and got == expected and elapsed < 60.0
    report(9, ok, f"speaker labels {got} (expected {expected}), {elapsed:.1f}s")
