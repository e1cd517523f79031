"""The three benchmark workloads: inputs made from a seed, one operation, checks.

Every workload builds its inputs in ``setup`` (synthesis, files on disk,
models) and returns a small JSON-able description of them. ``load`` turns
that description back into the workload's state without synthesizing
anything, so setup can run in another process. The workload then runs a
fixed cycle of operations in a closed loop with one client. An operation
calls the library's public entry points, times only those calls, and checks
their outputs afterwards. Input *shapes* (call lengths, corpus sizes) are
fixed; the seed varies voices, genders and noise, so figures from different
seeds are comparable.

The benchmark calls the library through module attributes
(``cs_analyze.analyze_call``) so that the tracer can wrap them.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import callseg.analyze as cs_analyze
import callseg.audio as cs_audio
import callseg.dbas as cs_dbas
import callseg.training as cs_training
from callseg.features import log_mel_spectrogram
from callseg.model import ModelConfig, build_crnn, load_checkpoint, save_checkpoint
from callseg.synth import SynthSpec, speaker_voice, synth_call, synth_corpus, synth_speech

RATE = 8000
GENDERS = ("female", "male")
# fixed seed of the reference inputs whose outputs reference.json records
REFERENCE_SEED = 4242


@dataclass
class OpResult:
    seconds: float  # latency of the library calls alone
    audio_s: float  # seconds of audio the operation handled
    samples: int  # model-input-sized samples: windows, utterances, training samples
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    note: str = ""


def _write_call(wav, seg_csv, audio, segments):
    cs_audio.save_wav(wav, audio)
    with open(seg_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end", "label"])
        for seg in segments:
            writer.writerow([repr(seg.start), repr(seg.end), seg.label])
    return wav, seg_csv


def _speech_samples(segments, gender):
    label = f"speech_{gender}"
    return sum(round(s.end * RATE) - round(s.start * RATE) for s in segments if s.label == label)


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


# ---------------------------------------------------------------------------
# analyze-default

# Turn lengths in seconds, alternating agent and customer, with 1 s noise
# gaps. The calls lie in the 60-600 s range that prepare_corpus accepts as
# real calls (README.md gives the basis of the mix):
# - 65 s and 62 s calls whose customer speaks 7 s and 5 s in all, under the
#   10 s window, so their customer stream takes the no-windows path;
# - the ROADMAP's 70 s call, two speakers of about 32 s each;
# - a 3-minute call of 16 turns.
# 283 windows and 377 s of audio per cycle, 0.75 windows per audio second.
ANALYZE_CALLS = (
    (20.0, 3.0, 18.0, 4.0, 16.0),
    (25.0, 5.0, 30.0),
    (10.8,) * 6,
    (10.3,) * 16,
)
ANALYZE_MODEL_SEED = 0
WINDOW_SAMPLES = 1000 * 80  # the default model's 1000 frames at the 80-sample hop
SHIFT_SAMPLES = RATE  # analyze_call's default 1 s shift
MEAN_PROB_TOL = 1e-4
PROB_SUM_TOL = 1e-5


@dataclass
class CallInput:
    wav: str
    segments_csv: str
    seconds: float
    speakers: list  # [(gender, stream samples, expected windows)] in slot order


def synth_turns(seed, agent_gender, turn_seconds, gap_seconds=1.0):
    """A two-speaker call with one length per turn; otherwise as ``synth_call``.

    Returns (AudioBuffer, segments). Turns alternate agent and customer,
    starting with the agent, with noise gaps between them.
    """
    genders = {"agent": agent_gender,
               "customer": "male" if agent_gender == "female" else "female"}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9001]))
    voices = {role: speaker_voice(cs_dbas.class_label_of(role, gender), rng)
              for role, gender in genders.items()}
    pieces, segments = [], []
    cursor = 0.0
    for i, seconds in enumerate(turn_seconds):
        role = "agent" if i % 2 == 0 else "customer"
        pieces.append(synth_speech(voices[role], seconds, rng, RATE))
        segments.append(cs_dbas.SegmentAnnotation(cursor, cursor + seconds,
                                                  f"speech_{genders[role]}"))
        cursor += seconds
        if i < len(turn_seconds) - 1:
            pieces.append(0.02 * rng.standard_normal(int(round(gap_seconds * RATE))))
            segments.append(cs_dbas.SegmentAnnotation(cursor, cursor + gap_seconds, "noise"))
            cursor += gap_seconds
    return cs_audio.AudioBuffer(np.concatenate(pieces), RATE), segments


def _call_input(directory, name, audio, segments):
    wav, seg_csv = _write_call(os.path.join(directory, f"{name}.wav"),
                               os.path.join(directory, f"{name}.csv"), audio, segments)
    order = []
    for seg in segments:
        gender = seg.label.removeprefix("speech_")
        if gender in GENDERS and gender not in order:
            order.append(gender)
    speakers = []
    for gender in order:
        n = _speech_samples(segments, gender)
        windows = 0 if n < WINDOW_SAMPLES else 1 + (n - WINDOW_SAMPLES) // SHIFT_SAMPLES
        speakers.append((gender, n, windows))
    return CallInput(wav, seg_csv, audio.duration, speakers)


def check_analysis(analysis, call: CallInput) -> list[str]:
    problems = []
    got = [rep.gender for rep in analysis.speakers]
    want = [gender for gender, _n, _w in call.speakers]
    if got != want:
        return [f"{call.wav}: speaker genders {got}, expected {want}"]
    for rep, (gender, n, windows) in zip(analysis.speakers, call.speakers):
        where = f"{call.wav} {gender}"
        if not _close(rep.talk_time, n / RATE, 1e-9):
            problems.append(f"{where}: talk time {rep.talk_time}, expected {n / RATE}")
        if windows == 0:
            if not rep.no_windows or rep.verdict is not None:
                problems.append(f"{where}: expected the no-windows path")
            continue
        verdict = rep.verdict
        if verdict is None or verdict.window_count != windows:
            problems.append(f"{where}: expected {windows} windows")
            continue
        probs = np.asarray(verdict.mean_probs)
        if (probs.shape != (2,) or not np.all(np.isfinite(probs)) or np.any(probs < 0)
                or not _close(probs.sum(), 1.0, PROB_SUM_TOL)):
            problems.append(f"{where}: invalid probability vector {probs}")
        elif verdict.label != int(np.argmax(probs)):
            problems.append(f"{where}: label {verdict.label} is not the argmax of {probs}")
    return problems


class AnalyzeDefault:
    """Sequential whole-call analysis with the default 96x1000 GRU model."""

    name = "analyze-default"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        calls = []
        for i, turn_seconds in enumerate(ANALYZE_CALLS):
            gender = str(rng.choice(GENDERS))
            audio, segments = synth_turns(seed * 1000 + i, gender, turn_seconds)
            calls.append(_call_input(workdir, f"call{i}", audio, segments))

        audio, segments, _truth = synth_call(REFERENCE_SEED, agent_gender="female",
                                             turns=3, turn_seconds=11.0)
        reference_call = _call_input(workdir, "reference", audio, segments)
        model = build_crnn(ModelConfig(), seed=ANALYZE_MODEL_SEED)
        values = log_mel_spectrogram(audio).values.astype(np.float64)
        model.normalization = (float(values.mean()), float(values.std()))
        save_checkpoint(model, os.path.join(workdir, "model.ckpt"))
        # The round trip counts in setup_s; load() reads the checkpoint again.
        load_checkpoint(os.path.join(workdir, "model.ckpt"))
        return {"calls": [asdict(c) for c in calls], "reference_call": asdict(reference_call)}

    def load(self, workdir, inputs):
        def call_input(d):
            return CallInput(d["wav"], d["segments_csv"], d["seconds"],
                             [tuple(s) for s in d["speakers"]])

        self.calls = [call_input(d) for d in inputs["calls"]]
        self.reference_call = call_input(inputs["reference_call"])
        # as `callseg analyze` loads it
        self.model = load_checkpoint(os.path.join(workdir, "model.ckpt"))

    def cycle(self):
        return self.calls

    def instrument(self, tracer):
        tracer.instrument_model(self.model)

    def run_op(self, call, tracer):
        start = time.perf_counter()
        audio = cs_audio.load_audio(call.wav)
        segments = cs_dbas.read_segments_csv(call.segments_csv)
        analysis = cs_analyze.analyze_call(audio, segments, self.model)
        seconds = time.perf_counter() - start
        windows = sum(r.verdict.window_count for r in analysis.speakers if r.verdict is not None)
        return OpResult(seconds, audio.duration, windows, {"analyze.windows": windows},
                        check_analysis(analysis, call))

    def reference_values(self):
        """Per-speaker mean probabilities of the fixed reference call."""
        call = self.reference_call
        analysis = cs_analyze.analyze_call(cs_audio.load_audio(call.wav),
                                           cs_dbas.read_segments_csv(call.segments_csv),
                                           self.model)
        problems = check_analysis(analysis, call)
        values = {rep.gender: [float(p) for p in rep.verdict.mean_probs]
                  for rep in analysis.speakers if rep.verdict is not None}
        return values, problems

    @staticmethod
    def compare_reference(values, reference):
        problems = []
        if sorted(values) != sorted(reference):
            return [f"reference speakers {sorted(values)}, expected {sorted(reference)}"]
        for gender, probs in reference.items():
            if any(not _close(a, b, MEAN_PROB_TOL) for a, b in zip(values[gender], probs)):
                problems.append(f"reference call {gender}: mean probabilities {values[gender]}, "
                                f"expected {probs} within {MEAN_PROB_TOL}")
        return problems


# ---------------------------------------------------------------------------
# prepare-dbas

# (call_id, agent_id, agent_gender, turns, turn_seconds, kind)
PREPARE_CALLS = (
    ("a1", "agentA", "female", 6, 11.0, "accept"),  # 71 s
    ("a2", "agentA", "female", 7, 10.0, "accept"),  # 76 s
    ("b1", "agentB", "male", 6, 11.0, "accept"),
    ("b2", "agentB", "male", 5, 13.0, "accept"),  # 69 s
    ("c1", "agentC", "female", 6, 12.0, "accept"),  # 77 s
    ("c2", "agentC", "female", 8, 9.0, "accept"),  # 79 s
    ("d1", "agentD", "male", 6, 11.0, "accept"),
    ("d2", "agentD", "male", 7, 10.0, "accept"),
    ("e1", "agentE", "female", 6, 11.0, "accept"),  # agentE heard as female here
    ("e2", "agentE", "male", 6, 11.0, "accept"),  # and as male here: dropped
    ("s1", "agentA", "female", 4, 11.0, "short"),  # 47 s, under 60 s
    ("l1", "agentB", "male", 2, 305.0, "long"),  # 611 s, over 600 s
    ("m1", "agentC", "female", 6, 11.0, "mono"),  # female speech only
)
REFERENCE_PREPARE = (PREPARE_CALLS[0], PREPARE_CALLS[2])
INCONSISTENT_AGENT = "agentE"
UTTERANCE_SECONDS = 10.0
FEATURE_TOL = 1e-3
FEATURE_PROBES = (0, 12345, 48000, 95999)  # flat indices into a (96, 1000) array


@dataclass
class CallSet:
    calls_csv: str
    segments_dir: str
    audio_dir: str
    expected: dict


def _write_call_set(root, specs, seed):
    segments_dir = os.path.join(root, "segments")
    audio_dir = os.path.join(root, "audio")
    os.makedirs(segments_dir)
    os.makedirs(audio_dir)
    rows = []
    utterances = {}  # (speaker, role, gender) -> count
    decoded_seconds = 0.0
    for i, (call_id, agent, agent_gender, turns, turn_seconds, kind) in enumerate(specs):
        audio, segments, _truth = synth_call(seed * 1000 + i, agent_gender=agent_gender,
                                             turns=turns, turn_seconds=turn_seconds)
        if kind == "mono":
            segments = [cs_dbas.SegmentAnnotation(s.start, s.end, f"speech_{agent_gender}")
                        if s.label.startswith("speech_") else s for s in segments]
        wav, _csv = _write_call(os.path.join(audio_dir, f"{call_id}.wav"),
                                os.path.join(segments_dir, f"{call_id}.csv"), audio, segments)
        rows.append([call_id, agent, agent_gender, repr(audio.duration), os.path.basename(wav)])
        if kind != "accept":
            continue
        decoded_seconds += audio.duration
        customer_gender = "male" if agent_gender == "female" else "female"
        for role, speaker, gender in (("agent", agent, agent_gender),
                                      ("customer", f"{call_id}.customer", customer_gender)):
            if speaker == INCONSISTENT_AGENT:
                continue
            n = _speech_samples(segments, gender) // int(UTTERANCE_SECONDS * RATE)
            key = (speaker, role, gender)
            utterances[key] = utterances.get(key, 0) + n

    calls_csv = os.path.join(root, "calls.csv")
    with open(calls_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["call_id", "agent_id", "agent_gender", "duration", "audio_path"])
        writer.writerows(rows)

    by_class = {}
    for (speaker, role, gender), n in utterances.items():
        node = by_class.setdefault(f"{role}/{gender}", [set(), 0])
        if n:
            node[0].add(speaker)
        node[1] += n
    # JSON-able, so that it survives the trip from the setup process
    expected = {
        "rejections": sorted([c[0], "single_gender" if c[5] == "mono" else "duration"]
                             for c in specs if c[5] != "accept"),
        "accepted": sorted(c[0] for c in specs if c[5] == "accept"),
        "dropped": [INCONSISTENT_AGENT] if any(c[1] == INCONSISTENT_AGENT for c in specs) else [],
        "utterances": sum(utterances.values()),
        "speakers": sum(1 for n in utterances.values() if n),
        "by_class": {k: [len(v[0]), v[1]] for k, v in by_class.items()},
        "decoded_seconds": decoded_seconds,
    }
    return CallSet(calls_csv, segments_dir, audio_dir, expected)


def _feature_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _dirs, files in os.walk(root) for f in files if f.endswith(".npy")
    )


def check_prepared(result, root, expected) -> list[str]:
    problems = []
    rejections = sorted(list(r) for r in result.rejections)
    if rejections != expected["rejections"]:
        problems.append(f"rejections {rejections}, expected {expected['rejections']}")
    accepted = sorted(c.call_id for c in result.accepted_calls)
    if accepted != expected["accepted"]:
        problems.append(f"accepted calls {accepted}, expected {expected['accepted']}")
    if sorted(result.dropped_speakers) != expected["dropped"]:
        problems.append(f"dropped {result.dropped_speakers}, expected {expected['dropped']}")
    if result.manifest is None:
        return problems + ["no manifest written"]

    splits = result.manifest.splits.values()
    totals = (sum(s["speakers"] for s in splits), sum(s["utterances"] for s in splits))
    if totals != (expected["speakers"], expected["utterances"]):
        problems.append(f"manifest speakers/utterances {totals}, expected "
                        f"{(expected['speakers'], expected['utterances'])}")
    for key, want in expected["by_class"].items():
        role, gender = key.split("/")
        got = [0, 0]
        for split in splits:
            node = split["classes"].get(role, {}).get("genders", {}).get(gender)
            if node:
                got[0] += node["speakers"]
                got[1] += node["utterances"]
        if got != want:
            problems.append(f"manifest {key} speakers/utterances {got}, "
                            f"expected {want}")

    files = _feature_files(root)
    if len(files) != expected["utterances"]:
        problems.append(f"{len(files)} feature files, expected {expected['utterances']}")
    for rel in files:
        arr = np.load(os.path.join(root, rel))
        if arr.shape != (96, 1000) or arr.dtype != np.float32 or not np.all(np.isfinite(arr)):
            problems.append(f"{rel}: bad feature array {arr.shape} {arr.dtype}")
            break
    return problems


class PrepareDbas:
    """DBAS corpus preparation from call WAVs and segment CSVs on disk."""

    name = "prepare-dbas"

    def setup(self, seed, workdir):
        call_set = _write_call_set(os.path.join(workdir, "calls"), PREPARE_CALLS, seed)
        reference_set = _write_call_set(os.path.join(workdir, "reference"),
                                        REFERENCE_PREPARE, REFERENCE_SEED)
        return {"call_set": asdict(call_set), "reference_set": asdict(reference_set)}

    def load(self, workdir, inputs):
        self.workdir = workdir
        self.call_set = CallSet(**inputs["call_set"])
        self.reference_set = CallSet(**inputs["reference_set"])
        self.op_index = 0

    def cycle(self):
        return [self.call_set]

    def _prepare(self, call_set, out_root):
        calls = cs_dbas.read_calls_csv(call_set.calls_csv)
        segments_by_call = {
            call.call_id: cs_dbas.read_segments_csv(
                os.path.join(call_set.segments_dir, f"{call.call_id}.csv"))
            for call in calls
        }

        def loader(call):
            return cs_audio.load_audio(os.path.join(call_set.audio_dir, call.audio_path))

        return cs_dbas.prepare_corpus(calls, segments_by_call, loader, out_root,
                                      val_fraction=0.2, seed=0)

    def run_op(self, call_set, tracer):
        self.op_index += 1
        out_root = os.path.join(self.workdir, f"corpus{self.op_index}")
        start = time.perf_counter()
        result = self._prepare(call_set, out_root)
        seconds = time.perf_counter() - start
        problems = check_prepared(result, out_root, call_set.expected)
        shutil.rmtree(out_root)
        utterances = (sum(s["utterances"] for s in result.manifest.splits.values())
                      if result.manifest is not None else 0)
        counts = {"dbas.calls_attempted": len(PREPARE_CALLS),
                  "dbas.calls_accepted": len(result.accepted_calls),
                  "dbas.utterances": utterances}
        return OpResult(seconds, call_set.expected["decoded_seconds"], utterances, counts, problems)

    def reference_values(self):
        """Summary values of every feature file prepared from the reference calls."""
        out_root = os.path.join(self.workdir, "reference_corpus")
        result = self._prepare(self.reference_set, out_root)
        problems = check_prepared(result, out_root, self.reference_set.expected)
        values = {}
        for rel in _feature_files(out_root):
            arr = np.load(os.path.join(out_root, rel)).astype(np.float64)
            values[rel] = [arr.mean(), arr.std(), *arr.ravel()[list(FEATURE_PROBES)]]
            values[rel] = [float(v) for v in values[rel]]
        shutil.rmtree(out_root)
        return values, problems

    @staticmethod
    def compare_reference(values, reference):
        if sorted(values) != sorted(reference):
            return [f"reference feature files {sorted(values)}, expected {sorted(reference)}"]
        return [
            f"reference {rel}: summary {values[rel]}, expected {want} within {FEATURE_TOL}"
            for rel, want in reference.items()
            if any(not _close(a, b, FEATURE_TOL) for a, b in zip(values[rel], want))
        ]


# ---------------------------------------------------------------------------
# train-reduced

# the acceptance suite's reduced 4-class model and synthetic corpus
REDUCED = dict(conv_filters=(8, 8, 8, 8), rnn_hidden=(16, 16), n_classes=4,
               input_shape=(96, 250))
CORPUS = SynthSpec(train_speakers_per_class=6, val_speakers_per_class=2,
                   utterances_per_speaker=20, utterance_seconds=2.5)
TRAIN_SEED = 5
EPOCHS = 3
VAL_ACC_MIN = 0.5  # twice the 4-class chance level


class TrainReduced:
    """train() on the acceptance corpus for a fixed epoch count, GRU then LSTM."""

    name = "train-reduced"

    def setup(self, seed, workdir):
        synth_corpus(CORPUS, seed=seed, out_root=os.path.join(workdir, "corpus"))
        return {}

    def load(self, workdir, inputs):
        self.corpus = os.path.join(workdir, "corpus")
        self.n_train = len(cs_training.scan_corpus(self.corpus, "train"))
        self.n_val = len(cs_training.scan_corpus(self.corpus, "validation"))

    def cycle(self):
        return ["gru", "lstm"]

    def warm_up(self):
        model = build_crnn(ModelConfig(**REDUCED), seed=TRAIN_SEED)
        item = cs_training.scan_corpus(self.corpus, "train")[0]
        model.forward(cs_training.load_features(item.path), training=True,
                      rng=np.random.default_rng(0))
        model.backward(item.label4)

    def run_op(self, kind, tracer):
        model = build_crnn(ModelConfig(rnn_kind=kind, **REDUCED), seed=TRAIN_SEED)
        if tracer is not None:
            tracer.instrument_model(model)
        config = cs_training.TrainConfig(max_epochs=EPOCHS, patience=EPOCHS + 1, seed=TRAIN_SEED)
        start = time.perf_counter()
        _model, history = cs_training.train(model, self.corpus, config)
        seconds = time.perf_counter() - start

        problems = []
        losses = history.train_loss + history.val_loss
        val_acc = max(history.val_acc) if history.val_acc else 0.0
        if len(history) != EPOCHS:
            problems.append(f"{kind}: ran {len(history)} epochs, expected {EPOCHS}")
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"{kind}: non-finite loss in {losses}")
        if val_acc < VAL_ACC_MIN:
            problems.append(f"{kind}: val_acc {val_acc} below {VAL_ACC_MIN}")
        epochs = len(history)
        counts = {"training.epochs": epochs, "training.samples": self.n_train * epochs,
                  "training.val_acc": val_acc, "training.runs": 1}
        audio_s = (self.n_train + self.n_val) * epochs * CORPUS.utterance_seconds
        return OpResult(seconds, audio_s, self.n_train * epochs, counts, problems,
                        note=f"{kind} val_acc {val_acc:.4f}")


WORKLOADS = {w.name: w for w in (AnalyzeDefault, TrainReduced, PrepareDbas)}
