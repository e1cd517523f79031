import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import callseg
from callseg import analyze
from callseg.analyze import (
    aggregate_speaker,
    analyze_call,
    build_speaker_streams,
    window_count,
)
from callseg.audio import AudioBuffer
from callseg.dbas import SEGMENT_LABELS, SegmentAnnotation
from callseg.errors import (CallsegError, InputError, NoSpeechError, NoWindowsError,
                            SampleRateError, ShapeError)
from callseg.features import HOP, log_mel_spectrogram

RATE = 8000


def seg(start, end, label):
    return SegmentAnnotation(start, end, label)


@pytest.fixture(scope="module")
def fast_model():
    # 25-frame input -> 0.25 s windows, cheap forwards
    config = callseg.ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3),
                                 n_classes=4, input_shape=(96, 25))
    return callseg.build_crnn(config, seed=0)


class TestSpeakerStreams:
    def test_interval_arithmetic(self):
        audio = AudioBuffer(np.arange(20 * RATE) / (20 * RATE), RATE)
        segments = [
            seg(0, 5, "speech_female"),
            seg(5, 7, "noise"),
            seg(7, 12, "speech_male"),
            seg(12, 20, "speech_female"),
        ]
        streams = build_speaker_streams(audio, segments)
        by_gender = {s.gender: s for s in streams}
        assert by_gender["female"].duration == pytest.approx(13.0)
        assert by_gender["male"].duration == pytest.approx(5.0)
        assert by_gender["female"].slot == 0  # heard first
        # concatenation preserves temporal order
        expected = np.concatenate([audio.samples[: 5 * RATE], audio.samples[12 * RATE :]])
        npt.assert_array_equal(by_gender["female"].samples, expected)

    def test_all_music_rejected(self):
        audio = AudioBuffer(np.zeros(10 * RATE), RATE)
        with pytest.raises(NoSpeechError):
            build_speaker_streams(audio, [seg(0, 4, "music"), seg(4, 10, "music")])

    def test_segment_past_the_end_rejected(self):
        audio = AudioBuffer(np.zeros(12 * RATE), RATE)
        with pytest.raises(InputError):
            build_speaker_streams(audio, [seg(0, 6, "speech_female"), seg(100, 200, "speech_male")])

    def test_single_gender_single_stream(self):
        audio = AudioBuffer(np.zeros(10 * RATE), RATE)
        streams = build_speaker_streams(audio, [seg(0, 10, "speech_male")])
        assert len(streams) == 1
        assert streams[0].gender == "male"


class TestSlidingWindows:
    def test_65_second_stream_gives_56_windows(self):
        assert window_count(65 * RATE, 10 * RATE, RATE) == 56

    def test_exact_window_length(self):
        assert window_count(10 * RATE, 10 * RATE, RATE) == 1

    def test_below_window(self):
        assert window_count(int(9.5 * RATE), 10 * RATE, RATE) == 0

    def test_count_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 500))
            window = int(rng.integers(1, 60))
            shift = int(rng.integers(1, 20))
            brute = sum(1 for off in range(0, n + 1, shift) if off + window <= n)
            assert window_count(n, window, shift) == brute


class TestAggregate:
    def test_hand_computed_mean(self):
        verdict = aggregate_speaker([np.array([0.2, 0.8]), np.array([0.6, 0.4])])
        npt.assert_allclose(verdict.mean_probs, [0.4, 0.6], atol=1e-15)
        assert verdict.label == 1
        assert verdict.window_count == 2
        assert not verdict.tie

    def test_single_window_is_identity(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        verdict = aggregate_speaker([probs])
        npt.assert_array_equal(verdict.mean_probs, probs)
        assert verdict.label == 3

    def test_symmetric_tie_flags_and_takes_lowest_index(self):
        verdict = aggregate_speaker([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        npt.assert_allclose(verdict.mean_probs, [0.5, 0.5])
        assert verdict.label == 0
        assert verdict.tie

    def test_reported_sample_vector_argmax(self):
        probs = np.array([3.0491428e-08, 8.8888891e-02, 9.1111112e-01, 4.6577166e-11])
        verdict = aggregate_speaker([probs])
        assert verdict.label == 2  # "female agent"

    def test_mean_stays_on_simplex(self):
        rng = np.random.default_rng(1)
        windows = [rng.dirichlet(np.ones(4)) for _ in range(50)]
        verdict = aggregate_speaker(windows)
        assert np.all(verdict.mean_probs >= 0) and np.all(verdict.mean_probs <= 1)
        assert abs(verdict.mean_probs.sum() - 1.0) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        windows = [rng.dirichlet(np.ones(3)) for _ in range(20)]
        a = aggregate_speaker(windows)
        b = aggregate_speaker(windows[::-1])
        npt.assert_allclose(a.mean_probs, b.mean_probs, atol=1e-12)
        assert a.label == b.label

    def test_identical_windows_match_single_window(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        many = aggregate_speaker([probs] * 9)
        one = aggregate_speaker([probs])
        npt.assert_allclose(many.mean_probs, one.mean_probs, atol=1e-15)
        assert many.label == one.label

    def test_empty_rejected(self):
        with pytest.raises(NoWindowsError):
            aggregate_speaker([])


class TestAnalyzeCall:
    def test_talk_time_accounting(self, fast_model):
        rng = np.random.default_rng(0)
        audio = AudioBuffer(0.1 * rng.standard_normal(8 * RATE), RATE)
        segments = [
            seg(0, 2.5, "speech_female"),
            seg(2.5, 3, "noise"),
            seg(3, 5, "speech_male"),
            seg(5, 8, "speech_female"),
        ]
        analysis = analyze_call(audio, segments, fast_model)
        by_gender = {r.gender: r for r in analysis.speakers}
        assert by_gender["female"].talk_time == pytest.approx(5.5)
        assert by_gender["male"].talk_time == pytest.approx(2.0)
        assert analysis.window_seconds == pytest.approx(0.25)

    def test_identical_streams_identical_verdicts(self, fast_model):
        rng = np.random.default_rng(1)
        chunk = 0.2 * rng.standard_normal(1 * RATE)
        audio = AudioBuffer(np.concatenate([chunk, chunk]), RATE)
        segments = [seg(0, 1, "speech_female"), seg(1, 2, "speech_male")]
        analysis = analyze_call(audio, segments, fast_model)
        a, b = analysis.speakers
        npt.assert_array_equal(a.verdict.mean_probs, b.verdict.mean_probs)
        assert a.verdict.label == b.verdict.label

    def test_short_stream_flagged_no_windows(self, fast_model):
        rng = np.random.default_rng(2)
        audio = AudioBuffer(0.1 * rng.standard_normal(2 * RATE), RATE)
        segments = [seg(0, 1.8, "speech_female"), seg(1.8, 1.9, "speech_male")]
        analysis = analyze_call(audio, segments, fast_model)
        by_gender = {r.gender: r for r in analysis.speakers}
        assert not by_gender["female"].no_windows
        assert by_gender["male"].no_windows
        assert by_gender["male"].verdict is None
        payload = analysis.to_dict()
        male_entry = [e for e in payload["speakers"] if e["gender"] == "male"][0]
        assert male_entry["no_windows"] is True

    def test_window_shift_counts(self, fast_model):
        rng = np.random.default_rng(3)
        audio = AudioBuffer(0.1 * rng.standard_normal(5 * RATE), RATE)
        segments = [seg(0, 4.25, "speech_female"), seg(4.25, 4.5, "speech_male")]
        analysis = analyze_call(audio, segments, fast_model, shift_seconds=1.0)
        female = [r for r in analysis.speakers if r.gender == "female"][0]
        # stream 4.25 s, window 0.25 s, shift 1 s -> offsets 0..4 s
        assert female.verdict.window_count == 5

    def test_other_sample_rate_rejected(self):
        # at 16 kHz this 250-frame model would slide 1.25 s windows over the call
        model = callseg.build_crnn(callseg.ModelConfig(n_classes=4, **GOLDEN_CONFIGS["gru"]),
                                   seed=3)
        segments = [seg(0, 15, "speech_female"), seg(15, 30, "speech_male")]
        with pytest.raises(SampleRateError):
            analyze_call(AudioBuffer(noise(30 * 16000), 16000), segments, model)

    def test_model_not_taking_96_bands_rejected_before_any_log_mel(self, monkeypatch):
        # built for 12-band input, which model.forward of a 96-band spectrogram rejects
        config = callseg.ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3),
                                     input_shape=(12, 50))
        model = callseg.build_crnn(config, seed=0)

        def no_logmel(buffer):
            raise AssertionError("log-mel computed for a model that cannot take it")

        monkeypatch.setattr(analyze, "log_mel_spectrogram", no_logmel)
        audio = AudioBuffer(noise(3 * RATE), RATE)
        with pytest.raises(ShapeError, match="96-band"):
            analyze_call(audio, [seg(0, 3, "speech_female")], model)

    def test_report_json_fields(self, fast_model):
        rng = np.random.default_rng(4)
        audio = AudioBuffer(0.1 * rng.standard_normal(2 * RATE), RATE)
        segments = [seg(0, 1, "speech_female"), seg(1, 2, "speech_male")]
        analysis = analyze_call(audio, segments, fast_model)
        payload = analysis.to_dict()
        entry = payload["speakers"][0]
        assert set(entry) >= {"slot", "gender", "talk_time_seconds", "window_count",
                              "mean_probabilities", "label_index", "label_name", "tie"}
        assert entry["label_name"] in payload["classes"]
        csv = analysis.windows_csv()
        assert csv.startswith("slot,window,p0,p1,p2,p3")


# ---------------------------------------------------------------------------
# golden: analyze_call's shared tile path against classifying each window alone

def window_of(model):
    return model.config.input_shape[1] * HOP


def oracle_window_probs(model, samples, rate, shift):
    """Slice each window out of the stream, then log-mel and model.forward it."""
    window = window_of(model)
    return [
        model.forward(log_mel_spectrogram(AudioBuffer(samples[off : off + window], rate)).values)
        for off in range(0, len(samples) - window + 1, shift)
    ]


def assert_matches_oracle(model, samples, shift_seconds):
    """analyze_call's window probabilities equal the oracle's bit for bit; returns the count."""
    audio = AudioBuffer(samples, RATE)
    analysis = analyze_call(audio, [seg(0, audio.duration, "speech_female")], model,
                            shift_seconds)
    got = analysis.speakers[0].window_probs
    want = oracle_window_probs(model, samples, RATE, round(shift_seconds * RATE))
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"window {i}: {g} != {w}"
    return len(want)


def noise(n_samples, seed=7):
    return 0.3 * np.random.default_rng(seed).standard_normal(n_samples)


GOLDEN_CONFIGS = {
    # 2.5 s windows, so 1, 0.5 and 0.33 s shifts all overlap
    "gru": dict(conv_filters=(3, 2, 2, 2), rnn_hidden=(3, 3), input_shape=(96, 250)),
    # pool1 (3, 3): window offsets pair up with a tile's only 240 samples apart
    "lstm-pool1-3x3": dict(conv_filters=(3, 2, 2, 2), rnn_hidden=(3, 3), rnn_kind="lstm",
                           input_shape=(96, 201),
                           pool_kernels=((3, 3), (2, 2), (4, 2), (4, 2))),
    # windows of 22 frames or fewer have no edge buffers, so each runs whole
    "short-window": dict(conv_filters=(3, 2, 2, 2), rnn_hidden=(3, 3), input_shape=(96, 12)),
}


def golden(name, fast_model):
    if name == "fast":
        return fast_model
    model = callseg.build_crnn(callseg.ModelConfig(n_classes=4, **GOLDEN_CONFIGS[name]), seed=3)
    model.normalization = (-4.0, 2.5)
    return model


@pytest.fixture(scope="module", params=["fast"] + list(GOLDEN_CONFIGS))
def golden_model(request, fast_model):
    return golden(request.param, fast_model)


def spy_calls(monkeypatch, model):
    """Record each log-mel call's frames and each conv3 call's input columns.

    Every record is (window, size): ``window`` numbers the ``_Pass._window``
    call that made it, in call order, and is None outside one (a piece or a
    whole window). ``calls["windows"]`` lists the numbers of all such calls.
    """
    calls = {"logmel": [], "conv3": [], "windows": []}
    inside = []
    real_window, conv3 = analyze._Pass._window, model.blocks[2][0]
    conv3_forward = conv3.forward

    def window_spy(self, *args):
        calls["windows"].append(len(calls["windows"]))
        inside.append(calls["windows"][-1])
        try:
            return real_window(self, *args)
        finally:
            inside.pop()

    def logmel_spy(buffer):
        calls["logmel"].append((inside[-1] if inside else None, len(buffer.samples) // HOP))
        return log_mel_spectrogram(buffer)

    def conv3_spy(x, *args, **kwargs):
        calls["conv3"].append((inside[-1] if inside else None, x.shape[-1]))
        return conv3_forward(x, *args, **kwargs)

    monkeypatch.setattr(analyze._Pass, "_window", window_spy)
    monkeypatch.setattr(analyze, "log_mel_spectrogram", logmel_spy)
    monkeypatch.setattr(conv3, "forward", conv3_spy)
    return calls


class TestSharedFrontGolden:
    # 81 samples: offsets pair up with pool1 in 160 (or 240) interleaved groups
    @pytest.mark.parametrize("shift", [1.0, 0.5, 0.33, 0.1, 81 / RATE])
    def test_matches_per_window_classification(self, golden_model, shift):
        extra = 1.2 if shift < 0.05 else 5.7  # keep the 81-sample case near 120 windows
        n_samples = window_of(golden_model) + int(extra * RATE)
        assert assert_matches_oracle(golden_model, noise(n_samples), shift) > 1

    def test_shorter_than_one_window(self, golden_model):
        assert assert_matches_oracle(golden_model, noise(window_of(golden_model) - 1), 1.0) == 0

    def test_exactly_one_window(self, golden_model):
        assert assert_matches_oracle(golden_model, noise(window_of(golden_model)), 0.33) == 1

    def test_lone_windows_run_through_model_forward(self, monkeypatch, fast_model):
        # 0.25 s windows 1 s apart share no columns, so each runs alone
        outputs = []
        real_forward = callseg.CrnnModel.forward

        def forward_spy(self, *args, **kwargs):
            outputs.append(real_forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(callseg.CrnnModel, "forward", forward_spy)
        audio = AudioBuffer(noise(5 * RATE), RATE)
        analysis = analyze_call(audio, [seg(0, 5, "speech_female")], fast_model, 1.0)
        got = analysis.speakers[0].window_probs
        assert len(got) == 5
        assert len(outputs) == len(got)
        assert all(g is out for g, out in zip(got, outputs))

    @pytest.mark.parametrize("shift", [0.5, 0.33])
    def test_last_window_ends_at_stream_end(self, golden_model, shift):
        n_samples = window_of(golden_model) + 7 * round(shift * RATE)
        assert assert_matches_oracle(golden_model, noise(n_samples), shift) == 8

    # runs of overlapping windows exist only where a multiple of the shift below
    # the window is one of kw1 * HOP samples (for lstm-pool1-3x3, 80 shifts of 81
    # samples make 27 of 240); elsewhere every window runs whole
    @pytest.mark.parametrize("name, shift, runs", [
        ("fast", 1.0, False), ("fast", 0.33, False), ("fast", 81 / RATE, False),
        ("gru", 1.0, True), ("gru", 0.33, True), ("gru", 81 / RATE, False),
        ("lstm-pool1-3x3", 1.0, False), ("lstm-pool1-3x3", 0.33, True),
        ("lstm-pool1-3x3", 81 / RATE, True),
    ])
    def test_matches_per_window_classification_across_pieces(self, monkeypatch, fast_model,
                                                              name, shift, runs):
        model = golden(name, fast_model)
        frames = model.config.input_shape[1]
        # pieces of at most 100 frames: every run of these 2.5 s and 2 s windows spans 3 or more
        monkeypatch.setattr(analyze, "CHUNK_BYTES", 100 * model.config.conv_filters[0] * 96 * 4)
        calls = spy_calls(monkeypatch, model)
        extra = 1.2 if shift < 0.05 else 5.7
        n_samples = window_of(model) + int(extra * RATE)
        assert assert_matches_oracle(model, noise(n_samples), shift) > 1
        # edge buffers come from inside a window's edge pass; whole windows have all their frames
        pieces = [n for window, n in calls["logmel"] if window is None and n < frames]
        assert len(pieces) >= 3 if runs else not pieces
        assert all(n <= 100 for n in pieces)

    # edge buffers: the first 10 frames and the last 16 of a 250-frame window,
    # the first 12 and the last 15 of a 201-frame one
    @pytest.mark.parametrize("name, shift, edge_frames", [
        ("gru", 1.0, 26), ("gru", 0.33, 26), ("lstm-pool1-3x3", 0.33, 27),
    ])
    def test_one_edge_buffer_and_one_edge_conv3_per_window(self, monkeypatch, fast_model, name,
                                                            shift, edge_frames):
        model = golden(name, fast_model)
        calls = spy_calls(monkeypatch, model)
        n_windows = assert_matches_oracle(model, noise(window_of(model) + int(5.7 * RATE)), shift)
        edges = {kind: [(w, n) for w, n in calls[kind] if w is not None]
                 for kind in ("logmel", "conv3")}
        assert len(calls["windows"]) > n_windows // 2
        for kind in ("logmel", "conv3"):
            assert [w for w, _n in edges[kind]] == calls["windows"]
        assert {n for _w, n in edges["logmel"]} == {edge_frames}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_default_model_exact_at_blas_threads(self, threads):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        script = (
            "import callseg\n"
            "from tests.test_analyze import assert_matches_oracle, noise\n"
            "model = callseg.build_crnn(callseg.ModelConfig(), seed=0)\n"
            "print(assert_matches_oracle(model, noise(13 * 8000 + 123), 1.0))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4"]


def test_peak_memory_does_not_grow_with_stream_length(monkeypatch):
    config = callseg.ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3),
                                 input_shape=(96, 400))
    model = callseg.build_crnn(config, seed=0)
    # pieces of 10 s of this model's conv1 output, where its 4 s windows start 2 s apart
    monkeypatch.setattr(analyze, "CHUNK_BYTES", 2 * 96 * 4 * 1000)

    def peak(seconds):
        audio = AudioBuffer(noise(seconds * RATE), RATE)
        segments = [seg(0, seconds, "speech_male")]
        tracemalloc.start()
        try:
            analyze_call(audio, segments, model, shift_seconds=2.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm the layer caches
    short, long = peak(60), peak(600)
    # the stream's own float64 copy of its samples is the one thing that grows
    assert long - short <= (600 - 60) * RATE * 8 + (1 << 20)


def test_each_stream_column_is_computed_about_once(monkeypatch):
    # the default 96x1000 input and pool widths kw1 = 2 and kw2 = 3, with few filters
    model = callseg.build_crnn(callseg.ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3)),
                               seed=0)
    calls = spy_calls(monkeypatch, model)
    analysis = analyze_call(AudioBuffer(noise(60 * RATE), RATE), [seg(0, 60, "speech_male")],
                            model, shift_seconds=1.0)
    windows = analysis.speakers[0].verdict.window_count
    assert windows == 51
    frames = [n for _w, n in calls["logmel"]]
    conv3_cols = [n for _w, n in calls["conv3"]]
    # a window's edge buffer: its first 10 frames give conv2 columns 0..2, one
    # pool2 group, and its last 16 the groups from act2 column 165 on, which
    # conv2 column 495 starts; a piece recomputes 3 + 2 conv2 columns, 15 frames
    edge_frames, halo = 10 + 16, 15
    pieces = sum(w is None for w, _n in calls["logmel"])
    assert sum(frames) <= 6000 + windows * edge_frames + pieces * halo
    # per phase, at most the stream's 1000 pool2 columns, 2 of halo per piece;
    # per window, one conv3 over act2 columns 0, 1..2, 163..164 and 165..166
    edge_cols = 1 + 2 + 2 + 2
    assert sum(conv3_cols) <= 3 * 1000 + windows * edge_cols + pieces * 3 * 2


# ---------------------------------------------------------------------------
# property: whatever the call, analyze_call fails only with a CallsegError

# times inside a 3 s call, and any non-negative float up to infinity
TIME = st.floats(min_value=0.0, max_value=4.0) | st.floats(min_value=0.0, allow_nan=False)
SEGMENT = st.tuples(TIME, TIME, st.sampled_from(SEGMENT_LABELS)).filter(
    lambda t: t[0] < t[1]
).map(lambda t: SegmentAnnotation(*t))


@pytest.fixture(scope="module")
def property_model():
    config = callseg.ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3),
                                 n_classes=4, input_shape=(96, 48))
    return callseg.build_crnn(config, seed=0)


@settings(max_examples=100, deadline=None)
@given(
    seconds=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(0, 2**32 - 1),
    segments=st.lists(SEGMENT, max_size=5),
    shift=st.floats(),
)
def test_analyze_call_raises_only_callseg_errors(property_model, seconds, seed, segments, shift):
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, int(seconds * RATE))
    try:
        analyze_call(AudioBuffer(samples, RATE), segments, property_model, shift)
    except CallsegError:
        pass
