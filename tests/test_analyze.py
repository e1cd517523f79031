import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import callseg
from callseg.analyze import (
    aggregate_speaker,
    analyze_call,
    build_speaker_streams,
    sliding_windows,
    window_count,
)
from callseg.audio import AudioBuffer
from callseg.dbas import SEGMENT_LABELS, SegmentAnnotation
from callseg.errors import CallsegError, InputError, NoSpeechError, NoWindowsError

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

    def test_window_contents(self):
        samples = np.arange(100.0)
        wins = sliding_windows(samples, window=30, shift=20)
        assert len(wins) == 4
        npt.assert_array_equal(wins[1], samples[20:50])
        npt.assert_array_equal(wins[3], samples[60:90])


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

    def test_report_json_fields(self, fast_model):
        rng = np.random.default_rng(4)
        audio = AudioBuffer(0.1 * rng.standard_normal(2 * RATE), RATE)
        segments = [seg(0, 1, "speech_female"), seg(1, 2, "speech_male")]
        analysis = analyze_call(audio, segments, fast_model, keep_window_probs=True)
        payload = analysis.to_dict()
        entry = payload["speakers"][0]
        assert set(entry) >= {"slot", "gender", "talk_time_seconds", "window_count",
                              "mean_probabilities", "label_index", "label_name", "tie"}
        assert entry["label_name"] in payload["classes"]
        csv = analysis.windows_csv()
        assert csv.startswith("slot,window,p0,p1,p2,p3")


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
    rate=st.sampled_from([1, 3, 4000, 8000]),
    seconds=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(0, 2**32 - 1),
    segments=st.lists(SEGMENT, max_size=5),
    shift=st.floats(),
)
def test_analyze_call_raises_only_callseg_errors(property_model, rate, seconds, seed,
                                                 segments, shift):
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, int(seconds * rate))
    try:
        analyze_call(AudioBuffer(samples, rate), segments, property_model, shift)
    except CallsegError:
        pass
