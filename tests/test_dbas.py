import pathlib
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from callseg.audio import AudioBuffer
from callseg.dbas import (
    CallMetadata,
    SegmentAnnotation,
    class_label_of,
    consistency_filter,
    cut_utterances,
    dbas_label,
    filter_calls,
    gender_of,
    prepare_corpus,
    read_calls_csv,
    read_segments_csv,
    role_of,
    segment_samples,
    write_corpus,
)
from callseg.errors import (
    DataError,
    FormatError,
    InputError,
    NoSpeechError,
    SingleGenderError,
    SplitLeakError,
)
from callseg.features import load_features


def call(call_id="c1", agent="a1", gender="female", duration=120.0):
    return CallMetadata(call_id=call_id, agent_id=agent, agent_gender=gender, duration=duration)


class TestFilterCalls:
    def test_inclusive_bounds(self):
        durations = [59, 60, 600, 601]
        kept = filter_calls([call(call_id=str(d), duration=d) for d in durations])
        assert [c.call_id for c in kept] == ["60", "600"]

    def test_empty(self):
        assert filter_calls([]) == []

    def test_order_preserved_when_all_pass(self):
        calls = [call(call_id=str(i), duration=100 + i) for i in range(5)]
        assert filter_calls(calls) == calls


class TestDbasLabel:
    def test_female_agent_male_customer(self):
        segments = [
            SegmentAnnotation(0, 5, "speech_female"),
            SegmentAnnotation(5, 7, "noise"),
            SegmentAnnotation(7, 12, "speech_male"),
        ]
        sides = dbas_label(segments, call(gender="female"))
        by_role = {s.role: s for s in sides}
        assert by_role["agent"].gender == "female"
        assert by_role["agent"].class_label == 2
        assert by_role["customer"].gender == "male"
        assert by_role["customer"].class_label == 1
        assert by_role["agent"].speaker_id == "a1"

    def test_male_agent_female_customer(self):
        segments = [
            SegmentAnnotation(0, 5, "speech_male"),
            SegmentAnnotation(6, 9, "speech_female"),
        ]
        sides = dbas_label(segments, call(gender="male"))
        by_role = {s.role: s for s in sides}
        assert by_role["agent"].class_label == 3
        assert by_role["customer"].class_label == 0

    def test_single_gender_rejected(self):
        segments = [SegmentAnnotation(0, 5, "speech_female"), SegmentAnnotation(6, 8, "speech_female")]
        with pytest.raises(SingleGenderError):
            dbas_label(segments, call(gender="female"))

    def test_no_speech_rejected(self):
        segments = [SegmentAnnotation(0, 5, "music"), SegmentAnnotation(5, 9, "silence")]
        with pytest.raises(NoSpeechError):
            dbas_label(segments, call())

    def test_nonspeech_segments_get_no_label(self):
        segments = [
            SegmentAnnotation(0, 5, "speech_female"),
            SegmentAnnotation(5, 7, "music"),
            SegmentAnnotation(7, 12, "speech_male"),
        ]
        sides = dbas_label(segments, call())
        assert sum(len(s.segments) for s in sides) == 2


class TestConsistency:
    def test_consistent_retained(self):
        assert consistency_filter({"s": ["female", "female", "female"]}) == {"s"}

    def test_conflicting_discarded(self):
        assert consistency_filter({"s": ["female", "male", "female"]}) == set()

    def test_single_call_retained(self):
        assert consistency_filter({"s": ["male"]}) == {"s"}


class TestCutUtterances:
    def test_65_seconds_gives_6(self):
        utts = cut_utterances(np.zeros(65 * 8000), "s", 0)
        assert len(utts) == 6

    def test_below_window_gives_none(self):
        assert cut_utterances(np.zeros(9 * 8000), "s", 0) == []

    def test_exact_tiling(self):
        samples = np.arange(160000, dtype=np.float64) / 160000
        utts = cut_utterances(samples, "s", 3)
        assert len(utts) == 2
        npt.assert_array_equal(utts[0].samples, samples[:80000])
        npt.assert_array_equal(utts[1].samples, samples[80000:])
        assert [u.utterance_index for u in utts] == [0, 1]
        assert all(u.class_label == 3 for u in utts)

    def test_duration_accounting(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(0, 300000))
            utts = cut_utterances(np.zeros(n), "s", 0)
            covered = sum(len(u.samples) for u in utts)
            assert covered <= n
            assert n - covered < 80000

    def test_custom_length(self):
        utts = cut_utterances(np.zeros(50000), "s", 0, seconds=2.5)
        assert len(utts) == 2
        assert len(utts[0].samples) == 20000


def test_two_class_label_is_four_class_halved():
    for role in ("customer", "agent"):
        for gender in ("female", "male"):
            label = class_label_of(role, gender)
            assert role_of(label) == role
            assert gender_of(label) == gender
            assert label // 2 == (0 if role == "customer" else 1)


class TestWriteCorpus:
    def make_utterances(self):
        rng = np.random.default_rng(0)
        out = []
        for speaker, label, count in [("spk01", 2, 4), ("spk02", 1, 3), ("spk03", 0, 2)]:
            for j in range(count):
                out.extend(
                    cut_utterances(0.1 * rng.standard_normal(80000), speaker, label, start_index=j)
                )
        return out

    def test_paths_follow_template(self, tmp_path):
        root = str(tmp_path / "corpus")
        utts = self.make_utterances()
        write_corpus(utts, {"train": {"spk01", "spk02"}, "validation": {"spk03"}}, root)
        assert os.path.isfile(os.path.join(root, "train", "agent", "female", "spk01", "3.npy"))
        assert os.path.isfile(os.path.join(root, "train", "customer", "male", "spk02", "0.npy"))
        assert os.path.isfile(os.path.join(root, "validation", "customer", "female", "spk03", "1.npy"))
        values = load_features(os.path.join(root, "train", "agent", "female", "spk01", "0.npy"))
        assert values.shape == (96, 1000)

    def test_manifest_matches_tree(self, tmp_path):
        root = str(tmp_path / "corpus")
        manifest = write_corpus(
            self.make_utterances(), {"train": {"spk01", "spk02"}, "validation": {"spk03"}}, root
        )
        on_disk = sum(len(files) for _p, _d, files in os.walk(root) for f in [files])
        total = sum(manifest.splits[s]["utterances"] for s in manifest.splits)
        assert total == 9
        assert on_disk == total + 1  # + manifest.json
        train = manifest.splits["train"]
        assert train["speakers"] == 2
        assert train["classes"]["agent"]["genders"]["female"]["utterances"] == 4

    def test_idempotent_rerun(self, tmp_path):
        import hashlib

        def tree_digest(root):
            digest = hashlib.sha256()
            for dirpath, dirnames, filenames in sorted(os.walk(root)):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    digest.update(pathlib.Path(path).read_bytes())
            return digest.hexdigest()

        utts = self.make_utterances()
        split = {"train": {"spk01", "spk02"}, "validation": {"spk03"}}
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_corpus(utts, split, a)
        write_corpus(utts, split, b)
        assert tree_digest(a) == tree_digest(b)

    def test_split_leak_rejected(self, tmp_path):
        with pytest.raises(SplitLeakError):
            write_corpus(self.make_utterances(),
                         {"train": {"spk01", "spk02", "spk03"}, "validation": {"spk03"}},
                         str(tmp_path / "c"))

    def test_unassigned_speaker_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_corpus(self.make_utterances(), {"train": {"spk01"}}, str(tmp_path / "c"))


class TestCsvReaders:
    def test_segments_roundtrip(self, tmp_path):
        path = tmp_path / "c1.csv"
        path.write_text("start,end,label\n0.0,5.5,speech_female\n5.5,7.0,noise\n")
        segments = read_segments_csv(str(path))
        assert len(segments) == 2
        assert segments[0].label == "speech_female"
        assert segments[1].duration == pytest.approx(1.5)

    def test_segments_bad_header(self, tmp_path):
        path = tmp_path / "c1.csv"
        path.write_text("begin,end,label\n0,1,noise\n")
        with pytest.raises(FormatError):
            read_segments_csv(str(path))

    def test_segments_overlap_rejected(self, tmp_path):
        path = tmp_path / "c1.csv"
        path.write_text("start,end,label\n0,5,speech_female\n4,6,speech_male\n")
        with pytest.raises(InputError):
            read_segments_csv(str(path))

    def test_segments_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "c1.csv"
        path.write_text("start,end,label\n0,5,laughter\n")
        with pytest.raises(InputError):
            read_segments_csv(str(path))

    def test_calls_csv(self, tmp_path):
        path = tmp_path / "calls.csv"
        path.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "c1,a9,female,123.5,c1.wav\n"
        )
        calls = read_calls_csv(str(path))
        assert calls[0].agent_id == "a9"
        assert calls[0].duration == 123.5
        assert calls[0].customer_id == "c1.customer"

    def test_calls_csv_bad_header(self, tmp_path):
        path = tmp_path / "calls.csv"
        path.write_text("id,agent,gender,duration,path\nc1,a,female,10,x.wav\n")
        with pytest.raises(FormatError):
            read_calls_csv(str(path))


class TestSegmentSamples:
    def test_segment_ending_at_last_sample_accepted(self):
        audio = AudioBuffer(np.arange(8000) / 8000, 8000)
        out = segment_samples(audio, [SegmentAnnotation(0.25, 0.5, "noise"),
                                      SegmentAnnotation(0.75, 1.0, "speech_male")])
        npt.assert_array_equal(out, np.concatenate([audio.samples[2000:4000], audio.samples[6000:]]))

    def test_segment_past_the_end_rejected(self):
        audio = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(InputError, match="ends after the audio"):
            segment_samples(audio, [SegmentAnnotation(0.5, 1.0001, "speech_male")])

    def test_prepare_corpus_rejects_segment_past_the_end(self, tmp_path):
        audio = AudioBuffer(np.zeros(12 * 8000), 8000)
        segments = {"c1": [SegmentAnnotation(0, 6, "speech_female"),
                           SegmentAnnotation(100, 200, "speech_male")]}
        root = tmp_path / "corpus"
        with pytest.raises(InputError, match="ends after the audio"):
            prepare_corpus([call()], segments, lambda _call: audio, str(root))
        assert not root.exists()


CSV_FIELDS = st.one_of(
    st.sampled_from(["0", "1.5", "-2", "7e-1", "nan", "inf", "1e400", "", " 3 ", "1_0",
                     "speech_female", "speech_male", "noise", '"a,b"']),
    st.text(max_size=6),
)
CSV_TEXT = st.one_of(
    st.binary(max_size=80),
    st.text(max_size=80).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.lists(st.lists(CSV_FIELDS, max_size=4).map(",".join), max_size=5).map(
        lambda rows: "\n".join(["start,end,label", *rows]).encode("utf-8", "surrogatepass")
    ),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=CSV_TEXT)
def test_random_segment_csv_raises_only_format_or_input_errors(tmp_path, raw):
    path = tmp_path / "segments.csv"
    path.write_bytes(raw)
    try:
        segments = read_segments_csv(str(path))
        if segments:
            segment_samples(AudioBuffer(np.zeros(8000), 8000), segments)
    except (FormatError, InputError):
        pass
