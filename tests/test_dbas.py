import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from callseg.audio import AudioBuffer
from callseg.dbas import (
    SPLITS,
    CallMetadata,
    CorpusWriter,
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
    scan_corpus,
    segment_samples,
)
from callseg.errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    NoSpeechError,
    OutputPathError,
    SingleGenderError,
    SplitLeakError,
)
from callseg.features import load_features
from callseg.synth import SynthSpec, synth_call, synth_corpus
from tests.conftest import assert_tree_matches_manifest, tree_digest


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
        assert len(cut_utterances(np.zeros(65 * 8000))) == 6

    def test_below_window_gives_none(self):
        assert cut_utterances(np.zeros(9 * 8000)) == []

    def test_exact_tiling(self):
        samples = np.arange(160000, dtype=np.float64) / 160000
        utts = cut_utterances(samples)
        assert len(utts) == 2
        npt.assert_array_equal(utts[0], samples[:80000])
        npt.assert_array_equal(utts[1], samples[80000:])
        assert all(np.shares_memory(u, samples) for u in utts)

    def test_duration_accounting(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(0, 300000))
            covered = sum(len(u) for u in cut_utterances(np.zeros(n)))
            assert covered <= n
            assert n - covered < 80000

    def test_custom_length(self):
        utts = cut_utterances(np.zeros(50000), seconds=2.5)
        assert len(utts) == 2
        assert len(utts[0]) == 20000

    @pytest.mark.parametrize("seconds", [0.001, 0.0, -1.0, math.inf, math.nan, 1e305])
    def test_bad_length_raises_config_error(self, seconds):
        with pytest.raises(ConfigError, match="utterance length"):
            cut_utterances(np.zeros(50000), seconds=seconds)


def test_two_class_label_is_four_class_halved():
    for role in ("customer", "agent"):
        for gender in ("female", "male"):
            label = class_label_of(role, gender)
            assert role_of(label) == role
            assert gender_of(label) == gender
            assert label // 2 == (0 if role == "customer" else 1)


SPLIT = {"train": {"spk01", "spk02"}, "validation": {"spk03"}}
SPEAKERS = [("spk01", 2, 4), ("spk02", 1, 3), ("spk03", 0, 2)]  # (speaker, label, utterances)


class TestWriteCorpus:
    def write(self, root, split=SPLIT, speakers=SPEAKERS):
        rng = np.random.default_rng(0)
        with CorpusWriter(root) as writer:
            for speaker, label, count in speakers:
                for _ in range(count):
                    writer.add(speaker, label, 0.1 * rng.standard_normal(80000))
            return writer.finish(split)

    def test_paths_follow_template(self, tmp_path):
        root = str(tmp_path / "corpus")
        self.write(root)
        assert os.path.isfile(os.path.join(root, "train", "agent", "female", "spk01", "3.npy"))
        assert os.path.isfile(os.path.join(root, "train", "customer", "male", "spk02", "0.npy"))
        assert os.path.isfile(os.path.join(root, "validation", "customer", "female", "spk03", "1.npy"))
        values = load_features(os.path.join(root, "train", "agent", "female", "spk01", "0.npy"))
        assert values.shape == (96, 1000)
        assert sorted(os.listdir(root)) == ["manifest.json", "train", "validation"]  # no staging

    def test_manifest_matches_tree(self, tmp_path):
        root = str(tmp_path / "corpus")
        manifest = self.write(root)
        on_disk = sum(len(files) for _p, _d, files in os.walk(root) for f in [files])
        total = sum(manifest.splits[s]["utterances"] for s in manifest.splits)
        assert total == 9
        assert on_disk == total + 1  # + manifest.json
        train = manifest.splits["train"]
        assert train["speakers"] == 2
        assert train["classes"]["agent"]["genders"]["female"]["utterances"] == 4

    def test_idempotent_rerun(self, tmp_path):
        root, fresh = tmp_path / "corpus", tmp_path / "fresh"
        self.write(str(root))
        # a file the re-run must replace, in a speaker directory that already exists
        (root / "train" / "agent" / "female" / "spk01" / "2.npy").write_bytes(b"stale")
        self.write(str(root))
        self.write(str(fresh))
        assert tree_digest(root) == tree_digest(fresh)

    def test_rerun_adds_a_speaker_beside_existing_ones(self, tmp_path):
        root, fresh = tmp_path / "corpus", tmp_path / "fresh"
        speakers = [*SPEAKERS, ("spk04", 2, 2)]  # a second female agent, beside spk01
        split = {"train": {"spk01", "spk02", "spk04"}, "validation": {"spk03"}}
        self.write(str(root))
        self.write(str(root), split, speakers)
        self.write(str(fresh), split, speakers)
        assert tree_digest(root) == tree_digest(fresh)

    def test_swapped_splits_leave_no_speaker_in_both(self, tmp_path):
        root, fresh = tmp_path / "corpus", tmp_path / "fresh"
        swapped = {"train": {"spk03"}, "validation": {"spk01", "spk02"}}
        self.write(str(root))
        self.write(str(root), swapped)
        self.write(str(fresh), swapped)
        assert tree_digest(root) == tree_digest(fresh)
        assert_tree_matches_manifest(root)

    def test_own_pid_leftover_is_not_renamed_into_the_corpus(self, tmp_path):
        root, fresh = tmp_path / "corpus", tmp_path / "fresh"
        leftover = root / f".staging.{os.getpid()}" / "agent" / "female" / "spk01"
        leftover.mkdir(parents=True)  # as an earlier process with this pid left it
        (leftover / "7.npy").write_bytes(b"stale")
        self.write(str(root))
        self.write(str(fresh))
        assert tree_digest(root) == tree_digest(fresh)

    def test_removes_only_dead_pids_staging_trees(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped, so its pid names no process
        dead, live = tmp_path / f".staging.{child.pid}", tmp_path / f".staging.{os.getppid()}"
        for tree in (dead, live):
            (tree / "agent" / "female" / "spk01").mkdir(parents=True)
        CorpusWriter(str(tmp_path))
        assert not dead.exists()
        assert (live / "agent" / "female" / "spk01").is_dir()

    def test_failed_rerun_never_mixes_two_runs(self, tmp_path, monkeypatch):
        """Whichever file move of a swapped-split re-run fails, the root holds the old run
        whole with its manifest, or no manifest, and no speaker is in both splits."""
        swapped = {"train": {"spk03"}, "validation": {"spk01", "spk02"}}
        real = {name: getattr(os, name) for name in ("rename", "replace")}

        def rerun(root, fail_at=0):
            """Write ``root``, re-run it with the splits swapped and count its moves."""
            self.write(root)
            moves = 0

            def counted(name):
                def move(src, dst):
                    nonlocal moves
                    moves += 1
                    if moves == fail_at:
                        raise PermissionError(f"{name} {moves} refused")
                    real[name](src, dst)
                return move

            for name in real:
                monkeypatch.setattr(os, name, counted(name))
            try:
                self.write(root, swapped)
            finally:
                monkeypatch.undo()
            return moves

        count = rerun(str(tmp_path / "clean"))
        assert count > len(SPEAKERS)
        for n in range(1, count + 1):
            root = tmp_path / f"fail{n}"
            with pytest.raises(PermissionError):
                rerun(str(root), fail_at=n)
            on_disk = [{item.speaker_id for item in scan_corpus(str(root), split)}
                       for split in SPLITS]
            assert not set.intersection(*on_disk), f"move {n}"
            if (root / "manifest.json").exists():
                assert_tree_matches_manifest(root)

    @pytest.mark.parametrize("entry", ["train/notes.txt", "validation", "train/agent/female/x.npy",
                                       "manifest.json/keep.txt"])
    def test_root_split_that_is_not_a_corpus_refused(self, tmp_path, entry):
        path = tmp_path / entry
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("keep me\n")
        with pytest.raises(OutputPathError, match="cannot replace"):
            CorpusWriter(str(tmp_path))
        assert path.read_text() == "keep me\n"

    def test_split_leak_rejected(self, tmp_path):
        root = tmp_path / "c"
        with pytest.raises(SplitLeakError):
            self.write(str(root), {"train": {"spk01", "spk02", "spk03"}, "validation": {"spk03"}})
        assert not root.exists()

    def test_unassigned_speaker_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        with pytest.raises(DataError):
            self.write(str(root), {"train": {"spk01"}})
        assert list(root.iterdir()) == []  # an existing root keeps nothing of the failed run


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


class TestCallIds:
    # an empty customer_id is filled in from the call_id
    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("call_id", "agent_id", "customer_id")
        for value in ("", ".", "..", "../../escaped", "a/b") if field != "customer_id" or value
    ])
    def test_id_that_is_not_a_directory_name_rejected(self, field, value):
        ids = {"call_id": "c1", "agent_id": "a1", "customer_id": "c1.customer", field: value}
        with pytest.raises(InputError, match=field):
            CallMetadata(agent_gender="female", duration=120.0, **ids)


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

    @pytest.mark.parametrize("end", [1e305, math.inf])
    def test_end_overflowing_at_the_rate_rejected(self, end):
        audio = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(InputError, match="ends after the audio"):
            segment_samples(audio, [SegmentAnnotation(0.5, end, "speech_male")])

    def test_prepare_corpus_rejects_segment_past_the_end(self, tmp_path):
        audio = AudioBuffer(np.zeros(12 * 8000), 8000)
        good = [SegmentAnnotation(0, 6, "speech_female"), SegmentAnnotation(6, 12, "speech_male")]
        segments = {"c0": good,
                    "c1": [SegmentAnnotation(0, 6, "speech_female"),
                           SegmentAnnotation(100, 200, "speech_male")]}
        root = tmp_path / "corpus"
        with pytest.raises(InputError, match="ends after the audio"):
            # c0 stages its utterances before c1 fails
            prepare_corpus([call(call_id="c0"), call()], segments, lambda _call: audio, str(root),
                           utterance_seconds=2.0)
        assert list(tmp_path.iterdir()) == []  # neither the root nor a staging tree is left


def test_prepare_rerun_with_another_seed_gives_the_fresh_tree(tmp_path):
    audio = AudioBuffer(np.zeros(12 * 8000), 8000)
    segments = [SegmentAnnotation(0, 6, "speech_female"), SegmentAnnotation(6, 12, "speech_male")]
    calls = [call(call_id=f"c{i}", agent=f"a{i}") for i in range(4)]  # 8 speakers

    def prepare(root, seed):
        return prepare_corpus(calls, {c.call_id: segments for c in calls}, lambda _call: audio,
                              str(root), val_fraction=0.5, seed=seed, utterance_seconds=2.0)

    first = prepare(tmp_path / "corpus", 0).manifest.speaker_splits
    second = prepare(tmp_path / "corpus", 1).manifest.speaker_splits
    assert first != second  # some speakers change split
    prepare(tmp_path / "fresh", 1)
    assert tree_digest(tmp_path / "corpus") == tree_digest(tmp_path / "fresh")
    assert_tree_matches_manifest(tmp_path / "corpus")


def test_prepare_rerun_that_cuts_nothing_replaces_the_old_run(tmp_path):
    root = tmp_path / "corpus"
    synth_corpus(SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                           utterances_per_speaker=2, utterance_seconds=0.5),
                 seed=7, out_root=str(root))

    def loader(_call):
        pytest.fail("a rejected call's audio was read")

    result = prepare_corpus([call(duration=30.0)], {}, loader, str(root))
    assert result.rejections == [("c1", "duration")]
    assert (result.manifest.splits, result.manifest.speaker_splits) == ({}, {})
    assert os.listdir(root) == ["manifest.json"]
    assert json.loads((root / "manifest.json").read_text()) == {"speaker_splits": {},
                                                                "splits": {}}


def test_prepare_rejects_a_short_utterance_before_touching_the_root(tmp_path):
    root = tmp_path / "corpus"
    synth_corpus(SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                           utterances_per_speaker=2, utterance_seconds=0.5),
                 seed=7, out_root=str(root))
    before = tree_digest(root)
    with pytest.raises(ConfigError, match="utterance length"):
        # the call is rejected for its duration, so no utterance would be cut
        prepare_corpus([call(duration=30.0)], {}, lambda _call: None, str(root),
                       utterance_seconds=0.001)
    assert tree_digest(root) == before
    assert sorted(os.listdir(root)) == ["manifest.json", "train", "validation"]


def test_prepare_corpus_rejects_repeated_call_id(tmp_path):
    good = [SegmentAnnotation(0, 6, "speech_female"), SegmentAnnotation(6, 12, "speech_male")]

    def loader(_call):
        pytest.fail("audio was read before the call ids were checked")

    root = tmp_path / "corpus"
    with pytest.raises(InputError, match="call_id repeated in the call list: dup"):
        prepare_corpus([call(call_id="dup", agent="a1"), call(call_id="ok", agent="a2"),
                        call(call_id="dup", agent="a3", gender="male")],
                       {"dup": good, "ok": good}, loader, str(root), utterance_seconds=2.0)
    assert not root.exists()


def test_prepare_memory_does_not_grow_with_calls(tmp_path):
    audio, segments, _truth = synth_call(5, turns=6, turn_seconds=11.0)  # 71 s, 6 utterances

    def peak(copies):
        calls = [call(call_id=f"c{i}", duration=audio.duration) for i in range(copies)]
        tracemalloc.start()
        try:
            prepare_corpus(calls, {c.call_id: segments for c in calls}, lambda _call: audio,
                           str(tmp_path / f"corpus{copies}"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(16)
    assert large - small < 2**20, (small, large)


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
