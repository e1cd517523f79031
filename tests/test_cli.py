import json
from pathlib import Path
import os
import subprocess
import sys

import numpy as np
import pytest

from callseg.audio import AudioBuffer, save_wav
from callseg.cli import main
from callseg.features import load_features
from callseg.model import ModelConfig, build_crnn, load_checkpoint, save_checkpoint
from callseg.synth import SynthSpec, speaker_voice, synth_speech
from callseg.training import TrainHistory
from tests.conftest import rewrite_checkpoint_header, tree_digest, write_half_run, write_tone_wav


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(path, **overrides):
    spec = {
        "train_speakers_per_class": 1,
        "val_speakers_per_class": 1,
        "utterances_per_speaker": 2,
        "utterance_seconds": 0.5,
        **overrides,
    }
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """Small corpus + checkpoint shared by the train/evaluate/analyze tests."""
    base = tmp_path_factory.mktemp("cli")
    corpus = str(base / "corpus")
    spec = SynthSpec(train_speakers_per_class=2, val_speakers_per_class=1,
                     utterances_per_speaker=3, utterance_seconds=0.5)
    from callseg.synth import synth_corpus

    synth_corpus(spec, seed=31, out_root=corpus)
    ckpt = str(base / "model.ckpt")
    code = main([
        "train", "--corpus", corpus, "--out", ckpt,
        "--filters", "2,2,2,2", "--hidden", "3,3", "--classes", "4",
        "--epochs", "2", "--patience", "5", "--seed", "4",
    ])
    assert code == 0
    return {"corpus": corpus, "ckpt": ckpt}


class TestFeaturesCommand:
    def test_happy_path(self, capsys, tmp_path, tone_wav):
        out = str(tmp_path / "feat.npy")
        code, stdout, _ = run_cli(capsys, "features", "--in", tone_wav, "--out", out)
        assert code == 0
        assert load_features(out).shape == (96, 1000)
        first = json.loads(stdout.splitlines()[0])
        assert first["command"] == "features"

    def test_stereo_exits_2(self, capsys, tmp_path):
        from scipy.io import wavfile

        path = str(tmp_path / "stereo.wav")
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
        code, _, err = run_cli(capsys, "features", "--in", path, "--out", str(tmp_path / "o.npy"))
        assert code == 2
        assert "channel" in err.lower()

    def test_truncated_file_exits_2(self, capsys, tmp_path, tone_wav):
        path = tmp_path / "cut.wav"
        path.write_bytes(Path(tone_wav).read_bytes()[:-3])
        out = tmp_path / "o.npy"
        code, _, err = run_cli(capsys, "features", "--in", str(path), "--out", str(out))
        assert code == 2
        assert "cut.wav" in err
        assert not out.exists()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.wav")
        code, _, err = run_cli(capsys, "features", "--in", missing, "--out", str(tmp_path / "o.npy"))
        assert code == 2
        assert "nope.wav" in err

    def test_rate_flag_exits_2(self, capsys, tmp_path, tone_wav):
        out = tmp_path / "feat.npy"
        with pytest.raises(SystemExit) as exc:  # every command reads 8 kHz audio only
            main(["features", "--in", tone_wav, "--out", str(out), "--rate", "8000"])
        assert exc.value.code == 2
        assert "--rate" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_deterministic_and_counted(self, capsys, tmp_path):
        spec = write_spec(tmp_path / "spec.json", train_speakers_per_class=2,
                          val_speakers_per_class=1, utterances_per_speaker=2)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(capsys, "synth", "--spec", spec, "--seed", "7", "--out", a)[0] == 0
        assert run_cli(capsys, "synth", "--spec", spec, "--seed", "7", "--out", b)[0] == 0
        assert tree_digest(a) == tree_digest(b)
        manifest = json.loads(Path(a, "manifest.json").read_text())
        total = sum(s["utterances"] for s in manifest["splits"].values())
        assert total == 4 * 3 * 2  # classes x speakers x utterances

    @pytest.mark.parametrize("content,needle", [
        (None, "cannot read"),
        ("{not json", "not valid JSON"),
        ('{"speakers_per_class": 2}', "speakers_per_class"),
        ('{"utterance_seconds": -1}', "utterance_seconds"),
        ('{"utterance_seconds": NaN}', "utterance_seconds"),
        ('{"utterance_seconds": Infinity}', "utterance_seconds"),
        ('{"utterance_seconds": 0}', "utterance_seconds"),
        ('{"utterance_seconds": 0.001}', "utterance_seconds"),
        ('{"sample_rate": 0}', "sample_rate"),
        ('{"sample_rate": -8000}', "sample_rate"),
        ('{"sample_rate": 1, "utterance_seconds": 300}', "sample_rate"),
        ('{"sample_rate": 300, "utterance_seconds": 1}', "sample_rate"),
        ('{"sample_rate": 8000}', "sample_rate"),
    ])
    def test_bad_spec_exits_2(self, capsys, tmp_path, content, needle):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        out = tmp_path / "corpus"
        code, _, err = run_cli(capsys, "synth", "--spec", str(spec), "--seed", "1", "--out", str(out))
        assert code == 2
        assert needle in err
        assert not out.exists()


    def test_rerun_with_a_smaller_spec_trains(self, capsys, tmp_path):
        out = str(tmp_path / "corpus")
        first = write_spec(tmp_path / "a.json", train_speakers_per_class=2,
                           utterances_per_speaker=3)
        second = write_spec(tmp_path / "b.json", utterance_seconds=0.25)
        for spec in (first, second):
            assert run_cli(capsys, "synth", "--spec", spec, "--seed", "7", "--out", out)[0] == 0
        code, _, err = run_cli(capsys, "train", "--corpus", out, "--out", str(tmp_path / "m.ckpt"),
                               "--filters", "2,2,2,2", "--hidden", "3,3", "--epochs", "1")
        assert code == 0, err

    def test_root_holding_a_non_corpus_file_exits_2(self, capsys, tmp_path):
        notes = tmp_path / "corpus" / "train" / "notes.txt"
        notes.parent.mkdir(parents=True)
        notes.write_text("mine\n")
        spec = write_spec(tmp_path / "spec.json")
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--seed", "1",
                               "--out", str(tmp_path / "corpus"))
        assert code == 2
        assert "notes.txt" in err
        assert notes.read_text() == "mine\n"

    def test_root_whose_manifest_is_a_directory_exits_2(self, capsys, tmp_path):
        keep = tmp_path / "corpus" / "manifest.json" / "keep.txt"
        keep.parent.mkdir(parents=True)
        keep.write_text("mine\n")
        spec = write_spec(tmp_path / "spec.json")
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--seed", "1",
                               "--out", str(tmp_path / "corpus"))
        assert code == 2
        assert "manifest.json" in err
        assert keep.read_text() == "mine\n"
        assert [p.name for p in (tmp_path / "corpus").iterdir()] == ["manifest.json"]

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "corpus"
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--seed", "-1", "--out", str(out))
        assert code == 2
        assert "seed must be >= 0" in err
        assert not out.exists()


class TestTrainCommand:
    def test_checkpoint_and_history_written(self, cli_corpus):
        assert os.path.isfile(cli_corpus["ckpt"])
        assert os.path.isfile(cli_corpus["ckpt"] + ".history.csv")
        lines = Path(cli_corpus["ckpt"] + ".history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3

    def test_checkpoint_records_choices(self, cli_corpus):
        model = load_checkpoint(cli_corpus["ckpt"])
        assert model.config.n_classes == 4
        assert model.config.rnn_kind == "gru"
        assert model.config.input_shape == (96, 50)
        assert model.normalization is not None

    def test_lstm_flag_recorded(self, capsys, tmp_path, cli_corpus):
        ckpt = str(tmp_path / "lstm.ckpt")
        code, _, _ = run_cli(
            capsys, "train", "--corpus", cli_corpus["corpus"], "--out", ckpt,
            "--filters", "2,2,2,2", "--hidden", "3,3", "--classes", "2",
            "--rnn", "lstm", "--epochs", "1", "--seed", "1",
        )
        assert code == 0
        model = load_checkpoint(ckpt)
        assert model.config.rnn_kind == "lstm"
        assert model.config.n_classes == 2

    def test_echo_records_blas_threads(self, capsys, tmp_path, cli_corpus):
        code, stdout, _ = run_cli(
            capsys, "train", "--corpus", cli_corpus["corpus"], "--out", str(tmp_path / "m.ckpt"),
            "--filters", "2,2,2,2", "--hidden", "3,3", "--epochs", "1",
        )
        assert code == 0
        threads = json.loads(stdout.splitlines()[0])["effective_config"]["blas_threads"]
        assert isinstance(threads, int) and threads > 0

    def test_echo_records_the_history_path(self, capsys, tmp_path, cli_corpus):
        ckpt = str(tmp_path / "m.ckpt")
        code, stdout, _ = run_cli(
            capsys, "train", "--corpus", cli_corpus["corpus"], "--out", ckpt,
            "--filters", "2,2,2,2", "--hidden", "3,3", "--epochs", "1",
        )
        assert code == 0
        assert json.loads(stdout.splitlines()[0])["effective_config"]["history"] == (
            ckpt + ".history.csv")

    def test_empty_corpus_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--corpus", str(tmp_path / "void"),
                               "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert "manifest.json" in err

    def test_no_normalize_flag_exits_2(self, capsys, tmp_path, cli_corpus):
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(SystemExit) as exc:  # train always normalizes
            main(["train", "--corpus", cli_corpus["corpus"], "--out", str(ckpt),
                  "--filters", "2,2,2,2", "--hidden", "3,3", "--epochs", "1", "--no-normalize"])
        assert exc.value.code == 2
        assert "--no-normalize" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path, cli_corpus):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"conv_filters": [2, 2, 2, 2], "rnn_hidden": [3, 3], "n_classes": 2},
            "train": {"max_epochs": 1, "seed": 3},
        }))
        ckpt = str(tmp_path / "m.ckpt")
        code, stdout, _ = run_cli(
            capsys, "train", "--corpus", cli_corpus["corpus"], "--out", ckpt,
            "--config", str(config), "--classes", "4",
        )
        assert code == 0
        echo = json.loads(stdout.splitlines()[0])
        assert echo["effective_config"]["model"]["n_classes"] == 4  # flag beats file
        assert echo["effective_config"]["train"]["max_epochs"] == 1
        assert load_checkpoint(ckpt).config.n_classes == 4


    @pytest.mark.parametrize("content,needle", [
        (None, "cannot read"),
        ("{not json", "not valid JSON"),
        ('["model"]', "JSON object"),
        ('{"modle": {}}', "modle"),
        ('{"model": {"conv_filterz": [2, 2, 2, 2]}}', "conv_filterz"),
        ('{"model": {"conv_activation": "elu"}}', "conv_activation"),
        ('{"train": {"shuffle": false}}', "shuffle"),
        ('{"train": {"batch_size": "x"}}', "batch_size"),
        ('{"train": {"seed": -1}}', "seed"),
        ('{"model": {"conv_filters": "ab"}}', "conv_filters"),
        ('{"train": {"learning_rate": -1}}', "learning_rate"),
        ('{"train": {"learning_rate": Infinity}}', "learning_rate"),
        ('{"train": {"eps": 0}}', "eps"),
        ('{"train": {"eps": -1e-8}}', "eps"),
        ('{"train": {"beta1": 1.0}}', "beta1"),
        ('{"train": {"beta1": -0.1}}', "beta1"),
        ('{"train": {"beta2": 1.5}}', "beta2"),
        ('{"train": {"beta1": 0.9}}', "beta1"),
        ('{"train": {"normalize": false}}', "normalize"),
    ])
    def test_bad_config_file_exits_2(self, capsys, tmp_path, cli_corpus, content, needle):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        code, _, err = run_cli(capsys, "train", "--corpus", cli_corpus["corpus"],
                               "--out", str(tmp_path / "m.ckpt"), "--config", str(config))
        assert code == 2
        assert needle in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag,value", [("--filters", "a,b,c,d"), ("--hidden", "4,x"),
                                            ("--filters", "2,2,2")])
    def test_bad_integer_list_exits_2(self, capsys, tmp_path, cli_corpus, flag, value):
        code, _, err = run_cli(capsys, "train", "--corpus", cli_corpus["corpus"],
                               "--out", str(tmp_path / "m.ckpt"), flag, value)
        assert code == 2
        assert f"{flag} needs" in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_learning_rate_flag_exits_2(self, capsys, tmp_path, cli_corpus, value):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run_cli(capsys, "train", "--corpus", cli_corpus["corpus"], "--out", str(ckpt),
                               "--filters", "2,2,2,2", "--hidden", "3,3", "--epochs", "1",
                               "--learning-rate", value)
        assert code == 2
        assert "learning_rate" in err
        assert not ckpt.exists()

    def test_root_without_manifest_exits_2(self, capsys, tmp_path):
        write_half_run(tmp_path / "corpus")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_cli(capsys, "train", "--corpus", str(tmp_path / "corpus"),
                               "--out", str(out / "m.ckpt"), "--filters", "2,2,2,2",
                               "--hidden", "3,3", "--epochs", "2")
        assert code == 2
        assert "manifest.json" in err
        assert os.listdir(out) == []


class TestEvaluateCommand:
    def test_report_self_consistent(self, capsys, tmp_path, cli_corpus):
        report_path = str(tmp_path / "report.json")
        cm_path = str(tmp_path / "confusion.csv")
        code, _, _ = run_cli(
            capsys, "evaluate", "--corpus", cli_corpus["corpus"], "--split", "validation",
            "--model", cli_corpus["ckpt"], "--out", report_path, "--confusion-csv", cm_path,
        )
        assert code == 0
        report = json.loads(Path(report_path).read_text())
        rows = [line.split(",")[1:] for line in Path(cm_path).read_text().strip().splitlines()[1:]]
        cm = np.array([[int(v) for v in row] for row in rows])
        assert report["accuracy"] == pytest.approx(np.trace(cm) / cm.sum())
        assert len(report["scores"]["f1"]) == 4

    def test_wrong_feature_shape_exits_2(self, capsys, tmp_path, cli_corpus):
        other = str(tmp_path / "other")
        spec = SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                         utterances_per_speaker=1, utterance_seconds=1.0)
        from callseg.synth import synth_corpus

        synth_corpus(spec, seed=1, out_root=other)  # (96, 100) features
        code, _, err = run_cli(capsys, "evaluate", "--corpus", other,
                               "--split", "validation", "--model", cli_corpus["ckpt"])
        assert code == 2
        assert "shape" in err.lower()

    def test_split_naming_another_root_exits_2(self, capsys, tmp_path, cli_corpus):
        from callseg.synth import synth_corpus

        other = tmp_path / "other"
        synth_corpus(SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                               utterances_per_speaker=2, utterance_seconds=0.5), 3, str(other))
        split = os.path.relpath(other / "train", cli_corpus["corpus"])
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:  # --split names a split, not a path
            main(["evaluate", "--corpus", cli_corpus["corpus"], "--split", split,
                  "--model", cli_corpus["ckpt"], "--out", str(report)])
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err
        assert not report.exists()

    def test_root_without_manifest_exits_2(self, capsys, tmp_path, cli_corpus):
        write_half_run(tmp_path / "corpus")
        report = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "evaluate", "--corpus", str(tmp_path / "corpus"),
                               "--model", cli_corpus["ckpt"], "--out", str(report))
        assert code == 2
        assert "manifest.json" in err
        assert not report.exists()


class TestAnalyzeCommand:
    def make_call_files(self, tmp_path, agent_seconds=2.0, customer_seconds=2.0):
        rng = np.random.default_rng(0)
        agent = synth_speech(speaker_voice(2, rng), agent_seconds, rng)
        customer = synth_speech(speaker_voice(1, rng), customer_seconds, rng)
        audio = AudioBuffer(np.concatenate([agent, customer]), 8000)
        wav = str(tmp_path / "call.wav")
        save_wav(wav, audio)
        seg_path = tmp_path / "call.csv"
        seg_path.write_text(
            "start,end,label\n"
            f"0.0,{agent_seconds},speech_female\n"
            f"{agent_seconds},{agent_seconds + customer_seconds},speech_male\n"
        )
        return wav, str(seg_path)

    def test_two_verdicts(self, capsys, tmp_path, cli_corpus):
        wav, segments = self.make_call_files(tmp_path)
        out = str(tmp_path / "report.json")
        code, _, _ = run_cli(capsys, "analyze", "--wav", wav, "--segments", segments,
                             "--model", cli_corpus["ckpt"], "--out", out,
                             "--windows-csv", str(tmp_path / "win.csv"))
        assert code == 0
        report = json.loads(Path(out).read_text())
        assert len(report["speakers"]) == 2
        for entry in report["speakers"]:
            assert entry["window_count"] >= 1
            assert abs(sum(entry["mean_probabilities"]) - 1.0) < 1e-6
        assert (tmp_path / "win.csv").read_text().startswith("slot,window,")

    def test_echo_records_the_windows_csv(self, capsys, tmp_path, cli_corpus):
        wav, segments = self.make_call_files(tmp_path)
        windows = str(tmp_path / "win.csv")
        code, stdout, _ = run_cli(capsys, "analyze", "--wav", wav, "--segments", segments,
                                  "--model", cli_corpus["ckpt"], "--windows-csv", windows)
        assert code == 0
        assert json.loads(stdout.splitlines()[0])["effective_config"]["windows_csv"] == windows

    def test_single_gender_call(self, capsys, tmp_path, cli_corpus):
        rng = np.random.default_rng(1)
        audio = AudioBuffer(synth_speech(speaker_voice(2, rng), 2.0, rng), 8000)
        wav = str(tmp_path / "solo.wav")
        save_wav(wav, audio)
        seg_path = tmp_path / "solo.csv"
        seg_path.write_text("start,end,label\n0.0,2.0,speech_female\n")
        code, stdout, _ = run_cli(capsys, "analyze", "--wav", wav, "--segments", str(seg_path),
                                  "--model", cli_corpus["ckpt"])
        assert code == 0
        # the report is everything after the config-echo line
        report = json.loads("\n".join(stdout.splitlines()[1:]))
        assert len(report["speakers"]) == 1

    def test_short_stream_no_windows_exit_zero(self, capsys, tmp_path, cli_corpus):
        wav, _ = self.make_call_files(tmp_path, agent_seconds=2.0, customer_seconds=0.2)
        seg_path = tmp_path / "short.csv"
        seg_path.write_text(
            "start,end,label\n0.0,2.0,speech_female\n2.0,2.2,speech_male\n"
        )
        code, stdout, _ = run_cli(capsys, "analyze", "--wav", wav, "--segments", str(seg_path),
                                  "--model", cli_corpus["ckpt"])
        assert code == 0
        report = json.loads("\n".join(stdout.splitlines()[1:]))
        male = [e for e in report["speakers"] if e["gender"] == "male"][0]
        assert male["no_windows"] is True

    @pytest.mark.parametrize("row", ["0.0,two,speech_female", "zero,2.0,speech_female",
                                     "0.0,inf,speech_female", "0.0"])
    def test_unparsable_segment_time_exits_2(self, capsys, tmp_path, cli_corpus, row):
        wav, _ = self.make_call_files(tmp_path)
        seg_path = tmp_path / "bad.csv"
        seg_path.write_text(f"start,end,label\n{row}\n")
        code, _, err = run_cli(capsys, "analyze", "--wav", wav, "--segments", str(seg_path),
                               "--model", cli_corpus["ckpt"])
        assert code == 2
        assert "bad.csv:2" in err

    def test_segment_past_the_end_exits_2(self, capsys, tmp_path, cli_corpus):
        wav, _ = self.make_call_files(tmp_path)  # 4 s of audio
        seg_path = tmp_path / "late.csv"
        seg_path.write_text("start,end,label\n0.0,2.0,speech_female\n100,200,speech_male\n")
        code, _, err = run_cli(capsys, "analyze", "--wav", wav, "--segments", str(seg_path),
                               "--model", cli_corpus["ckpt"])
        assert code == 2
        assert "ends after the audio" in err

    def test_checkpoint_without_config_exits_2(self, capsys, tmp_path, cli_corpus):
        ckpt = tmp_path / "noconfig.ckpt"
        ckpt.write_bytes(Path(cli_corpus["ckpt"]).read_bytes())
        rewrite_checkpoint_header(ckpt, lambda h: {k: v for k, v in h.items() if k != "config"})
        wav, segments = self.make_call_files(tmp_path)
        code, _, err = run_cli(capsys, "analyze", "--wav", wav, "--segments", segments,
                               "--model", str(ckpt))
        assert code == 2
        assert "noconfig.ckpt" in err

    def test_model_not_taking_96_bands_exits_2(self, capsys, tmp_path):
        config = ModelConfig(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), input_shape=(12, 50))
        ckpt = str(tmp_path / "narrow.ckpt")
        save_checkpoint(build_crnn(config, seed=0), ckpt)
        wav, segments = self.make_call_files(tmp_path)
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", "--wav", wav, "--segments", segments,
                               "--model", ckpt, "--out", str(out))
        assert code == 2
        assert "96-band" in err
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["0", "0.00001", "nan", "-1"])
    def test_bad_shift_exits_2(self, capsys, tmp_path, cli_corpus, shift):
        wav, segments = self.make_call_files(tmp_path)
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", "--wav", wav, "--segments", segments,
                               "--model", cli_corpus["ckpt"], "--out", str(out), "--shift", shift)
        assert code == 2
        assert "window shift must be at least one sample" in err
        assert not out.exists()

    def test_missing_segments_file_exits_2(self, capsys, tmp_path, cli_corpus):
        wav, _ = self.make_call_files(tmp_path)
        code, _, err = run_cli(capsys, "analyze", "--wav", wav,
                               "--segments", str(tmp_path / "nope.csv"),
                               "--model", cli_corpus["ckpt"])
        assert code == 2
        assert "nope.csv" in err


class TestOutputPathsCheckedFirst:
    """An output path that cannot be created exits 2 before the checkpoint is loaded."""

    def target(self, tmp_path, where):
        if where == "missing directory":
            return str(tmp_path / "nodir" / "out.txt")
        if where == "same as --out":  # spelled differently from the --out path
            return os.path.join(str(tmp_path), ".", "out.txt")
        blocker = tmp_path / "plain.txt"
        blocker.write_text("a regular file\n")
        return str(blocker / "out.txt")

    @pytest.mark.parametrize("command, flag, where", [
        ("analyze", "--out", "missing directory"),
        ("analyze", "--windows-csv", "regular file"),
        ("evaluate", "--out", "regular file"),
        ("evaluate", "--confusion-csv", "missing directory"),
        ("analyze", "--windows-csv", "same as --out"),
        ("evaluate", "--confusion-csv", "same as --out"),
    ])
    def test_unwritable_output_exits_2(self, capsys, monkeypatch, tmp_path, cli_corpus,
                                       command, flag, where):
        def no_load(path):
            pytest.fail("the checkpoint was loaded before the output path was checked")

        monkeypatch.setattr("callseg.cli.load_checkpoint", no_load)
        target = self.target(tmp_path, where)
        if command == "analyze":
            wav, segments = TestAnalyzeCommand().make_call_files(tmp_path)
            inputs = ["--wav", wav, "--segments", segments]
        else:
            inputs = ["--corpus", cli_corpus["corpus"]]
        if where == "same as --out":
            inputs += ["--out", str(tmp_path / "out.txt")]
        code, stdout, err = run_cli(capsys, command, *inputs, "--model", cli_corpus["ckpt"],
                                    flag, target)
        assert code == 2
        assert f"cannot write {target}" in err
        assert len(stdout.splitlines()) == 1  # the config echo, no report


    @pytest.mark.parametrize("flag, where", [
        ("--out", "missing directory"),
        ("--history", "regular file"),
        ("--history", "same as --out"),
    ])
    def test_train_output_checked_before_training(self, capsys, monkeypatch, tmp_path,
                                                  cli_corpus, flag, where):
        monkeypatch.setattr("callseg.cli.train",
                            lambda *a: pytest.fail("trained before the output path was checked"))
        target = self.target(tmp_path, where)
        outputs = {"--out": str(tmp_path / ("out.txt" if where == "same as --out" else "m.ckpt")),
                   flag: target}
        code, stdout, err = run_cli(capsys, "train", "--corpus", cli_corpus["corpus"],
                                    *(arg for pair in outputs.items() for arg in pair))
        assert code == 2
        assert f"cannot write {target}" in err
        assert stdout == ""  # nothing resolved or echoed

    def test_features_output_checked_before_reading(self, capsys, monkeypatch, tmp_path,
                                                    tone_wav):
        monkeypatch.setattr("callseg.cli.load_audio",
                            lambda *a, **k: pytest.fail("read the WAV before checking --out"))
        target = self.target(tmp_path, "missing directory")
        code, _, err = run_cli(capsys, "features", "--in", tone_wav, "--out", target)
        assert code == 2
        assert f"cannot write {target}" in err

    @pytest.mark.parametrize("command, flag, source", [
        ("features", "--out", "--in"),
        ("evaluate", "--out", "--model"),
        ("evaluate", "--confusion-csv", "--model"),
        ("analyze", "--out", "--model"),
        ("analyze", "--windows-csv", "--wav"),
        ("analyze", "--out", "--segments"),
        ("train", "--out", "--config"),
        ("train", "--history", "--config"),
    ])
    def test_output_naming_an_input_exits_2(self, capsys, monkeypatch, tmp_path, cli_corpus,
                                            tone_wav, command, flag, source):
        for name in ("load_audio", "load_checkpoint", "train"):
            monkeypatch.setattr(f"callseg.cli.{name}", lambda *a, name=name, **k: pytest.fail(
                f"{name} ran before the outputs were checked"))
        wav, segments = TestAnalyzeCommand().make_call_files(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"train": {"seed": 1}}')
        args = {
            "features": {"--in": tone_wav},
            "evaluate": {"--corpus": cli_corpus["corpus"], "--model": cli_corpus["ckpt"]},
            "analyze": {"--wav": wav, "--segments": segments, "--model": cli_corpus["ckpt"]},
            "train": {"--corpus": cli_corpus["corpus"], "--out": str(tmp_path / "m.ckpt"),
                      "--config": str(config)},
        }[command]
        before = Path(args[source]).read_bytes()
        target = os.path.join(os.path.dirname(args[source]), ".",  # spelled differently
                              os.path.basename(args[source]))
        args[flag] = target
        code, _, err = run_cli(capsys, command, *(arg for pair in args.items() for arg in pair))
        assert code == 2
        assert f"cannot write {target}: it is an input" in err
        assert Path(args[source]).read_bytes() == before

    def test_synth_out_naming_a_file_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("callseg.cli.synth_corpus",
                            lambda *a: pytest.fail("synthesized before checking --out"))
        target = tmp_path / "plain.txt"
        target.write_text("a regular file\n")
        spec = write_spec(tmp_path / "spec.json")
        code, _, err = run_cli(capsys, "synth", "--spec", spec, "--seed", "1",
                               "--out", str(target))
        assert code == 2
        assert f"cannot write {target}" in err
        assert target.read_text() == "a regular file\n"

    def test_prepare_out_naming_a_file_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("callseg.cli.read_calls_csv",
                            lambda *a: pytest.fail("read the calls CSV before checking --out"))
        target = tmp_path / "plain.txt"
        target.write_text("a regular file\n")
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(tmp_path / "calls.csv"), "--audio", str(tmp_path),
                               "--out", str(target))
        assert code == 2
        assert f"cannot write {target}" in err
        assert target.read_text() == "a regular file\n"

    def test_synth_out_may_be_a_new_nested_directory(self, capsys, tmp_path):
        out = tmp_path / "new" / "corpus"
        spec = write_spec(tmp_path / "spec.json")
        code, _, _ = run_cli(capsys, "synth", "--spec", spec, "--seed", "1", "--out", str(out))
        assert code == 0 and (out / "manifest.json").is_file()


class TestFailedWritesKeepOldFiles:
    """A write that fails once its temporary file is complete leaves the old file as it was."""

    @pytest.mark.parametrize("command, flag", [
        ("features", "--out"),
        ("analyze", "--out"),
        ("analyze", "--windows-csv"),
        ("evaluate", "--out"),
        ("evaluate", "--confusion-csv"),
    ])
    def test_failed_write_leaves_old_file(self, capsys, monkeypatch, tmp_path, cli_corpus,
                                          tone_wav, command, flag):
        wav, segments = TestAnalyzeCommand().make_call_files(tmp_path)
        inputs = {
            "features": ["--in", tone_wav],
            "analyze": ["--wav", wav, "--segments", segments, "--model", cli_corpus["ckpt"]],
            "evaluate": ["--corpus", cli_corpus["corpus"], "--model", cli_corpus["ckpt"]],
        }[command]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        target = out_dir / "old.txt"
        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _, err = run_cli(capsys, command, *inputs, flag, str(target))
        assert code != 0 and "disk full" in err
        assert target.read_bytes() == b"old bytes\n"
        assert os.listdir(out_dir) == ["old.txt"]

    def test_train_writes_the_checkpoint_last(self, capsys, monkeypatch, tmp_path, cli_corpus):
        monkeypatch.setattr("callseg.cli.train", lambda model, *a: (
            model, TrainHistory([1.0], [0.5], [1.0], [0.5], 1)))
        real_replace = os.replace

        def replace(src, dst):
            if dst.endswith(".history.csv"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_cli(capsys, "train", "--corpus", cli_corpus["corpus"],
                               "--out", str(out / "m.ckpt"), "--filters", "2,2,2,2",
                               "--hidden", "3,3")
        assert code != 0 and "disk full" in err
        assert os.listdir(out) == []  # no checkpoint without its history


class TestPrepareCommand:
    def test_rerun_that_cuts_nothing_leaves_an_empty_run(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli(capsys, "synth", "--spec", write_spec(tmp_path / "spec.json"),
                       "--seed", "7", "--out", str(out))[0] == 0
        calls = tmp_path / "calls.csv"
        calls.write_text("call_id,agent_id,agent_gender,duration,audio_path\n"
                         "short,agentY,female,30,short.wav\n")
        code, stdout, _ = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                                  str(calls), "--audio", str(tmp_path), "--out", str(out))
        assert code == 0
        assert "rejected short: duration" in stdout
        assert "no utterances produced" in stdout
        assert os.listdir(out) == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text()) == {"speaker_splits": {},
                                                                   "splits": {}}

    def test_short_utterance_exits_2_and_keeps_the_old_run(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli(capsys, "synth", "--spec", write_spec(tmp_path / "spec.json"),
                       "--seed", "7", "--out", str(out))[0] == 0
        before = tree_digest(out)
        calls = tmp_path / "calls.csv"
        calls.write_text("call_id,agent_id,agent_gender,duration,audio_path\n"
                         "short,agentY,female,30,short.wav\n")
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(out),
                               "--utterance-seconds", "0.001")
        assert code == 2
        assert "utterance length" in err
        assert tree_digest(out) == before

    def test_end_to_end_with_rejections(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        audio_dir = tmp_path / "audio"
        seg_dir = tmp_path / "segments"
        audio_dir.mkdir()
        seg_dir.mkdir()

        # valid opposite-gender call: 6 s female agent + 6 s male customer
        agent = synth_speech(speaker_voice(2, rng), 6.0, rng)
        customer = synth_speech(speaker_voice(1, rng), 6.0, rng)
        save_wav(str(audio_dir / "good.wav"), AudioBuffer(np.concatenate([agent, customer]), 8000))
        (seg_dir / "good.csv").write_text(
            "start,end,label\n0,6,speech_female\n6,12,speech_male\n"
        )
        # too-short call
        save_wav(str(audio_dir / "short.wav"), AudioBuffer(np.zeros(8000), 8000))
        (seg_dir / "short.csv").write_text("start,end,label\n0,1,speech_female\n")

        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "good,agentX,female,120,good.wav\n"
            "short,agentY,female,30,short.wav\n"
        )
        out = str(tmp_path / "corpus")
        code, stdout, _ = run_cli(
            capsys, "prepare", "--segments", str(seg_dir), "--calls", str(calls),
            "--audio", str(audio_dir), "--out", out,
            "--val-fraction", "0", "--utterance-seconds", "2",
        )
        assert code == 0
        assert "rejected short: duration" in stdout
        assert os.path.isfile(os.path.join(out, "train", "agent", "female", "agentX", "0.npy"))
        assert os.path.isfile(os.path.join(out, "train", "customer", "male", "good.customer", "2.npy"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["splits"]["train"]["utterances"] == 6  # 3 per speaker

    def test_non_numeric_duration_exits_2(self, capsys, tmp_path):
        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "c1,agentX,female,2 min,c1.wav\n"
        )
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "duration" in err

    @pytest.mark.parametrize("agent", ["../../escaped", ""])
    def test_agent_id_outside_the_tree_exits_2(self, capsys, tmp_path, agent):
        save_wav(str(tmp_path / "c1.wav"), AudioBuffer(np.zeros(12 * 8000), 8000))
        (tmp_path / "c1.csv").write_text("start,end,label\n0,6,speech_female\n6,12,speech_male\n")
        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            f"c1,{agent},female,120,c1.wav\n"
        )
        out = tmp_path / "deep" / "corpus"
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(out),
                               "--utterance-seconds", "2")
        assert code == 2
        assert "agent_id" in err
        assert not (tmp_path / "deep").exists()

    def test_segment_past_the_end_exits_2(self, capsys, tmp_path):
        save_wav(str(tmp_path / "c1.wav"), AudioBuffer(np.zeros(12 * 8000), 8000))
        (tmp_path / "c1.csv").write_text("start,end,label\n0,6,speech_female\n100,200,speech_male\n")
        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "c1,agentX,female,120,c1.wav\n"
        )
        out = tmp_path / "corpus"
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(out))
        assert code == 2
        assert "ends after the audio" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,needle", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--val-fraction", "1.5", "validation fraction"),
        ("--val-fraction", "-0.5", "validation fraction"),
        ("--val-fraction", "nan", "validation fraction"),
        ("--utterance-seconds", "0", "utterance length"),
        ("--utterance-seconds", "-1", "utterance length"),
        ("--utterance-seconds", "nan", "utterance length"),
        ("--utterance-seconds", "0.00001", "utterance length"),
        ("--utterance-seconds", "0.001", "utterance length"),
    ])
    def test_bad_numeric_flag_exits_2_before_writing(self, capsys, tmp_path, flag, value, needle):
        # one acceptable call, so a run that got past the check would write a corpus
        save_wav(str(tmp_path / "c1.wav"), AudioBuffer(np.zeros(12 * 8000), 8000))
        (tmp_path / "c1.csv").write_text("start,end,label\n0,6,speech_female\n6,12,speech_male\n")
        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "c1,agentX,female,120,c1.wav\n"
        )
        out = tmp_path / "corpus"
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(out),
                               "--utterance-seconds", "2", flag, value)
        assert code == 2
        assert needle in err
        assert not out.exists()

    def test_repeated_call_id_exits_2_before_writing(self, capsys, tmp_path):
        for name in ("a", "b"):
            save_wav(str(tmp_path / f"{name}.wav"), AudioBuffer(np.zeros(12 * 8000), 8000))
        (tmp_path / "dup.csv").write_text("start,end,label\n0,6,speech_female\n6,12,speech_male\n")
        calls = tmp_path / "calls.csv"
        calls.write_text(
            "call_id,agent_id,agent_gender,duration,audio_path\n"
            "dup,agentX,female,120,a.wav\n"
            "dup,agentY,male,120,b.wav\n"
        )
        out = tmp_path / "corpus"
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(calls), "--audio", str(tmp_path), "--out", str(out),
                               "--utterance-seconds", "2")
        assert code == 2
        assert "call_id repeated" in err and "dup" in err
        assert not out.exists()

    def test_missing_calls_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "prepare", "--segments", str(tmp_path), "--calls",
                               str(tmp_path / "nope.csv"), "--audio", str(tmp_path),
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "nope.csv" in err


def test_every_command_echoes_config(capsys, tmp_path, tone_wav):
    out = str(tmp_path / "f.npy")
    _code, stdout, _ = run_cli(capsys, "features", "--in", tone_wav, "--out", out)
    echo = json.loads(stdout.splitlines()[0])
    assert "effective_config" in echo and echo["effective_config"]["in"] == tone_wav


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_is_not_an_error(tmp_path, tone_wav, unbuffered):
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "t.npy"
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, so every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "callseg.cli", "features", "--in", tone_wav, "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=root, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert load_features(str(out)).shape == (96, 1000)


def test_settable_value_count():
    """Command-line options (the subcommand counts as one) plus config fields.

    A change that adds or removes a setting updates this count and ROADMAP.md together.
    """
    from argparse import _SubParsersAction
    from dataclasses import fields

    from callseg.cli import _build_parser
    from callseg.model import ModelConfig
    from callseg.training import TrainConfig

    (commands,) = [a for a in _build_parser()._actions if isinstance(a, _SubParsersAction)]
    options = 1 + sum(
        sum(1 for action in sub._actions if action.dest != "help")
        for sub in commands.choices.values()
    )
    config_fields = sum(len(fields(cls)) for cls in (ModelConfig, TrainConfig, SynthSpec))
    assert (options, config_fields) == (38, 16)
    assert options + config_fields == 54
