import hashlib
import pathlib
import os

import numpy as np
import pytest

from callseg.dbas import SEGMENT_LABELS
from callseg.errors import ConfigError
from callseg.features import log_mel_spectrogram
from callseg.audio import AudioBuffer
from callseg.synth import F0_BANDS, SynthSpec, speaker_voice, synth_call, synth_corpus, synth_speech

SMALL = SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                  utterances_per_speaker=2, utterance_seconds=1.0)


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(pathlib.Path(path).read_bytes())
    return digest.hexdigest()


def dominant_frequency(samples, rate=8000):
    spectrum = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
    freqs = np.fft.rfftfreq(len(samples), 1.0 / rate)
    return freqs[np.argmax(spectrum)]


def test_same_seed_bit_identical_corpora(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    synth_corpus(SMALL, seed=7, out_root=a)
    synth_corpus(SMALL, seed=7, out_root=b)
    assert tree_digest(a) == tree_digest(b)


def test_different_seed_differs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    synth_corpus(SMALL, seed=7, out_root=a)
    synth_corpus(SMALL, seed=8, out_root=b)
    assert tree_digest(a) != tree_digest(b)


def test_manifest_counts_match_spec(tmp_path):
    spec = SynthSpec(train_speakers_per_class=2, val_speakers_per_class=1,
                     utterances_per_speaker=3, utterance_seconds=1.0)
    manifest = synth_corpus(spec, seed=1, out_root=str(tmp_path / "c"))
    assert manifest.splits["train"]["utterances"] == 4 * 2 * 3
    assert manifest.splits["validation"]["utterances"] == 4 * 1 * 3
    assert manifest.splits["train"]["speakers"] == 8
    # split hygiene
    train = {s for s, sp in manifest.speaker_splits.items() if sp == "train"}
    val = {s for s, sp in manifest.speaker_splits.items() if sp == "validation"}
    assert not train & val


@pytest.mark.parametrize("class_label", [0, 1, 2, 3])
def test_dominant_fundamental_in_gender_band(class_label):
    band = F0_BANDS["female"] if class_label % 2 == 0 else F0_BANDS["male"]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        voice = speaker_voice(class_label, rng)
        samples = synth_speech(voice, 2.0, rng)
        peak = dominant_frequency(samples)
        assert band[0] <= peak <= band[1], f"class {class_label} peak {peak} outside {band}"


def test_generated_audio_passes_shape_law():
    rng = np.random.default_rng(0)
    samples = synth_speech(speaker_voice(0, rng), 10.0, rng)
    assert len(samples) == 80000
    spec = log_mel_spectrogram(AudioBuffer(samples, 8000))
    assert spec.values.shape == (96, 1000)


def test_counts_must_be_positive():
    with pytest.raises(ConfigError):
        SynthSpec(train_speakers_per_class=0)


def test_lowest_accepted_rate_gives_finite_audio():
    with pytest.raises(ConfigError):
        SynthSpec(sample_rate=535)
    rate = SynthSpec(sample_rate=536).sample_rate
    voice = speaker_voice(0, np.random.default_rng(0))
    voice.f0 = 247.0  # top of the female sampling range
    for seed in range(20):
        samples = synth_speech(voice, 1.0, np.random.default_rng(seed), rate)
        assert np.all(np.isfinite(samples))
        assert np.abs(samples).max() > 0.1  # a harmonic, not the noise floor alone


class TestSynthCall:
    def test_structure_and_truth(self):
        audio, segments, truth = synth_call(seed=5, agent_gender="female", turns=4,
                                            turn_seconds=3.0, gap_seconds=0.5)
        assert truth == {"agent": 2, "customer": 1}
        assert all(s.label in SEGMENT_LABELS for s in segments)
        speech = [s for s in segments if s.label.startswith("speech_")]
        assert len(speech) == 4
        assert {s.label for s in speech} == {"speech_female", "speech_male"}
        assert segments[-1].end == pytest.approx(audio.duration)

    def test_male_agent_variant(self):
        _audio, segments, truth = synth_call(seed=5, agent_gender="male", turns=2,
                                             turn_seconds=2.0)
        assert truth == {"agent": 3, "customer": 0}
        assert segments[0].label == "speech_male"

    def test_deterministic(self):
        a1, s1, _ = synth_call(seed=9, turns=2, turn_seconds=1.0)
        a2, s2, _ = synth_call(seed=9, turns=2, turn_seconds=1.0)
        np.testing.assert_array_equal(a1.samples, a2.samples)
        assert [(s.start, s.end, s.label) for s in s1] == [(s.start, s.end, s.label) for s in s2]
