"""Deterministic synthetic speakers for desk-scale experiments.

Gender is encoded as the fundamental-frequency register (male 85-180 Hz,
female 165-255 Hz harmonic tones) plus a gender-specific spectral tilt;
role is encoded as the amplitude-modulation rhythm: agents carry a fast
(6-9 Hz) regular pulse train with deep troughs, customers a slow
(0.6-1.6 Hz) smoothly wobbling sway. Per-speaker timbre jitter and
additive noise keep speakers distinct. None of this claims realism; the
point is a label structure a classifier can provably recover from held-out
voices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE, AudioBuffer
from .dbas import (
    UTTERANCE_SECONDS,
    CorpusManifest,
    CorpusWriter,
    SegmentAnnotation,
    class_label_of,
    gender_of,
    role_of,
    utterance_samples,
)
from .errors import ConfigError, JsonConfig, read_json_object

F0_BANDS = {"male": (85.0, 180.0), "female": (165.0, 255.0)}
# sample away from the band overlap (and inside it even after the per-utterance
# +-3% jitter) so gender stays recoverable
_F0_SAMPLING = {"male": (92.0, 165.0), "female": (178.0, 247.0)}
_F0_JITTER = 0.03
_TILT = {"male": (1.1, 1.5), "female": (0.55, 0.95)}
_AM_RATE = {"agent": (6.0, 9.0), "customer": (0.6, 1.6)}
_N_HARMONICS = 10
_NOISE_LEVEL = 0.008

_SPLIT_CODE = {"train": 0, "validation": 1}


@dataclass
class SpeakerVoice:
    class_label: int
    f0: float
    tilt: float
    am_rate: float
    am_wobble: float  # phase-wobble depth; 0 for the regular agent rhythm


def speaker_voice(class_label: int, rng: np.random.Generator) -> SpeakerVoice:
    """Draw one speaker's voice parameters for the given 4-class label."""
    gender, role = gender_of(class_label), role_of(class_label)
    return SpeakerVoice(
        class_label=class_label,
        f0=rng.uniform(*_F0_SAMPLING[gender]),
        tilt=rng.uniform(*_TILT[gender]),
        am_rate=rng.uniform(*_AM_RATE[role]),
        am_wobble=0.0 if role == "agent" else rng.uniform(0.9, 1.5),
    )


def synth_speech(voice: SpeakerVoice, seconds: float, rng: np.random.Generator,
                 sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """One stretch of continuous synthetic speech for a speaker.

    The harmonic stack is scaled by the sum of harmonic amplitudes, a
    duration-independent peak bound, so slicing a long stretch and
    generating a short one give identically distributed windows.
    """
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
    # per-utterance delivery jitter around the speaker's voice
    f0 = voice.f0 * (1.0 + rng.uniform(-_F0_JITTER, _F0_JITTER))
    tilt = voice.tilt + rng.uniform(-0.05, 0.05)
    am_rate = voice.am_rate * (1.0 + rng.uniform(-0.08, 0.08))

    signal = np.zeros(n)
    amp_total = 0.0
    for k in range(1, _N_HARMONICS + 1):
        if k * f0 >= 0.95 * sample_rate / 2:
            break
        amp = k ** -tilt
        amp_total += amp
        signal += amp * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    signal /= amp_total

    phase = 2 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi)
    if voice.am_wobble > 0:
        # customer: slow smooth sway with an irregular rate, never very quiet
        phase = phase + voice.am_wobble * np.sin(2 * np.pi * 0.31 * t + rng.uniform(0, 2 * np.pi))
        envelope = 0.65 + 0.35 * np.sin(phase)
    else:
        # agent: fast regular pulse train with deep troughs
        pulse = 0.5 + 0.5 * np.sin(phase)
        envelope = 0.05 + 0.95 * pulse * pulse

    out = 0.9 * envelope * signal + _NOISE_LEVEL * rng.standard_normal(n)
    return np.clip(out, -1.0, 1.0)


@dataclass
class SynthSpec(JsonConfig):
    """Corpus sizing: speakers per class per split, utterances per speaker."""

    train_speakers_per_class: int = 6
    val_speakers_per_class: int = 2
    utterances_per_speaker: int = 20
    utterance_seconds: float = UTTERANCE_SECONDS

    def __post_init__(self):
        self._check_field_types()
        if min(self.train_speakers_per_class, self.val_speakers_per_class,
               self.utterances_per_speaker) < 1:
            raise ConfigError("speaker and utterance counts must be >= 1")
        utterance_samples(self.utterance_seconds)

    @classmethod
    def from_json_file(cls, path: str) -> "SynthSpec":
        return cls.from_dict(read_json_object(path))


def synth_corpus(spec: SynthSpec, seed: int, out_root: str) -> CorpusManifest:
    """Write a labeled corpus; identical seeds give identical trees, negative ones ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    assignment = {"train": set(), "validation": set()}
    with CorpusWriter(out_root) as writer:
        for class_label in range(4):
            for split, count in (
                ("train", spec.train_speakers_per_class),
                ("validation", spec.val_speakers_per_class),
            ):
                for i in range(count):
                    speaker_id = f"c{class_label}{split[0]}{i:02d}"
                    rng = np.random.default_rng(
                        np.random.SeedSequence([seed, class_label, _SPLIT_CODE[split], i])
                    )
                    voice = speaker_voice(class_label, rng)
                    for _ in range(spec.utterances_per_speaker):
                        samples = synth_speech(voice, spec.utterance_seconds, rng)
                        writer.add(speaker_id, class_label, samples)
                    assignment[split].add(speaker_id)
        return writer.finish(assignment)


def synth_call(
    seed: int,
    agent_gender: str = "female",
    turns: int = 4,
    turn_seconds: float = 11.0,
    gap_seconds: float = 1.0,
):
    """Assemble a two-speaker opposite-gender call with segment annotations.

    Returns (AudioBuffer, segments, truth) where truth maps role ->
    4-class label. Speakers are freshly drawn from the seed, so any seed
    disjoint from a corpus seed sequence gives held-out voices.
    """
    customer_gender = "male" if agent_gender == "female" else "female"
    agent_label = class_label_of("agent", agent_gender)
    customer_label = class_label_of("customer", customer_gender)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 9001]))
    voices = {
        "agent": speaker_voice(agent_label, rng),
        "customer": speaker_voice(customer_label, rng),
    }
    genders = {"agent": agent_gender, "customer": customer_gender}

    pieces, segments = [], []
    cursor = 0.0
    for i in range(turns):
        role = "agent" if i % 2 == 0 else "customer"
        speech = synth_speech(voices[role], turn_seconds, rng)
        segments.append(
            SegmentAnnotation(cursor, cursor + turn_seconds, f"speech_{genders[role]}")
        )
        pieces.append(speech)
        cursor += turn_seconds
        if i < turns - 1:
            gap = 0.02 * rng.standard_normal(int(round(gap_seconds * SAMPLE_RATE)))
            segments.append(SegmentAnnotation(cursor, cursor + gap_seconds, "noise"))
            pieces.append(gap)
            cursor += gap_seconds

    audio = AudioBuffer(np.concatenate(pieces), SAMPLE_RATE)
    truth = {"agent": agent_label, "customer": customer_label}
    return audio, segments, truth
