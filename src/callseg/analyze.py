"""Per-speaker classification of a whole call.

Speech segments of each gender are concatenated into (up to two) speaker
streams, a fixed-length window slides over each stream at a 1 s shift,
every window is classified, and the speaker's class probabilities are the
arithmetic mean over its windows; the spoken verdict is the argmax. The
window length always matches the model's configured input frames.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .dbas import SPEECH_GENDER, segment_samples
from .errors import ConfigError, NoSpeechError, NoWindowsError
from .features import HOP, log_mel_spectrogram
from .model import CrnnModel, label_names


@dataclass
class SpeakerStream:
    """All speech attributed to one speaker slot, in temporal order."""

    slot: int
    gender: str
    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def build_speaker_streams(audio: AudioBuffer, segments) -> list[SpeakerStream]:
    """Bundle speech segments per gender; slot 0 is the first gender heard.

    A speech segment that ends after the audio raises InputError.
    """
    by_gender: dict[str, list] = {}
    for seg in segments:
        gender = SPEECH_GENDER.get(seg.label)
        if gender is not None:
            by_gender.setdefault(gender, []).append(seg)
    if not by_gender:
        raise NoSpeechError("call contains no speech segments")
    return [
        SpeakerStream(i, gender, segment_samples(audio, segs), audio.sample_rate)
        for i, (gender, segs) in enumerate(by_gender.items())
    ]


def window_count(n_samples: int, window: int, shift: int) -> int:
    """Number of windows at offsets 0, shift, 2*shift, ... with offset+window <= n."""
    if n_samples < window:
        return 0
    return 1 + (n_samples - window) // shift


def sliding_windows(samples: np.ndarray, window: int, shift: int) -> list[np.ndarray]:
    """Fixed-length views of the stream, shifted by ``shift`` samples."""
    n = window_count(len(samples), window, shift)
    return [samples[i * shift : i * shift + window] for i in range(n)]


@dataclass
class SpeakerVerdict:
    mean_probs: np.ndarray
    label: int
    tie: bool
    window_count: int


def aggregate_speaker(window_probs) -> SpeakerVerdict:
    """Mean the per-window class probabilities and take the argmax.

    Exact ties resolve to the lowest class index and set the tie flag.
    """
    if len(window_probs) == 0:
        raise NoWindowsError("no classification windows for this speaker")
    stacked = np.asarray(window_probs, dtype=np.float64)
    mean = stacked.mean(axis=0)
    label = int(np.argmax(mean))
    tie = bool(np.sum(mean == mean[label]) > 1)
    return SpeakerVerdict(mean_probs=mean, label=label, tie=tie, window_count=len(window_probs))


@dataclass
class SpeakerReport:
    slot: int
    gender: str
    talk_time: float
    no_windows: bool
    verdict: SpeakerVerdict | None
    window_probs: list = field(default_factory=list)


@dataclass
class CallAnalysis:
    speakers: list
    window_seconds: float
    shift_seconds: float
    n_classes: int

    def to_dict(self) -> dict:
        names = label_names(self.n_classes)
        out = {
            "window_seconds": self.window_seconds,
            "shift_seconds": self.shift_seconds,
            "classes": list(names),
            "speakers": [],
        }
        for rep in self.speakers:
            entry = {
                "slot": rep.slot,
                "gender": rep.gender,
                "talk_time_seconds": rep.talk_time,
                "no_windows": rep.no_windows,
            }
            if rep.verdict is not None:
                entry.update(
                    {
                        "window_count": rep.verdict.window_count,
                        "mean_probabilities": [float(p) for p in rep.verdict.mean_probs],
                        "label_index": rep.verdict.label,
                        "label_name": names[rep.verdict.label],
                        "tie": rep.verdict.tie,
                    }
                )
            out["speakers"].append(entry)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def windows_csv(self) -> str:
        """Per-window probabilities, one row per (speaker, window)."""
        k = self.n_classes
        lines = ["slot,window," + ",".join(f"p{i}" for i in range(k))]
        for rep in self.speakers:
            for j, probs in enumerate(rep.window_probs):
                lines.append(f"{rep.slot},{j}," + ",".join(repr(float(p)) for p in probs))
        return "\n".join(lines) + "\n"


def analyze_call(
    audio: AudioBuffer,
    segments,
    model: CrnnModel,
    shift_seconds: float = 1.0,
    keep_window_probs: bool = False,
) -> CallAnalysis:
    """Classify every speaker in a call and report aggregated verdicts.

    Streams shorter than one window get a no-windows report entry instead
    of a padded classification. A shift under one sample raises ConfigError.
    """
    shift = shift_seconds * audio.sample_rate
    if not math.isfinite(shift) or round(shift) < 1:
        raise ConfigError(f"window shift must be at least one sample, got {shift_seconds} s")
    shift = int(round(shift))
    streams = build_speaker_streams(audio, segments)
    frames = model.config.input_shape[1]
    window = frames * HOP  # one frame per hop

    reports = []
    for stream in streams:
        talk_time = stream.duration
        probs = [
            model.forward(log_mel_spectrogram(AudioBuffer(w, stream.sample_rate)).values)
            for w in sliding_windows(stream.samples, window, shift)
        ]
        if probs:
            verdict = aggregate_speaker(probs)
            reports.append(
                SpeakerReport(
                    slot=stream.slot,
                    gender=stream.gender,
                    talk_time=talk_time,
                    no_windows=False,
                    verdict=verdict,
                    window_probs=[np.asarray(p) for p in probs] if keep_window_probs else [],
                )
            )
        else:
            reports.append(
                SpeakerReport(
                    slot=stream.slot, gender=stream.gender, talk_time=talk_time,
                    no_windows=True, verdict=None,
                )
            )
    return CallAnalysis(
        speakers=reports,
        window_seconds=window / audio.sample_rate,
        shift_seconds=shift_seconds,
        n_classes=model.config.n_classes,
    )
