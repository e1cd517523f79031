"""Per-speaker classification of a whole call.

Speech segments of each gender are concatenated into (up to two) speaker
streams, a fixed-length window slides over each stream at a 1 s shift,
every window is classified, and the speaker's class probabilities are the
arithmetic mean over its windows; the spoken verdict is the argmax. The
window length always matches the model's configured input frames.

Overlapping windows share the front of the model. Each stream's windows are
cut into tiles of consecutive overlapping windows; log-mel and conv1 ->
pool1 -> act1 -> conv2 run once over a tile's samples, each window's conv2
columns are read out of the result, and pool2 onward runs per window. The
window probabilities are bit-identical to classifying each window alone:

- Windows in one tile lie a multiple of kw1 * HOP samples apart (kw1 is
  pool1's time width), so their pool1 pairs line up with the tile's. The
  windows of a stream are grouped by offset modulo that, and each group is
  tiled on its own.
- A log-mel frame depends only on its own samples, and a GEMM column of a
  convolution only on its own input column, so interior conv2 columns equal
  the per-window ones. This rests on numpy's FFT and BLAS computing each
  row and column alone, which tests/test_analyze.py checks bit for bit.
- Near a window's ends its log-mel reads reflect padding and its convs read
  zero padding where the tile has real neighbours. Those few conv2 columns
  come from a conv of a short strip of the window's own first or last
  frames.

A tile's conv1 output, its largest array, stays under TILE_BYTES, so memory
does not grow with the stream. A tile of one window is the per-window
computation itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .dbas import SPEECH_GENDER, segment_samples
from .errors import ConfigError, NoSpeechError, NoWindowsError
from .features import HOP, WINDOW, log_mel_spectrogram
from .layers import softmax
from .model import CrnnModel, label_names

# Budget for the conv1 output of one tile, its largest array: 11 windows of
# the default model at a 1 s shift. On analyze-default, 72 MiB tiles ran 6%
# faster than 48 MiB ones but took 15% more peak memory.
TILE_BYTES = 48 << 20
# log-mel frames at each end of a buffer that read its reflect padding
_REFLECT_FRAMES = -(-(WINDOW // 2) // HOP)


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


def _edge_strips(frames: int, kw: int):
    """Where a window's conv2 columns come from: (lo, hi, left, right), or None.

    conv2 column j reads log-mel frames kw*(j-1)-1 .. kw*(j+2) through pool1
    and conv1. For lo <= j < hi all of them lie at least _REFLECT_FRAMES
    inside the window, where the window and its tile agree. The conv of the
    window's first ``left`` frames gives columns below lo, and the conv of
    its frames from ``right`` on (a multiple of kw, so that pool pairs line
    up) gives columns from hi on, by the same bound at each strip's own cut
    end. None when no column is interior or a strip would cover the window.
    """
    lo = -(-(_REFLECT_FRAMES + 1) // kw) + 1
    hi = (frames - 1 - _REFLECT_FRAMES) // kw - 1
    left, right = kw * (lo + 1) + 1 + _REFLECT_FRAMES, kw * (hi - lo)
    if hi <= lo or left >= frames or right <= 0:
        return None
    return lo, hi, left, right


def _tiles(n_windows: int, window: int, shift: int, period: int, max_samples: int):
    """Window indices cut into tiles that share a front.

    The windows of a tile lie a multiple of ``period`` samples apart, each
    overlaps the one before it, and together they span at most
    ``max_samples``; a window always gets a tile.
    """
    groups: dict[int, list[int]] = {}
    for i in range(n_windows):
        groups.setdefault(i * shift % period, []).append(i)
    for members in groups.values():
        tile = members[:1]
        for i in members[1:]:
            if (i - tile[-1]) * shift >= window or (i - tile[0]) * shift + window > max_samples:
                yield tile
                tile = []
            tile.append(i)
        yield tile


def _window_probs(model: CrnnModel, samples: np.ndarray, rate: int, window: int,
                  shift: int) -> list[np.ndarray]:
    """Class probabilities of every window of a stream, in window order."""
    config = model.config
    frames, kw = config.input_shape[1], config.pool_kernels[0][1]
    split = model.layers.index(model.blocks[1][0]) + 1  # through conv2
    front, back = model.layers[:split], model.layers[split:]
    width = -(-frames // kw)  # conv2 columns of one window
    strips = _edge_strips(frames, kw)
    frame_bytes = config.conv_filters[0] * config.input_shape[0] * model.dtype.itemsize
    max_samples = max(TILE_BYTES // frame_bytes, frames) * HOP if strips else window
    lo, hi, left, right = strips or (0, width, frames, 0)

    def conv_front(piece):
        x = model.normalize(log_mel_spectrogram(AudioBuffer(piece, rate)).values)[None, None]
        for layer in front:
            x = layer.forward(x)
        return x

    probs = [None] * window_count(len(samples), window, shift)
    for tile in _tiles(len(probs), window, shift, kw * HOP, max_samples):
        start = tile[0] * shift
        shared = conv_front(samples[start : tile[-1] * shift + window])
        for i in tile:
            piece = samples[i * shift : i * shift + window]
            col = (i * shift - start) // (kw * HOP)
            # the tile's own ends are its first window's left and its last window's right end
            a, b = (0 if i == tile[0] else lo), (width if i == tile[-1] else hi)
            parts = [shared[..., col + a : col + b]]
            if a:
                parts.insert(0, conv_front(piece[: left * HOP])[..., :lo])
            if b < width:
                parts.append(conv_front(piece[right * HOP :])[..., lo:])
            x = np.concatenate(parts, axis=-1)
            for layer in back:
                x = layer.forward(x)
            probs[i] = softmax(x)[0]
    return probs


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
    verdict: SpeakerVerdict | None  # None when the stream is shorter than one window
    window_probs: list  # one (K,) probability array per window, in window order

    @property
    def no_windows(self) -> bool:
        return self.verdict is None


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
) -> CallAnalysis:
    """Classify every speaker in a call: aggregated verdicts and every window's probabilities.

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
        probs = _window_probs(model, stream.samples, stream.sample_rate, window, shift)
        verdict = aggregate_speaker(probs) if probs else None
        reports.append(SpeakerReport(stream.slot, stream.gender, stream.duration, verdict, probs))
    return CallAnalysis(
        speakers=reports,
        window_seconds=window / audio.sample_rate,
        shift_seconds=shift_seconds,
        n_classes=model.config.n_classes,
    )
