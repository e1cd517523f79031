"""Per-speaker classification of a whole call.

Speech segments of each gender are concatenated into (up to two) speaker
streams, a fixed-length window slides over each stream at a 1 s shift,
every window is classified, and the speaker's class probabilities are the
arithmetic mean over its windows; the spoken verdict is the argmax. The
window length always matches the model's configured input frames, and a
model whose input is not N_MELS (96) bands high raises ShapeError.

Overlapping windows share most of their work, and each stream does it
once. The window probabilities are still bit-identical to classifying
each window alone:

- Runs. The 1 s shift is 50 pool1 pairs of frames (KW1 * HOP samples,
  KW1 being pool1's time width), so the pool1 pairs of all a stream's
  windows line up. Windows longer than the shift (over 100 frames)
  overlap their neighbours, and all of a stream's windows form one run.
  A window of 100 frames or fewer, or a stream's only window, runs alone,
  as CrnnModel.forward of its log-mel spectrogram.
- Front, in pieces. log-mel and conv1 -> pool1 -> act1 -> conv2 run over
  pieces of a run's samples, each starting on a multiple of KW1 frames.
  A piece keeps the conv2 columns that read nothing near its ends (see
  ``_interior``), so consecutive pieces overlap only by that halo. A
  piece's conv1 output, its largest array, stays under CHUNK_BYTES.
- Phases. A window's pool2 groups start at its own conv2 offset, so the
  windows whose offsets agree modulo pool2's time width KW2 share one
  pool2 grid, a phase. pool2 -> act2 -> drop2 -> conv3 run once per
  phase over each piece's conv2 columns, with a 2-column act2 halo for
  conv3 across pieces. A phase keeps only the act2 and conv3 columns that
  its unfinished windows still need, so memory is one piece plus about
  one window per phase, whatever the stream's length.
- Edges. Near a window's ends its log-mel reads reflect padding and its
  convs read zero padding where the run has real neighbours. Its first
  and last act2 columns come from one edge buffer, its own first frames
  joined to its last ones, which runs log-mel -> act1 once, conv2 only on
  the act1 columns those act2 columns read, and pool2 -> act2 once. One
  conv3 over those act2 columns and the two phase columns next to each
  gives its edge conv3 columns; the columns that read across a junction
  are dropped. pool3 onward runs per window.

This rests on a log-mel frame depending only on its own samples and a
GEMM column of a convolution only on its own input column, which numpy's
FFT and BLAS give and tests/test_analyze.py checks bit for bit.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .audio import SAMPLE_RATE, AudioBuffer
from .dbas import SPEECH_GENDER, label_names, segment_samples
from .errors import NoSpeechError, NoWindowsError, ShapeError
from .features import HOP, N_MELS, WINDOW, log_mel_spectrogram
from .layers import softmax
from .model import POOL_KERNELS, CrnnModel

# Budget for the conv1 output of one piece of a run, its largest array: 682
# frames of the default model. With it, analyze-default's peak RSS fell from
# 206 MB (48 MiB tiles) to 121 MB.
CHUNK_BYTES = 16 << 20
# log-mel frames at each end of a buffer that read its reflect padding
_REFLECT_FRAMES = -(-(WINDOW // 2) // HOP)
# the window shift in samples, 1 s
SHIFT = SAMPLE_RATE
(_, KW1), (_, KW2) = POOL_KERNELS[:2]  # pool1's and pool2's time widths


@dataclass
class SpeakerStream:
    """All speech attributed to one speaker slot, in temporal order."""

    slot: int
    gender: str
    samples: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


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
        SpeakerStream(i, gender, segment_samples(audio, segs))
        for i, (gender, segs) in enumerate(by_gender.items())
    ]


def window_count(n_samples: int, window: int, shift: int) -> int:
    """Number of windows at offsets 0, shift, 2*shift, ... with offset+window <= n."""
    if n_samples < window:
        return 0
    return 1 + (n_samples - window) // shift


def _interior(frames: int):
    """(lo, hi): a buffer's conv2 columns lo <= j < hi are those of any longer buffer around it.

    conv2 column j reads log-mel frames KW1*(j-1)-1 .. KW1*(j+2) through
    pool1 and conv1. For lo <= j < hi all of them lie at least
    _REFLECT_FRAMES inside the buffer's ``frames`` frames, so the column is
    the same in a longer buffer that starts a multiple of KW1 frames earlier.
    """
    return -(-(_REFLECT_FRAMES + 1) // KW1) + 1, (frames - 1 - _REFLECT_FRAMES) // KW1 - 1


def _frames_through(cols: int) -> int:
    """Frames of a buffer whose conv2 columns below ``cols`` do not reach its right end."""
    return KW1 * (cols + 1) + 1 + _REFLECT_FRAMES


class _Phase:
    """One pool2 grid of a run: the act2 and conv3 columns its windows share.

    Grid column t pools the run's conv2 columns from ``start + KW2*t``. A
    window of the phase waits in ``pending`` as (index, d) until its act2
    columns q_lo..q_hi, grid columns d..d+m, are computed.
    """

    def __init__(self, start: int):
        self.start = self.next = self.stop = start  # run conv2 columns: first, next and end group
        self.pending: deque = deque()
        # act2 grid columns from base on and conv3 ones from base + 1 on; grid
        # column 0's conv3 reads zero padding, and no window needs it
        self.act = self.conv = None
        self.base = 0


class _Pass:
    """A model's layers, cut where the windows of a run stop sharing columns."""

    def __init__(self, model: CrnnModel):
        config = model.config
        if config.input_shape[0] != N_MELS:
            raise ShapeError(f"model input {config.input_shape} does not take {N_MELS}-band "
                             "log-mel spectrograms")
        conv2, conv3 = model.blocks[1][0], model.blocks[2][0]
        at2, at3 = model.layers.index(conv2), model.layers.index(conv3)
        self.model, self.conv2, self.conv3 = model, conv2, conv3
        self.front, self.mid, self.back = (model.layers[:at2], model.layers[at2 + 1 : at3],
                                           model.layers[at3 + 1 :])
        lo, hi = _interior(config.input_shape[1])
        # a window's m act2 columns from q_lo to q_hi are its phase's; the rest
        # come from its edge buffer, its first `edge` frames and then its frames
        # from `right` on, a part that starts on a whole pool2 group. Its conv2
        # columns below KW2*q_lo read frames up to KW1*(KW2*q_lo + 1), whose
        # samples all lie in the first part; both parts start on a pool1 pair.
        self.lo, self.q_lo, q_hi = lo, -(-lo // KW2), hi // KW2
        self.m = q_hi - self.q_lo
        self.edge = KW1 * (KW2 * self.q_lo + 1 + -(-_REFLECT_FRAMES // KW1))
        self.right = KW1 * (KW2 * q_hi - lo)
        self.first = self.edge // KW1 + lo  # the edge buffer's act1 column under conv2's KW2*q_hi
        frame_bytes = config.conv_filters[0] * config.input_shape[0] * model.dtype.itemsize
        # conv2 columns a piece adds; with its halo, its conv1 output stays under the budget
        self.step = max(KW2, (CHUNK_BYTES // frame_bytes - 1 - _REFLECT_FRAMES) // KW1 - lo - 1)

    @staticmethod
    def _forward(x, layers):
        for layer in layers:
            x = layer.forward(x)
        return x

    def _front(self, samples):
        """The conv2 input of ``samples``' log-mel spectrogram, a (1, C, H, W) map."""
        x = self.model.normalize(log_mel_spectrogram(AudioBuffer(samples, SAMPLE_RATE)).values)
        return self._forward(x[None, None], self.front)

    def run(self, samples, count: int, window: int) -> list:
        """Probabilities of the ``count`` windows of ``samples`` that start every SHIFT samples."""
        m = self.m
        phases: dict[int, _Phase] = {}
        for k in range(count):
            col = k * SHIFT // (KW1 * HOP)  # of the run's conv2 columns
            phase = phases.get(col % KW2)
            if phase is None:
                phase = phases[col % KW2] = _Phase(col + KW2 * self.q_lo)
            d = (col + KW2 * self.q_lo - phase.start) // KW2
            phase.pending.append((k, d))
            phase.stop = phase.start + KW2 * (d + m)

        probs = [None] * count
        live = list(phases.values())
        while live:
            c0 = min(phase.next for phase in live)
            c1 = min(c0 + self.step, max(phase.stop for phase in live))
            piece = samples[KW1 * (c0 - self.lo) * HOP : _frames_through(c1) * HOP]
            cols = self.conv2.forward(self._front(piece))
            cols = cols[..., self.lo : self.lo + c1 - c0]  # run columns c0..c1
            for phase in live:
                self._extend(phase, cols, c0)
                done = (phase.next - phase.start) // KW2
                while phase.pending and phase.pending[0][1] + m <= done:
                    k, d = phase.pending.popleft()
                    probs[k] = self._window(samples[k * SHIFT : k * SHIFT + window], phase, d)
                self._trim(phase, done)
            live = [phase for phase in live if phase.pending]
        return probs

    def _extend(self, phase: _Phase, cols, c0: int):
        """pool2 -> conv3 over the whole pool2 groups of ``phase`` in run conv2 columns c0...

        conv3 reruns the last two act2 columns already there, so each of its
        columns reads real neighbours, except grid column 0 and the newest.
        """
        n = (min(c0 + cols.shape[-1], phase.stop) - phase.next) // KW2
        if n <= 0:
            return
        a = phase.next - c0
        new = self._forward(cols[..., a : a + KW2 * n], self.mid)
        phase.next += KW2 * n
        act = new if phase.act is None else np.concatenate([phase.act, new], axis=-1)
        halo = min(2, act.shape[-1] - n)
        conv = self.conv3.forward(act[..., act.shape[-1] - n - halo :])[..., 1:-1]
        phase.act = act
        phase.conv = conv if phase.conv is None else np.concatenate([phase.conv, conv], axis=-1)

    def _trim(self, phase: _Phase, done: int):
        """Drop the grid columns that no pending window of ``phase`` needs, but conv3's halo."""
        if not phase.pending:
            phase.act = phase.conv = None
            return
        if phase.act is None:
            return
        keep = max(phase.base, min(phase.pending[0][1], done - 2))
        phase.act = phase.act[..., keep - phase.base :]
        phase.conv = phase.conv[..., keep - phase.base :]
        phase.base = keep

    def _window(self, samples, phase: _Phase, d: int):
        """One window's probabilities: its edge columns around its phase's conv3 columns.

        Each layer over its edge buffer keeps the columns that read nothing
        across the junction of its two parts, and conv2 runs on just the act1
        columns those read.
        """
        c, q_lo, m = KW2 * self.q_lo, self.q_lo, self.m
        act, a = phase.act, d - phase.base
        x = self._front(np.concatenate([samples[: self.edge * HOP], samples[self.right * HOP :]]))
        x = self.conv2.forward(np.concatenate([x[..., : c + 1], x[..., self.first - 1 :]], axis=-1))
        x = self._forward(np.concatenate([x[..., :c], x[..., c + 2 :]], axis=-1), self.mid)
        parts = [x[..., :q_lo], act[..., a : a + 2], act[..., a + m - 2 : a + m], x[..., q_lo:]]
        x = self.conv3.forward(np.concatenate(parts, axis=-1))
        parts = [x[..., : q_lo + 1], phase.conv[..., a : a + m - 2], x[..., q_lo + 3 :]]
        return softmax(self._forward(np.concatenate(parts, axis=-1), self.back))[0]


def _window_probs(model: CrnnModel, samples: np.ndarray, window: int) -> list:
    """Class probabilities of every window of a stream, in window order.

    Windows longer than the shift form one run; the others each run alone.
    """
    layers = _Pass(model)
    count = window_count(len(samples), window, SHIFT)
    if window > SHIFT and count > 1:
        return layers.run(samples, count, window)
    offsets = range(0, count * SHIFT, SHIFT)
    buffers = (AudioBuffer(samples[o : o + window], SAMPLE_RATE) for o in offsets)
    return [model.forward(log_mel_spectrogram(buffer).values) for buffer in buffers]


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
    n_classes: int

    def to_dict(self) -> dict:
        names = label_names(self.n_classes)
        out = {
            "window_seconds": self.window_seconds,
            "shift_seconds": SHIFT / SAMPLE_RATE,
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


def analyze_call(audio: AudioBuffer, segments, model: CrnnModel) -> CallAnalysis:
    """Classify every speaker in a call: aggregated verdicts and every window's probabilities.

    Streams shorter than one window get a no-windows report entry instead
    of a padded classification.
    """
    streams = build_speaker_streams(audio, segments)
    frames = model.config.input_shape[1]
    window = frames * HOP  # one frame per hop

    reports = []
    for stream in streams:
        probs = _window_probs(model, stream.samples, window)
        verdict = aggregate_speaker(probs) if probs else None
        reports.append(SpeakerReport(stream.slot, stream.gender, stream.duration, verdict, probs))
    return CallAnalysis(
        speakers=reports,
        window_seconds=window / SAMPLE_RATE,
        n_classes=model.config.n_classes,
    )
