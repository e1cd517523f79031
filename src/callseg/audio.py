"""Single-channel PCM WAV input, normalized to float samples in [-1, 1].

Calls arrive as 8 kHz mono recordings; anything else (stereo, wrong rate,
compressed formats) is a caller error, not something we resample or downmix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import ChannelCountError, FormatError, NumericError, SampleRateError, atomic_write

SAMPLE_RATE = 8000

# full-scale divisor per integer PCM dtype
_PCM_SCALE = {
    np.dtype(np.uint8): 128.0,
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


@dataclass
class AudioBuffer:
    """Mono float64 samples in [-1, 1]; any rate but SAMPLE_RATE raises SampleRateError."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ChannelCountError(f"expected mono signal, got ndim={self.samples.ndim}")
        if self.sample_rate != SAMPLE_RATE:
            raise SampleRateError(f"audio at {self.sample_rate!r} Hz, expected {SAMPLE_RATE} Hz")
        if not np.all(np.isfinite(self.samples)):
            raise NumericError("audio samples contain non-finite values")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def load_audio(path: str) -> AudioBuffer:
    """Read a mono PCM WAV file and normalize samples to [-1, 1].

    Accepts 8/16/32-bit integer and 32-bit float PCM. Raises
    ChannelCountError for multi-channel files, SampleRateError when the
    declared rate is not SAMPLE_RATE, and FormatError for
    anything that is not a readable RIFF/WAV file.
    """
    if not os.path.isfile(path):
        raise FormatError(f"no such audio file: {path}")
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:  # scipy raises plain ValueError on bad headers
        raise FormatError(f"malformed WAV file {path}: {exc}") from exc

    if data.ndim != 1:
        raise ChannelCountError(
            f"{path}: expected 1 channel, got {data.shape[1] if data.ndim > 1 else data.ndim}"
        )
    if rate != SAMPLE_RATE:
        raise SampleRateError(f"{path}: declared rate {rate} Hz, expected {SAMPLE_RATE} Hz")

    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / _PCM_SCALE[data.dtype]
    elif data.dtype in _PCM_SCALE:
        samples = data.astype(np.float64) / _PCM_SCALE[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    else:
        raise FormatError(f"{path}: unsupported sample format {data.dtype}")

    return AudioBuffer(samples=samples, sample_rate=SAMPLE_RATE)


def save_wav(path: str, buffer: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM WAV (used by the synthetic pipeline)."""
    scaled = np.clip(buffer.samples, -1.0, 1.0) * 32767.0
    with atomic_write(path, "wb") as fh:
        wavfile.write(fh, SAMPLE_RATE, scaled.astype(np.int16))
