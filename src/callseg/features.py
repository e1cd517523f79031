"""Log-amplitude mel-spectrogram front end.

A 10 s utterance at 8 kHz becomes a (96, 1000) float32 array: 96 mel bands,
one frame per 80-sample hop, 200-sample Hann window zero-padded to a
256-point FFT, power spectrum projected through triangular mel filters and
floored with log(power + 1e-10). These front-end parameters are fixed: the
model is trained and run on exactly this representation.

Framing convention: the signal is reflect-padded by window//2 on each side
and one frame is taken centered at every hop multiple that lies inside the
original signal, so an 80000-sample buffer yields exactly 1000 frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, FormatError, ShapeError, TooShortError

N_MELS = 96
WINDOW = 200
HOP = 80
N_FFT = 256
LOG_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters sampled at FFT bin frequencies.

    weights has shape (n_mels, n_fft//2 + 1). Filters are unit-peak
    triangles, equally spaced on the mel scale from 0 Hz to Nyquist. A
    triangle too narrow to touch any bin (possible at the low end for large
    n_mels) contributes weight 1.0 at the bin nearest its center, so every
    row stays non-empty. Filterbanks are shared between callers, so weights
    is read-only.
    """

    weights: np.ndarray


@lru_cache(maxsize=16)
def mel_filterbank(
    n_mels: int = N_MELS, sample_rate: int = 8000, n_fft: int = N_FFT
) -> MelFilterbank:
    """Build the (n_mels x n_fft//2+1) triangular filterbank, fmin=0, fmax=Nyquist.

    Memoized on the arguments; ``mel_filterbank.__wrapped__`` builds afresh.
    """
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise ConfigError(f"n_fft must be a power of two >= 2, got {n_fft}")

    fmin, fmax = 0.0, sample_rate / 2.0
    n_bins = n_fft // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / n_fft

    mel_points = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)

    weights = np.zeros((n_mels, n_bins), dtype=np.float64)
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        row = np.maximum(0.0, np.minimum(rising, falling))
        if not row.any():
            row[int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
        weights[m] = row

    weights.flags.writeable = False
    return MelFilterbank(weights=weights)


@dataclass
class MelSpectrogram:
    """Log-amplitude mel energies: values is (n_mels, n_frames) float32."""

    values: np.ndarray


def frame_count(n_samples: int, hop: int = HOP) -> int:
    """Number of analysis frames: one per hop multiple inside the signal."""
    return -(-n_samples // hop)


def log_mel_spectrogram(buffer: AudioBuffer) -> MelSpectrogram:
    """Compute the log-power mel-spectrogram of a mono buffer.

    Raises TooShortError when the buffer holds fewer samples than one
    analysis window.
    """
    signal = buffer.samples
    if len(signal) < WINDOW:
        raise TooShortError(f"buffer has {len(signal)} samples, window needs {WINDOW}")
    filterbank = mel_filterbank(sample_rate=buffer.sample_rate)

    padded = np.pad(signal, WINDOW // 2, mode="reflect")
    offsets = np.arange(frame_count(len(signal))) * HOP
    frames = padded[offsets[:, None] + np.arange(WINDOW)[None, :]]

    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
    spectrum = np.fft.rfft(frames * hann, n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2

    mel_energy = power @ filterbank.weights.T
    values = np.log(mel_energy + LOG_FLOOR).T.astype(np.float32)
    return MelSpectrogram(values=values)


def save_features(path: str, values: np.ndarray) -> None:
    """Write a feature array as a version-1.0 NPY file, float32 C-order."""
    arr = np.ascontiguousarray(np.asarray(values), dtype="<f4")
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=(1, 0))


def load_features(path: str) -> np.ndarray:
    """Read a feature NPY file back as a 2-D float32 array."""
    try:
        arr = np.load(path)
    except Exception as exc:
        raise FormatError(f"unreadable feature file {path}: {exc}") from exc
    if arr.ndim != 2:
        raise ShapeError(f"{path}: expected a 2-D feature array, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.float32)
