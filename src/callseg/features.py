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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import SAMPLE_RATE, AudioBuffer
from .errors import FormatError, ShapeError, TooShortError, atomic_write

N_MELS = 96
WINDOW = 200
HOP = 80
N_FFT = 256
LOG_FLOOR = 1e-10

HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
HANN.flags.writeable = False


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank() -> np.ndarray:
    """The (N_MELS, N_FFT//2 + 1) triangular mel filterbank, fmin=0, fmax=Nyquist.

    Filters are unit-peak triangles sampled at the FFT bin frequencies and
    equally spaced on the mel scale. A triangle too narrow to touch any bin
    contributes weight 1.0 at the bin nearest its center, so every row stays
    non-empty.
    """
    n_bins = N_FFT // 2 + 1
    bin_freqs = np.arange(n_bins) * SAMPLE_RATE / N_FFT
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)

    weights = np.zeros((N_MELS, n_bins), dtype=np.float64)
    for m in range(N_MELS):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        row = np.maximum(0.0, np.minimum(rising, falling))
        if not row.any():
            row[int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
        weights[m] = row

    weights.flags.writeable = False
    return weights


MEL_FILTERBANK = _mel_filterbank()


@dataclass
class MelSpectrogram:
    """Log-amplitude mel energies: values is (n_mels, n_frames) float32."""

    values: np.ndarray


def frame_count(n_samples: int) -> int:
    """Number of analysis frames: one per hop multiple inside the signal."""
    return -(-n_samples // HOP)


def log_mel_spectrogram(buffer: AudioBuffer) -> MelSpectrogram:
    """Compute the log-power mel-spectrogram of a mono buffer.

    Raises TooShortError when the buffer holds fewer samples than one
    analysis window.
    """
    signal = buffer.samples
    if len(signal) < WINDOW:
        raise TooShortError(f"buffer has {len(signal)} samples, window needs {WINDOW}")

    padded = np.pad(signal, WINDOW // 2, mode="reflect")
    # the view holds n // HOP + 1 frames, one too many when HOP divides n
    frames = sliding_window_view(padded, WINDOW)[::HOP][: frame_count(len(signal))]
    spectrum = np.fft.rfft(frames * HANN, n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2

    mel_energy = power @ MEL_FILTERBANK.T
    values = np.log(mel_energy + LOG_FLOOR).T.astype(np.float32)
    return MelSpectrogram(values=values)


def save_features(path: str, values: np.ndarray) -> None:
    """Write a feature array as a version-1.0 NPY file, float32 C-order."""
    arr = np.ascontiguousarray(np.asarray(values), dtype="<f4")
    with atomic_write(path, "wb") as fh:
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
