import math

import numpy as np
import numpy.testing as npt
import pytest

from callseg.audio import AudioBuffer
from callseg.errors import TooShortError
from callseg.features import (
    LOG_FLOOR,
    MEL_FILTERBANK,
    hz_to_mel,
    load_features,
    log_mel_spectrogram,
    mel_to_hz,
    save_features,
)
from tests.conftest import make_tone


def mel_of(f):
    # independent of the implementation on purpose
    return 2595.0 * math.log10(1.0 + f / 700.0)


def inv_mel(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def filter_centers_hz(n_mels, sample_rate):
    top = mel_of(sample_rate / 2.0)
    return [inv_mel((i + 1) * top / (n_mels + 1)) for i in range(n_mels)]


class TestMelFilterbank:
    def test_sine_energy_lands_in_nearest_filter(self):
        # oracle: mel-scale formula and triangle geometry evaluated directly
        sr = 8000
        centers = filter_centers_hz(96, sr)
        expected = int(np.argmin([abs(c - 1000.0) for c in centers]))

        t = np.arange(2048) / sr
        sine = np.sin(2 * np.pi * 1000.0 * t)
        frame = sine[:256] * np.hanning(256)
        power = np.abs(np.fft.rfft(frame)) ** 2
        energies = MEL_FILTERBANK @ power
        assert int(np.argmax(energies)) == expected

    def test_column_coverage_between_first_and_last_centers(self):
        centers = filter_centers_hz(96, 8000)
        bin_freqs = np.arange(129) * 8000 / 256
        column_sums = MEL_FILTERBANK.sum(axis=0)
        for k, f in enumerate(bin_freqs):
            if centers[0] <= f <= centers[-1]:
                assert column_sums[k] > 0, f"bin {k} at {f} Hz uncovered"

    @pytest.mark.parametrize("n_mels,sr,n_fft", [(96, 8000, 256)])
    def test_rows_positive_weights_finite(self, n_mels, sr, n_fft):
        weights = MEL_FILTERBANK
        assert weights.shape == (n_mels, n_fft // 2 + 1)
        assert weights.dtype == np.float64
        assert np.all(np.isfinite(weights))
        assert np.all(weights >= 0)
        assert np.all(weights.sum(axis=1) > 0)

    def test_filterbank_is_read_only(self):
        with pytest.raises(ValueError):
            MEL_FILTERBANK[0, 0] = 1.0


# ---------------------------------------------------------------------------
# golden test: the fixed front end (one filterbank array, a constant Hann
# window, strided frames) must reproduce the gather-based front end exactly

def reference_mel_filterbank(sample_rate):
    """The 96-band, 256-point filterbank as built when its size was a parameter."""
    bin_freqs = np.arange(129) * sample_rate / 256
    hz_points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), 98))
    weights = np.zeros((96, 129), dtype=np.float64)
    for m in range(96):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        row = np.maximum(0.0, np.minimum(rising, falling))
        if not row.any():
            row[int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
        weights[m] = row
    return weights


def reference_log_mel(samples, sample_rate):
    """Log-mel with frames gathered through an index array and a per-call window."""
    padded = np.pad(samples, 100, mode="reflect")
    offsets = np.arange(-(-len(samples) // 80)) * 80
    frames = padded[offsets[:, None] + np.arange(200)[None, :]]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(200) / 200)
    spectrum = np.fft.rfft(frames * hann, n=256, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_energy = power @ reference_mel_filterbank(sample_rate).T
    return np.log(mel_energy + LOG_FLOOR).T.astype(np.float32)


GOLDEN_CASES = [
    (8000, n) for n in (200, 201, 279, 280, 281, 799, 800, 801, 12345, 80000, 80001, 488800)
]


@pytest.mark.parametrize("sr,n", GOLDEN_CASES)
def test_log_mel_matches_gather_reference_bytewise(sr, n):
    samples = 0.3 * np.random.default_rng(n).standard_normal(n).clip(-3, 3) / 3
    buffer = AudioBuffer(samples, sr)
    assert log_mel_spectrogram(buffer).values.tobytes() == reference_log_mel(samples, sr).tobytes()


def test_zero_log_mel_matches_gather_reference_bytewise():
    samples = np.zeros(80000)
    got = log_mel_spectrogram(AudioBuffer(samples, 8000)).values
    assert got.tobytes() == reference_log_mel(samples, 8000).tobytes()


@pytest.mark.parametrize("sr", [8000])
def test_filterbank_matches_reference(sr):
    assert np.array_equal(MEL_FILTERBANK, reference_mel_filterbank(sr))


class TestLogMelSpectrogram:
    def test_ten_second_buffer_gives_96_by_1000(self):
        spec = log_mel_spectrogram(make_tone(10.0))
        assert spec.values.shape == (96, 1000)
        assert spec.values.dtype == np.float32

    def test_zero_buffer_is_constant_log_floor(self):
        spec = log_mel_spectrogram(AudioBuffer(np.zeros(80000), 8000))
        assert np.unique(spec.values).size == 1
        npt.assert_allclose(spec.values, np.float32(np.log(LOG_FLOOR)))

    @pytest.mark.parametrize("n", [200, 201, 799, 800, 801, 4000, 12345, 80000])
    def test_frame_count_matches_enumeration(self, n):
        # brute-force oracle: one frame per hop multiple inside the signal
        expected = len(range(0, n, 80))
        rng = np.random.default_rng(n)
        spec = log_mel_spectrogram(AudioBuffer(0.1 * rng.standard_normal(n), 8000))
        assert spec.values.shape == (96, expected)

    def test_gain_never_decreases_log_values(self):
        rng = np.random.default_rng(3)
        samples = 0.05 * rng.standard_normal(4000)  # headroom so 3.7x stays in [-1, 1]
        low = log_mel_spectrogram(AudioBuffer(samples, 8000)).values
        high = log_mel_spectrogram(AudioBuffer(3.7 * samples, 8000)).values
        assert np.all(high >= low)

    def test_deterministic(self):
        buf = make_tone(1.0, freq=700.0)
        a = log_mel_spectrogram(buf).values
        b = log_mel_spectrogram(buf).values
        npt.assert_array_equal(a, b)

    def test_all_values_finite(self):
        rng = np.random.default_rng(5)
        spec = log_mel_spectrogram(AudioBuffer(rng.uniform(-1, 1, 8000), 8000))
        assert np.all(np.isfinite(spec.values))

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            log_mel_spectrogram(AudioBuffer(np.zeros(199), 8000))


class TestFeatureFiles:
    def test_npy_container_format(self, tmp_path):
        values = log_mel_spectrogram(make_tone(10.0)).values
        path = tmp_path / "utt.npy"
        save_features(str(path), values)
        raw = path.read_bytes()
        assert raw[:8] == b"\x93NUMPY\x01\x00"  # magic + version 1.0
        header = raw[10 : 10 + int.from_bytes(raw[8:10], "little")].decode("latin1")
        assert "'descr': '<f4'" in header
        assert "'fortran_order': False" in header
        assert "(96, 1000)" in header

    def test_roundtrip_exact(self, tmp_path):
        values = log_mel_spectrogram(make_tone(2.0)).values
        path = tmp_path / "utt.npy"
        save_features(str(path), values)
        npt.assert_array_equal(load_features(str(path)), values)
