import math

import numpy as np
import numpy.testing as npt
import pytest

import callseg.features
from callseg.audio import AudioBuffer
from callseg.errors import ConfigError, TooShortError
from callseg.features import (
    LOG_FLOOR,
    load_features,
    log_mel_spectrogram,
    mel_filterbank,
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
    def test_single_filter_spans_full_band(self):
        fb = mel_filterbank(n_mels=1, sample_rate=8000, n_fft=256)
        assert fb.weights.shape == (1, 129)
        bin_freqs = np.arange(129) * 8000 / 256
        peak_hz = inv_mel(mel_of(4000.0) / 2.0)
        peak_bin = int(np.argmax(fb.weights[0]))
        assert abs(bin_freqs[peak_bin] - peak_hz) <= 8000 / 256
        # triangle spans the whole 0..4000 band
        assert fb.weights[0, 1] > 0 and fb.weights[0, -2] > 0

    def test_sine_energy_lands_in_nearest_filter(self):
        # oracle: mel-scale formula and triangle geometry evaluated directly
        sr, n_fft, n_mels = 8000, 256, 96
        centers = filter_centers_hz(n_mels, sr)
        expected = int(np.argmin([abs(c - 1000.0) for c in centers]))

        t = np.arange(2048) / sr
        sine = np.sin(2 * np.pi * 1000.0 * t)
        frame = sine[:n_fft] * np.hanning(n_fft)
        power = np.abs(np.fft.rfft(frame)) ** 2
        fb = mel_filterbank(n_mels=n_mels, sample_rate=sr, n_fft=n_fft)
        energies = fb.weights @ power
        assert int(np.argmax(energies)) == expected

    def test_column_coverage_between_first_and_last_centers(self):
        fb = mel_filterbank(n_mels=96, sample_rate=8000, n_fft=256)
        centers = filter_centers_hz(96, 8000)
        bin_freqs = np.arange(129) * 8000 / 256
        column_sums = fb.weights.sum(axis=0)
        for k, f in enumerate(bin_freqs):
            if centers[0] <= f <= centers[-1]:
                assert column_sums[k] > 0, f"bin {k} at {f} Hz uncovered"

    @pytest.mark.parametrize(
        "n_mels,sr,n_fft", [(96, 8000, 256), (40, 8000, 512), (1, 8000, 256), (96, 16000, 512)]
    )
    def test_rows_positive_weights_finite(self, n_mels, sr, n_fft):
        fb = mel_filterbank(n_mels=n_mels, sample_rate=sr, n_fft=n_fft)
        assert np.all(np.isfinite(fb.weights))
        assert np.all(fb.weights >= 0)
        assert np.all(fb.weights.sum(axis=1) > 0)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            mel_filterbank(n_mels=0)
        with pytest.raises(ConfigError):
            mel_filterbank(n_fft=200)  # not a power of two

    def test_memoized_filterbank_is_shared_and_read_only(self):
        fb = mel_filterbank(n_mels=96, sample_rate=8000, n_fft=256)
        assert mel_filterbank(n_mels=96, sample_rate=8000, n_fft=256) is fb
        with pytest.raises(ValueError):
            fb.weights[0, 0] = 1.0
        fresh = mel_filterbank.__wrapped__(n_mels=96, sample_rate=8000, n_fft=256)
        assert fresh is not fb
        assert np.array_equal(fresh.weights, fb.weights)

    def test_cached_log_mel_equals_uncached(self, monkeypatch):
        buffer = AudioBuffer(0.1 * np.random.default_rng(4).standard_normal(12345), 8000)
        cached = log_mel_spectrogram(buffer).values
        monkeypatch.setattr(callseg.features, "mel_filterbank", mel_filterbank.__wrapped__)
        assert np.array_equal(cached, log_mel_spectrogram(buffer).values)


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
