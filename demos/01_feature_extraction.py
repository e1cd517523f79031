"""Log-mel feature extraction walkthrough.

Builds a 10 s test signal, extracts the (96, 1000) log-mel array, and shows
where the energy of a pure tone lands in the mel filterbank.
"""

import numpy as np

from callseg import AudioBuffer, log_mel_spectrogram, mel_filterbank, save_features

RATE = 8000

# a 10 s, 8 kHz signal: 440 Hz tone with a little noise
t = np.arange(10 * RATE) / RATE
rng = np.random.default_rng(0)
buffer = AudioBuffer(0.5 * np.sin(2 * np.pi * 440 * t) + 0.01 * rng.standard_normal(t.size), RATE)

spec = log_mel_spectrogram(buffer)
print(f"input: {buffer.duration:.0f} s at {buffer.sample_rate} Hz ({len(buffer)} samples)")
print(f"log-mel array: shape {spec.values.shape}, dtype {spec.values.dtype}")
print(f"value range: [{spec.values.min():.2f}, {spec.values.max():.2f}]")

# which mel band holds the tone?
band = int(np.argmax(spec.values.mean(axis=1)))
weights = mel_filterbank(RATE)
bin_freqs = np.arange(weights.shape[1]) * RATE / 256
center = bin_freqs[np.argmax(weights[band])]
print(f"most energetic mel band: {band} (peak response near {center:.0f} Hz)")

save_features("demo_features.npy", spec.values)
print("wrote demo_features.npy (NPY v1.0, float32, C-order)")

# shape law: frame count is ceil(n_samples / hop) for any length
for seconds in (2.5, 7.0, 10.0):
    n = int(seconds * RATE)
    shape = log_mel_spectrogram(AudioBuffer(buffer.samples[:n], RATE)).values.shape
    print(f"{seconds:4.1f} s -> {shape}")
