"""Architecture tour: conv/pool pipeline shapes and parameter accounting.

Shows how a (96, 1000) spectrogram collapses to 42 time steps of 32
features, and compares GRU vs LSTM parameter counts for the 2- and
4-class heads.
"""

import numpy as np

from callseg import ModelConfig, build_crnn
from callseg.model import POOL_KERNELS

config = ModelConfig()  # filters (64,64,64,32), hidden (84,84)
freq, time_ = config.input_shape
print(f"input: ({freq}, {time_})")
for i, (kh, kw) in enumerate(POOL_KERNELS, start=1):
    freq, time_ = -(-freq // kh), -(-time_ // kw)
    print(f"after block {i} (pool {kh}x{kw}): ({config.conv_filters[i - 1]}, {freq}, {time_})")
print(f"recurrent layers see {time_} steps of {config.conv_filters[-1]} features\n")

model = build_crnn(config, seed=0)
x = np.random.default_rng(0).standard_normal((96, 1000)).astype(np.float32)
print("conv stack output:", model.conv_stack_output(x).shape)
probs = model.forward(x)
print(f"class probabilities: {probs} (sum {probs.sum():.6f})\n")

print(f"{'unit':6s} {'classes':>7s} {'params':>9s}")
counts = {}
for kind in ("gru", "lstm"):
    for k in (2, 4):
        m = build_crnn(ModelConfig(rnn_kind=kind, n_classes=k), seed=0)
        counts[kind, k] = m.count_params()
        print(f"{kind:6s} {k:7d} {counts[kind, k]:9,d}")

print("\n4-class head adds 2*H2 + 2 parameters:")
for kind in ("gru", "lstm"):
    print(f"  {kind}: {counts[kind, 4] - counts[kind, 2]} (H2 = 84 -> 170)")
