"""The layer names and call pattern that perfbench's span tracer relies on.

``perfbench/spans.py`` wraps the layer instances it finds in
``model.blocks``, ``rnn1``, ``rnn2`` and ``head``, and counts the elements
each activation sees. A model whose forward or backward skips one of those
instances, calls one twice, or runs an activation before its pool would
change the traced metrics without failing anything else.
"""

import sys
from pathlib import Path

import numpy as np

from callseg.model import POOL_KERNELS, ModelConfig, build_crnn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_layer_span_fires_once_and_act_sees_the_pooled_map():
    config = ModelConfig(conv_filters=(2, 3, 2, 2), rnn_hidden=(3, 4), input_shape=(12, 20),
                         dropout_p=0.2)
    model = build_crnn(config, seed=0)
    x = np.random.default_rng(0).standard_normal(config.input_shape).astype(np.float32)
    tracer = spans.Tracer()
    tracer.instrument_model(model)
    try:
        model.forward(x, training=True, rng=np.random.default_rng(1))
        model.backward(1)
    finally:
        tracer.uninstall()

    expected = {"model.forward", "model.backward"}
    for d in ("fwd", "bwd"):
        # conv1.bwd skips the input gradient but still fires
        expected |= {f"layers.{kind}{i}.{d}" for kind in spans.BLOCK_KINDS for i in range(1, 5)}
        expected |= {f"recurrent.rnn1.{d}", f"recurrent.rnn2.{d}", f"layers.head.{d}"}
    calls = {name: total[0] for name, total in tracer.span_totals().items()}
    assert calls == dict.fromkeys(expected, 1)

    h, w = config.input_shape
    for i, (filters, (kh, kw)) in enumerate(zip(config.conv_filters, POOL_KERNELS), 1):
        h, w = -(-h // kh), -(-w // kw)
        # forward input plus backward gradient, each the size of the pooled map
        assert tracer.counts[f"layers.act{i}.elems"] == 2 * filters * h * w
