import pathlib
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import callseg
from callseg.errors import CheckpointError, ConfigError, ShapeError
from callseg.model import ModelConfig, build_crnn, load_checkpoint, save_checkpoint
from tests.conftest import rewrite_checkpoint_header

TINY = dict(conv_filters=(2, 2, 2, 2), rnn_hidden=(3, 3), input_shape=(12, 20))


def tiny_model(seed=0, **overrides):
    return build_crnn(ModelConfig(**{**TINY, **overrides}), seed=seed)


class TestShapes:
    def test_default_conv_stack_collapses_to_32_by_42(self):
        config = ModelConfig()
        assert config.conv_output_shape() == (32, 1, 42)
        model = build_crnn(config, seed=0)
        x = np.random.default_rng(0).standard_normal((96, 1000)).astype(np.float32)
        out = model.conv_stack_output(x)
        assert out.shape == (32, 42)
        # the recurrent layer reads 42 steps of 32 features
        assert model.rnn1.in_features == 32

    def test_shape_pipeline_stages(self):
        model = tiny_model()
        x = np.random.default_rng(1).standard_normal((12, 20)).astype(np.float32)
        probs = model.forward(x)
        assert probs.shape == (2,)
        # freq 12 -> 6 -> 2 -> 1 -> 1, time 20 -> 10 -> 4 -> 2 -> 1
        assert model.conv_stack_output(x).shape == (2, 1)

    def test_wrong_input_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((13, 20), dtype=np.float32))

    def test_non_collapsing_pools_rejected(self):
        # the fixed pools collapse at most 96 bands: 97 -> 49 -> 17 -> 5 -> 2
        with pytest.raises(ConfigError, match="leave frequency axis at 2"):
            ModelConfig(input_shape=(97, 20))

    @pytest.mark.parametrize("field, value", [
        ("conv_filters", "2222"), ("conv_filters", [2, 2, 2.0, 2]), ("rnn_hidden", [3.9, 3.2]),
        ("conv_filters", [True, True, True, True]), ("input_shape", [96, True]),
    ])
    def test_non_integer_entries_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_dict({**TINY, field: value})

    def test_numpy_integer_entries_accepted(self):
        config = ModelConfig(conv_filters=np.array([2, 2, 2, 2]), rnn_hidden=(np.int64(3), 3),
                             input_shape=(12, 20))
        assert config.conv_filters == (2, 2, 2, 2) and config.rnn_hidden == (3, 3)
        assert all(type(v) is int for v in config.conv_filters + config.rnn_hidden)


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = build_crnn(ModelConfig(), seed=7)
        b = build_crnn(ModelConfig(), seed=7)
        for (_n1, p1), (_n2, p2) in zip(a.named_params(), b.named_params()):
            npt.assert_array_equal(p1, p2)

    def test_different_seed_different_parameters(self):
        a = tiny_model(seed=1)
        b = tiny_model(seed=2)
        assert any(
            not np.array_equal(p1, p2)
            for (_x, p1), (_y, p2) in zip(a.named_params(), b.named_params())
        )

    def test_inference_purity(self):
        model = tiny_model()
        x = np.random.default_rng(3).standard_normal((12, 20)).astype(np.float32)
        npt.assert_array_equal(model.forward(x), model.forward(x))

    def test_training_forward_reproducible_with_seeded_rng(self):
        model = tiny_model(dropout_p=0.3)
        x = np.random.default_rng(3).standard_normal((12, 20)).astype(np.float32)
        a = model.forward(x, training=True, rng=np.random.default_rng(11))
        b = model.forward(x, training=True, rng=np.random.default_rng(11))
        npt.assert_array_equal(a, b)


class TestParameterCounting:
    def test_head_difference_is_170_at_default_hidden(self):
        for kind in ("gru", "lstm"):
            two = build_crnn(ModelConfig(rnn_kind=kind, n_classes=2), seed=0)
            four = build_crnn(ModelConfig(rnn_kind=kind, n_classes=4), seed=0)
            assert four.count_params() - two.count_params() == 170

    def test_head_difference_law_any_hidden(self):
        for h2 in (5, 10, 84):
            two = tiny_model(rnn_hidden=(3, h2), n_classes=2)
            four = tiny_model(rnn_hidden=(3, h2), n_classes=4)
            assert four.count_params() - two.count_params() == 2 * h2 + 2

    def test_lstm_minus_gru_counting_identity(self):
        f, h1, h2 = 32, 84, 84
        gru = build_crnn(ModelConfig(rnn_kind="gru"), seed=0)
        lstm = build_crnn(ModelConfig(rnn_kind="lstm"), seed=0)
        per_layer = (f * h1 + h1 * h1 + h1) + (h1 * h2 + h2 * h2 + h2)
        assert lstm.count_params() - gru.count_params() == per_layer

    def test_tiny_config_hand_count(self):
        model = build_crnn(
            ModelConfig(conv_filters=(1, 1, 1, 1), rnn_hidden=(1, 1), n_classes=2,
                        input_shape=(96, 50)),
            seed=0,
        )
        # conv1: 1*1*9+1; conv2..4: 1*1*9+1 each; GRUs: 3*(1+1+1) each; head: 1*2+2
        assert model.count_params() == 4 * 10 + 9 + 9 + 4

    def test_count_is_pure_function_of_config(self):
        assert tiny_model(seed=1).count_params() == tiny_model(seed=99).count_params()


class TestForward:
    def test_zeroed_head_gives_uniform(self):
        for k in (2, 4):
            model = tiny_model(n_classes=k)
            model.head.weights[...] = 0.0
            model.head.bias[...] = 0.0
            x = np.random.default_rng(0).standard_normal((12, 20)).astype(np.float32)
            npt.assert_allclose(model.forward(x), np.full(k, 1.0 / k), rtol=1e-6)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            model = tiny_model(seed=seed, n_classes=4)
            probs = model.forward(rng.standard_normal((12, 20)).astype(np.float32))
            assert np.all(probs > 0)
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_normalization_applied(self):
        model = tiny_model()
        x = np.random.default_rng(1).standard_normal((12, 20)).astype(np.float32)
        base = model.forward(x)
        model.normalization = (5.0, 2.0)
        shifted = model.forward(x * 2.0 + 5.0)
        npt.assert_allclose(shifted, base, rtol=1e-4)


# a batch and the same samples one at a time, held to
# max |batch - single| / max |single| <= BATCH_TOL[dtype]
BATCH_TOL = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rnn_kind", ["gru", "lstm"])
def test_batch_matches_single_samples(rnn_kind, dtype):
    config = ModelConfig(**{**TINY, "input_shape": (24, 40)}, rnn_kind=rnn_kind, n_classes=4,
                         dropout_p=0.0)
    model = build_crnn(config, seed=6, dtype=dtype)
    model.normalization = (0.5, 2.0)
    rng = np.random.default_rng(7)
    x = (3.0 * rng.standard_normal((5, 24, 40))).astype(np.float32)
    labels = [0, 3, 1, 2, 3]

    singles = []
    model.zero_grads()
    for features, label in zip(x, labels):
        singles.append(model.forward(features, training=True))
        model.backward(label)
    single_grads = [g.copy() for g in model.grad_arrays()]
    model.zero_grads()
    probs = model.forward(x, training=True)
    batch_grads = model.backward(labels)

    tol = BATCH_TOL[dtype]
    assert probs.shape == (5, 4) and probs.dtype == dtype
    for got, want in [(probs, np.array(singles)), *zip(batch_grads, single_grads)]:
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_batch_loss_is_the_sum_of_sample_losses():
    model = tiny_model(n_classes=4)
    x = np.random.default_rng(8).standard_normal((3, 12, 20)).astype(np.float32)
    labels = [2, 0, 3]
    singles = [model.loss(features, label) for features, label in zip(x, labels)]
    assert model.loss(x, labels) == pytest.approx(sum(singles), rel=1e-6)
    with pytest.raises(ShapeError):
        model.loss(x, [2, 0])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model(seed=13, n_classes=4, rnn_kind="lstm")
        model.normalization = (-3.25, 1.5)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.config == model.config
        assert back.normalization == (-3.25, 1.5)
        for (n1, p1), (n2, p2) in zip(model.named_params(), back.named_params()):
            assert n1 == n2
            npt.assert_array_equal(p1, p2)

    def test_rnn_kind_and_labels_recorded(self, tmp_path):
        import json
        model = tiny_model(rnn_kind="gru", n_classes=4)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.rnn_kind == "gru"
        assert isinstance(loaded.rnn1, type(model.rnn1))
        raw = pathlib.Path(path).read_bytes()
        header_len = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + header_len])
        assert header["label_convention"] == {"0": "female customer", "1": "male customer",
                                              "2": "female agent", "3": "male agent"}

    def test_header_storing_the_elu_activation_loads(self, tmp_path):
        """A header config may hold "conv_activation": "elu", as when ELU was a setting."""
        model = tiny_model(seed=5, n_classes=4)
        model.normalization = (-3.25, 1.5)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        rewrite_checkpoint_header(path, with_config(conv_activation="elu"))
        back = load_checkpoint(path)
        assert back.config == model.config
        assert back.normalization == model.normalization
        x = np.random.default_rng(9).standard_normal((3, 12, 20)).astype(np.float32)
        npt.assert_array_equal(back.forward(x), model.forward(x))

    def test_header_storing_the_old_default_pool_kernels_loads(self, tmp_path):
        """A header config may hold the pool kernels, as when they were a setting."""
        model = tiny_model(seed=6, rnn_kind="lstm")
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        rewrite_checkpoint_header(path, with_config(pool_kernels=[[2, 2], [3, 3], [4, 2], [4, 2]]))
        back = load_checkpoint(path)
        assert back.config == model.config
        for (n1, p1), (n2, p2) in zip(model.named_params(), back.named_params()):
            assert n1 == n2
            npt.assert_array_equal(p1, p2)

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # flip a bit inside the parameter blob
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_failed_save_leaves_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(seed=1), str(path))
        before = path.read_bytes()
        real_pack = callseg.model.struct.pack
        calls = []

        def failing_pack(fmt, *values):
            calls.append(fmt)
            if len(calls) == 2:  # the checksum, after the header and parameters are written
                raise OSError("disk full")
            return real_pack(fmt, *values)

        monkeypatch.setattr(callseg.model.struct, "pack", failing_pack)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_model(seed=2), str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    @pytest.mark.parametrize("normalization", [(0.0, 0.0), (float("nan"), 1.0),
                                               (0.0, float("inf"))])
    def test_save_refuses_what_load_rejects(self, tmp_path, normalization):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(seed=1), str(path))
        before = path.read_bytes()
        model = tiny_model(seed=2)
        model.normalization = normalization
        with pytest.raises(CheckpointError, match="normalization needs"):
            save_checkpoint(model, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


def without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def with_config(**changes):
    return lambda h: {**h, "config": {**h["config"], **changes}}


def with_normalization(mean=1.5, std=1.5):
    return lambda h: {**h, "normalization": {"mean": mean, "std": std}}


HEADER_DAMAGE = {
    "no_config": without("config"),
    "unknown_config_key": with_config(shuffle=True),
    "bad_config_type": with_config(n_classes="two"),
    "bad_pool_kernel": with_config(pool_kernels=[[0, 2], [3, 3], [4, 2], [4, 2]]),
    "other_pool_kernels": with_config(pool_kernels=[[3, 3], [2, 2], [4, 2], [4, 2]]),
    "bad_activation": with_config(conv_activation="tanh"),
    "no_params": without("params"),
    "params_shape": lambda h: {**h, "params": [[h["params"][0][0], [1]], *h["params"][1:]]},
    "normalization_without_mean": lambda h: {**h, "normalization": {"std": 1.5}},
    "normalization_without_std": lambda h: {**h, "normalization": {"mean": 1.5}},
    "normalization_not_object": lambda h: {**h, "normalization": [1.5, 2.0]},
    "normalization_std_zero": with_normalization(std=0.0),
    "normalization_std_nan": with_normalization(std=float("nan")),
    "normalization_std_negative": with_normalization(std=-1.0),
    "normalization_std_inf": with_normalization(std=float("inf")),
    "normalization_mean_nan": with_normalization(mean=float("nan")),
    "header_not_object": lambda h: [h],
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_damaged_header_raises_checkpoint_error(tmp_path, damage):
    model = tiny_model()
    model.normalization = (-3.25, 1.5)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    rewrite_checkpoint_header(path, HEADER_DAMAGE[damage])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# each would convert with int() to the entries the saved model has
@pytest.mark.parametrize("field, value", [
    ("conv_filters", "1111"), ("conv_filters", [True, True, True, True]),
    ("conv_filters", [1.0, 1, 1, 1]), ("rnn_hidden", [3.9, 3.2]),
])
def test_header_with_non_integer_entries_raises_checkpoint_error(tmp_path, field, value):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(tiny_model(conv_filters=(1, 1, 1, 1)), path)
    rewrite_checkpoint_header(path, with_config(**{field: value}))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    model = tiny_model(seed=3)
    model.normalization = (-3.25, 1.5)
    save_checkpoint(model, str(path))
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_checkpoint_loads_or_raises_checkpoint_error(tiny_checkpoint, data):
    path, raw = tiny_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        index = data.draw(st.integers(0, len(raw) - 1), label="index")
        flipped = raw[index] ^ data.draw(st.integers(1, 255), label="xor")
        damaged = raw[:index] + bytes([flipped]) + raw[index + 1 :]
    path.write_bytes(damaged)
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass
