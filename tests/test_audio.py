import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.io import wavfile

import callseg
from callseg.audio import AudioBuffer, load_audio, save_wav
from callseg.errors import ChannelCountError, FormatError, NumericError, SampleRateError


def test_silence_one_second(tmp_path):
    path = tmp_path / "silence.wav"
    wavfile.write(path, 8000, np.zeros(8000, dtype=np.int16))
    buf = load_audio(str(path))
    assert len(buf) == 8000
    assert buf.sample_rate == 8000
    npt.assert_array_equal(buf.samples, 0.0)


def test_ten_second_file_sample_count(tone_wav):
    buf = load_audio(tone_wav)
    assert len(buf) == 80000
    assert buf.duration == pytest.approx(10.0)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ChannelCountError):
        load_audio(str(path))


def test_wrong_rate_rejected(tmp_path):
    path = tmp_path / "fast.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int16))
    with pytest.raises(SampleRateError):
        load_audio(str(path))


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(FormatError):
        load_audio(str(tmp_path / "nope.wav"))
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFgarbage-not-a-wav-at-all")
    with pytest.raises(FormatError):
        load_audio(str(bad))


@pytest.mark.parametrize(
    "dtype,scale",
    [(np.uint8, None), (np.int16, 32768.0), (np.int32, 2147483648.0), (np.float32, 1.0)],
)
def test_pcm_formats_normalized(tmp_path, dtype, scale):
    rng = np.random.default_rng(0)
    signal = 0.8 * np.sin(2 * np.pi * 300 * np.arange(4000) / 8000) + 0.05 * rng.standard_normal(4000)
    signal = np.clip(signal, -0.999, 0.999)
    if dtype == np.uint8:
        data = np.round(signal * 127 + 128).astype(np.uint8)
    elif dtype == np.float32:
        data = signal.astype(np.float32)
    else:
        data = np.round(signal * (scale - 1)).astype(dtype)
    path = tmp_path / "sig.wav"
    wavfile.write(path, 8000, data)
    buf = load_audio(str(path))
    assert buf.samples.min() >= -1.0 and buf.samples.max() <= 1.0
    npt.assert_allclose(buf.samples, signal, atol=2.0 / 127)


def test_buffer_invariants():
    with pytest.raises(NumericError):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(SampleRateError):
        AudioBuffer(np.zeros(10), 0)
    with pytest.raises(ChannelCountError):
        AudioBuffer(np.zeros((10, 2)), 8000)


@pytest.mark.parametrize("rate", [16000, "8000"], ids=["16000", "str-8000"])
def test_buffer_at_another_rate_rejected(rate):
    with pytest.raises(SampleRateError):
        AudioBuffer(np.zeros(8000), rate)


def test_save_wav_roundtrip(tmp_path):
    buf = AudioBuffer(np.linspace(-0.9, 0.9, 800), 8000)
    path = tmp_path / "rt.wav"
    save_wav(str(path), buf)
    back = load_audio(str(path))
    npt.assert_allclose(back.samples, buf.samples, atol=1e-4)


def rate_literals(path):
    """(file name, name it is assigned to or None) of each numeric literal 8000 in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    assigned = {id(node.value): node.targets[0].id for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return [(path.name, assigned.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 8000]


def test_one_constant_holds_the_sample_rate():
    """The package spells the 8 kHz rate once, as audio.SAMPLE_RATE; everything else reads it."""
    src = Path(callseg.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in rate_literals(path)]
    assert found == [("audio.py", "SAMPLE_RATE")]


def rate_holders(path):
    """(file name, function or class, name) of each parameter or class field named like a rate."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.ClassDef):
            names = [stmt.target.id for stmt in node.body
                     if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        else:
            continue
        found += [(path.name, getattr(node, "name", "<lambda>"), name)
                  for name in names if name in ("rate", "sample_rate")]
    return found


def test_only_the_buffer_carries_a_rate():
    """No parameter or field passes a rate around: AudioBuffer checks it, the rest reads
    SAMPLE_RATE. synth_speech keeps its 4th parameter, which callers outside the package pass."""
    src = Path(callseg.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in rate_holders(path)]
    assert found == [("audio.py", "AudioBuffer", "sample_rate"),
                     ("synth.py", "synth_speech", "sample_rate")]
