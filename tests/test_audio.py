import ast
import io
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import callseg
from callseg.audio import AudioBuffer, load_audio, save_wav
from callseg.errors import (CallsegError, ChannelCountError, FormatError, NumericError,
                            SampleRateError)


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


# Every (format tag, bits per sample) load_audio accepts.
FORMATS = [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32), (3, 64)]
FORMAT_IDS = [f"tag{tag}-{bits}bit" for tag, bits in FORMATS]
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def wav_bytes(tag, bits, payload, extensible=False, before=(), between=(), after=()):
    """A mono 8 kHz RIFF/WAVE file with (id, body) chunks ``before`` ``fmt ``, ``between`` it
    and ``data``, and ``after`` ``data``."""
    align = bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, 1, 8000, 8000 * align, align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 4, tag) + GUID_TAIL
    body = b"WAVE" + b"".join(chunk(*c) for c in before) + chunk(b"fmt ", fmt)
    body += b"".join(chunk(*c) for c in (*between, (b"data", payload), *after))
    return b"RIFF" + struct.pack("<I", len(body)) + body


def reference_load(path):
    """Samples as scipy.io.wavfile reads them, scaled the way callseg always has."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    if data.ndim != 1 or rate != 8000:
        raise ValueError("not mono 8 kHz")
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype in (np.int16, np.int32):
        return data.astype(np.float64) / {np.int16: 32768.0, np.int32: 2147483648.0}[data.dtype.type]
    if data.dtype in (np.float32, np.float64):
        return np.clip(data.astype(np.float64), -1.0, 1.0)
    raise ValueError(f"unsupported {data.dtype}")


def assert_no_laxer_than_reference(path):
    """load_audio raises a CallsegError wherever the reference raises, and raises nothing
    else; where both load, the samples are equal float64. Returns whether it refused."""
    try:
        expected = reference_load(path)
    except Exception:
        expected = None
    try:
        got = load_audio(str(path)).samples
    except CallsegError:
        return True
    assert expected is not None, "load_audio loaded a file the reference refuses"
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)
    return False


chunk_ids = st.sampled_from([b"LIST", b"fact", b"JUNK", b"cue "])
extra_chunks = st.lists(st.tuples(chunk_ids, st.binary(max_size=9)), max_size=3)


@st.composite
def valid_wavs(draw, fmt=st.sampled_from(FORMATS), max_samples=800):
    tag, bits = draw(fmt)
    n = draw(st.integers(0, max_samples))
    if tag == 3:
        values = draw(st.lists(st.floats(-3.0, 3.0, width=bits), min_size=n, max_size=n))
        payload = np.array(values, f"<f{bits // 8}").tobytes()
    else:
        payload = draw(st.binary(min_size=n * bits // 8, max_size=n * bits // 8))
    return wav_bytes(tag, bits, payload, extensible=draw(st.booleans()), before=draw(extra_chunks),
                     between=draw(extra_chunks), after=draw(extra_chunks))


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav") / "x.wav"


@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_valid_files_load_as_scipy_reads_them(wav_path, fmt, data):
    wav = data.draw(valid_wavs(st.just(fmt)))
    wav_path.write_bytes(wav)
    expected = reference_load(wav_path)
    got = load_audio(str(wav_path)).samples
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("fmt", FORMATS, ids=FORMAT_IDS)
def test_every_truncation_refused(wav_path, fmt, extensible):
    """scipy loads some cut files short; load_audio refuses every one."""
    tag, bits = fmt
    payload = bytes(range(7, 7 + 5 * bits // 8))
    wav = wav_bytes(tag, bits, payload, extensible, before=[(b"LIST", b"abc")])
    for cut in range(len(wav)):
        wav_path.write_bytes(wav[:cut])
        assert assert_no_laxer_than_reference(wav_path), f"cut at {cut} of {len(wav)} bytes loaded"


@settings(max_examples=400, deadline=None)
@given(wav=valid_wavs(max_samples=20), flips=st.lists(
    st.tuples(st.integers(0, 59), st.integers(0, 255)), min_size=1, max_size=3))
def test_byte_flips_refused_where_scipy_refuses(wav_path, wav, flips):
    damaged = bytearray(wav)
    for pos, value in flips:
        if pos < len(damaged):
            damaged[pos] = value
    wav_path.write_bytes(bytes(damaged))
    assert_no_laxer_than_reference(wav_path)


def test_byte_rate_mismatch_refused(tmp_path):
    """scipy refuses PCM whose byte rate is not rate x block align; so does load_audio."""
    wav = bytearray(wav_bytes(1, 16, bytes(10)))
    wav[28:32] = struct.pack("<I", 8000)
    path = tmp_path / "rate.wav"
    path.write_bytes(bytes(wav))
    with pytest.raises(FormatError):
        load_audio(str(path))


@pytest.mark.parametrize("n", [0, 1, 2, 799, 800, 80000])
def test_save_wav_writes_what_scipy_writes(tmp_path, n):
    buf = AudioBuffer(np.sin(np.arange(n) * 0.01) * 1.2, 8000)
    path = tmp_path / "out.wav"
    save_wav(str(path), buf)
    expected = io.BytesIO()
    wavfile.write(expected, 8000, (np.clip(buf.samples, -1.0, 1.0) * 32767.0).astype(np.int16))
    assert path.read_bytes() == expected.getvalue()


def test_data_chunk_longer_than_the_file_refused(tmp_path):
    wav = bytearray(wav_bytes(1, 16, bytes(10)))
    wav[40:44] = struct.pack("<I", 20)
    path = tmp_path / "long.wav"
    path.write_bytes(bytes(wav))
    with pytest.raises(FormatError, match=str(path)):
        load_audio(str(path))


def test_file_cut_mid_data_chunk_refused(tmp_path):
    path = tmp_path / "cut.wav"
    path.write_bytes(wav_bytes(1, 16, bytes(10))[:-4])
    with pytest.raises(FormatError, match=str(path)):
        load_audio(str(path))


def test_data_chunk_of_partial_samples_refused(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(wav_bytes(1, 16, bytes(9)))
    with pytest.raises(FormatError, match=str(path)):
        load_audio(str(path))


@pytest.mark.parametrize("chunk_id", [b"data", b"fmt "], ids=["data", "fmt"])
def test_second_data_or_fmt_chunk_after_data_refused(tmp_path, chunk_id):
    """scipy read a later data chunk over the first; load_audio takes one fmt, then one data."""
    path = tmp_path / "twice.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)  # the file's own, valid for scipy
    path.write_bytes(wav_bytes(1, 16, bytes(10), after=[(chunk_id, fmt)]))
    with pytest.raises(FormatError, match="out of order"):
        load_audio(str(path))


def test_import_loads_no_scipy():
    src = Path(callseg.__file__).parent.parent
    script = "import callseg, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
