"""Mono 8 kHz WAV input and output; samples are float64 in [-1, 1].

Calls arrive as 8 kHz mono recordings; anything else (stereo, wrong rate,
compressed formats) is a caller error, not something we resample or downmix.
This module owns the RIFF/WAVE format. It reads little-endian RIFF/WAVE,
mono, at SAMPLE_RATE: PCM (tag 1) at 8, 16, 24 or 32 bits, IEEE float (tag 3)
at 32 or 64 bits, or WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE) with subformat 1 or 3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ChannelCountError, FormatError, NumericError, SampleRateError, atomic_write

SAMPLE_RATE = 8000

# (format tag, bits per sample) -> (sample dtype, full scale); float samples are clipped instead
_FORMATS = {(1, 8): ("u1", 128.0), (1, 16): ("<i2", 2.0**15), (1, 24): ("<i4", 2.0**31),
            (1, 32): ("<i4", 2.0**31), (3, 32): ("<f4", None), (3, 64): ("<f8", None)}
# last 12 bytes of an EXTENSIBLE subformat GUID, whose first 4 bytes hold the format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass
class AudioBuffer:
    """Mono float64 samples in [-1, 1]; any rate but SAMPLE_RATE raises SampleRateError."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ChannelCountError(f"expected mono signal, got ndim={self.samples.ndim}")
        if self.sample_rate != SAMPLE_RATE:
            raise SampleRateError(f"audio at {self.sample_rate!r} Hz, expected {SAMPLE_RATE} Hz")
        if not np.all(np.isfinite(self.samples)):
            raise NumericError("audio samples contain non-finite values")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def load_audio(path: str) -> AudioBuffer:
    """Read a mono WAV file and normalize its samples to [-1, 1].

    Accepts little-endian RIFF/WAVE at SAMPLE_RATE in one of these formats:
    PCM (tag 1) at 8, 16, 24 or 32 bits, IEEE float (tag 3) at 32 or 64 bits,
    or WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE) whose subformat is 1 or 3. Chunks
    other than ``fmt `` and ``data`` are skipped; ``fmt `` comes before the
    one ``data`` chunk. 8-bit samples become (x - 128) / 128; 16- and 32-bit
    ones, and 24-bit ones left-justified in an int32, are divided by full
    scale; float ones are clipped. Raises ChannelCountError for more than one
    channel, SampleRateError for another declared rate, and FormatError for
    anything else, including a file cut short or a data chunk of partial
    samples.
    """

    def malformed(why):
        return FormatError(f"malformed WAV file {path}: {why}")

    try:
        with open(path, "rb") as fh:
            view = memoryview(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read audio file {path}: {exc.strerror or exc}") from exc
    if len(view) < 12 or view[:4] != b"RIFF" or view[8:12] != b"WAVE":
        raise malformed("not a little-endian RIFF/WAVE file")
    end = 8 + struct.unpack_from("<I", view, 4)[0]
    if end > len(view):
        raise malformed(f"cut short: the header declares {end} bytes, the file holds {len(view)}")
    fmt, data, pos = None, None, 12
    while pos + 8 <= end:
        chunk_id, size = struct.unpack_from("<4sI", view, pos)
        if pos + 8 + size > end:
            raise malformed(f"{chunk_id!r} chunk runs past the end of the RIFF chunk")
        body = view[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt " and data is None:
            if size < 16:
                raise malformed(f"fmt chunk of {size} bytes, expected at least 16")
            fmt = list(struct.unpack_from("<HHIIHH", body))
            ext_size, subformat = struct.unpack_from("<H6xI", body, 16) if size >= 40 else (0, 0)
            if fmt[0] == 0xFFFE and ext_size >= 22 and body[28:40] == _GUID_TAIL:
                fmt[0] = subformat
        elif chunk_id == b"data" and data is None and fmt is not None:
            data = body
        elif chunk_id in (b"fmt ", b"data"):
            raise malformed(f"{chunk_id!r} chunk out of order: expected fmt, then one data chunk")
        pos += 8 + size + size % 2

    if data is None:
        raise malformed("no data chunk")
    tag, channels, rate, byte_rate, align, bits = fmt
    if (tag, bits) not in _FORMATS:
        raise malformed(f"unsupported sample format: tag {tag:#06x} at {bits} bits")
    if channels != 1:
        raise ChannelCountError(f"{path}: expected 1 channel, got {channels}")
    if rate != SAMPLE_RATE:
        raise SampleRateError(f"{path}: declared rate {rate} Hz, expected {SAMPLE_RATE} Hz")
    if align != bits // 8 or (tag == 1 and byte_rate != rate * align):
        raise malformed(f"block align {align} or byte rate {byte_rate} do not match {bits} bits")
    if len(data) % align:
        raise malformed(f"data chunk of {len(data)} bytes is not a whole number of samples")

    dtype, scale = _FORMATS[tag, bits]
    if bits == 24:  # left-justify each 3-byte sample in an int32: a zero low byte, then its 3
        data = np.pad(np.frombuffer(data, np.uint8).reshape(-1, 3), ((0, 0), (1, 0)))
    samples = np.frombuffer(data, dtype).astype(np.float64)
    if scale is None:
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        if bits == 8:
            samples -= scale
        samples /= scale
    return AudioBuffer(samples=samples, sample_rate=SAMPLE_RATE)


def save_wav(path: str, buffer: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM WAV (used by the synthetic pipeline)."""
    pcm = (np.clip(buffer.samples, -1.0, 1.0) * 32767.0).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16,
                         1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, b"data", pcm.nbytes)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm.data)
