"""Exception types, the JSON config checks that raise them, and the writer of every output file.

Everything raised on purpose derives from CallsegError, so callers (and the
CLI) can distinguish bad input from genuine bugs.
"""

import contextlib
import dataclasses
import json
import numbers
import os


class CallsegError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CallsegError):
    """File is not a readable single-channel PCM WAV / well-formed input file."""


class ChannelCountError(FormatError):
    """Audio file has more than one channel."""


class SampleRateError(FormatError):
    """Audio, a file's or any buffer's, is not at the one supported sample rate."""


class TooShortError(CallsegError):
    """Signal shorter than one analysis window."""


class ConfigError(CallsegError):
    """Invalid configuration value or combination."""


class ShapeError(CallsegError):
    """Array shape does not match what the operation requires."""


class NumericError(CallsegError):
    """Non-finite values where finite ones are required."""


class LabelError(CallsegError):
    """Class label outside the valid range."""


class StateError(CallsegError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class PrecisionError(CallsegError):
    """Operation requires 64-bit mode."""


class CheckpointError(CallsegError):
    """Checkpoint file is missing, truncated, corrupt or version-incompatible."""


class LayoutError(CallsegError):
    """Corpus tree contains a path that does not follow the folder template."""


class DataError(CallsegError):
    """Corpus split is empty or otherwise unusable."""


class DivergenceError(CallsegError):
    """Training loss became non-finite."""


class SplitLeakError(CallsegError):
    """A speaker was assigned to more than one split."""


class InputError(CallsegError):
    """Mismatched or out-of-range inputs to a metric/aggregation routine."""


class OutputPathError(CallsegError):
    """An output file cannot be created at the path given for it."""


class DbasRejection(CallsegError):
    """A call was rejected by the annotation scheme; .reason says why."""

    reason = "rejected"


class NoSpeechError(DbasRejection):
    """Call (or stream request) contains no speech segments at all."""

    reason = "no_speech"


class SingleGenderError(DbasRejection):
    """Call contains speech of only one gender, so roles cannot be assigned."""

    reason = "single_gender"


class NoWindowsError(CallsegError):
    """Speaker stream is shorter than one classification window."""


def read_json_object(path: str) -> dict:
    """The JSON object stored in ``path``; anything else raises ConfigError."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """A handle on ``<path>.<pid>.tmp``, renamed over ``path`` on success and removed on error."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


class JsonConfig:
    """Base of the config dataclasses that are read from JSON files."""

    @classmethod
    def from_dict(cls, d: dict):
        """Build the config from ``d``; an unknown key raises ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = [key for key in d if key not in names]
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(map(str, unknown))}")
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _check_field_types(self) -> None:
        """ConfigError unless each int, float, bool and str field holds that type.

        An int is accepted as a float; a bool is not accepted as a number.
        """
        for f in dataclasses.fields(self):
            kind = getattr(f.type, "__name__", f.type)  # a string under postponed annotations
            expected, value = _FIELD_TYPES.get(kind, object), getattr(self, f.name)
            if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
                raise ConfigError(f"{type(self).__name__}.{f.name} must be {kind}, got {value!r}")
