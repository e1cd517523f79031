"""Database-based annotation: from segmenter output + call metadata to a corpus.

A call is usable when its two speech genders differ; the gender matching
the database's agent gender is the agent, the other is the customer. Label
numbering: 0 = female customer, 1 = male customer, 2 = female agent,
3 = male agent, so the 2-class label is always ``class4 // 2``.

The on-disk corpus follows
``<root>/<train|validation>/<agent|customer>/<female|male>/<speakerId>/<utteranceNo>.npy``
with one log-mel feature array per fixed-length utterance, plus a
``manifest.json`` of per-split / per-class / per-gender counts.
``CorpusWriter`` writes each utterance as soon as it is cut into a staging
tree under the root and keeps only counts, so memory does not grow with
the corpus; once the splits are known it replaces the root's old run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .audio import SAMPLE_RATE, AudioBuffer
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    LayoutError,
    NoSpeechError,
    OutputPathError,
    SingleGenderError,
    SplitLeakError,
    atomic_write,
)
from .features import WINDOW, log_mel_spectrogram, save_features

SEGMENT_LABELS = ("speech_female", "speech_male", "music", "noise", "silence")
SPEECH_GENDER = {"speech_female": "female", "speech_male": "male"}
GENDERS = ("female", "male")
ROLES = ("customer", "agent")
SPLITS = ("train", "validation")

UTTERANCE_SECONDS = 10.0
# the call lengths the annotation scheme accepts, both inclusive
MIN_CALL_SECONDS = 60.0
MAX_CALL_SECONDS = 600.0


def class_label_of(role: str, gender: str) -> int:
    """4-class index from role and gender (customer/female is 0)."""
    return 2 * ROLES.index(role) + GENDERS.index(gender)


def role_of(class_label: int) -> str:
    return ROLES[class_label // 2]


def gender_of(class_label: int) -> str:
    return GENDERS[class_label % 2]


def label_names(n_classes: int) -> tuple:
    """Class index -> name for the 2-class (role) and 4-class (gender and role) problems."""
    if n_classes == 2:
        return ROLES
    if n_classes == 4:
        return tuple(f"{gender_of(c)} {role_of(c)}" for c in range(4))
    raise ConfigError(f"n_classes must be 2 or 4, got {n_classes}")


# ---------------------------------------------------------------------------
# input records

@dataclass
class SegmentAnnotation:
    start: float
    end: float
    label: str

    def __post_init__(self):
        if self.label not in SEGMENT_LABELS:
            raise InputError(f"unknown segment label {self.label!r}")
        if not 0 <= self.start < self.end:
            raise InputError(f"bad segment interval [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CallMetadata:
    call_id: str
    agent_id: str
    agent_gender: str
    duration: float
    audio_path: str = ""
    customer_id: str = ""

    def __post_init__(self):
        if self.agent_gender not in GENDERS:
            raise InputError(f"agent_gender must be female or male, got {self.agent_gender!r}")
        if self.duration <= 0:
            raise InputError(f"call {self.call_id}: duration must be positive")
        if not self.customer_id:
            # one anonymous customer per call; no cross-call identity exists
            self.customer_id = f"{self.call_id}.customer"
        for name in ("call_id", "agent_id", "customer_id"):
            value = getattr(self, name)
            # a speaker id names a directory of the corpus tree
            if value in ("", ".", "..") or any(sep and sep in value for sep in (os.sep, os.altsep)):
                raise InputError(f"{name} {value!r} cannot name a directory")


def _read_csv(path: str, header: list[str]) -> list[tuple[int, dict]]:
    """(line number, row) pairs of a CSV file whose header must be ``header``.

    A short row reads its missing fields as empty strings.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            if reader.fieldnames != header:
                raise FormatError(
                    f"{path}: expected header {','.join(header)}, got {reader.fieldnames}"
                )
            return [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a readable CSV file: {exc}") from exc


def _number(path: str, line: int, row: dict, key: str) -> float:
    """Field ``key`` of a CSV row as a finite float."""
    text = row[key]
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{path}:{line}: {key} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise FormatError(f"{path}:{line}: {key} {text!r} is not finite")
    return value


def read_segments_csv(path: str) -> list[SegmentAnnotation]:
    """Load one call's segment annotations; `start,end,label` header required."""
    segments = [
        SegmentAnnotation(
            _number(path, line, row, "start"), _number(path, line, row, "end"), row["label"].strip()
        )
        for line, row in _read_csv(path, ["start", "end", "label"])
    ]
    for prev, cur in zip(segments, segments[1:]):
        if cur.start < prev.end:
            raise InputError(f"{path}: segments overlap or are unsorted at t={cur.start}")
    return segments


def read_calls_csv(path: str) -> list[CallMetadata]:
    expected = ["call_id", "agent_id", "agent_gender", "duration", "audio_path"]
    return [
        CallMetadata(
            call_id=row["call_id"].strip(),
            agent_id=row["agent_id"].strip(),
            agent_gender=row["agent_gender"].strip(),
            duration=_number(path, line, row, "duration"),
            audio_path=row["audio_path"].strip(),
        )
        for line, row in _read_csv(path, expected)
    ]


# ---------------------------------------------------------------------------
# annotation scheme

def filter_calls(calls):
    """Keep calls with MIN_CALL_SECONDS <= duration <= MAX_CALL_SECONDS."""
    return [c for c in calls if MIN_CALL_SECONDS <= c.duration <= MAX_CALL_SECONDS]


@dataclass
class SpeakerSegments:
    """One call side: all speech segments of one gender, with its labels."""

    speaker_id: str
    gender: str
    role: str
    class_label: int
    segments: list = field(default_factory=list)


def dbas_label(segments, meta: CallMetadata) -> list[SpeakerSegments]:
    """Assign roles to a call's speech segments from the known agent gender.

    Rejects with NoSpeechError when no speech exists and SingleGenderError
    unless both genders are present; non-speech segments get no label.
    """
    speech = [s for s in segments if s.label in SPEECH_GENDER]
    if not speech:
        raise NoSpeechError(f"call {meta.call_id}: no speech segments")
    genders = {SPEECH_GENDER[s.label] for s in speech}
    if len(genders) < 2:
        raise SingleGenderError(
            f"call {meta.call_id}: only {next(iter(genders))} speech present"
        )

    sides = []
    for gender in GENDERS:
        role = "agent" if gender == meta.agent_gender else "customer"
        speaker_id = meta.agent_id if role == "agent" else meta.customer_id
        sides.append(
            SpeakerSegments(
                speaker_id=speaker_id,
                gender=gender,
                role=role,
                class_label=class_label_of(role, gender),
                segments=[s for s in speech if SPEECH_GENDER[s.label] == gender],
            )
        )
    return sides


def consistency_filter(history) -> set:
    """Speakers whose gender label is identical across every call they appear in."""
    return {speaker for speaker, labels in history.items() if len(set(labels)) <= 1}


# ---------------------------------------------------------------------------
# utterances and the corpus tree

def segment_samples(audio: AudioBuffer, segments) -> np.ndarray:
    """The samples of ``segments``, cut at round(t * SAMPLE_RATE) and concatenated in order.

    A segment that ends after the last sample raises InputError.
    """
    pieces = []
    for seg in segments:
        # a huge finite end overflows to inf at the sample rate
        hi = seg.end * SAMPLE_RATE
        if not math.isfinite(hi) or round(hi) > len(audio.samples):
            raise InputError(
                f"segment [{seg.start}, {seg.end}) ends after the audio ({audio.duration} s)"
            )
        pieces.append(audio.samples[round(seg.start * SAMPLE_RATE) : round(hi)])
    return np.concatenate(pieces)


def utterance_samples(seconds: float) -> int:
    """round(seconds * SAMPLE_RATE); ConfigError unless finite and at least one WINDOW."""
    size = seconds * SAMPLE_RATE
    if not (math.isfinite(size) and round(size) >= WINDOW):
        raise ConfigError(f"utterance length must be finite and give at least one "
                          f"{WINDOW}-sample window, got utterance_seconds={seconds}")
    return int(round(size))


def cut_utterances(samples, seconds: float = UTTERANCE_SECONDS) -> list[np.ndarray]:
    """Views of floor(len/seconds) consecutive fixed-length utterances; rest dropped.

    A length that ``utterance_samples`` rejects raises ConfigError.
    """
    samples = np.asarray(samples, dtype=np.float64)
    size = utterance_samples(seconds)
    return [samples[i * size : (i + 1) * size] for i in range(len(samples) // size)]


@dataclass
class CorpusManifest:
    splits: dict
    speaker_splits: dict

    def to_json(self) -> str:
        return json.dumps(
            {"splits": self.splits, "speaker_splits": self.speaker_splits},
            indent=2,
            sort_keys=True,
        )

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")


def _leaf(top: str, speaker_id: str, class_label: int) -> str:
    return os.path.join(top, role_of(class_label), gender_of(class_label), speaker_id)


@dataclass
class CorpusItem:
    path: str
    label2: int
    label4: int
    speaker_id: str


def scan_corpus(root: str, split: str) -> list[CorpusItem]:
    """List a split's feature files with labels decoded from the folder names.

    Returns records in sorted path order; a missing split directory is an
    empty list, an unrecognized path component is a LayoutError.
    """
    split_dir = os.path.join(root, split)
    if not os.path.isdir(split_dir):
        return []
    items = []
    for role in sorted(os.listdir(split_dir)):
        role_dir = os.path.join(split_dir, role)
        if role not in ROLES or not os.path.isdir(role_dir):
            raise LayoutError(f"unexpected corpus entry: {role_dir}")
        for gender in sorted(os.listdir(role_dir)):
            gender_dir = os.path.join(role_dir, gender)
            if gender not in GENDERS or not os.path.isdir(gender_dir):
                raise LayoutError(f"unexpected corpus entry: {gender_dir}")
            label4 = class_label_of(role, gender)
            for speaker in sorted(os.listdir(gender_dir)):
                speaker_dir = os.path.join(gender_dir, speaker)
                if not os.path.isdir(speaker_dir):
                    raise LayoutError(f"unexpected corpus entry: {speaker_dir}")
                for name in sorted(os.listdir(speaker_dir)):
                    path = os.path.join(speaker_dir, name)
                    stem, ext = os.path.splitext(name)
                    if ext != ".npy" or not stem.isdigit():
                        raise LayoutError(f"unexpected corpus entry: {path}")
                    items.append(CorpusItem(path, label4 // 2, label4, speaker))
    return items


def _pid_alive(pid: int) -> bool:
    """Whether another process has ``pid``; this process's own pid reads as dead."""
    try:
        os.kill(pid, 0)
    except PermissionError:  # another user's process
        return True
    except (ProcessLookupError, OverflowError):
        return False
    return pid != os.getpid()  # a tree of this pid was left by an earlier process


class CorpusWriter:
    """Writes a corpus tree one utterance at a time, in memory independent of its size.

    ``add`` saves each utterance's features at once into a staging tree
    ``<root>/.staging.<pid>/<role>/<gender>/<speaker>/<n>.npy`` and keeps
    only per-speaker counts; ``finish`` replaces the root's run by the staged
    one, an empty one included, which leaves only a manifest with empty
    splits. Construction refuses a split that is not a corpus or a manifest
    that is not a file, and removes dead pids' staging trees. As a context
    manager it removes the staging tree on exit, and on an error a root it
    created.
    """

    def __init__(self, root: str):
        manifest = os.path.join(root, "manifest.json")  # finish deletes it, so it must be a file
        if os.path.lexists(manifest) and not os.path.isfile(manifest):
            raise OutputPathError(f"cannot replace {manifest}: not a regular file")
        for split in SPLITS:  # finish deletes these, so each must be a corpus split
            path = os.path.join(root, split)
            try:
                if os.path.lexists(path) and not os.path.isdir(path):
                    raise LayoutError(f"unexpected corpus entry: {path}")
                scan_corpus(root, split)
            except LayoutError as exc:
                raise OutputPathError(f"cannot replace {path}: {exc}") from None
        self.root = root
        self.staging = os.path.join(root, f".staging.{os.getpid()}")
        self.counts: dict[str, dict[int, int]] = {}  # speaker -> class label -> utterances
        self._new_root = not os.path.exists(root)
        for name in os.listdir(root) if os.path.isdir(root) else ():
            pid = name.removeprefix(".staging.")
            if pid != name and pid.isdecimal() and not _pid_alive(int(pid)):
                shutil.rmtree(os.path.join(root, name), ignore_errors=True)

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        shutil.rmtree(self.root if exc_type and self._new_root else self.staging,
                      ignore_errors=True)

    def add(self, speaker_id: str, class_label: int, samples) -> None:
        """Stage one utterance as the speaker's next number, counted from 0."""
        labels = self.counts.setdefault(speaker_id, {})
        leaf = _leaf(self.staging, speaker_id, class_label)
        if class_label not in labels:
            os.makedirs(leaf, exist_ok=True)
            labels[class_label] = 0
        spec = log_mel_spectrogram(AudioBuffer(samples, SAMPLE_RATE))
        save_features(os.path.join(leaf, f"{sum(labels.values())}.npy"), spec.values)
        labels[class_label] += 1

    def finish(self, split_assignment) -> CorpusManifest:
        """Replace the root's run by the staged speakers and write the manifest last.

        split_assignment maps split name -> iterable of speaker ids; a
        speaker in two splits raises SplitLeakError, an unassigned one
        DataError, both before any file moves. Then the old run moves into
        staging, manifest first, so a root's manifest describes its tree.
        """
        assignment = {split: set(split_assignment.get(split, ())) for split in SPLITS}
        overlap = assignment["train"] & assignment["validation"]
        if overlap:
            raise SplitLeakError(f"speakers in both splits: {sorted(overlap)}")
        speaker_splits = {spk: split for split in SPLITS for spk in assignment[split]}
        for speaker in sorted(self.counts):
            if speaker not in speaker_splits:
                raise DataError(f"speaker {speaker} has no split assignment")

        os.makedirs(self.staging, exist_ok=True)
        for name in ("manifest.json", *SPLITS):  # the old run moves out, manifest first
            if os.path.lexists(os.path.join(self.root, name)):
                os.rename(os.path.join(self.root, name), os.path.join(self.staging, name))
        splits: dict = {}
        for speaker, labels in sorted(self.counts.items()):
            split = speaker_splits[speaker]
            for label, count in labels.items():
                os.renames(_leaf(self.staging, speaker, label),
                           _leaf(os.path.join(self.root, split), speaker, label))
                node = splits.setdefault(split, {"speakers": set(), "utterances": 0, "classes": {}})
                cls = node["classes"].setdefault(
                    role_of(label), {"speakers": set(), "utterances": 0, "genders": {}}
                )
                gnode = cls["genders"].setdefault(
                    gender_of(label), {"speakers": set(), "utterances": 0}
                )
                for level in (node, cls, gnode):
                    level["speakers"].add(speaker)
                    level["utterances"] += count

        def counted(node):
            return {key: len(value) if isinstance(value, set)
                    else counted(value) if isinstance(value, dict) else value
                    for key, value in node.items()}

        manifest = CorpusManifest(
            splits=counted(splits),
            speaker_splits={s: speaker_splits[s] for s in sorted(self.counts)},
        )
        manifest.save(os.path.join(self.root, "manifest.json"))
        shutil.rmtree(self.staging, ignore_errors=True)
        return manifest


# ---------------------------------------------------------------------------
# end-to-end preparation

@dataclass
class PrepareResult:
    manifest: CorpusManifest
    accepted_calls: list
    rejections: list  # (call_id, reason)
    dropped_speakers: set


def prepare_corpus(
    calls,
    segments_by_call,
    audio_loader,
    out_root: str,
    val_fraction: float = 0.2,
    seed: int = 0,
    utterance_seconds: float = UTTERANCE_SECONDS,
) -> PrepareResult:
    """Run the whole annotation pipeline and write the corpus.

    calls: CallMetadata list; segments_by_call: call_id -> segment list;
    audio_loader: CallMetadata -> AudioBuffer. Per-call rejections are
    collected, not raised. Validation speakers are chosen by a seeded
    shuffle of the retained speaker list. The new run replaces the root's
    old one even when no utterance was cut; its manifest then has empty
    splits. Bad numbers raise ConfigError and a repeated call_id
    InputError, before anything is written.
    """
    if not 0.0 <= val_fraction <= 1.0:
        raise ConfigError(f"validation fraction must be in [0, 1], got {val_fraction}")
    utterance_samples(utterance_seconds)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    repeated = sorted(i for i, n in Counter(c.call_id for c in calls).items() if n > 1)
    if repeated:
        raise InputError(f"call_id repeated in the call list: {', '.join(repeated)}")
    rejections = []
    kept = []
    accepted_ids = {c.call_id for c in filter_calls(calls)}
    for call in calls:
        if call.call_id not in accepted_ids:
            rejections.append((call.call_id, "duration"))
            continue
        segments = segments_by_call.get(call.call_id)
        if segments is None:
            rejections.append((call.call_id, "no_segments"))
            continue
        try:
            sides = dbas_label(segments, call)
        except (NoSpeechError, SingleGenderError) as exc:
            rejections.append((call.call_id, exc.reason))
            continue
        kept.append((call, sides))

    history: dict[str, list[str]] = {}
    for _call, sides in kept:
        for side in sides:
            history.setdefault(side.speaker_id, []).append(side.gender)
    retained = consistency_filter(history)
    dropped = set(history) - retained

    with CorpusWriter(out_root) as writer:
        for call, sides in kept:
            audio = audio_loader(call)
            for side in sides:
                if side.speaker_id not in retained:
                    continue
                samples = segment_samples(audio, side.segments)
                for utterance in cut_utterances(samples, utterance_seconds):
                    writer.add(side.speaker_id, side.class_label, utterance)

        speakers = sorted(writer.counts)
        rng = np.random.default_rng(seed)
        order = [speakers[i] for i in rng.permutation(len(speakers))]
        n_val = int(round(val_fraction * len(speakers)))
        manifest = writer.finish({"validation": order[:n_val], "train": order[n_val:]})
    return PrepareResult(manifest, [c for c, _s in kept], rejections, dropped)
