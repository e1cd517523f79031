"""Database-based annotation: from segmenter output + call metadata to a corpus.

A call is usable when its two speech genders differ; the gender matching
the database's agent gender is the agent, the other is the customer. Label
numbering: 0 = female customer, 1 = male customer, 2 = female agent,
3 = male agent, so the 2-class label is always ``class4 // 2``.

The on-disk corpus follows
``<root>/<train|validation>/<agent|customer>/<female|male>/<speakerId>/<utteranceNo>.npy``
with one log-mel feature array per fixed-length utterance, plus a
``manifest.json`` of per-split / per-class / per-gender counts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    NoSpeechError,
    SingleGenderError,
    SplitLeakError,
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
    """The samples of ``segments``, cut at round(t * rate) and concatenated in order.

    A segment that ends after the last sample raises InputError.
    """
    rate = audio.sample_rate
    pieces = []
    for seg in segments:
        # a huge finite end overflows to inf at the sample rate
        hi = seg.end * rate
        if not math.isfinite(hi) or round(hi) > len(audio.samples):
            raise InputError(
                f"segment [{seg.start}, {seg.end}) ends after the audio ({audio.duration} s)"
            )
        pieces.append(audio.samples[round(seg.start * rate) : round(hi)])
    return np.concatenate(pieces)


@dataclass
class Utterance:
    speaker_id: str
    class_label: int
    utterance_index: int
    samples: np.ndarray
    sample_rate: int = 8000


def cut_utterances(
    samples,
    speaker_id: str,
    class_label: int,
    sample_rate: int = 8000,
    seconds: float = UTTERANCE_SECONDS,
    start_index: int = 0,
) -> list[Utterance]:
    """Cut floor(len/seconds) consecutive fixed-length utterances; rest dropped.

    An utterance shorter than one log-mel analysis window raises ConfigError.
    """
    samples = np.asarray(samples, dtype=np.float64)
    size = int(round(seconds * sample_rate))
    if size < WINDOW:
        raise ConfigError(f"utterance length {seconds} s is under one {WINDOW}-sample window")
    count = len(samples) // size
    return [
        Utterance(
            speaker_id=speaker_id,
            class_label=class_label,
            utterance_index=start_index + i,
            samples=samples[i * size : (i + 1) * size],
            sample_rate=sample_rate,
        )
        for i in range(count)
    ]


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
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def _count_tree(utterances, speaker_splits) -> dict:
    splits: dict = {}
    for utt in utterances:
        split = speaker_splits[utt.speaker_id]
        role, gender = role_of(utt.class_label), gender_of(utt.class_label)
        node = splits.setdefault(
            split,
            {"speakers": set(), "utterances": 0, "classes": {}},
        )
        node["speakers"].add(utt.speaker_id)
        node["utterances"] += 1
        cls = node["classes"].setdefault(
            role, {"speakers": set(), "utterances": 0, "genders": {}}
        )
        cls["speakers"].add(utt.speaker_id)
        cls["utterances"] += 1
        gnode = cls["genders"].setdefault(gender, {"speakers": set(), "utterances": 0})
        gnode["speakers"].add(utt.speaker_id)
        gnode["utterances"] += 1

    def finalize(node):
        for key, value in node.items():
            if isinstance(value, dict):
                finalize(value)
            elif isinstance(value, set):
                node[key] = len(value)

    finalize(splits)
    return splits


def write_corpus(utterances, split_assignment, root: str) -> CorpusManifest:
    """Write feature files into the corpus tree and return the manifest.

    split_assignment maps split name -> iterable of speaker ids; a speaker
    in two splits raises SplitLeakError, an unassigned one DataError.
    Deterministic and idempotent for identical inputs.
    """
    assignment = {split: set(split_assignment.get(split, ())) for split in SPLITS}
    overlap = assignment["train"] & assignment["validation"]
    if overlap:
        raise SplitLeakError(f"speakers in both splits: {sorted(overlap)}")
    speaker_splits = {spk: split for split in SPLITS for spk in assignment[split]}

    ordered = sorted(utterances, key=lambda u: (u.speaker_id, u.utterance_index))
    for utt in ordered:
        if utt.speaker_id not in speaker_splits:
            raise DataError(f"speaker {utt.speaker_id} has no split assignment")

    for utt in ordered:
        split = speaker_splits[utt.speaker_id]
        leaf = os.path.join(
            root, split, role_of(utt.class_label), gender_of(utt.class_label), utt.speaker_id
        )
        os.makedirs(leaf, exist_ok=True)
        spec = log_mel_spectrogram(AudioBuffer(utt.samples, utt.sample_rate))
        save_features(os.path.join(leaf, f"{utt.utterance_index}.npy"), spec.values)

    used = {u.speaker_id for u in ordered}
    manifest = CorpusManifest(
        splits=_count_tree(ordered, speaker_splits),
        speaker_splits={s: speaker_splits[s] for s in sorted(used)},
    )
    os.makedirs(root, exist_ok=True)
    manifest.save(os.path.join(root, "manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# end-to-end preparation

@dataclass
class PrepareResult:
    manifest: CorpusManifest | None
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
    shuffle of the retained speaker list. Bad numbers raise ConfigError first.
    """
    if not 0.0 <= val_fraction <= 1.0:
        raise ConfigError(f"validation fraction must be in [0, 1], got {val_fraction}")
    if not 0.0 < utterance_seconds < math.inf:
        raise ConfigError(f"utterance length must be positive and finite, got {utterance_seconds}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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

    utterances = []
    next_index: dict[str, int] = {}
    for call, sides in kept:
        audio = audio_loader(call)
        for side in sides:
            if side.speaker_id not in retained:
                continue
            cut = cut_utterances(
                segment_samples(audio, side.segments),
                side.speaker_id,
                side.class_label,
                sample_rate=audio.sample_rate,
                seconds=utterance_seconds,
                start_index=next_index.get(side.speaker_id, 0),
            )
            next_index[side.speaker_id] = next_index.get(side.speaker_id, 0) + len(cut)
            utterances.extend(cut)

    speakers = sorted({u.speaker_id for u in utterances})
    if not speakers:
        return PrepareResult(None, [c for c, _s in kept], rejections, dropped)

    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    n_val = int(round(val_fraction * len(speakers)))
    assignment = {"validation": set(order[:n_val]), "train": set(order[n_val:])}
    manifest = write_corpus(utterances, assignment, out_root)
    return PrepareResult(manifest, [c for c, _s in kept], rejections, dropped)
