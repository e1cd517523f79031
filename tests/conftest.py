import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from callseg.audio import AudioBuffer, save_wav
from callseg.dbas import SPLITS
from callseg.synth import SynthSpec, synth_corpus
from callseg.training import scan_corpus


def make_tone(seconds=10.0, freq=440.0, rate=8000, amplitude=0.5):
    t = np.arange(int(round(seconds * rate))) / rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq * t), rate)


def write_tone_wav(path, seconds=10.0, freq=440.0, rate=8000):
    buffer = make_tone(seconds=seconds, freq=freq, rate=rate)
    save_wav(str(path), buffer)
    return buffer


def tree_digest(root):
    """SHA-256 over every file's relative path and bytes under ``root``, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def assert_tree_matches_manifest(root):
    """Each split's speakers and utterance count on disk are those of ``manifest.json``."""
    manifest = json.loads(Path(root, "manifest.json").read_text())
    for split in SPLITS:
        items = scan_corpus(str(root), split)
        assert len(items) == manifest["splits"].get(split, {"utterances": 0})["utterances"]
        assert {item.speaker_id for item in items} == {
            speaker for speaker, s in manifest["speaker_splits"].items() if s == split}


def write_half_run(root):
    """A corpus root as a failed re-run leaves it: both splits hold speakers, no manifest.json.

    A synth run, then a second one whose 3rd speaker move raises.
    """
    spec = SynthSpec(train_speakers_per_class=1, val_speakers_per_class=1,
                     utterances_per_speaker=2, utterance_seconds=0.5)
    synth_corpus(spec, seed=1, out_root=str(root))
    real, moves = os.renames, 0

    def failing(src, dst):
        nonlocal moves
        moves += 1
        if moves == 3:
            raise PermissionError("speaker move 3 refused")
        real(src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "renames", failing)
        with pytest.raises(PermissionError):
            synth_corpus(spec, seed=2, out_root=str(root))
    assert all(scan_corpus(str(root), split) for split in SPLITS)
    assert not os.path.exists(os.path.join(root, "manifest.json"))


def rewrite_checkpoint_header(path, edit):
    """Replace a checkpoint's JSON header by ``edit(header)``, keeping the parameters."""
    raw = Path(path).read_bytes()
    n = int.from_bytes(raw[8:12], "little")
    new = json.dumps(edit(json.loads(raw[12 : 12 + n]))).encode()
    Path(path).write_bytes(raw[:8] + len(new).to_bytes(4, "little") + new + raw[12 + n :])


@pytest.fixture
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    write_tone_wav(path)
    return str(path)
