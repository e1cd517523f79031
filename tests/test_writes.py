"""Every file the package writes goes through errors.atomic_write.

Only it and the corpus writer rename or delete files.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import callseg
from callseg.audio import AudioBuffer, save_wav
from callseg.dbas import CorpusManifest
from callseg.features import save_features
from callseg.training import TrainHistory

SRC = Path(callseg.__file__).parent

WRITERS = {
    "save_features": lambda path: save_features(path, np.ones((2, 3))),
    "save_wav": lambda path: save_wav(path, AudioBuffer(np.zeros(100), 8000)),
    "history_csv": lambda path: TrainHistory([1.0], [0.5], [1.0], [0.5], 1).save_csv(path),
    "manifest": lambda path: CorpusManifest({"train": {}}, {"spk": "train"}).save(path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n")

    def failing_replace(src, dst):
        assert os.path.getsize(src) > 0  # the new content was written in full
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](str(path))
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def calls_in(path):
    """(enclosing class and function names, outermost first; node) of each call in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    scope = {tree: ()}
    for node in ast.walk(tree):  # breadth first, so a node's scope is known before its children
        inner = scope[node]
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner += (node.name,)
        for child in ast.iter_child_nodes(node):
            scope[child] = inner
        if isinstance(node, ast.Call):
            yield scope[node], node


def opens_for_writing(path):
    """(file name, enclosing function) of each open() in ``path`` whose mode may write."""
    found = []
    for scope, node in calls_in(path):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "open":
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        reads = mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                 and not set(mode.value) & set("wax+"))
        if not reads:
            found.append((path.name, scope[-1] if scope else None))
    return found


def test_one_function_opens_files_for_writing():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in opens_for_writing(path)]
    assert found == [("errors.py", "atomic_write")]


MOVES = {("os", "rename"), ("os", "renames"), ("os", "replace"), ("os", "unlink"),
         ("os", "remove"), ("shutil", "rmtree")}


def test_only_the_writers_move_or_delete_files():
    """Renames and deletions run only in errors.atomic_write and CorpusWriter's methods."""
    owners = {
        (path.name, scope[:1])
        for path in sorted(SRC.glob("*.py"))
        for scope, node in calls_in(path)
        if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in MOVES
    }
    assert owners == {("errors.py", ("atomic_write",)), ("dbas.py", ("CorpusWriter",))}
