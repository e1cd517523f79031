"""In-memory span tracer that wraps callseg callables from the outside.

A traced cycle installs wrappers on the module attributes the library's
own code looks up at call time (``callseg.analyze.log_mel_spectrogram``
is the name ``analyze_call`` binds, ``callseg.dbas.log_mel_spectrogram``
the one ``write_corpus`` binds) and on the layer instances of each model
the benchmark builds. Nothing under ``src/`` is changed; uninstalling
restores every attribute, so untraced cycles run the pristine code.

Each span is ``[name, start, end, parent_index, op_id]``. Spans stay in
memory and are written once, when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

import callseg.analyze
import callseg.audio
import callseg.dbas
import callseg.training

ROOT_SPAN = "bench.op"
BLOCK_KINDS = ("conv", "act", "pool", "drop")


def _frames(args, out):
    return {"features.frames": getattr(out, "values", out).shape[-1]}


# (module, attribute, span name, counter). The benchmark calls these through
# the module attribute, and library code calls the analyze/dbas/training
# ones through its own module globals, so patching the attribute traces both.
BOUND_CALLABLES = (
    (callseg.audio, "load_audio", "audio.load",
     lambda args, out: {"audio.bytes": os.path.getsize(args[0])}),
    (callseg.dbas, "read_segments_csv", "dbas.read", None),
    (callseg.dbas, "read_calls_csv", "dbas.read", None),
    (callseg.dbas, "prepare_corpus", "dbas", None),
    (callseg.dbas, "log_mel_spectrogram", "features.logmel", _frames),
    (callseg.dbas, "save_features", "features.save",
     lambda args, out: {"features.save_bytes": os.path.getsize(args[0])}),
    (callseg.analyze, "analyze_call", "analyze", None),
    (callseg.analyze, "build_speaker_streams", "analyze.streams", None),
    (callseg.analyze, "log_mel_spectrogram", "features.logmel", _frames),
    (callseg.training, "train", "training", None),
    (callseg.training, "load_features", "features.load", None),
    (callseg.training, "adam_step", "optim.adam", None),
)


# Per-layer counts computed from array shapes at the wrapped boundary, so
# they repeat exactly and do not depend on how a layer computes inside.
def _conv_flops(stem, layer, args, out, backward):
    # multiply-add flops of the 3x3 im2col GEMMs; backward runs two of them
    c_out, c_in = layer.kernels.shape[:2]
    size = np.asarray(args[0]).size
    return {f"{stem}.flops": (4 * 9 * c_in if backward else 2 * 9 * c_out) * size}


def _act_elems(stem, layer, args, out, backward):
    return {f"{stem}.elems": np.asarray(args[0]).size}


def _pool_bytes(stem, layer, args, out, backward):
    return {f"{stem}.bytes": np.asarray(args[0]).nbytes + np.asarray(out).nbytes}


def _rnn_steps(stem, layer, args, out, backward):
    return {} if backward else {f"{stem}.steps": np.asarray(args[0]).size // layer.in_features}


LAYER_COUNTERS = {"conv": _conv_flops, "act": _act_elems, "pool": _pool_bytes}


class Tracer:
    """Collects spans and shape counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper, instance):
        self._patches.append((owner, attr, getattr(owner, attr), instance))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the bound library callables; models are wrapped as they are built."""
        for module, attr, name, counter in BOUND_CALLABLES:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, counter), False)

    def instrument_model(self, model):
        """Wrap a model's forward/backward and every layer it holds."""
        for attr, name in (("forward", "model.forward"), ("backward", "model.backward")):
            self._patch(model, attr, self._wrap(getattr(model, attr), name, None), True)
        # Direct attribute access: a model that renames its layers must fail
        # here rather than report zeros.
        for i, block in enumerate(model.blocks, 1):
            for kind, layer in zip(BLOCK_KINDS, block, strict=True):
                self._instrument_layer(layer, f"layers.{kind}{i}", LAYER_COUNTERS.get(kind))
        self._instrument_layer(model.rnn1, "recurrent.rnn1", _rnn_steps)
        self._instrument_layer(model.rnn2, "recurrent.rnn2", _rnn_steps)
        self._instrument_layer(model.head, "layers.head", None)

    def _instrument_layer(self, layer, stem, counter):
        for attr, suffix, backward in (
            ("forward", "fwd", False),
            ("backward", "bwd", True),
            ("backward_from_label", "bwd", True),
        ):
            method = getattr(layer, attr, None)
            if method is None:
                continue
            count = None
            if counter is not None:
                def count(args, out, _layer=layer, _backward=backward):
                    return counter(stem, _layer, args, out, _backward)
            self._patch(layer, attr, self._wrap(method, f"{stem}.{suffix}", count), True)

    def uninstall(self):
        while self._patches:
            owner, attr, original, instance = self._patches.pop()
            if instance:
                delattr(owner, attr)  # falls back to the class attribute
            else:
                setattr(owner, attr, original)

    def span_totals(self):
        """name -> [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _parent, _op), children in zip(self.spans, child_time):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children
        return totals

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# metric -> span whose self time it reports (the span itself for leaves)
SELF_TIME = {
    **{f"layers.{kind}{i}.{d}_s": f"layers.{kind}{i}.{d}"
       for i in range(1, 5) for kind in BLOCK_KINDS for d in ("fwd", "bwd")},
    "layers.head.fwd_s": "layers.head.fwd",
    "layers.head.bwd_s": "layers.head.bwd",
    **{f"recurrent.rnn{i}.{d}_s": f"recurrent.rnn{i}.{d}" for i in (1, 2) for d in ("fwd", "bwd")},
    "optim.adam_s": "optim.adam",
    "training.self_s": "training",
    "features.logmel_s": "features.logmel",
    "features.save_s": "features.save",
    "features.load_s": "features.load",
    "audio.load_s": "audio.load",
    "dbas.read_s": "dbas.read",
    "dbas.self_s": "dbas",
    "analyze.streams_s": "analyze.streams",
    "analyze.self_s": "analyze",
    "bench.self_s": ROOT_SPAN,
}

CALLS = {
    "model.forward_calls": "model.forward",
    "model.backward_calls": "model.backward",
    "optim.adam_calls": "optim.adam",
    "features.logmel_calls": "features.logmel",
    "features.load_calls": "features.load",
    "audio.load_calls": "audio.load",
    "dbas.read_calls": "dbas.read",
}

SHAPE_COUNTS = (
    [f"layers.conv{i}.flops" for i in range(1, 5)]
    + [f"layers.act{i}.elems" for i in range(1, 5)]
    + [f"layers.pool{i}.bytes" for i in range(1, 5)]
    + ["recurrent.rnn1.steps", "recurrent.rnn2.steps",
       "features.frames", "features.save_bytes", "audio.bytes"]
)


# outcome counts the benchmark reads from each operation's result
OP_COUNTS = ("analyze.windows", "dbas.calls_attempted", "dbas.calls_accepted",
             "dbas.utterances", "training.epochs", "training.samples",
             "training.val_acc", "training.runs")


def per_layer_metrics(tracer, op_counts, cycles, traced_cycle_s, untraced_cycle_s):
    """Per-cycle per-layer values from the traced cycles of one run.

    ``trace.coverage`` is the share of a traced cycle's wall time that the
    self-time metrics account for; ``trace.overhead_ratio`` compares traced
    and untraced cycle times of the same run.
    """
    totals = tracer.span_totals()

    def field(name, index):
        return totals[name][index] if name in totals else 0.0

    out = {metric: field(span, 2) / cycles for metric, span in SELF_TIME.items()}
    out.update({metric: field(span, 0) / cycles for metric, span in CALLS.items()})
    for name in ("model.forward", "model.backward"):
        out[f"{name}_s"] = field(name, 1) / cycles
    out["model.self_s"] = (field("model.forward", 2) + field("model.backward", 2)) / cycles
    out.update({key: tracer.counts.get(key, 0) / cycles for key in SHAPE_COUNTS})
    out.update({key: value / cycles for key, value in op_counts.items()})
    runs = out.pop("training.runs")
    out["training.val_acc"] = out["training.val_acc"] / runs if runs else 0.0
    attempted = out["dbas.calls_attempted"]
    out["dbas.accept_ratio"] = out["dbas.calls_accepted"] / attempted if attempted else 0.0
    accounted = sum(out[m] for m in SELF_TIME) + out["model.self_s"]
    out["trace.coverage"] = accounted / traced_cycle_s
    out["trace.overhead_ratio"] = traced_cycle_s / untraced_cycle_s - 1.0
    out["trace.spans"] = len(tracer.spans) / cycles
    return out
