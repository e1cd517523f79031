"""Command-line entry point for the whole pipeline.

One binary, six subcommands: features, prepare, synth, train, evaluate,
analyze. Exit codes: 0 success, 1 internal failure, 2 invalid input or
configuration. Every command echoes its effective configuration as a JSON
line so a run can be reproduced exactly. Printed lines are best-effort: a
closed stdout or stderr silences them but does not change the work or the
exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from .analyze import analyze_call
from .audio import load_audio
from .dbas import (
    SPLITS, UTTERANCE_SECONDS, CorpusManifest, label_names, prepare_corpus, read_calls_csv,
    read_segments_csv,
)
from .errors import CallsegError, ConfigError, OutputPathError, atomic_write, read_json_object
from .features import load_features, log_mel_spectrogram, save_features
from .metrics import confusion_to_csv, scores_to_json
from .model import ModelConfig, build_crnn, load_checkpoint, save_checkpoint
from .synth import SynthSpec, synth_corpus
from .training import TrainConfig, evaluate, split_items, train


def _say(line: str, err: bool = False) -> None:
    """Print a line to stdout (stderr with ``err``), best-effort.

    A closed stream is replaced by None, which print and the exit-time flush
    skip, so the command still finishes its work and exits with its code.
    """
    name = "stderr" if err else "stdout"
    try:
        print(line, file=getattr(sys, name), flush=True)
    except BrokenPipeError:
        setattr(sys, name, None)


def _echo(command: str, payload: dict) -> None:
    _say(json.dumps({"command": command, "effective_config": payload}, sort_keys=True))


def _blas_threads():
    """The runtime thread count of the loaded OpenBLAS, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for library in libraries:
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_threads is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    return get_threads()
    return None


def _check_output_paths(*paths, directory=False, inputs=()) -> None:
    """OutputPathError unless every given path names a file its directory lets us create.

    With ``directory`` the paths name directory trees: each must be a
    directory already, or its nearest existing ancestor a writable one.
    Two paths naming the same file fail too, as one would overwrite the
    other, and so does a path naming one of the command's ``inputs``.
    Commands call this before any work, so a typo fails fast; empty
    paths are skipped.
    """
    paths = [path for path in paths if path]
    real = [os.path.realpath(path) for path in paths]
    read = {os.path.realpath(path) for path in inputs if path}
    for i, path in enumerate(paths):
        parent = path if directory else os.path.dirname(path) or "."
        while directory and not os.path.exists(parent):  # a tree gets its missing levels made
            parent = os.path.dirname(parent) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise OutputPathError(f"cannot write {path}: {parent} is not a writable directory")
        if not directory and os.path.isdir(path):
            raise OutputPathError(f"cannot write {path}: it is a directory")
        if real[i] in real[:i]:
            raise OutputPathError(f"cannot write {path}: it is the same file as another output")
        if real[i] in read:
            raise OutputPathError(f"cannot write {path}: it is an input of this command")


def _cmd_features(args) -> int:
    _echo("features", {"in": args.wav, "out": args.out})
    _check_output_paths(args.out, inputs=[args.wav])
    buffer = load_audio(args.wav)
    spec = log_mel_spectrogram(buffer)
    save_features(args.out, spec.values)
    _say(f"wrote {args.out} shape {spec.values.shape}")
    return 0


def _cmd_prepare(args) -> int:
    _echo("prepare", {"segments": args.segments, "calls": args.calls, "audio": args.audio,
                      "out": args.out, "val_fraction": args.val_fraction, "seed": args.seed,
                      "utterance_seconds": args.utterance_seconds})
    _check_output_paths(args.out, directory=True)
    calls = read_calls_csv(args.calls)
    segments_by_call = {}
    for call in calls:
        path = os.path.join(args.segments, f"{call.call_id}.csv")
        if os.path.isfile(path):
            segments_by_call[call.call_id] = read_segments_csv(path)

    def loader(call):
        return load_audio(os.path.join(args.audio, call.audio_path))

    result = prepare_corpus(
        calls, segments_by_call, loader, args.out,
        val_fraction=args.val_fraction, seed=args.seed,
        utterance_seconds=args.utterance_seconds,
    )
    for call_id, reason in result.rejections:
        _say(f"rejected {call_id}: {reason}")
    for speaker in sorted(result.dropped_speakers):
        _say(f"dropped speaker {speaker}: inconsistent gender labels")
    if not result.manifest.speaker_splits:
        _say("no utterances produced")
    _print_manifest(result.manifest)
    return 0


def _print_manifest(manifest: CorpusManifest) -> None:
    for split in sorted(manifest.splits):
        node = manifest.splits[split]
        _say(f"{split}: {node['speakers']} speakers, {node['utterances']} utterances")
        for role in sorted(node["classes"]):
            cls = node["classes"][role]
            genders = ", ".join(
                f"{g}: {v['speakers']}-{v['utterances']}"
                for g, v in sorted(cls["genders"].items())
            )
            _say(f"  {role}: {cls['speakers']} speakers, {cls['utterances']} utterances ({genders})")


def _cmd_synth(args) -> int:
    spec = SynthSpec.from_json_file(args.spec)
    _echo("synth", {"spec": spec.to_dict(), "seed": args.seed, "out": args.out})
    _check_output_paths(args.out, directory=True)
    manifest = synth_corpus(spec, args.seed, args.out)
    _print_manifest(manifest)
    return 0


def _parse_int_list(text: str, expected: int, flag: str):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != expected:
        raise ConfigError(f"{flag} needs {expected} comma-separated integers, got {text!r}")
    return parts


def _resolve_train_config(args):
    sections = {"model": {}, "train": {}}
    for key, value in (read_json_object(args.config) if args.config else {}).items():
        if key not in sections or not isinstance(value, dict):
            raise ConfigError(f"{args.config}: {key!r} is not a 'model' or 'train' object")
        sections[key] = dict(value)
    model_cfg, train_cfg = sections["model"], sections["train"]

    if args.classes is not None:
        model_cfg["n_classes"] = args.classes
    if args.rnn is not None:
        model_cfg["rnn_kind"] = args.rnn
    if args.filters is not None:
        model_cfg["conv_filters"] = _parse_int_list(args.filters, 4, "--filters")
    if args.hidden is not None:
        model_cfg["rnn_hidden"] = _parse_int_list(args.hidden, 2, "--hidden")
    if args.dropout is not None:
        model_cfg["dropout_p"] = args.dropout

    for flag, key in (
        ("learning_rate", "learning_rate"), ("batch_size", "batch_size"),
        ("epochs", "max_epochs"), ("patience", "patience"), ("seed", "seed"),
    ):
        value = getattr(args, flag)
        if value is not None:
            train_cfg[key] = value

    if "input_shape" not in model_cfg:
        items = split_items(args.corpus, "train")
        model_cfg["input_shape"] = list(load_features(items[0].path).shape)

    return ModelConfig.from_dict(model_cfg), TrainConfig.from_dict(train_cfg)


def _cmd_train(args) -> int:
    history_path = args.history or args.out + ".history.csv"
    _check_output_paths(args.out, history_path, inputs=[args.config])
    model_config, train_config = _resolve_train_config(args)
    # BLAS sums a batch inside its GEMMs, so the thread count is part of what a seed reproduces
    _echo("train", {"corpus": args.corpus, "out": args.out, "history": history_path,
                    "blas_threads": _blas_threads(), "model": model_config.to_dict(),
                    "train": train_config.to_dict()})
    model = build_crnn(model_config, seed=train_config.seed)
    model, history = train(model, args.corpus, train_config)
    history.save_csv(history_path)
    save_checkpoint(model, args.out)  # last, so the file later commands read appears last
    _say(
        f"trained {len(history)} epochs; best epoch {history.best_epoch} "
        f"val_acc {history.val_acc[history.best_epoch - 1]:.4f}; "
        f"checkpoint {args.out}; history {history_path}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    _echo("evaluate", {"corpus": args.corpus, "split": args.split, "model": args.model,
                       "out": args.out, "confusion_csv": args.confusion_csv})
    _check_output_paths(args.out, args.confusion_csv, inputs=[args.model])
    model = load_checkpoint(args.model)
    result = evaluate(model, args.corpus, args.split)
    names = label_names(model.config.n_classes)
    report = scores_to_json(result.confusion, names)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(report + "\n")
    if args.confusion_csv:
        with atomic_write(args.confusion_csv) as fh:
            fh.write(confusion_to_csv(result.confusion, names))
    _say(report)
    _say(f"loss {result.loss:.6f} accuracy {result.accuracy:.6f}")
    return 0


def _cmd_analyze(args) -> int:
    _echo("analyze", {"wav": args.wav, "segments": args.segments, "model": args.model,
                      "out": args.out, "windows_csv": args.windows_csv, "shift": args.shift})
    _check_output_paths(args.out, args.windows_csv,
                        inputs=[args.model, args.wav, args.segments])
    model = load_checkpoint(args.model)
    audio = load_audio(args.wav)
    segments = read_segments_csv(args.segments)
    analysis = analyze_call(audio, segments, model, shift_seconds=args.shift)
    report = analysis.to_json()
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(report + "\n")
    if args.windows_csv:
        with atomic_write(args.windows_csv) as fh:
            fh.write(analysis.windows_csv())
    _say(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callseg",
        description="Call-center audio segment classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract a log-mel feature file from a WAV")
    p.add_argument("--in", dest="wav", required=True, help="input mono PCM WAV")
    p.add_argument("--out", required=True, help="output NPY feature file")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("prepare", help="run the annotation pipeline into a corpus tree")
    p.add_argument("--segments", required=True, help="directory of <call_id>.csv segment files")
    p.add_argument("--calls", required=True, help="call metadata CSV")
    p.add_argument("--audio", required=True, help="directory audio_path entries are relative to")
    p.add_argument("--out", required=True, help="corpus root to write")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterance-seconds", type=float, default=UTTERANCE_SECONDS)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--spec", required=True, help="JSON corpus sizing spec")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="corpus root to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--config", help="JSON config file with model/train sections")
    p.add_argument("--classes", type=int, choices=(2, 4))
    p.add_argument("--rnn", choices=("gru", "lstm"))
    p.add_argument("--filters", help="four conv filter counts, comma separated")
    p.add_argument("--hidden", help="two recurrent hidden sizes, comma separated")
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=SPLITS, default="validation")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--confusion-csv", help="confusion matrix CSV path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", help="classify each speaker in one call")
    p.add_argument("--wav", required=True)
    p.add_argument("--segments", required=True, help="segment annotation CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--windows-csv", help="per-window probability CSV path")
    p.add_argument("--shift", type=float, default=1.0, help="window shift in seconds")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CallsegError as exc:
        _say(f"error: {exc}", err=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _say(f"internal error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
