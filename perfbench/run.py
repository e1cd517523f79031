#!/usr/bin/env python3
"""Run one callseg benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload analyze-default --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the next operation starts only after
the previous one returned. Inputs are made from ``--seed`` and set up
several times in a child process (``setup_s`` is the median), so that the
memory synthesis takes stays out of ``peak_rss_mb``. Operations then run in
whole cycles of the workload's fixed input list until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics from the traced ones; the ratio of the two cycle times is
the tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and the run record. Records and spans are also
written under ``.perfbench_out/`` in the checkout.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads OpenBLAS (main imports it later): one BLAS thread
# keeps the single benchmark process on one CPU, within the CPU count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
INPUTS_FILE = "inputs.json"
# Nearest-rank percentile of call_tail_s. Fixed rather than "the highest
# percentile with ten samples beyond it": runs last a fixed time over a fixed
# cycle of inputs, so that percentile would move with the code's speed.
TAIL_PERCENTILE = 90
CONTENDED_CPU_SHARE = 0.85


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import callseg from this checkout's src/, never from an installed copy."""
    if not (SRC / "callseg" / "__init__.py").is_file():
        fail(f"no callseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import callseg

    if Path(callseg.__file__).resolve().parent != (SRC / "callseg").resolve():
        fail(f"imported callseg from {callseg.__file__}, not from {SRC}")


def openblas_info():
    """(runtime thread count, config string) of the loaded OpenBLAS, if found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = config = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and threads is None:
                    get_threads.restype = ctypes.c_int
                    threads = get_threads()
                if get_config is not None and config is None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
        if threads is not None:
            return threads, config
    return None, None


def git_commit(root):
    """HEAD of the checkout when it is a git repository, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_ms():
    """Median time of a fixed numpy kernel that calls no callseg code.

    Taken before and after measuring, it shows how fast the machine itself
    ran, so a slow phase of the host can be told apart from a slow change.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    frames = rng.standard_normal((1000, 256))
    weights = rng.random((129, 96))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(4):
            spectrum = np.fft.rfft(frames, axis=1)
            np.log((spectrum.real ** 2 + spectrum.imag ** 2) @ weights + 1e-10)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def build_inputs(workload, seed, workdir):
    """Set up SETUP_REPEATS times into a fresh workdir; the last set stays.

    Runs in the setup child. Writes the times and the workload's input
    description to INPUTS_FILE in the workdir.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(seed, str(workdir))
        times.append(time.perf_counter() - start)
    (workdir / INPUTS_FILE).write_text(json.dumps({"setup_times": times, "inputs": inputs}))


def set_up(workload, seed, workdir):
    """Build the inputs in a child process and load them here; returns the setup times.

    Synthesis holds whole calls and corpora in memory. Doing it in a child
    keeps that out of this process, whose peak resident set is
    ``peak_rss_mb``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--seconds", "0", "--setup-into", str(workdir)]
    try:
        proc = subprocess.run(cmd, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"setup took longer than {SETUP_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"setup exited with code {proc.returncode}")
    built = json.loads((workdir / INPUTS_FILE).read_text())
    workload.load(str(workdir), built["inputs"])
    return built["setup_times"]


def check_reference(workload, references):
    """Run the fixed reference inputs; returns their failed checks."""
    try:
        values, problems = workload.reference_values()
        return problems + workload.compare_reference(values, references[workload.name])
    except Exception as exc:  # any error in the reference run is a failed check
        return [f"reference: {type(exc).__name__}: {exc}"]


def measure(workload, seconds, tracer):
    """Whole cycles until ``seconds`` passed; with a tracer, every other cycle is traced.

    Returns (results, cycle_walls, wall seconds, rusage at start, rusage at end),
    where results and cycle_walls are keyed by whether the cycle was traced.
    """
    from spans import ROOT_SPAN
    from workloads import OpResult

    results = {False: [], True: []}
    cycle_walls = {False: [], True: []}
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    wall_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycle_walls[False]) > len(cycle_walls[True])
        if traced:
            tracer.install()
            if hasattr(workload, "instrument"):
                workload.instrument(tracer)
        start = time.perf_counter()
        try:
            for item in workload.cycle():
                try:
                    if traced:
                        tracer.op_id += 1
                        result = tracer.call(ROOT_SPAN, workload.run_op, item, tracer)
                    else:
                        result = workload.run_op(item, None)
                except Exception as exc:  # a raising operation failed; the loop goes on
                    result = OpResult(0.0, 0.0, 0, {}, [f"{type(exc).__name__}: {exc}"])
                results[traced].append(result)
        finally:
            if traced:
                tracer.uninstall()
        cycle_walls[traced].append(time.perf_counter() - start)
        if time.perf_counter() - wall_start >= seconds and (tracer is None or cycle_walls[True]):
            break
    wall = time.perf_counter() - wall_start
    return results, cycle_walls, wall, usage_start, resource.getrusage(resource.RUSAGE_SELF)


def end_to_end(results, setup_times):
    """The BENCHMARK.json end-to-end metrics from untraced results, plus latency facts."""
    ok = [r for r in results if not r.problems]
    latencies = sorted(r.seconds for r in ok)
    n = len(latencies)
    busy = sum(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * n)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "audio_s_per_s": sum(r.audio_s for r in ok) / busy if busy else 0.0,
        "samples_per_s": sum(r.samples for r in ok) / busy if busy else 0.0,
        "call_p50_s": statistics.median(latencies) if n else 0.0,
        "call_tail_s": latencies[rank - 1] if n else 0.0,
    }
    return metrics, {"latency_samples": n, "tail_percentile": TAIL_PERCENTILE,
                     "beyond_tail": n - rank}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path,
                        help="only build the inputs into this directory (the setup child)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import_library()
    import numpy as np

    from spans import OP_COUNTS, Tracer, per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_into is not None:
        build_inputs(workload, args.seed, args.setup_into)
        return 0
    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    problems = []
    attempted = 0
    try:
        setup_times = set_up(workload, args.seed, workdir)
        # The reference check doubles as the warm-up before timing starts.
        if hasattr(workload, "reference_values"):
            attempted += 1
            problems += check_reference(workload, references)
            failed = 1 if problems else 0
        else:
            workload.warm_up()
            failed = 0
        load_before, calibration_before = os.getloadavg(), calibration_ms()
        results, cycle_walls, wall, usage_start, usage = measure(workload, args.seconds, tracer)
        load_after, calibration_after = os.getloadavg(), calibration_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = results[False] + results[True]
    attempted += len(all_results)
    failed += sum(1 for r in all_results if r.problems)
    problems += [p for r in all_results for p in r.problems]
    e2e, latency_info = end_to_end(results[False], setup_times)

    if tracer is not None:
        op_counts = dict.fromkeys(OP_COUNTS, 0.0)
        for r in results[True]:
            for key, value in r.counts.items():
                op_counts[key] += value
        metrics = per_layer_metrics(
            tracer, op_counts, len(cycle_walls[True]),
            traced_cycle_s=statistics.mean(cycle_walls[True]),
            untraced_cycle_s=statistics.mean(cycle_walls[False]),
        )
        tracer.write(outdir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = e2e
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    usable_cpus = len(os.sched_getaffinity(0))
    user_s = usage.ru_utime - usage_start.ru_utime
    sys_s = usage.ru_stime - usage_start.ru_stime
    cpu_share = (user_s + sys_s) / wall
    blas_runtime, blas_config = openblas_info()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime,
        "openblas": blas_config,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "measured_wall_s": round(wall, 3),
        "user_s": round(user_s, 3),
        "sys_s": round(sys_s, 3),
        "minor_faults": usage.ru_minflt - usage_start.ru_minflt,
        "calibration_ms": [round(calibration_before, 4), round(calibration_after, 4)],
        "cpu_share": round(cpu_share, 4),
        "contended": load_before[0] >= usable_cpus - 0.5 or cpu_share < CONTENDED_CPU_SHARE,
        "setup_runs_s": setup_times,
        "cycles_untraced": len(cycle_walls[False]),
        "cycles_traced": len(cycle_walls[True]),
        "error_rate": failed / attempted,
        **latency_info,
        "notes": sorted({r.note for r in all_results if r.note}),
        "problems": problems[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations attempted, {failed} failed")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {e2e_units[name]}")
    print(f"  {'error_rate':<16} {record['error_rate']:>14.6g} ratio")
    val_accs = [r.counts["training.val_acc"] for r in results[False]
                if "training.val_acc" in r.counts]
    if val_accs:
        print(f"  {'val_acc':<16} {statistics.mean(val_accs):>14.6g} ratio "
              f"({'; '.join(record['notes'])})")
    print(f"  call_tail_s is the nearest-rank p{TAIL_PERCENTILE} of "
          f"{latency_info['latency_samples']} untraced operations "
          f"({latency_info['beyond_tail']} beyond it)")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print("record " + json.dumps(record))
    (outdir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "end_to_end": e2e}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
