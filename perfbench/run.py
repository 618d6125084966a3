"""Repository benchmark: end-to-end and per-layer metrics of what users run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-sweep --seed 7 --seconds 12 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``fig5-sweep`` -- Fig. 5a/5b/5c vulnerability sweeps on DVS-Gesture,
  in-process, one forked child per iteration.
* ``fig8-mitigation`` -- ``repro run fig8 --dataset mnist``, fresh process.
* ``campaign-resume`` -- ``repro campaign counts --dataset nmnist --resume``
  against a cache primed in set-up, fresh process.

The run sets the workload up (set-up is repeated where affordable and
reported as ``setup_s``), then repeats iterations until ``--seconds`` have
passed (at least one), checking each iteration's records.  ``--trace 0``
reports the end-to-end metrics (medians over the iterations).  ``--trace 1``
does the same untraced iterations, then one more with the layer wrappers of
``tracing.py`` installed, and reports the per-layer metrics of that
iteration plus a self-time table.

Everything the run writes stays under ``.perfbench/`` in the checkout:
iteration directories (removed at the end), and per run a manifest, the
result and, when traced, the spans as JSONL.  The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: A run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0

#: End-to-end metrics: (name, unit).
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def _git(*args: str):
    try:
        completed = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                   timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def manifest(workload, seconds: float, trace: bool) -> dict:
    """Where and how the numbers were taken; written beside them, never into records."""

    import numpy
    from workloads import THREAD_ENV

    status = _git("status", "--porcelain")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "pinned_sha256": workload.pin,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "engine": "fused", "backend": "numpy", "dtype": "float64", "workers": 1,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up ``workload``, then run and check its iterations; return the samples."""

    started = time.perf_counter()
    stamp = f"{workload.name}-seed{workload.seed}-trace{int(trace)}-{os.getpid()}"
    workdir = OUT_DIR / "work" / stamp
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_path = OUT_DIR / f"{stamp}.trace.jsonl"
    try:
        setup_times = workload.setup(workdir)
        samples = []
        measure_start = time.perf_counter()
        while not samples or time.perf_counter() - measure_start < seconds:
            samples.append(workload.iterate(
                workdir, None, RUN_LIMIT_S - (time.perf_counter() - started)))
            workload.check(samples[-1])
        traced = None
        if trace:
            traced = workload.iterate(workdir, trace_path,
                                      RUN_LIMIT_S - (time.perf_counter() - started))
            workload.check(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup": setup_times, "samples": samples, "traced": traced, "stamp": stamp}


def end_to_end_metrics(run: dict) -> dict:
    samples = run["samples"]
    return {
        "wall_s": statistics.median(sample.wall_s for sample in samples),
        "cpu_s": statistics.median(sample.cpu_s for sample in samples),
        "peak_rss_mb": statistics.median(sample.peak_rss_mb for sample in samples),
        "setup_s": statistics.median(run["setup"]),
    }


def report(workload, run: dict, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""

    import tracing

    attempts = run["samples"] + ([run["traced"]] if run["traced"] is not None else [])
    failed = sum(1 for sample in attempts if sample.error is not None)
    setup = run["setup"]
    print(f"set-up: {len(setup)} x [{', '.join(f'{value:.3f}' for value in setup)}] s")
    for index, sample in enumerate(attempts, start=1):
        label = "traced" if sample is run["traced"] else "iteration"
        status = "ok" if sample.error is None else f"FAILED: {sample.error}"
        print(f"{label} {index}: wall {sample.wall_s:.3f} s, cpu {sample.cpu_s:.3f} s, "
              f"peak rss {sample.peak_rss_mb:.1f} MB, sha256 {sample.digest}, {status}")
    pinned = "pinned" if workload.pin else "not pinned at this seed"
    print(f"records check: {pinned}; error_rate {failed}/{len(attempts)}")
    units = dict(END_TO_END)
    if trace:
        traced = run["traced"]
        spans, counters = (tracing.read_jsonl(traced.trace) if traced.trace.exists()
                           else ([], {}))
        traced_wall = traced.wall_s
        print("\nself time of the traced iteration:")
        print(tracing.format_self_time_table(spans, traced_wall))
        untraced_wall = statistics.median(sample.wall_s for sample in run["samples"])
        values = tracing.layer_metrics(spans, counters, traced_wall, untraced_wall)
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        moves = {name: target for name, _, _, target in tracing.PER_LAYER}
        print("\nper-layer metrics (should move):")
        for name, value in values.items():
            print(f"  {name:<36} {value:>16.6g} {units[name]:<6} {moves[name]}")
    else:
        values = end_to_end_metrics(run)
        print(f"\nend-to-end metrics (median of {len(run['samples'])} iteration(s), "
              f"set-up median of {len(setup)}):")
        for name, value in values.items():
            print(f"  {name:<12} {value:>12.4f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Children get the same treatment in workloads.child_env().
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"options: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.single_threaded()
    emit(workloads.WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    return 0


def emit(workload, seconds: float, trace: bool) -> dict:
    """Measure ``workload``, print the report and, last, the result as JSON."""

    print(f"perfbench {workload.name} seed={workload.seed} seconds={seconds:g} "
          f"trace={int(trace)}\n  ({workload.why})")
    run = measure(workload, seconds, trace)
    result = report(workload, run, trace)
    stem = OUT_DIR / run["stamp"]
    Path(f"{stem}.manifest.json").write_text(json.dumps(manifest(workload, seconds, trace),
                                                        indent=2))
    Path(f"{stem}.result.json").write_text(json.dumps(result, indent=2))
    print(f"manifest: {stem}.manifest.json")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())
