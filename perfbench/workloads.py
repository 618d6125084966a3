"""The benchmark's workloads: how each is set up, run once, and checked.

Every workload drives the public ``repro`` API or CLI exactly as a user
does, with ``--workers 1`` (the CLI default), the fused engine, the
numpy backend, float64 and one BLAS thread (see :data:`THREAD_ENV`).
One *iteration* is one user-visible run; the caller (``run.py``) repeats
iterations for the measurement window and reports medians.  Each
iteration runs in its own process (a fork of the set-up process, or a
fresh interpreter for CLI workloads), so its CPU time and peak RSS come
from ``wait4`` and every iteration starts from the same cold state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"

#: Thread-count variables of the BLAS/OpenMP runtimes.  The benchmark sets
#: each to 1 in its own process (before numpy is imported) and in every
#: child.  On a shared 2-core host a second OpenBLAS thread gives these
#: workloads no speed (the same wall time at twice the CPU time: it spins)
#: but makes every GEMM wait for whichever core the host lent out last, and
#: that made wall_s and cpu_s swing from run to run.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


@dataclasses.dataclass
class Sample:
    """One measured iteration."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    records: Path
    trace: Optional[Path] = None
    error: Optional[str] = None
    digest: Optional[str] = None


def single_threaded() -> None:
    """Give this process's BLAS/OpenMP runtimes one thread; call before numpy loads."""

    os.environ.update(dict.fromkeys(THREAD_ENV, "1"))


def child_env() -> Dict[str, str]:
    """Every child's environment: no ``REPRO_*`` knobs, one BLAS thread, ``src`` importable."""

    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_pins() -> Dict[str, Dict[str, str]]:
    """Pinned SHA-256 of the float64 records, per workload and seed."""

    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def wait_child(pid: int, timeout: float):
    """Reap ``pid``, killing it after ``timeout`` seconds.

    Returns ``(exit code, rusage, timed out)``.
    """

    watchdog = threading.Timer(max(timeout, 1.0), os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    code = os.waitstatus_to_exitcode(status)
    return code, usage, code == -signal.SIGKILL


def _usage_numbers(usage):
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_cli(argv: List[str], cwd: Path, records: str, timeout: float,
            trace: Optional[Path] = None, run_id: str = "") -> Sample:
    """Run ``python -m repro ARGV --out RECORDS`` in ``cwd`` as a fresh process.

    With ``trace`` the same CLI runs under ``traced_cli.py``, which
    installs the tracing wrappers and writes the spans to ``trace``.
    """

    argv = [*argv, "--out", records]
    if trace is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, str(HERE / "traced_cli.py"), str(trace), run_id, "--",
                   *argv]
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "cli.log", "wb") as log:
        start = time.perf_counter()
        process = subprocess.Popen(command, cwd=cwd, env=child_env(), stdout=log,
                                   stderr=subprocess.STDOUT)
        code, usage, timed_out = wait_child(process.pid, timeout)
        wall = time.perf_counter() - start
    process.returncode = code
    cpu, rss = _usage_numbers(usage)
    sample = Sample(wall, cpu, rss, records=cwd / records, trace=trace)
    if timed_out:
        sample.error = f"timed out after {timeout:.0f}s"
    elif code != 0:
        tail = (cwd / "cli.log").read_text(errors="replace")[-600:]
        sample.error = f"exit code {code}: {tail}"
    return sample


def _records(sample: Sample):
    try:
        return json.loads(sample.records.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable records: {exc}") from None


def _check_accuracies(records) -> None:
    for record in records:
        accuracy = record.get("accuracy")
        if not isinstance(accuracy, float) or not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy outside [0, 1]: {record!r}")


class Workload:
    """One benchmark workload: ``setup`` once, ``iterate`` repeatedly, ``check`` each."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pin = load_pins().get(self.name, {}).get(str(seed))
        self.reference: Optional[str] = None
        self._iterations = 0

    def setup(self, workdir: Path) -> List[float]:
        """Prepare the workload; return the seconds of each set-up repetition."""

        raise NotImplementedError

    def iterate(self, workdir: Path, trace: Optional[Path], timeout: float) -> Sample:
        raise NotImplementedError

    def validate(self, sample: Sample) -> None:
        """Raise ``ValueError`` unless the iteration's records are well formed."""

        raise NotImplementedError

    def check(self, sample: Sample) -> None:
        """Fill ``sample.digest`` and ``sample.error`` from the correctness checks."""

        if sample.error is not None:
            return
        try:
            self.validate(sample)
            sample.digest = sha256_file(sample.records)
            if self.pin is not None and sample.digest != self.pin:
                raise ValueError(f"records sha256 {sample.digest} != pinned {self.pin}")
            if self.reference is None:
                self.reference = sample.digest
            elif sample.digest != self.reference:
                raise ValueError(f"records sha256 {sample.digest} differ from earlier "
                                 f"records {self.reference}")
        except ValueError as exc:
            sample.error = str(exc)


# ---------------------------------------------------------------------------
# fig5-sweep: in-process Fig. 5a/5b/5c sweeps, one forked child per iteration
# ---------------------------------------------------------------------------
class SweepWorkload(Workload):
    """Fig. 5a + 5b + 5c sweeps on one trained baseline, fused engine, float64.

    Set-up trains the baseline ``setup_repeats`` times (each training is
    deterministic, so the last one is the model the sweeps use).  Each
    iteration forks the set-up process, so every iteration starts from the
    same trained-but-otherwise-cold state (empty plan cache, empty
    ``cache_dir``); ``wall_s`` is the time of the three sweeps.

    The iteration does what ``run_fig5a/b/c`` do (fetch the baseline, build a
    model, sweep) with one difference: the fault maps are drawn from
    :data:`MAP_SEED`, not from the workload seed.  A sweep's cost depends on
    where its faults land (which layer a map first corrupts), and over a
    grid this small that moved the time by ~8% from seed to seed; the seed
    still picks the dataset and the trained model.  At ``seed == MAP_SEED``
    the records are exactly the drivers' records.
    """

    name = "fig5-sweep"
    why = ("Fig. 5a/5b/5c DVS sweeps in process: time in the fused engine (snn.inference, "
           "systolic), autograd idle; writes the campaign cache")
    setup_repeats = 3
    #: The DVS-Gesture small preset with a 2-epoch baseline, so that set-up
    #: can train three times within the run budget.
    config_overrides = {"baseline_epochs": 2}
    dataset = "dvs_gesture"
    #: The seed of the preset configs; fault maps derive from it.
    MAP_SEED = 7
    #: ``pin.py`` re-runs the sweeps on the sequential reference engine.
    engine = "fused"
    #: A subset of each figure's default grid with the drivers' trial counts
    #: and fault counts, so each engine call has the shape of the full
    #: sweep's calls.
    grid = {
        "fig5a": {"bit_positions": (4, 14), "stuck_types": ("sa0", "sa1"), "num_faulty": 8,
                  "trials": 2},
        "fig5b": {"counts": (0, 8, 32), "trials": 4},
        "fig5c": {"sizes": (8, 32), "num_faulty": 4, "trials": 3},
    }

    def config(self):
        from repro.experiments import default_config

        return default_config(self.dataset, seed=self.seed, **self.config_overrides)

    def setup(self, workdir: Path) -> List[float]:
        from repro.experiments import prepare_baseline

        config = self.config()
        times = []
        for repeat in range(self.setup_repeats):
            start = time.perf_counter()
            prepare_baseline(config, use_cache=repeat == self.setup_repeats - 1)
            times.append(time.perf_counter() - start)
        return times

    def run_sweeps(self, out: Path, trace: Optional[Path]) -> None:
        """The iteration body: the three sweeps, then records and timing to ``out``."""

        from tracing import Tracer

        import repro.experiments
        import repro.faults
        from repro.utils import save_records
        from repro.utils.rng import derive_seed

        config = self.config()
        array = {"rows": config.array_rows, "cols": config.array_cols}
        # Looked up through the package at call time, so traced runs call
        # the wrappers.
        sweeps = {"fig5a": ("sweep_bit_locations", array),
                  "fig5b": ("sweep_faulty_pe_count", array),
                  "fig5c": ("sweep_array_sizes", {})}
        tracer = Tracer(f"{self.name}:{self.seed}:{self._iterations}") if trace else None
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            records = {}
            for figure, (sweep, shape) in sweeps.items():
                baseline = repro.experiments.prepare_baseline(config)
                records[figure] = getattr(repro.faults, sweep)(
                    baseline.model_factory(), baseline.test_loader, **shape,
                    **self.grid[figure], dataset=config.dataset,
                    seed=derive_seed(self.MAP_SEED, figure), engine=self.engine, workers=1,
                    cache_dir=out / "cache", dtype="float64")
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        save_records(records, out / "records.json")
        (out / "timing.json").write_text(json.dumps({"wall_s": wall}))
        if tracer is not None:
            tracer.write_jsonl(trace)

    def iterate(self, workdir: Path, trace: Optional[Path], timeout: float) -> Sample:
        self._iterations += 1
        out = workdir / f"iteration{self._iterations}"
        out.mkdir(parents=True)
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        # fork, not spawn: the child must inherit the trained baseline.
        # OpenBLAS re-creates its thread pool in the child.
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                log = os.open(out / "child.log", os.O_WRONLY | os.O_CREAT, 0o644)
                os.dup2(log, 1)
                os.dup2(log, 2)
                self.run_sweeps(out, trace)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        code, usage, timed_out = wait_child(pid, timeout)
        outer_wall = time.perf_counter() - start
        cpu, rss = _usage_numbers(usage)
        sample = Sample(outer_wall, cpu, rss, records=out / "records.json", trace=trace)
        if timed_out:
            sample.error = f"timed out after {timeout:.0f}s"
        elif code != 0:
            tail = (out / "child.log").read_text(errors="replace")[-600:]
            sample.error = f"exit code {code}: {tail}"
        else:
            sample.wall_s = json.loads((out / "timing.json").read_text())["wall_s"]
        return sample

    def validate(self, sample: Sample) -> None:
        records = _records(sample)
        grid = self.grid
        expected = {
            "fig5a": len(grid["fig5a"]["bit_positions"]) * 2,  # sa0 and sa1
            "fig5b": len(grid["fig5b"]["counts"]),
            "fig5c": len(grid["fig5c"]["sizes"]),
        }
        if not isinstance(records, dict) or sorted(records) != sorted(expected):
            raise ValueError(f"expected records for {sorted(expected)}")
        for figure, count in expected.items():
            if len(records[figure]) != count:
                raise ValueError(f"{figure}: {len(records[figure])} records, expected {count}")
            _check_accuracies(records[figure])


# ---------------------------------------------------------------------------
# CLI workloads: one fresh `python -m repro ...` process per iteration
# ---------------------------------------------------------------------------
class CliWorkload(Workload):
    """A ``repro`` CLI command run as a fresh process per iteration."""

    def argv(self) -> List[str]:
        raise NotImplementedError

    def iterate(self, workdir: Path, trace: Optional[Path], timeout: float) -> Sample:
        self._iterations += 1
        return run_cli(self.argv(), self.iteration_dir(workdir, self._iterations),
                       f"records{self._iterations}.json", timeout, trace=trace,
                       run_id=f"{self.name}:{self.seed}:{self._iterations}")

    def iteration_dir(self, workdir: Path, index: int) -> Path:
        """A fresh directory per iteration."""

        return workdir / f"iteration{index}"


class MitigationWorkload(CliWorkload):
    """``repro run fig8 --dataset mnist``: baseline training plus FaPIT/FalVolt retraining.

    The workload has nothing to prepare: every iteration trains from
    nothing, as a user's run does.  Set-up is therefore only ``warmups``
    fresh-interpreter ``import repro.cli`` runs, which fill the bytecode
    cache of a fresh checkout; ``setup_s`` is their median, the CLI's
    start-up cost.

    The records are not pinned (a change to the shuffle order changes them
    by design) but must not change from run to run: every iteration is
    compared with the first digest seen in this checkout for the same seed
    and source tree (``history``), so a run with a single iteration still
    checks identity against the runs before it.
    """

    name = "fig8-mitigation"
    why = ("repro run fig8 on mnist, fresh process: baseline training plus FaPIT/FalVolt "
           "retraining, all autograd/snn/core, no fused engine")
    warmups = 9
    history = ROOT / ".perfbench" / "fig8-digests.json"

    def argv(self) -> List[str]:
        return ["run", "fig8", "--dataset", "mnist", "--seed", str(self.seed)]

    def setup(self, workdir: Path) -> List[float]:
        times = []
        for _ in range(self.warmups):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=workdir,
                           env=child_env(), check=True, timeout=120)
            times.append(time.perf_counter() - start)
        self._history_key = f"seed {self.seed}, src {_source_digest()}"
        self.reference = self._read_history().get(self._history_key)
        return times

    def _read_history(self) -> Dict[str, str]:
        if not self.history.is_file():
            return {}
        return json.loads(self.history.read_text(encoding="utf-8"))

    def check(self, sample: Sample) -> None:
        super().check(sample)
        if sample.error is None:
            digests = self._read_history()
            digests.setdefault(self._history_key, sample.digest)
            partial = self.history.with_suffix(".tmp")
            partial.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
            os.replace(partial, self.history)

    def validate(self, sample: Sample) -> None:
        from repro.experiments import default_config

        records = _records(sample)
        epochs = default_config("mnist").retrain_epochs
        expected = {(method, epoch) for method in ("FaPIT", "FalVolt")
                    for epoch in range(1, epochs + 1)}
        found = {(record.get("method"), record.get("epoch")) for record in records}
        if len(records) != len(expected) or found != expected:
            raise ValueError(f"expected 2 methods x {epochs} epochs, found {sorted(found)}")
        _check_accuracies(records)


class ResumeWorkload(CliWorkload):
    """``repro campaign counts --dataset nmnist --resume`` against a primed cache.

    Set-up runs the same command once into an empty ``--cache-dir``; every
    iteration then re-runs it in the same directory, so each sweep point is
    a cache read and the time is the baseline retraining.
    """

    name = "campaign-resume"
    why = ("repro campaign counts --resume on nmnist against a primed cache: every point a "
           "cache read, the run is baseline retraining")

    def argv(self) -> List[str]:
        return ["campaign", "counts", "--dataset", "nmnist", "--resume",
                "--cache-dir", "sweep-cache", "--seed", str(self.seed)]

    def iteration_dir(self, workdir: Path, index: int) -> Path:
        """Every iteration resumes in the directory the priming run filled."""

        return workdir / "campaign"

    def setup(self, workdir: Path) -> List[float]:
        campaign = workdir / "campaign"
        prime = run_cli(self.argv(), campaign, "prime.json", timeout=150)
        if prime.error is not None:
            raise RuntimeError(f"priming run failed: {prime.error}")
        self.prime_digest = sha256_file(campaign / "prime.json")
        self.cache_state = _tree_state(campaign / "sweep-cache")
        if not self.cache_state:
            raise RuntimeError("priming run left the sweep cache empty")
        return [prime.wall_s]

    def iterate(self, workdir: Path, trace: Optional[Path], timeout: float) -> Sample:
        sample = super().iterate(workdir, trace, timeout)
        campaign = workdir / "campaign"
        if sample.error is None and _tree_state(campaign / "sweep-cache") != self.cache_state:
            sample.error = "the resumed run wrote to the primed cache (a cache miss)"
        return sample

    def validate(self, sample: Sample) -> None:
        records = _records(sample)
        if len(records) != 5:  # the CLI's default counts 0,2,4,8,16
            raise ValueError(f"expected 5 records, found {len(records)}")
        _check_accuracies(records)
        if sha256_file(sample.records) != self.prime_digest:
            raise ValueError("resumed records differ from the priming run's")
        if sample.trace is not None:
            from tracing import read_jsonl

            spans, counters = read_jsonl(sample.trace)
            reads = sum(1 for span in spans if span[0] == "faults.cache_read")
            if not reads or counters.get("faults.cache_hits", 0) != reads:
                raise ValueError(f"cache hit ratio below 1 ({counters.get('faults.cache_hits')}"
                                 f"/{reads} reads)")


def _source_digest() -> str:
    """SHA-256 over the paths and bytes of every ``.py`` file under ``src``."""

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _tree_state(directory: Path):
    """(name, size, mtime, inode) of every file below ``directory``."""

    return sorted((str(path.relative_to(directory)), stat.st_size, stat.st_mtime_ns, stat.st_ino)
                  for path in directory.rglob("*") if path.is_file()
                  for stat in [path.stat()])


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    workload.name: workload
    for workload in (SweepWorkload, MitigationWorkload, ResumeWorkload)
}
