"""Self-test of the benchmark on a tiny sweep that is not one of its workloads.

Run from the repository root::

    python -m pytest perfbench -q
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TinySweep(workloads.SweepWorkload):
    """A micro MNIST model and a three-point grid: seconds, not minutes."""

    name = "tiny-sweep"
    setup_repeats = 1
    dataset = "mnist"
    config_overrides = {"num_train": 40, "num_test": 16, "channels": 4, "hidden_units": 16,
                        "time_steps": 2, "batch_size": 8, "baseline_epochs": 1,
                        "array_rows": 8, "array_cols": 8}
    grid = {
        "fig5a": {"bit_positions": (14,), "trials": 1},
        "fig5b": {"counts": (0, 2), "trials": 2},
        "fig5c": {"sizes": (8,), "trials": 1},
    }


class CorruptedTinySweep(TinySweep):
    """Damages one accuracy in every iteration's records file."""

    def iterate(self, workdir, trace, timeout):
        sample = super().iterate(workdir, trace, timeout)
        records = json.loads(sample.records.read_text())
        records["fig5b"][0]["accuracy"] /= 2
        sample.records.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        return sample


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def emitted(capsys, workload, trace):
    run.emit(workload, 0, trace)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert tuple(BENCHMARK["command"]) == ("python3", "perfbench/run.py")
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER]
    assert TinySweep.name not in workloads.WORKLOADS


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    result = emitted(capsys, TinySweep(3), trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_removes_its_wrappers(capsys):
    result = emitted(capsys, TinySweep(3), trace=True)
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["faults.sweep_points"]["value"] == 5  # 2 + 2 + 1 points
    assert metrics["systolic.sim_macs"]["value"] > 0
    assert metrics["trace.unattributed_share"]["value"] < 0.10
    assert tracing.wrappers_left() == []


def resolved_targets():
    found = []
    for _, module_name, class_name, attribute, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        found.append(inspect.getattr_static(owner, attribute))
    return found


def test_in_process_trace_restores_every_wrapped_function(tmp_path):
    workload = TinySweep(5)
    workload.setup(tmp_path)
    before = resolved_targets()
    out = tmp_path / "in-process"
    out.mkdir()
    workload.run_sweeps(out, tmp_path / "trace.jsonl")
    spans, _ = tracing.read_jsonl(tmp_path / "trace.jsonl")
    assert {"faults.sweep", "snn.inference.fault_engine"} <= {span[0] for span in spans}
    assert tracing.wrappers_left() == []
    assert all(now is then for now, then in zip(resolved_targets(), before))


def test_a_corrupted_record_counts_as_a_failed_run(capsys):
    clean = TinySweep(3)
    run.emit(clean, 0, False)
    capsys.readouterr()
    corrupted = CorruptedTinySweep(3)
    corrupted.pin = clean.reference
    result = emitted(capsys, corrupted, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_fig8_records_must_match_earlier_runs_at_the_same_seed(tmp_path, monkeypatch):
    from repro.experiments import default_config

    monkeypatch.setattr(workloads.MitigationWorkload, "history", tmp_path / "digests.json")
    monkeypatch.setattr(workloads.MitigationWorkload, "warmups", 0)
    epochs = default_config("mnist").retrain_epochs

    def checked_run(seed, accuracy):
        """One benchmark run with a single iteration whose records carry ``accuracy``."""

        records = tmp_path / f"records-{seed}-{accuracy}.json"
        records.write_text(json.dumps([
            {"method": method, "epoch": epoch, "accuracy": accuracy}
            for method in ("FaPIT", "FalVolt") for epoch in range(1, epochs + 1)]))
        workload = workloads.MitigationWorkload(seed)
        workload.setup(tmp_path)
        sample = workloads.Sample(1.0, 1.0, 1.0, records=records)
        workload.check(sample)
        return sample.error

    assert checked_run(1, 0.5) is None
    assert checked_run(1, 0.5) is None
    assert checked_run(2, 0.25) is None
    assert "differ from earlier records" in checked_run(1, 0.25)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig5-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_children_run_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    monkeypatch.setenv("REPRO_BACKEND", "cffi")
    env = workloads.child_env()
    assert {name: env[name] for name in workloads.THREAD_ENV} == dict.fromkeys(
        workloads.THREAD_ENV, "1")
    assert not any(name.startswith("REPRO_") for name in env)
