"""Tests for the experiment harness (configs, baseline cache, reporting, registry)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    PAPER_DATASETS,
    PAPER_FAULT_RATES,
    PAPER_THRESHOLD_GRID,
    clear_baseline_cache,
    default_config,
    format_series,
    format_table,
    get_experiment,
    list_experiments,
    prepare_baseline,
    summarize,
)
from repro.experiments.baseline import build_loaders


#: Micro configuration used by the integration tests below: small enough to
#: train in a couple of seconds, large enough to be well above chance.
MICRO = ExperimentConfig(
    dataset="mnist", num_train=120, num_test=50,
    dataset_kwargs=(("max_shift", 1), ("noise_std", 0.04)),
    channels=6, hidden_units=24, time_steps=3,
    batch_size=12, baseline_epochs=10, baseline_lr=2.5e-2,
    retrain_epochs=2, retrain_lr=1.5e-2,
    array_rows=16, array_cols=16, seed=13)


@pytest.fixture(scope="module")
def micro_baseline():
    return prepare_baseline(MICRO)


class TestConfig:
    def test_default_configs_exist_for_paper_datasets(self):
        for dataset in PAPER_DATASETS:
            config = default_config(dataset)
            assert config.dataset == dataset
            assert config.num_classes in (10, 11)

    def test_full_scale_differs(self):
        small = default_config("mnist", scale="small")
        full = default_config("mnist", scale="full")
        assert full.num_train > small.num_train
        assert full.array_rows >= small.array_rows

    def test_unknown_scale_or_dataset(self):
        with pytest.raises(KeyError):
            default_config("mnist", scale="huge")
        with pytest.raises(KeyError):
            default_config("cifar")

    def test_overrides(self):
        config = default_config("mnist", num_train=50, seed=99)
        assert config.num_train == 50 and config.seed == 99

    def test_with_overrides_returns_copy(self):
        config = default_config("mnist")
        other = config.with_overrides(batch_size=5)
        assert other.batch_size == 5 and config.batch_size != 5

    def test_paper_constants(self):
        assert PAPER_FAULT_RATES == (0.10, 0.30, 0.60)
        assert PAPER_THRESHOLD_GRID == (0.45, 0.5, 0.55, 0.7)

    def test_dataset_options_dict(self):
        assert default_config("mnist").dataset_options()["max_shift"] == 1
        assert default_config("nmnist").dataset_options() == {}


class TestReporting:
    RECORDS = [
        {"method": "FaP", "fault_rate": 0.3, "accuracy": 0.42},
        {"method": "FalVolt", "fault_rate": 0.3, "accuracy": 0.985},
    ]

    def test_format_table_contains_values(self):
        table = format_table(self.RECORDS, columns=["method", "accuracy"], title="Fig7")
        assert "Fig7" in table and "FalVolt" in table and "0.985" in table
        assert table.count("\n") >= 3

    def test_format_table_empty(self):
        assert "(no records)" in format_table([], title="x")

    def test_format_table_infers_columns(self):
        table = format_table(self.RECORDS)
        assert "fault_rate" in table

    def test_format_series_grouping(self):
        series = format_series(self.RECORDS, x="fault_rate", y="accuracy", group_by="method")
        assert "[method=FaP]" in series and "0.300->0.420" in series

    def test_format_series_ungrouped(self):
        series = format_series(self.RECORDS, x="fault_rate", y="accuracy")
        assert "0.300->0.985" in series

    def test_summarize_projects_keys(self):
        rows = summarize(self.RECORDS, ["method"])
        assert rows == [{"method": "FaP"}, {"method": "FalVolt"}]


class TestRegistry:
    def test_all_paper_figures_registered(self):
        ids = {spec.experiment_id for spec in list_experiments()}
        assert {"fig2", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "headline"} <= ids

    def test_every_spec_has_runner_and_benchmark(self):
        for spec in list_experiments():
            assert callable(spec.runner)
            assert spec.benchmark.startswith("benchmarks/")

    def test_get_experiment(self):
        assert get_experiment("fig7").paper_artifact == "Figure 7"
        with pytest.raises(KeyError):
            get_experiment("fig9")


class TestBaselinePreparation:
    def test_build_loaders_shapes(self):
        train_loader, test_loader = build_loaders(MICRO)
        inputs, labels = next(iter(train_loader))
        assert inputs.shape[0] == MICRO.batch_size
        assert labels.shape[0] == MICRO.batch_size

    def test_baseline_reaches_reasonable_accuracy(self, micro_baseline):
        assert micro_baseline.baseline_accuracy > 0.6
        assert micro_baseline.num_classes == 10

    def test_baseline_cache_reused(self, micro_baseline):
        again = prepare_baseline(MICRO)
        assert again is micro_baseline

    def test_model_factory_returns_independent_copies(self, micro_baseline):
        a = micro_baseline.model_factory()
        b = micro_baseline.model_factory()
        a_params = dict(a.named_parameters())
        b_params = dict(b.named_parameters())
        name = next(iter(a_params))
        a_params[name].data += 1.0
        assert not np.allclose(a_params[name].data, b_params[name].data)

    def test_clear_cache(self, micro_baseline):
        clear_baseline_cache()
        rebuilt = prepare_baseline(MICRO, use_cache=False)
        assert rebuilt is not micro_baseline
        # Re-populate the module-scoped cache entry for later tests.
        prepare_baseline(MICRO)


class TestExperimentDrivers:
    def test_fig5b_records_shape(self, micro_baseline):
        from repro.experiments import run_fig5b_faulty_pe_count

        records = run_fig5b_faulty_pe_count(MICRO, counts=(0, 16), trials=2)
        assert len(records) == 2
        assert records[0]["num_faulty_pes"] == 0
        assert records[0]["accuracy"] >= records[1]["accuracy"] - 0.05
        assert all(r["dataset"] == "mnist" for r in records)

    def test_fig5a_records_shape(self, micro_baseline):
        from repro.experiments import run_fig5a_bit_locations

        records = run_fig5a_bit_locations(MICRO, bit_positions=(0, 14),
                                          stuck_types=("sa1",), num_faulty=4, trials=1)
        assert len(records) == 2
        bits = {r["bit_position"] for r in records}
        assert bits == {0, 14}

    def test_fig5c_records_shape(self, micro_baseline):
        from repro.experiments import run_fig5c_array_sizes

        records = run_fig5c_array_sizes(MICRO, sizes=(4, 16), num_faulty=2, trials=1)
        assert [r["array_size"] for r in records] == [4, 16]

    def test_fig7_methods_and_ordering(self, micro_baseline):
        from repro.experiments import run_fig7_mitigation_comparison

        records = run_fig7_mitigation_comparison(MICRO, fault_rates=(0.30,),
                                                 methods=("fap", "falvolt"),
                                                 retraining_epochs=2)
        assert len(records) == 2
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"FaP", "FalVolt"}
        assert by_method["FalVolt"]["accuracy"] >= by_method["FaP"]["accuracy"]

    def test_fig6_threshold_records(self, micro_baseline):
        from repro.experiments import run_fig6_optimized_thresholds

        records = run_fig6_optimized_thresholds(MICRO, fault_rates=(0.30,),
                                                retraining_epochs=1)
        layers = {r["layer"] for r in records}
        assert layers == {"Conv1", "Conv2", "FC1", "FC2"}
        assert all(r["threshold_voltage"] > 0 for r in records)

    def test_fig8_convergence_records(self, micro_baseline):
        from repro.experiments import convergence_speedup, run_fig8_convergence

        records = run_fig8_convergence(MICRO, fault_rate=0.30, retraining_epochs=2)
        methods = {r["method"] for r in records}
        assert methods == {"FaPIT", "FalVolt"}
        assert all(1 <= r["epoch"] <= 2 for r in records)
        # Speedup is either undefined (not reached) or a positive ratio.
        speedup = convergence_speedup(records)
        assert speedup is None or speedup > 0

    def test_fig2_threshold_grid(self, micro_baseline):
        from repro.experiments import run_fig2_threshold_grid

        records = run_fig2_threshold_grid(MICRO, fault_rates=(0.30,),
                                          thresholds=(0.55, 1.0), retraining_epochs=1)
        assert len(records) == 2
        assert {r["threshold"] for r in records} == {0.55, 1.0}
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in records)

    def test_unknown_mitigation_rejected(self, micro_baseline):
        from repro.experiments import run_fig7_mitigation_comparison

        with pytest.raises(KeyError):
            run_fig7_mitigation_comparison(MICRO, methods=("pruning",))


class TestReportingEdgeCases:
    """Edge-case coverage for the reporting helpers (empty / mixed records)."""

    MIXED = [
        {"name": "alpha", "count": 3, "accuracy": 0.5, "flag": True, "missing": None},
        {"name": "beta", "count": "n/a", "accuracy": 0.25},
    ]

    def test_format_table_mixed_types(self):
        from repro.experiments.reporting import format_table

        table = format_table(self.MIXED)
        assert "alpha" in table and "n/a" in table and "True" in table
        assert "0.500" in table and "0.250" in table

    def test_format_table_missing_keys_render_empty(self):
        from repro.experiments.reporting import format_table

        table = format_table(self.MIXED, columns=["name", "missing"])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert any("beta" in line for line in lines)

    def test_format_table_empty_without_title(self):
        from repro.experiments.reporting import format_table

        assert format_table([]) == "(no records)"

    def test_format_series_empty_records(self):
        from repro.experiments.reporting import format_series

        assert format_series([], x="a", y="b") == ""
        assert format_series([], x="a", y="b", title="t") == "t"

    def test_format_series_empty_grouped(self):
        from repro.experiments.reporting import format_series

        assert format_series([], x="a", y="b", group_by="g", title="t") == "t"

    def test_format_series_mixed_types(self):
        from repro.experiments.reporting import format_series

        series = format_series(self.MIXED, x="count", y="accuracy")
        assert "3->0.500" in series and "n/a->0.250" in series

    def test_format_value(self):
        from repro.experiments.reporting import format_value

        assert format_value(0.123456) == "0.123"
        assert format_value(7) == "7"
        assert format_value("x") == "x"
        assert format_value(None) == "None"

    def test_summarize_empty_and_missing(self):
        from repro.experiments.reporting import summarize

        assert summarize([], ["a"]) == []
        rows = summarize(self.MIXED, ["name", "absent"])
        assert rows[0] == {"name": "alpha", "absent": None}
        assert rows[1] == {"name": "beta", "absent": None}


class TestRegistryEdgeCases:
    """Lookup errors and integrity of the experiment registry."""

    def test_unknown_experiment_error_names_options(self):
        with pytest.raises(KeyError) as excinfo:
            get_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message and "fig7" in message

    def test_lookup_is_identity_stable(self):
        assert get_experiment("fig5b") is get_experiment("fig5b")

    def test_list_experiments_sorted_and_complete(self):
        specs = list_experiments()
        ids = [spec.experiment_id for spec in specs]
        assert ids == sorted(ids)
        assert len(specs) == len(EXPERIMENTS)

    def test_benchmark_files_exist(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for spec in list_experiments():
            assert (root / spec.benchmark).is_file(), spec.benchmark

    def test_specs_are_frozen(self):
        spec = get_experiment("fig7")
        with pytest.raises(Exception):
            spec.experiment_id = "other"


# ----------------------------------------------------------------------
# On-disk baseline store
# ----------------------------------------------------------------------
#: Tiny NMNIST config (trains in well under a second) for the store's
#: robustness tests; MICRO is reserved for the identity tests.
TINY = MICRO.with_overrides(dataset="nmnist", dataset_kwargs=(), num_train=48,
                            num_test=24, baseline_epochs=2)

#: The small Fig. 7 grid of the identity test: the mitigation cells shuffle
#: ``baseline.train_loader``, so they see whether a store hit restored it.
FIG7_GRID = dict(fault_rates=(0.30,), methods=("fapit", "falvolt"), retraining_epochs=2)


def _snapshot(baseline):
    """What a fresh process observes of a prepared baseline."""

    from repro.utils.hashing import state_token

    return (state_token(baseline.state), baseline.baseline_accuracy,
            json.dumps(baseline.train_loader._rng.bit_generator.state, sort_keys=True))


def _store_entries(cache_dir):
    return sorted(path.name for path in (cache_dir / "baselines").glob("*.npz"))


def _tree_state(directory):
    """(name, size, mtime, inode) of every file below ``directory``."""

    return sorted((str(path.relative_to(directory)), stat.st_size, stat.st_mtime_ns,
                   stat.st_ino)
                  for path in directory.rglob("*") if path.is_file()
                  for stat in [path.stat()])


@pytest.fixture
def isolated_baseline_cache():
    """Let a test clear the in-process cache without evicting other tests' baselines."""

    from repro.experiments import baseline as baseline_module

    saved = dict(baseline_module._CACHE)
    clear_baseline_cache()
    yield
    baseline_module._CACHE.clear()
    baseline_module._CACHE.update(saved)


def _forbid_training(monkeypatch):
    """Make any further baseline training fail the test."""

    from repro.snn import Trainer

    monkeypatch.setattr(Trainer, "fit", lambda *args, **kwargs: pytest.fail("retrained"))


@pytest.fixture(scope="module")
def micro_store(tmp_path_factory):
    """MICRO prepared cold, on a store miss and on a store hit, plus Fig. 7 records.

    ``clear_baseline_cache()`` between the three emulates a fresh process.
    Each Fig. 7 grid runs right after its baseline was prepared, so every
    grid starts from the train loader's post-training RNG state.
    """

    from repro.experiments import baseline as baseline_module
    from repro.experiments import run_fig7_mitigation_comparison

    saved = dict(baseline_module._CACHE)
    cache_dir = tmp_path_factory.mktemp("micro-store")
    result = {}
    for phase, kwargs in (("cold", {}), ("miss", {"cache_dir": cache_dir}),
                          ("hit", {"cache_dir": cache_dir})):
        clear_baseline_cache()
        with pytest.MonkeyPatch.context() as patch:
            if phase == "hit":
                _forbid_training(patch)
            result[phase] = _snapshot(prepare_baseline(MICRO, **kwargs))
        result[f"{phase}_fig7"] = run_fig7_mitigation_comparison(MICRO, **FIG7_GRID)
        if phase == "miss":
            result["entries"] = _store_entries(cache_dir)
    baseline_module._CACHE.clear()
    baseline_module._CACHE.update(saved)
    return result


class TestBaselineStoreIdentity:
    def test_store_hit_equals_cold_train(self, micro_store):
        assert micro_store["entries"]  # the miss stored an entry
        assert micro_store["hit"] == micro_store["miss"] == micro_store["cold"]

    def test_fig7_records_identical_cold_miss_hit(self, micro_store):
        cold = json.dumps(micro_store["cold_fig7"], sort_keys=True)
        assert json.dumps(micro_store["miss_fig7"], sort_keys=True) == cold
        assert json.dumps(micro_store["hit_fig7"], sort_keys=True) == cold

    def test_cli_campaign_rerun_is_byte_identical_without_training(
            self, tmp_path, monkeypatch, isolated_baseline_cache):
        from repro import cli

        monkeypatch.setattr(cli, "default_config",
                            lambda dataset, scale="small", **overrides:
                            MICRO.with_overrides(**overrides))
        argv = ["campaign", "counts", "--dataset", "mnist", "--seed", "13",
                "--counts", "0,4", "--trials", "2", "--cache-dir", str(tmp_path / "cache")]
        assert cli.main(argv + ["--out", str(tmp_path / "first.json")]) == 0
        clear_baseline_cache()
        _forbid_training(monkeypatch)
        assert cli.main(argv + ["--out", str(tmp_path / "second.json")]) == 0
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


class TestBaselineStoreRobustness:
    @staticmethod
    def _prime(cache_dir):
        clear_baseline_cache()
        primed = _snapshot(prepare_baseline(TINY, cache_dir=cache_dir))
        clear_baseline_cache()
        (entry,) = (cache_dir / "baselines").glob("*.npz")
        return primed, entry

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "token"])
    def test_damaged_entry_quarantined_and_retrained(self, tmp_path, damage, monkeypatch,
                                                     isolated_baseline_cache):
        primed, entry = self._prime(tmp_path)
        if damage == "truncate":
            entry.write_bytes(entry.read_bytes()[:200])
        elif damage == "garbage":
            entry.write_bytes(b"\x00not a zip archive" * 8)
        else:
            with np.load(entry) as archive:
                arrays = {name: archive[name] for name in archive.files}
            name = next(name for name in arrays if name.startswith("state/"))
            arrays[name] = arrays[name] + 1.0
            with open(entry, "wb") as handle:
                np.savez(handle, **arrays)
        assert _snapshot(prepare_baseline(TINY, cache_dir=tmp_path)) == primed
        assert (tmp_path / "baselines" / (entry.name + ".quarantined")).is_file()
        # The retrained baseline was stored again and now hits.
        clear_baseline_cache()
        _forbid_training(monkeypatch)
        assert _snapshot(prepare_baseline(TINY, cache_dir=tmp_path)) == primed

    def test_enospc_on_store_warns_and_run_finishes(self, tmp_path, monkeypatch, caplog,
                                                    isolated_baseline_cache):
        import errno

        from repro.experiments import baseline as baseline_module
        from repro.experiments import run_fig5b_faulty_pe_count

        grid = dict(counts=(0, 4), trials=1)
        reference = run_fig5b_faulty_pe_count(TINY, **grid)
        clear_baseline_cache()

        def full_disk(entry, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(baseline_module, "_write_entry", full_disk)
        with caplog.at_level("WARNING"):
            records = run_fig5b_faulty_pe_count(TINY, cache_dir=tmp_path, **grid)
        assert records == reference
        assert any("could not store" in message for message in caplog.messages)
        assert _store_entries(tmp_path) == []
        assert not list((tmp_path / "baselines").glob("*.tmp*"))

    def test_hit_leaves_cache_tree_untouched(self, tmp_path, monkeypatch,
                                             isolated_baseline_cache):
        from repro.experiments import baseline as baseline_module
        from repro.experiments import run_fig5b_faulty_pe_count

        grid = dict(counts=(0, 4), trials=1)
        first = run_fig5b_faulty_pe_count(TINY, cache_dir=tmp_path, **grid)
        assert _store_entries(tmp_path)
        before = _tree_state(tmp_path)
        clear_baseline_cache()
        _forbid_training(monkeypatch)
        monkeypatch.setattr(baseline_module, "_key_lock",
                            lambda path: pytest.fail("a store hit took the key lock"))
        assert run_fig5b_faulty_pe_count(TINY, cache_dir=tmp_path, **grid) == first
        assert _tree_state(tmp_path) == before

    def test_key_covers_every_config_field_and_the_training_code(self, monkeypatch):
        from repro.experiments import baseline as baseline_module
        from repro.experiments.baseline import baseline_key

        key = baseline_key(TINY)
        assert baseline_key(TINY.with_overrides()) == key
        changed = {str: lambda value: value + "x", int: lambda value: value + 1,
                   float: lambda value: value * 2,
                   tuple: lambda value: value + (("extra", 1),)}
        for field in dataclasses.fields(ExperimentConfig):
            value = getattr(TINY, field.name)
            other = TINY.with_overrides(**{field.name: changed[type(value)](value)})
            assert baseline_key(other) != key, field.name
        monkeypatch.setattr(baseline_module, "training_code_digest", lambda: "edited")
        assert baseline_key(TINY) != key

    def test_use_cache_false_neither_reads_nor_writes(self, tmp_path,
                                                      isolated_baseline_cache):
        from repro.experiments.baseline import baseline_key

        prepare_baseline(TINY, use_cache=False, cache_dir=tmp_path)
        assert not (tmp_path / "baselines").exists()
        store = tmp_path / "baselines"
        store.mkdir()
        garbage = store / f"{baseline_key(TINY)}.npz"
        garbage.write_bytes(b"garbage")
        prepare_baseline(TINY, use_cache=False, cache_dir=tmp_path)
        assert sorted(path.name for path in store.iterdir()) == [garbage.name]

    def test_concurrent_miss_waits_for_the_trainer_and_loads(
            self, tmp_path, monkeypatch, isolated_baseline_cache):
        import fcntl
        import os
        import shutil
        import threading

        primed, entry = self._prime(tmp_path / "primed")
        _forbid_training(monkeypatch)
        store = tmp_path / "shared" / "baselines"
        store.mkdir(parents=True)
        result = {}

        def waiter_main():
            try:
                result["prepared"] = prepare_baseline(TINY, cache_dir=store.parent)
            except BaseException as exc:  # surfaced by the main thread
                result["error"] = exc

        # Play the process that is training this key: hold its lock, then
        # publish the entry and release.
        descriptor = os.open(store / (entry.stem + ".lock"), os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            waiter = threading.Thread(target=waiter_main)
            waiter.start()
            waiter.join(timeout=0.5)
            assert waiter.is_alive()  # blocked on the trainer's lock
            shutil.copyfile(entry, store / entry.name)
        finally:
            os.close(descriptor)
        waiter.join(timeout=60)
        assert "error" not in result, result.get("error")
        assert _snapshot(result["prepared"]) == primed


class TestGoldenTrainingDigest:
    """The trained baseline bits, pinned per dataset.

    Any change to the training path (autograd, layers, optimiser, data
    pipeline, loader shuffles) that moves one trained bit changes these
    digests; a pure speedup must leave them alone.
    """

    GOLDEN = {
        "mnist": "0ec3acd71b5d7cc4eed6faa289752d63800fa254cc6dd43de6afcc78bf869f82",
        "nmnist": "66abb3da9b449f408ef1587f4dce8ea67d8a1c130e2b17bf2bf6981e6ca50098",
        "dvs_gesture": "4558437a16d5d23fe82467e5c124b5e40d4377bdd5dc5fbc0b82160222f7c424",
    }

    def test_micro_mnist(self, micro_baseline):
        from repro.utils.hashing import state_token

        assert state_token(micro_baseline.state) == self.GOLDEN["mnist"]

    @pytest.mark.parametrize("config", [
        TINY,
        MICRO.with_overrides(dataset="dvs_gesture", dataset_kwargs=(), num_train=44,
                             num_test=22, batch_size=11, baseline_epochs=2),
    ], ids=["nmnist", "dvs_gesture"])
    def test_tiny_event_datasets(self, config):
        from repro.utils.hashing import state_token

        prepared = prepare_baseline(config, use_cache=False)
        assert state_token(prepared.state) == self.GOLDEN[config.dataset]
