"""Declarative scenario registry for fault-injection campaigns.

A :class:`Scenario` names one complete campaign configuration -- dataset x
sweep axis x fault model x mitigation -- as *data* (a frozen dataclass that
round-trips through a plain dict / JSON), so campaign workloads can be
shared, versioned and launched by name instead of by code::

    python -m repro campaign --scenario nmnist-transient-bernoulli

The registry ships the paper's datasets as first-class campaign workloads
(including the NMNIST and DVS-Gesture pipelines under transient fault
schedules) and validates configurations eagerly with explicit errors:
unknown keys, missing required fields and inconsistent combinations
(e.g. bypass mitigation of transient schedules) are rejected at
construction, not at evaluation time.

The campaign *grid* of a scenario is exactly the grid of the matching
:mod:`repro.faults.analysis` sweep driver -- built by the same functions,
with the same deterministic seed derivations -- so scenario records share
cache keys with hand-launched sweeps of the same shape.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple, Union

from ..faults.analysis import (array_size_points, bit_sweep_points,
                               pe_count_points, sweep_array_sizes,
                               sweep_bit_locations, sweep_faulty_pe_count)
from ..faults.campaign import FAULT_MODELS, CampaignPoint
from ..faults.fault_model import StuckAtType
from ..systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT
from ..utils.rng import derive_seed
from .config import PAPER_DATASETS, SCALES, ExperimentConfig, default_config

__all__ = [
    "MITIGATIONS",
    "SCENARIOS",
    "SWEEPS",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "scenario_from_json",
]

#: Sweep axes a scenario can select (the Fig. 5a/5b/5c grid shapes).
SWEEPS = ("bits", "counts", "sizes")

#: Mitigation modes a scenario can request.
MITIGATIONS = ("none", "bypass")

#: Seed-derivation tag per sweep; matches the CLI's hand-launched
#: campaigns so identical grids share cache keys.
_SWEEP_TAGS = {"bits": "fig5a", "counts": "fig5b", "sizes": "fig5c"}

#: Default faulty-PE count for sweeps that need one (bits / sizes),
#: matching the corresponding sweep-driver defaults.
_DEFAULT_NUM_FAULTY = {"bits": 8, "sizes": 4}


def _config_field_names() -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(ExperimentConfig))


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One named (dataset x sweep x fault model x mitigation) campaign.

    Required fields: ``name``, ``dataset``, ``sweep`` and ``values`` (the
    swept bit positions, faulty-PE counts or array sizes).  Everything else
    defaults to the matching sweep driver's defaults.  ``fault_params``
    configures the transient schedule process; for transient scenarios a
    missing ``num_steps`` resolves to the dataset config's ``time_steps``
    when the grid is built.  ``config_overrides`` are forwarded to
    :func:`repro.experiments.default_config` (e.g. smaller
    ``baseline_epochs`` for smoke runs).
    """

    name: str
    dataset: str
    sweep: str
    values: Tuple[int, ...]
    description: str = ""
    scale: str = "small"
    trials: int = 4
    num_faulty: Optional[int] = None
    bit_position: Optional[int] = None
    stuck_type: str = "sa1"
    fault_model: str = "stuck_at"
    fault_params: Tuple[Tuple[str, object], ...] = ()
    mitigation: str = "none"
    seed: Optional[int] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        problems: List[str] = []
        if not self.name or not isinstance(self.name, str):
            problems.append("'name' must be a non-empty string")
        if self.dataset not in PAPER_DATASETS:
            problems.append(
                f"unknown dataset '{self.dataset}'; options: {PAPER_DATASETS}")
        if self.scale not in SCALES:
            problems.append(
                f"unknown scale '{self.scale}'; options: {tuple(sorted(SCALES))}")
        if self.sweep not in SWEEPS:
            problems.append(f"unknown sweep '{self.sweep}'; options: {SWEEPS}")
        try:
            values = (() if isinstance(self.values, (str, bytes))
                      else tuple(int(v) for v in self.values))
        except (TypeError, ValueError):
            values = ()
        if not values:
            problems.append("'values' must be a non-empty list of integers")
        object.__setattr__(self, "values", values)
        if int(self.trials) <= 0:
            problems.append("'trials' must be positive")
        if self.num_faulty is not None and int(self.num_faulty) <= 0:
            problems.append("'num_faulty' must be positive when given")
        try:
            object.__setattr__(
                self, "stuck_type",
                StuckAtType.from_value(self.stuck_type).short_name)
        except ValueError as exc:
            problems.append(str(exc))
        if self.fault_model not in FAULT_MODELS:
            problems.append(
                f"unknown fault model '{self.fault_model}'; "
                f"options: {FAULT_MODELS}")
        if self.mitigation not in MITIGATIONS:
            problems.append(
                f"unknown mitigation '{self.mitigation}'; "
                f"options: {MITIGATIONS}")
        if self.fault_model == "transient" and self.mitigation == "bypass":
            problems.append(
                "bypass mitigation is not defined for transient fault "
                "schedules")
        params = self.fault_params
        items = params.items() if isinstance(params, dict) else tuple(params)
        normalized = tuple(sorted((str(k), v) for k, v in items))
        if normalized and self.fault_model != "transient":
            problems.append(
                "'fault_params' are only meaningful for transient scenarios")
        object.__setattr__(self, "fault_params", normalized)
        overrides = self.config_overrides
        items = (overrides.items() if isinstance(overrides, dict)
                 else tuple(overrides))
        normalized = tuple(sorted((str(k), v) for k, v in items))
        known = _config_field_names()
        unknown = [k for k, _ in normalized if k not in known]
        if unknown:
            problems.append(
                f"unknown config_overrides key(s) {unknown}; "
                f"options: {known}")
        object.__setattr__(self, "config_overrides", normalized)
        if problems:
            raise ValueError(
                f"invalid scenario '{self.name}': " + "; ".join(problems))

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Build a scenario from a plain dict, rejecting malformed input.

        All structural problems -- a non-dict payload, unknown keys,
        missing required fields -- are collected into one ``ValueError``
        so a hand-edited JSON scenario fails with the full list at once.
        """

        if not isinstance(payload, dict):
            raise ValueError(
                f"scenario payload must be a JSON object, "
                f"got {type(payload).__name__}")
        known = tuple(field.name for field in dataclasses.fields(cls))
        required = ("name", "dataset", "sweep", "values")
        problems: List[str] = []
        unknown = sorted(key for key in payload if key not in known)
        if unknown:
            problems.append(f"unknown key(s) {unknown}; options: {known}")
        missing = [key for key in required if key not in payload]
        if missing:
            problems.append(f"missing required field(s) {missing}")
        if problems:
            name = payload.get("name", "<unnamed>")
            raise ValueError(f"invalid scenario '{name}': " + "; ".join(problems))
        return cls(**payload)

    def to_dict(self) -> dict:
        """JSON-stable representation; ``from_dict`` round-trips it."""

        payload = dataclasses.asdict(self)
        payload["values"] = list(self.values)
        payload["fault_params"] = dict(self.fault_params)
        payload["config_overrides"] = dict(self.config_overrides)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    def build_config(self, **overrides) -> ExperimentConfig:
        """Experiment config of this scenario (scenario overrides first)."""

        merged = dict(self.config_overrides)
        if self.seed is not None:
            merged["seed"] = int(self.seed)
        merged.update(overrides)
        return default_config(self.dataset, scale=self.scale, **merged)

    def resolved_fault_params(self, config: ExperimentConfig) -> dict:
        """fault_params with scenario-level defaults resolved against ``config``."""

        params = dict(self.fault_params)
        if self.fault_model == "transient":
            params.setdefault("num_steps", int(config.time_steps))
        return params

    def resolved_bit_position(self) -> Optional[int]:
        """Explicit bit position for counts/sizes grids (driver default)."""

        if self.bit_position is not None or self.sweep == "bits":
            return self.bit_position
        return DEFAULT_ACCUMULATOR_FORMAT.magnitude_msb

    def campaign_points(self, config: Optional[ExperimentConfig] = None
                        ) -> List[CampaignPoint]:
        """The scenario's campaign grid (without evaluating it).

        Exactly the grid the matching sweep driver runs -- built by the
        same :mod:`repro.faults.analysis` grid builders with the same seed
        derivations -- so records produced by :func:`run_scenario` share
        cache keys with hand-launched sweeps of the same shape.
        """

        config = self.build_config() if config is None else config
        seed = derive_seed(config.seed, _SWEEP_TAGS[self.sweep])
        fault_params = self.resolved_fault_params(config)
        common = dict(trials=int(self.trials), stuck_type=self.stuck_type,
                      dataset=config.dataset, seed=seed,
                      fault_model=self.fault_model, fault_params=fault_params)
        if self.sweep == "bits":
            return bit_sweep_points(
                rows=config.array_rows, cols=config.array_cols,
                bit_positions=self.values, stuck_types=(self.stuck_type,),
                num_faulty=self.num_faulty or _DEFAULT_NUM_FAULTY["bits"],
                **{k: v for k, v in common.items() if k != "stuck_type"})
        if self.sweep == "counts":
            return pe_count_points(
                rows=config.array_rows, cols=config.array_cols,
                counts=self.values, bit_position=self.resolved_bit_position(),
                **common)
        return array_size_points(
            sizes=self.values, bit_position=self.resolved_bit_position(),
            num_faulty=self.num_faulty or _DEFAULT_NUM_FAULTY["sizes"],
            **common)

    def describe(self) -> str:
        bits = [self.dataset, self.sweep, self.fault_model]
        if self.mitigation != "none":
            bits.append(f"mitigation={self.mitigation}")
        return f"{self.name} ({', '.join(bits)})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (``replace=False`` forbids clobbering)."""

    if not replace and scenario.name in SCENARIOS:
        raise ValueError(f"scenario '{scenario.name}' is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario; unknown names list what is available."""

    try:
        return SCENARIOS[name]
    except KeyError:
        available = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown scenario '{name}'; available: {available}") from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""

    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


def scenario_from_json(text: str) -> Scenario:
    """Parse a JSON object into a (validated, unregistered) scenario."""

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario JSON does not parse: {exc}") from None
    return Scenario.from_dict(payload)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(scenario: Union[Scenario, str], *,
                 config_overrides: Optional[dict] = None,
                 baseline=None, **engine_options) -> List[dict]:
    """Evaluate a scenario end-to-end and return its sweep records.

    Prepares (or reuses, via ``baseline``) the dataset's trained baseline
    -- through the on-disk baseline store when ``engine_options`` carry a
    ``cache_dir`` -- then dispatches to the matching :mod:`repro.faults.analysis` sweep
    driver with the scenario's fault model, parameters and mitigation.
    ``engine_options`` are the usual campaign knobs (``engine``, ``dtype``,
    ``workers``, ``cache_dir``, ``shard``, ...).
    """

    from .baseline import prepare_baseline

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    config = scenario.build_config(**(config_overrides or {}))
    if baseline is None:
        baseline = prepare_baseline(config, cache_dir=engine_options.get("cache_dir"))
    model = baseline.model_factory()
    seed = derive_seed(config.seed, _SWEEP_TAGS[scenario.sweep])
    fault_params = scenario.resolved_fault_params(config)
    common = dict(trials=int(scenario.trials), dataset=config.dataset,
                  seed=seed, fault_model=scenario.fault_model,
                  fault_params=fault_params,
                  bypass=scenario.mitigation == "bypass",
                  **engine_options)
    if scenario.sweep == "bits":
        return sweep_bit_locations(
            model, baseline.test_loader,
            rows=config.array_rows, cols=config.array_cols,
            bit_positions=scenario.values, stuck_types=(scenario.stuck_type,),
            num_faulty=scenario.num_faulty or _DEFAULT_NUM_FAULTY["bits"],
            **common)
    if scenario.sweep == "counts":
        return sweep_faulty_pe_count(
            model, baseline.test_loader,
            rows=config.array_rows, cols=config.array_cols,
            counts=scenario.values, stuck_type=scenario.stuck_type,
            bit_position=scenario.bit_position, **common)
    return sweep_array_sizes(
        model, baseline.test_loader,
        sizes=scenario.values, stuck_type=scenario.stuck_type,
        num_faulty=scenario.num_faulty or _DEFAULT_NUM_FAULTY["sizes"],
        bit_position=scenario.bit_position, **common)


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
# The paper's permanent stuck-at model on its headline grid, plus the two
# extension fault models, and the NMNIST / DVS-Gesture pipelines as
# first-class transient campaign workloads.  All built-ins use the small
# (CI) scale; pass config_overrides / a different scale via a custom
# scenario for larger runs.
register_scenario(Scenario(
    name="mnist-stuck-at-counts",
    description="Paper's Fig. 5b grid point family: permanent datapath "
                "stuck-at faults vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4))
register_scenario(Scenario(
    name="mnist-stuck-at-bypass",
    description="Mitigated hardware: permanent stuck-at faults with the "
                "bypass multiplexer enabled.",
    dataset="mnist", sweep="counts", values=(0, 4, 8, 16), trials=4,
    mitigation="bypass"))
register_scenario(Scenario(
    name="mnist-sram-counts",
    description="Weight-SRAM stuck-at faults (corrupted quantised weight "
                "tiles) vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
    fault_model="sram"))
register_scenario(Scenario(
    name="mnist-transient-bernoulli",
    description="Transient (SEU) faults, Bernoulli-per-step rate process, "
                "vs faulty-PE count on MNIST.",
    dataset="mnist", sweep="counts", values=(0, 2, 4, 8), trials=4,
    fault_model="transient",
    fault_params=(("process", "bernoulli"), ("rate", 0.5))))
register_scenario(Scenario(
    name="nmnist-transient-bernoulli",
    description="NMNIST pipeline under transient (SEU) faults with a "
                "Bernoulli-per-step rate process.",
    dataset="nmnist", sweep="counts", values=(0, 2, 4, 8), trials=2,
    fault_model="transient",
    fault_params=(("process", "bernoulli"), ("rate", 0.5))))
register_scenario(Scenario(
    name="dvs-gesture-transient-burst",
    description="DVS-Gesture pipeline under transient (SEU) burst faults "
                "(contiguous live window per site).",
    dataset="dvs_gesture", sweep="counts", values=(0, 2, 4), trials=2,
    fault_model="transient",
    fault_params=(("process", "burst"), ("burst_length", 2))))
