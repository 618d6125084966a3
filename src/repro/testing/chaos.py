"""Deterministic chaos-injection plans for the campaign runtime.

A :class:`ChaosPlan` is an explicit, reproducible list of failures to
inject into a sweep: *this* unit hangs, *that* unit crashes, the first
cache store writes garbage, the next one hits a full disk.  The campaign
runtime consults the plan at two hook points --

* ``"unit"``: inside the orchestrator worker, immediately before a work
  unit is evaluated (:meth:`CampaignOrchestrator._compute_unit`).  Actions:
  ``hang`` (sleep far past any deadline, optionally ignoring ``SIGTERM``),
  ``crash`` (``os._exit``), ``slow`` (bounded sleep) and ``raise`` (a
  :class:`ChaosError`, exercising the poisoned-unit path).
* ``"cache-store"``: inside :func:`repro.faults.campaign._store_record`,
  after the temp file is written but before it is atomically renamed
  (sweep and mitigation records only; the baseline store opts out).
  Actions: ``corrupt`` (truncate or garble the bytes that will land in the
  cache) and ``enospc`` (raise ``OSError(ENOSPC)``, exercising the
  degrade-to-uncached path).

Three properties make plans usable as *test oracles* rather than fuzzers:

* **Deterministic.**  Rules name their victims explicitly (a unit ordinal,
  a cache-file substring), and :meth:`ChaosPlan.sample` derives a rule set
  from a seed via ``numpy``'s PCG64 -- the same seed always injects the
  same failures.  Chaos only perturbs scheduling and IO, never arithmetic,
  so float64 sweep records must come back byte-identical to a clean run.
* **Cross-process.**  Workers are forked, so each process holds its own
  copy of the plan; ``once`` semantics therefore live on the filesystem: a
  rule fires only for the process that wins the ``O_CREAT | O_EXCL``
  marker race in ``state_dir``.  A retried unit thus fails exactly the
  planned number of times and then succeeds.
* **Injectable from outside.**  ``REPRO_CHAOS`` (inline JSON or
  ``@path/to/plan.json``) installs a process-wide plan resolved lazily by
  :func:`active_plan`, which is how the CI chaos-smoke job drives the
  stock CLI through a failure storm without new flags.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import signal
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..utils.logging import get_logger

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "active_plan",
    "clear_plan",
    "install_plan",
]

logger = get_logger("testing.chaos")

#: Environment variable consulted by :func:`active_plan` (inline JSON spec,
#: or ``@path`` to a JSON file).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Hook points the runtime exposes to plans.
SITES = ("unit", "cache-store")

#: Injectable failure actions, per site.
ACTIONS = {
    "unit": ("hang", "crash", "slow", "raise"),
    "cache-store": ("corrupt", "enospc"),
}

#: How a ``corrupt`` rule damages the staged cache bytes.
CORRUPT_MODES = ("truncate", "garbage")

#: Exit code of ``crash``-action workers (distinctive in pool logs).
CRASH_EXIT_CODE = 66


class ChaosError(RuntimeError):
    """Exception raised by a ``raise``-action rule (a poisoned unit)."""


@dataclasses.dataclass(frozen=True)
class ChaosRule:
    """One injected failure: *where* (site/key), *what* (action), *how often*.

    ``key`` selects the victim: for ``"unit"`` rules an exact unit ordinal
    (``None`` matches every unit); for ``"cache-store"`` rules a substring
    of the cache file name (``None`` matches every store).  ``once`` rules
    fire a single time across *all* processes sharing the plan's state
    directory -- the semantics a retried unit needs to eventually succeed.
    """

    site: str
    action: str
    key: Optional[Union[int, str]] = None
    seconds: float = 0.05
    once: bool = True
    uninterruptible: bool = False
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown chaos site {self.site!r}; options: {SITES}")
        if self.action not in ACTIONS[self.site]:
            raise ValueError(
                f"action {self.action!r} is not valid at site {self.site!r}; "
                f"options: {ACTIONS[self.site]}")
        if self.mode not in CORRUPT_MODES:
            raise ValueError(
                f"unknown corrupt mode {self.mode!r}; options: {CORRUPT_MODES}")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    def matches(self, site: str, key) -> bool:
        if site != self.site:
            return False
        if self.key is None:
            return True
        if self.site == "unit":
            return key == self.key
        return str(self.key) in str(key or "")

    def as_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        return {name: value for name, value in payload.items() if value is not None}


class ChaosPlan:
    """A reproducible failure plan consulted by the campaign runtime.

    Parameters
    ----------
    rules:
        :class:`ChaosRule` instances (or plain dicts with the same keys).
    state_dir:
        Directory holding the cross-process ``once`` markers.  Defaults to
        a fresh temporary directory; processes must share the directory
        (forked workers inherit it automatically) for ``once`` semantics
        to span the pool.
    hang_seconds:
        Upper bound on how long a ``hang`` rule sleeps (a safety net so an
        unwatched hang cannot block a run forever); the watchdog is
        expected to kill the worker long before this expires.
    """

    def __init__(self, rules: Sequence[Union[ChaosRule, dict]], *,
                 state_dir: Optional[Union[str, Path]] = None,
                 hang_seconds: float = 600.0) -> None:
        self.rules: Tuple[ChaosRule, ...] = tuple(
            rule if isinstance(rule, ChaosRule) else ChaosRule(**rule)
            for rule in rules)
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.hang_seconds = float(hang_seconds)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Union[str, dict, "ChaosPlan"]) -> "ChaosPlan":
        """Build a plan from a dict, an inline JSON string or ``@file`` path."""

        if isinstance(spec, ChaosPlan):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("@"):
                text = Path(text[1:]).read_text(encoding="utf-8")
            spec = json.loads(text)
        if not isinstance(spec, dict) or "rules" not in spec:
            raise ValueError("chaos spec must be a dict with a 'rules' list")
        return cls(spec["rules"], state_dir=spec.get("state_dir"),
                   hang_seconds=float(spec.get("hang_seconds", 600.0)))

    @classmethod
    def sample(cls, seed: int, unit_ordinals: Sequence[int], *,
               hangs: int = 0, crashes: int = 0, slows: int = 0,
               raises: int = 0, corrupt_stores: int = 0,
               enospc_stores: int = 0, seconds: float = 0.05,
               state_dir: Optional[Union[str, Path]] = None,
               hang_seconds: float = 600.0) -> "ChaosPlan":
        """Derive a plan from a seed: pick distinct victim units per action.

        The victims are drawn without replacement from ``unit_ordinals``
        with numpy's PCG64, so the same ``(seed, unit_ordinals, counts)``
        always yields the same plan -- a seeded failure mix for property
        tests and CI sweeps.
        """

        import numpy as np

        wanted = hangs + crashes + slows + raises
        ordinals = list(dict.fromkeys(int(o) for o in unit_ordinals))
        if wanted > len(ordinals):
            raise ValueError(
                f"cannot pick {wanted} distinct victim units from "
                f"{len(ordinals)} ordinals")
        rng = np.random.default_rng(int(seed))
        victims = [ordinals[i] for i in
                   rng.permutation(len(ordinals))[:wanted]]
        rules: List[ChaosRule] = []
        for action, count in (("hang", hangs), ("crash", crashes),
                              ("slow", slows), ("raise", raises)):
            for _ in range(count):
                rules.append(ChaosRule(site="unit", action=action,
                                       key=victims.pop(0), seconds=seconds))
        for _ in range(corrupt_stores):
            rules.append(ChaosRule(site="cache-store", action="corrupt"))
        for _ in range(enospc_stores):
            rules.append(ChaosRule(site="cache-store", action="enospc"))
        return cls(rules, state_dir=state_dir, hang_seconds=hang_seconds)

    def as_payload(self) -> dict:
        """JSON spec round-trippable through :meth:`from_spec`."""

        return {
            "state_dir": str(self.state_dir),
            "hang_seconds": self.hang_seconds,
            "rules": [rule.as_payload() for rule in self.rules],
        }

    # ------------------------------------------------------------------
    # Firing state (filesystem markers: shared by forked workers)
    # ------------------------------------------------------------------
    def _marker(self, rule_index: int) -> Path:
        rule = self.rules[rule_index]
        return self.state_dir / f"fired-{rule_index}-{rule.site}-{rule.action}"

    def _claim(self, rule_index: int) -> bool:
        """Atomically claim a ``once`` rule; False if it already fired."""

        rule = self.rules[rule_index]
        if not rule.once:
            return True
        try:
            fd = os.open(self._marker(rule_index),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(f"pid={os.getpid()} time={time.time()}\n")
        return True

    def fired(self) -> List[str]:
        """Marker names of the ``once`` rules that have fired so far."""

        return sorted(path.name for path in self.state_dir.glob("fired-*"))

    def reset(self) -> None:
        """Forget all firing state (the next consult starts fresh)."""

        for path in self.state_dir.glob("fired-*"):
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # The hook the runtime calls
    # ------------------------------------------------------------------
    def consult(self, site: str, key=None, path: Optional[Path] = None) -> None:
        """Fire every matching, unclaimed rule at ``site`` for ``key``.

        ``path`` is the staged temp file for ``cache-store`` consults (the
        bytes a ``corrupt`` rule damages).  May sleep, raise
        :class:`ChaosError`/``OSError`` or terminate the process, exactly
        as the planned failure dictates.
        """

        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(site, key):
                continue
            if not self._claim(rule_index):
                continue
            logger.warning("chaos: firing %s at %s (key=%r)",
                           rule.action, site, key)
            self._fire(rule, path)

    def _fire(self, rule: ChaosRule, path: Optional[Path]) -> None:
        if rule.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.action == "hang":
            if rule.uninterruptible and hasattr(signal, "SIGTERM"):
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            deadline = time.monotonic() + self.hang_seconds
            while time.monotonic() < deadline:
                time.sleep(min(0.5, max(0.0, deadline - time.monotonic())))
            return
        if rule.action == "slow":
            time.sleep(rule.seconds)
            return
        if rule.action == "raise":
            raise ChaosError("chaos-injected unit failure")
        if rule.action == "enospc":
            raise OSError(errno.ENOSPC, "chaos-injected: no space left on device")
        if rule.action == "corrupt":
            if path is not None:
                _corrupt_file(Path(path), rule.mode)
            return
        raise AssertionError(f"unhandled chaos action {rule.action!r}")


def _corrupt_file(path: Path, mode: str) -> None:
    """Damage ``path`` in place: truncate mid-token or overwrite with noise."""

    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[:max(1, len(data) // 2)])
    else:
        path.write_bytes(b"\x00\xffnot json{{{" + data[: len(data) // 4])


# ----------------------------------------------------------------------
# Process-wide active plan (env-driven; inherited by forked workers)
# ----------------------------------------------------------------------
_ACTIVE: Optional[ChaosPlan] = None
_ENV_RESOLVED = False


def install_plan(plan: Optional[Union[ChaosPlan, dict, str]]) -> Optional[ChaosPlan]:
    """Install ``plan`` as the process-wide chaos plan (None clears it)."""

    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = None if plan is None else ChaosPlan.from_spec(plan)
    _ENV_RESOLVED = True
    return _ACTIVE


def clear_plan() -> None:
    """Remove the active plan and forget any cached env resolution."""

    global _ACTIVE, _ENV_RESOLVED
    _ACTIVE = None
    _ENV_RESOLVED = False


def active_plan() -> Optional[ChaosPlan]:
    """The process-wide plan: installed explicitly, or from ``REPRO_CHAOS``.

    The environment is resolved once per process (workers forked afterwards
    inherit the resolved plan object, so its once-markers are shared); an
    unparsable spec is a hard error -- silently running *without* the
    requested chaos would turn a failing robustness test into a false pass.
    """

    global _ACTIVE, _ENV_RESOLVED
    if not _ENV_RESOLVED:
        _ENV_RESOLVED = True
        spec = os.environ.get(CHAOS_ENV_VAR)
        if spec:
            _ACTIVE = ChaosPlan.from_spec(spec)
            logger.warning("chaos plan active from $%s: %d rule(s)",
                           CHAOS_ENV_VAR, len(_ACTIVE.rules))
    return _ACTIVE
