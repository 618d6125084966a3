"""Baseline model preparation and caching.

Every figure of the paper starts from the same pre-trained ("baseline")
PLIF-SNN per dataset.  :func:`prepare_baseline` trains that model once per
:class:`~repro.experiments.config.ExperimentConfig` and caches it at two
levels:

* **In-process**, so running several experiments (or several benchmarks in
  one pytest session) does not repeat the training.
* **On disk**, when a ``cache_dir`` is given (the CLI's ``--cache-dir``,
  ``--resume`` or ``--shard``): one ``<cache_dir>/baselines/<key>.npz`` per
  baseline, so a later process -- typically a ``campaign --resume`` --
  loads the trained weights instead of retraining them.

The store key (:func:`baseline_key`) digests a format version, every
``ExperimentConfig`` field, the source of the training path
(:func:`training_code_digest`) and the numpy version; editing the training
code or the config therefore invalidates the entry.  Engine, backend and
dtype settings never enter the key -- they do not change the trained
bits.  An entry holds the state arrays, their ``state_token`` (checked on
read), the baseline accuracy and the train loader's post-training shuffle
RNG state, which a hit restores: the mitigation cells shuffle
``PreparedBaseline.train_loader``, so a hit must leave it where a fresh
training run would.  A damaged entry is quarantined and retrained, and a
failed store (e.g. ``ENOSPC``) only logs a warning; both reuse the campaign
cache's primitives.  Concurrent trainers of one key serialise on an
``flock`` of ``<key>.lock``; a hit takes no lock and writes nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import functools
import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..datasets import DataLoader, load_dataset
from ..faults.campaign import _digest_payload, _quarantine_cache_entry, store_record_safe
from ..snn import Adam, SpikingClassifier, Trainer, build_model_for_dataset
from ..utils.hashing import state_token
from ..utils.logging import get_logger
from ..utils.rng import derive_seed
from .config import ExperimentConfig

logger = get_logger("experiments.baseline")

#: Store layout version; bump when the entry format changes.
_STORE_VERSION = 1

#: Sources (relative to the ``repro`` package) that decide the trained bits.
_TRAINING_SOURCES = ("autograd", "snn", "datasets", "utils",
                     "experiments/baseline.py", "experiments/config.py")

#: Prefix of the state arrays inside a store entry.
_STATE_PREFIX = "state/"


@dataclasses.dataclass
class PreparedBaseline:
    """A trained baseline model plus everything needed to rerun experiments on it.

    ``model_factory()`` returns a *fresh* model loaded with the trained
    baseline weights, so each mitigation run starts from identical state.
    """

    config: ExperimentConfig
    state: Dict[str, np.ndarray]
    baseline_accuracy: float
    train_loader: DataLoader
    test_loader: DataLoader
    num_classes: int

    def model_factory(self) -> SpikingClassifier:
        model, _ = build_model_for_dataset(
            self.config.dataset, channels=self.config.channels,
            hidden_units=self.config.hidden_units, time_steps=self.config.time_steps,
            seed=self.config.seed)
        model.load_state_dict(self.state)
        return model


_CACHE: Dict[ExperimentConfig, PreparedBaseline] = {}


def clear_baseline_cache() -> None:
    """Drop all in-process cached baselines (the on-disk store is untouched)."""

    _CACHE.clear()


def build_loaders(config: ExperimentConfig):
    """Create (train_loader, test_loader) for ``config``."""

    train, test = load_dataset(
        config.dataset, num_train=config.num_train, num_test=config.num_test,
        image_size=config.image_size, seed=derive_seed(config.seed, "data"),
        **config.dataset_options())
    train_loader = DataLoader(train, batch_size=config.batch_size, shuffle=True,
                              seed=derive_seed(config.seed, "loader"))
    test_loader = DataLoader(test, batch_size=min(config.num_test, 4 * config.batch_size))
    return train_loader, test_loader


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def training_code_digest() -> str:
    """SHA-256 over the paths and bytes of the training-path source files."""

    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for source in _TRAINING_SOURCES:
        path = root / source
        for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path]):
            digest.update(file.relative_to(root).as_posix().encode("utf-8") + b"\0")
            digest.update(file.read_bytes())
    return digest.hexdigest()


def baseline_key(config: ExperimentConfig) -> str:
    """Store key of ``config``'s trained baseline."""

    return _digest_payload({
        "version": _STORE_VERSION,
        "config": dataclasses.asdict(config),
        "code": training_code_digest(),
        "numpy": np.__version__,
    })


def _write_entry(entry: dict, path: Path) -> None:
    arrays = {_STATE_PREFIX + name: value for name, value in entry["state"].items()}
    with open(path, "wb") as handle:
        np.savez(handle, **arrays,
                 token=np.array(state_token(entry["state"])),
                 baseline_accuracy=np.float64(entry["baseline_accuracy"]),
                 loader_rng=np.array(json.dumps(entry["loader_rng"])))


def _load_entry(path: Path) -> Optional[dict]:
    """The validated entry at ``path``; ``None`` on a miss or a quarantined entry."""

    if not path.exists():
        return None
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        state = {name[len(_STATE_PREFIX):]: value for name, value in arrays.items()
                 if name.startswith(_STATE_PREFIX)}
        if state_token(state) != str(arrays["token"]):
            raise ValueError("state token mismatch")
        return {"state": state,
                "baseline_accuracy": float(arrays["baseline_accuracy"]),
                "loader_rng": json.loads(str(arrays["loader_rng"]))}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        _quarantine_cache_entry(path, f"{type(exc).__name__}: {exc}")
        return None


@contextlib.contextmanager
def _key_lock(path: Path):
    """Hold an exclusive ``flock`` on ``path`` (best effort: unlocked on ``OSError``)."""

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError as exc:
        logger.warning("could not open baseline lock %s (%s); training unlocked",
                       path.name, exc)
        yield
        return
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)


def _train(config: ExperimentConfig, train_loader: DataLoader, test_loader: DataLoader,
           verbose: bool) -> dict:
    model, _ = build_model_for_dataset(
        config.dataset, channels=config.channels, hidden_units=config.hidden_units,
        time_steps=config.time_steps, seed=config.seed)
    trainer = Trainer(model, Adam(model.parameters(), lr=config.baseline_lr),
                      num_classes=config.num_classes)
    history = trainer.fit(train_loader, epochs=config.baseline_epochs,
                          test_loader=test_loader, verbose=verbose)
    baseline_accuracy = history.test_accuracy[-1] if history.test_accuracy else 0.0
    logger.info("baseline %s accuracy %.3f after %d epochs",
                config.dataset, baseline_accuracy, config.baseline_epochs)
    return {"state": model.state_dict(), "baseline_accuracy": baseline_accuracy,
            "loader_rng": train_loader._rng.bit_generator.state}


def _stored_or_trained(config: ExperimentConfig, store: Path, train_loader: DataLoader,
                       test_loader: DataLoader, verbose: bool) -> dict:
    """Load ``config``'s entry from ``store``, training and storing it on a miss."""

    path = store / f"{baseline_key(config)}.npz"
    entry = _load_entry(path)
    if entry is None:
        with _key_lock(path.with_suffix(".lock")):
            # A concurrent process may have stored it while we waited.
            entry = _load_entry(path)
            if entry is None:
                entry = _train(config, train_loader, test_loader, verbose)
                store_record_safe(entry, path, write=_write_entry, chaos=False)
                return entry
    train_loader._rng.bit_generator.state = entry["loader_rng"]
    logger.info("baseline %s loaded from %s", config.dataset, path)
    return entry


def prepare_baseline(config: ExperimentConfig, use_cache: bool = True,
                     verbose: bool = False,
                     cache_dir: Optional[Union[str, Path]] = None) -> PreparedBaseline:
    """Train (or fetch from cache) the baseline model for ``config``.

    With ``use_cache`` the in-process cache is consulted first, then -- when
    ``cache_dir`` is given -- the on-disk store under
    ``<cache_dir>/baselines/``; training runs only on a miss of both.
    ``use_cache=False`` always trains and neither reads nor writes a cache.
    """

    if use_cache and config in _CACHE:
        return _CACHE[config]

    train_loader, test_loader = build_loaders(config)
    if use_cache and cache_dir is not None:
        entry = _stored_or_trained(config, Path(cache_dir) / "baselines",
                                   train_loader, test_loader, verbose)
    else:
        entry = _train(config, train_loader, test_loader, verbose)

    prepared = PreparedBaseline(
        config=config,
        state=entry["state"],
        baseline_accuracy=entry["baseline_accuracy"],
        train_loader=train_loader,
        test_loader=test_loader,
        num_classes=config.num_classes,
    )
    if use_cache:
        _CACHE[config] = prepared
    return prepared
