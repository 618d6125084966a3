"""Fused no-autograd inference engines over a lowered plan.

Two engines execute an :class:`~repro.snn.inference.plan.InferencePlan`:

* :class:`FusedInferenceEngine` -- fault-free evaluation.  In ``float64``
  it is bit-identical to ``model(x)`` in eval mode under ``no_grad`` (same
  numpy operations, same order, same shapes); ``float32`` trades
  bit-identity for roughly half the memory traffic on the memory-bound
  elementwise neuron updates.

* :class:`FusedFaultEngine` -- evaluation under ``F`` systolic-array fault
  maps in one pass, with **clean-prefix sharing**: faults only corrupt
  specific affine layers' GEMMs (a map is corrupted by a layer only when
  one of its faulty PE columns actually holds output features of that
  layer, or a bypassed PE zeroes one of its weights), so each fault map's
  execution is bit-identical to the clean one up to the first affine layer
  its faults touch.  The engine runs a single shared *clean lane* plus a
  growing *fork lane*: a map is forked out of the clean lane exactly at its
  first corrupted layer, and all forked maps advance together with their
  fault-map axis folded into the batch axis.  Corrupted GEMMs run through
  :meth:`~repro.systolic.array.BatchedSystolicArray.conv2d_batched` /
  :meth:`~repro.systolic.array.BatchedSystolicArray.matmul_batched`, whose
  per-map arithmetic is bit-identical to the sequential oracle, so float64
  results match the autograd fault-injection paths bit for bit.

Both engines additionally cache the *static prefix* (the stateless ops
before the first spiking layer) per batch: for static inputs those
activations are identical at every time step, so e.g. the spike-encoder
convolution runs once instead of ``T`` times.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...systolic.array import BatchedSystolicArray, SystolicArray
from ...systolic.mapping import faulty_weight_mask
from .backends import get_backend
from .backends.ops_numpy import NeuronKernel
from .plan import SUPPORTED_DTYPES, AffineSpec, InferencePlan, lower_plan

__all__ = ["FusedInferenceEngine", "FusedFaultEngine"]


def _check_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported inference dtype '{dtype}'; options: {SUPPORTED_DTYPES}")
    return resolved


def _iter_frames(x: np.ndarray, time_steps: int):
    """Frame iteration with the semantics of ``SpikingClassifier._iter_frames``."""

    if x.ndim in (5, 3):
        for t in range(x.shape[0]):
            yield x[t]
    elif x.ndim in (4, 2):
        for _ in range(time_steps):
            yield x
    else:
        raise ValueError(
            "expected a 2D/4D static input or a 3D/5D time-major input, "
            f"got shape {x.shape}")


class FusedInferenceEngine:
    """Fault-free fused evaluation of a lowered spiking classifier.

    Parameters
    ----------
    model:
        A trained :class:`~repro.snn.network.SpikingClassifier` (anything
        with a ``lower_inference`` hook and ``time_steps``).  Weights are
        captured by reference at construction; rebuild the engine after
        loading new parameters.
    dtype:
        ``"float64"`` (bit-identical to the autograd forward) or
        ``"float32"`` (documented-tolerance fast mode).
    plan_cache:
        Optional :class:`~repro.snn.inference.plan_cache.PlanCache`: the
        lowered plan is fetched from (and stored into) the cache instead
        of re-lowering, keyed by the model's content token.
    plan_token:
        Optional precomputed model token, skipping the state hashing on a
        cache lookup (ignored without ``plan_cache``).
    backend:
        Kernel backend name (or :class:`~repro.snn.inference.backends
        .Backend` instance); ``None`` resolves ``REPRO_BACKEND`` falling
        back to ``"numpy"``.  Every backend's float64 output is
        byte-identical to the numpy oracle, so the choice never enters
        result semantics (or cache keys) -- only speed.
    """

    def __init__(self, model, dtype: str = "float64", plan_cache=None,
                 plan_token: Optional[str] = None, backend=None) -> None:
        self.plan: InferencePlan = (
            plan_cache.get_plan(model, token=plan_token)
            if plan_cache is not None else lower_plan(model))
        self.dtype = _check_dtype(dtype)
        self.backend = backend if hasattr(backend, "make_kernel") else get_backend(backend)
        self._kernels = [
            self.backend.make_kernel(op, self.dtype, affine_mode="software")
            for op in self.plan.ops]
        self._prefix = self.plan.static_prefix

    def _reset_state(self) -> None:
        for kernel in self._kernels:
            if isinstance(kernel, NeuronKernel):
                kernel.reset()

    def run(self, inputs) -> np.ndarray:
        """Output firing rates of shape ``(batch, num_classes)``."""

        x0 = np.asarray(inputs, dtype=self.dtype)
        static = x0.ndim in (4, 2)
        self._reset_state()
        acc: Optional[np.ndarray] = None
        prefix_out: Optional[np.ndarray] = None
        steps = 0
        for frame in _iter_frames(x0, self.plan.time_steps):
            if static and prefix_out is not None:
                x = prefix_out
            else:
                x = frame
                for kernel in self._kernels[:self._prefix]:
                    x = kernel.run(x)
                if static:
                    prefix_out = x
            for kernel in self._kernels[self._prefix:]:
                x = kernel.run(x)
            if acc is None:
                acc = x.astype(self.dtype, copy=True)
            else:
                np.add(acc, x, out=acc)
            steps += 1
        np.multiply(acc, 1.0 / steps, out=acc)
        return acc

    def predict(self, inputs) -> np.ndarray:
        """Predicted class indices for a batch."""

        return np.argmax(self.run(inputs), axis=1)

    def evaluate(self, loader) -> float:
        """Classification accuracy over all batches of ``loader``."""

        correct = 0
        total = 0
        for inputs, labels in loader:
            predictions = np.argmax(self.run(inputs), axis=1)
            correct += int(np.sum(predictions == labels))
            total += labels.shape[0]
        return correct / total if total else 0.0


class _AffineExec:
    """Precomputed per-affine-layer execution state of the fork lane.

    ``subset`` is the :class:`BatchedSystolicArray` of the maps active at
    this layer and ``prepared`` its ``prepare_weight`` handle for the
    layer's weight.
    """

    __slots__ = ("spec", "subset", "prepared", "num_prev", "num_active")

    def __init__(self, spec, subset, prepared, num_prev, num_active) -> None:
        self.spec = spec
        self.subset = subset
        self.prepared = prepared
        self.num_prev = num_prev
        self.num_active = num_active


class FusedFaultEngine:
    """Fused evaluation under ``F`` fault maps with clean-prefix sharing.

    Parameters
    ----------
    model:
        Trained spiking classifier (lowered at construction).
    arrays:
        One (possibly faulty, possibly bypassed) :class:`SystolicArray` per
        fault map.  All must share grid dimensions and accumulator format.
        Fault/bypass state is snapshotted when the engine is built.
    dtype:
        ``"float64"`` reproduces the autograd fault-injection paths bit for
        bit; ``"float32"`` keeps the (fixed-point) fault arithmetic in
        float64 inside the array simulator but runs all elementwise SNN
        state in single precision.
    plan_cache:
        Optional :class:`~repro.snn.inference.plan_cache.PlanCache`; see
        :class:`FusedInferenceEngine`.
    plan_token:
        Optional precomputed model token for the cache lookup.
    schedules:
        One :class:`~repro.faults.fault_map.FaultSchedule` per map for
        *transient* faults, instead of ``arrays`` (exactly one of the two
        must be given).  The per-step live-fault signatures are deduped
        into phases; each map forks at the first layer its fault *union*
        can touch, and the fork-lane arrays are swapped per phase, so
        results stay bit-identical to the step-by-step sequential oracle.
    fmt:
        Accumulator format for the transient path; defaults to the
        schedules' pinned format (required when the schedules do not pin
        one).  Ignored with ``arrays``.
    backend:
        Kernel backend name (or instance); ``None`` resolves
        ``REPRO_BACKEND`` falling back to ``"numpy"``.  Float64 results
        are byte-identical across backends (the numpy path is the oracle),
        so the backend never enters campaign cache keys.
    """

    def __init__(self, model, arrays: Optional[Sequence[SystolicArray]] = None,
                 dtype: str = "float64", plan_cache=None,
                 plan_token: Optional[str] = None,
                 schedules=None, fmt=None, backend=None) -> None:
        if (arrays is None) == (schedules is None):
            raise ValueError(
                "FusedFaultEngine needs exactly one of arrays (permanent "
                "faults) or schedules (transient faults)")
        self.plan: InferencePlan = (
            plan_cache.get_plan(model, token=plan_token)
            if plan_cache is not None else lower_plan(model))
        self.dtype = _check_dtype(dtype)
        self.backend = backend if hasattr(backend, "make_kernel") else get_backend(backend)
        affine_specs = self.plan.affine_specs
        ops = self.plan.ops

        if schedules is not None:
            # Transient path: dedup the joint per-step live-fault signatures
            # into phases.  Fork structure (divergence, fork order, stash
            # points) is computed on each schedule's *union* map -- every
            # fault treated as permanent -- so a map's fork point never moves
            # between phases; within a phase where a fault is dormant, the
            # simulator's per-slice dense product is the sequential clean
            # GEMM, keeping bits identical to the step-by-step oracle.
            from ...faults.fault_map import schedule_phases
            from ...faults.injection import build_faulty_array
            from ...systolic.fixed_point import DEFAULT_ACCUMULATOR_FORMAT

            schedules = list(schedules)
            if not schedules:
                raise ValueError("FusedFaultEngine needs at least one schedule")
            resolved_fmt = fmt if fmt is not None else schedules[0].fmt
            if resolved_fmt is None:
                resolved_fmt = DEFAULT_ACCUMULATOR_FORMAT
            step_phase, phase_maps = schedule_phases(schedules)
            self._step_phase: Optional[List[int]] = step_phase
            phase_arrays = [
                [build_faulty_array(fault_map, fmt=resolved_fmt)
                 for fault_map in maps]
                for maps in phase_maps]
            structure_arrays = [
                build_faulty_array(schedule.union_map(), fmt=resolved_fmt)
                for schedule in schedules]
        else:
            arrays = list(arrays)
            if not arrays:
                raise ValueError("FusedFaultEngine needs at least one array")
            self._step_phase = None
            phase_arrays = [arrays]
            structure_arrays = arrays
        self.num_maps = len(structure_arrays)

        # First affine ordinal whose GEMM each map's faults corrupt.  Each
        # map is probed through a single-map BatchedSystolicArray so the
        # chain-population rule is the simulator's own, not a re-derivation.
        self._divergence: List[Optional[int]] = [
            self._first_affected(array, BatchedSystolicArray([array]),
                                 affine_specs)
            for array in structure_arrays]
        #: Forked maps in fork-lane order (divergence layer, then map index).
        self.fork_order: List[int] = sorted(
            (f for f in range(self.num_maps) if self._divergence[f] is not None),
            key=lambda f: (self._divergence[f], f))

        # Clean-lane bookkeeping: which affine ordinals still need the clean
        # output afterwards, and at which op positions the clean input must
        # be stashed because some map forks exactly there.
        self._clean_out_needed: List[bool] = [
            any(d is None or d > spec.index for d in self._divergence)
            for spec in affine_specs]
        fork_ordinals = {d for d in self._divergence if d is not None}
        op_of_affine: Dict[int, int] = {
            op.index: i for i, op in enumerate(ops) if isinstance(op, AffineSpec)}
        self._stash_ops = {op_of_affine[k] for k in fork_ordinals}

        # Fork-lane affine layers: layers[phase][ordinal].  The fork
        # structure (active maps and their order) is phase-independent --
        # only the arrays backing the layers change with the live-fault
        # phase.  Ordinals sharing an active set share one subset array.
        subset_cache = {}
        self.layers: List[List[Optional[_AffineExec]]] = [
            [] for _ in phase_arrays]
        for spec in affine_specs:
            k = spec.index
            active = [f for f in self.fork_order if self._divergence[f] <= k]
            prev = sum(1 for f in self.fork_order if self._divergence[f] < k)
            for phase, layers in enumerate(self.layers):
                if not active:
                    layers.append(None)
                    continue
                key = (phase, tuple(active))
                subset = subset_cache.get(key)
                if subset is None:
                    subset = subset_cache[key] = BatchedSystolicArray(
                        [phase_arrays[phase][f] for f in active],
                        backend=self.backend)
                layers.append(_AffineExec(spec, subset,
                                          subset.prepare_weight(spec.weight),
                                          prev, len(active)))
        #: First op index with fork work (past the end when nothing forks).
        self._fork_start = (
            op_of_affine[self._divergence[self.fork_order[0]]]
            if self.fork_order else len(ops))
        # Fork-lane activations keep an explicit leading fault-map axis
        # ((F_forked, batch, ...)); elementwise arithmetic is unchanged but
        # the batched conv outputs never need a (costly) re-fold copy.
        self.kernels = [None if isinstance(op, AffineSpec) or i < self._fork_start
                        else self.backend.make_kernel(op, self.dtype, batch_ndim=2)
                        for i, op in enumerate(ops)]

        self._clean = [self.backend.make_kernel(op, self.dtype,
                                                affine_mode="array")
                       for op in ops]
        self._prefix = self.plan.static_prefix

    # ------------------------------------------------------------------
    def _phase_for_step(self, step: int) -> int:
        """Live-fault phase of SNN time step ``step`` (0 when permanent)."""

        if self._step_phase is None:
            return 0
        if step >= len(self._step_phase):
            raise ValueError(
                f"model ran more than {len(self._step_phase)} time steps "
                "but the transient fault schedules only cover "
                f"{len(self._step_phase)}")
        return self._step_phase[step]

    @staticmethod
    def _first_affected(array: SystolicArray, probe: BatchedSystolicArray,
                        affine_specs: Sequence[AffineSpec]) -> Optional[int]:
        """First affine ordinal whose output the map's faults can alter.

        A layer is touched when the simulator would build at least one
        fault chain for it (asked of ``probe`` -- a single-map
        :class:`BatchedSystolicArray` -- so the feature-to-column mapping
        and active-fault filtering stay the simulator's own), when a
        bypassed PE's weight mask covers any weight element, or when a
        weight-SRAM-faulty PE holds any of the layer's weights.  Note a
        populated chain counts even when no fault row falls inside a tile:
        the simulator still *recomputes* those columns through the
        segment-GEMM path, so only maps reported clean here are guaranteed
        bit-identical to the dense product.
        """

        bypassed = array.bypassed_coordinates
        weight_faulty = {(site.row, site.col)
                         for site in array.weight_fault_sites()}
        for spec in affine_specs:
            out_features, in_features = spec.weight_matrix_shape
            if probe._chain_tables(out_features):
                return spec.index
            for coords in (bypassed, weight_faulty):
                if coords:
                    mask = faulty_weight_mask(coords, (out_features, in_features),
                                              array.rows, array.cols)
                    if mask.any():
                        return spec.index
        return None

    def _reset_state(self) -> None:
        for kernel in self._clean + self.kernels:
            if isinstance(kernel, NeuronKernel):
                kernel.reset()

    # ------------------------------------------------------------------
    def _fork_affine(self, layer: _AffineExec, x_c: Optional[np.ndarray],
                     x_v: Optional[np.ndarray]) -> np.ndarray:
        """Run one corrupted affine layer for the maps forked so far.

        Maps forking *at* this layer enter with the clean activations; maps
        forked earlier carry their own slice of the fork lane.  The result
        keeps the leading ``(F_forked, batch, ...)`` fault-map axis.
        """

        spec = layer.spec
        num_new = layer.num_active - layer.num_prev
        if layer.num_prev == 0:
            # Everyone forks here: hand the array the shared clean
            # activations (no fault-map axis) so the dense product is
            # computed once and replicated across the maps.
            x_in = x_c
        else:
            x_in = x_v
            if num_new:
                x_in = np.concatenate(
                    [x_in, np.broadcast_to(x_c, (num_new,) + x_c.shape)])
        if spec.kind == "conv":
            out = layer.subset.conv2d_batched(
                spec.weight, x_in, bias=spec.bias, stride=spec.stride,
                padding=spec.padding, prepared=layer.prepared)
        else:
            out = layer.subset.matmul_batched(spec.weight, x_in, bias=spec.bias,
                                              prepared=layer.prepared)
        if out.dtype != self.dtype:
            out = out.astype(self.dtype)
        return out

    def _run_clean(self, x_c: Optional[np.ndarray], start: int, stop: int,
                   stash: Dict[int, np.ndarray]) -> Optional[np.ndarray]:
        """Advance the clean lane, stashing fork-entry activations.

        ``stash[i]`` receives the clean *input* of every affine op ``i``
        some map forks at; the fork lane reads those activations afterwards.
        The references stay valid for the whole step: a clean kernel's
        output buffer is only overwritten the next time that kernel runs.
        """

        ops = self.plan.ops
        for i in range(start, stop):
            op = ops[i]
            if isinstance(op, AffineSpec):
                if i in self._stash_ops:
                    stash[i] = x_c
                x_c = (self._clean[i].run(x_c)
                       if self._clean_out_needed[op.index] else None)
            elif x_c is not None:
                x_c = self._clean[i].run(x_c)
        return x_c

    def _run_fork(self, x_v: Optional[np.ndarray], start: int, stop: int,
                  stash: Dict[int, np.ndarray], phase: int
                  ) -> Optional[np.ndarray]:
        """Advance the fork-lane activations over ops ``[start, stop)``."""

        ops = self.plan.ops
        layers = self.layers[phase]
        for i in range(max(start, self._fork_start), stop):
            op = ops[i]
            if isinstance(op, AffineSpec):
                layer = layers[op.index]
                if layer is not None:
                    x_v = self._fork_affine(layer, stash.get(i), x_v)
            elif x_v is not None:
                x_v = self.kernels[i].run(x_v)
        return x_v

    def run(self, inputs) -> np.ndarray:
        """Per-map firing rates of shape ``(F, batch, num_classes)``.

        ``result[f]`` is bit-identical (float64) to the autograd forward
        with the model's affine layers routed through ``arrays[f]``.
        """

        x0 = np.asarray(inputs, dtype=self.dtype)
        static = x0.ndim in (4, 2)
        batch = x0.shape[0] if static else x0.shape[1]
        n_ops = len(self.plan.ops)
        self._reset_state()
        acc_c: Optional[np.ndarray] = None
        acc_v: Optional[np.ndarray] = None
        cached_clean: Optional[Tuple] = None
        cached_fork: Dict[int, Optional[np.ndarray]] = {}
        steps = 0
        for frame in _iter_frames(x0, self.plan.time_steps):
            phase = self._phase_for_step(steps)
            if static and cached_clean is not None:
                x_c0, prefix_stash = cached_clean
            else:
                # The prefix is stateless, so for static inputs it runs
                # once (the clean prefix is phase-independent; fork-lane
                # prefix outputs are cached per live-fault phase below).
                prefix_stash: Dict[int, np.ndarray] = {}
                x_c0 = self._run_clean(frame, 0, self._prefix, prefix_stash)
                if static:
                    cached_clean = (x_c0, prefix_stash)
            if static and phase in cached_fork:
                x_v0 = cached_fork[phase]
            else:
                x_v0 = self._run_fork(None, 0, self._prefix, prefix_stash, phase)
                if static:
                    cached_fork[phase] = x_v0
            # Clean pass first: it produces the fork-entry activations.
            stash: Dict[int, np.ndarray] = {}
            x_c = self._run_clean(x_c0, self._prefix, n_ops, stash)
            if self.fork_order:
                x_v = self._run_fork(x_v0, self._prefix, n_ops, stash, phase)
                if acc_v is None:
                    acc_v = x_v.astype(self.dtype, copy=True)
                else:
                    np.add(acc_v, x_v, out=acc_v)
            if x_c is not None:
                if acc_c is None:
                    acc_c = x_c.astype(self.dtype, copy=True)
                else:
                    np.add(acc_c, x_c, out=acc_c)
            steps += 1

        scale = 1.0 / steps
        reference = acc_c if acc_c is not None else acc_v
        num_classes = reference.shape[-1]
        rates = np.empty((self.num_maps, batch, num_classes), dtype=self.dtype)
        if acc_c is not None:
            np.multiply(acc_c, scale, out=acc_c)
        if acc_v is not None:
            np.multiply(acc_v, scale, out=acc_v)
            for position, map_index in enumerate(self.fork_order):
                rates[map_index] = acc_v[position]
        forked = set(self.fork_order)
        for map_index in range(self.num_maps):
            if map_index not in forked:
                rates[map_index] = acc_c
        return rates

    def evaluate(self, loader) -> List[float]:
        """Per-fault-map accuracies over all batches of ``loader``."""

        correct = np.zeros(self.num_maps, dtype=np.int64)
        total = 0
        for inputs, labels in loader:
            rates = self.run(inputs)
            predictions = np.argmax(rates, axis=2)
            correct += np.sum(predictions == labels[None, :], axis=1)
            total += labels.shape[0]
        if not total:
            return [0.0] * self.num_maps
        return [int(c) / total for c in correct]
