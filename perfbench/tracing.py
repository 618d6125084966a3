"""Span tracing for traced benchmark runs, installed from outside ``src/``.

A :class:`Tracer` wraps the public functions and methods listed in
:data:`TARGETS` for the duration of a ``with`` block and restores every
original on exit.  Each wrapped call records one span (name, start, end,
parent, run id) in memory; counters are taken at the same boundaries.
:meth:`Tracer.write_jsonl` writes the spans when the run ends, and
:func:`layer_metrics` turns spans and counters into the per-layer metrics
declared in :data:`PER_LAYER`.

Functions are patched wherever a ``repro`` module holds a reference to them
(``from x import f`` copies the reference), so callers that imported a
function by name are traced too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: Per-layer metrics: (name, unit, better, end-to-end metric it should move).
#: BENCHMARK.json's ``per_layer`` list mirrors the first three columns.
PER_LAYER = [
    ("cli.import_s", "s", "lower", "wall_s on campaign-resume once training is cached"),
    ("datasets.load_s", "s", "lower", "wall_s on campaign-resume once training is cached"),
    ("datasets.load_calls", "count", "lower", "wall_s on campaign-resume"),
    ("experiments.prepare_baseline_s", "s", "lower",
     "wall_s on campaign-resume and fig8-mitigation; setup_s on fig5-sweep"),
    ("experiments.prepare_baseline_calls", "count", "lower",
     "wall_s on campaign-resume and fig8-mitigation"),
    ("snn.train_step_s", "s", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("snn.train_steps", "count", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("snn.evaluate_s", "s", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("snn.evaluate_calls", "count", "lower", "wall_s on fig8-mitigation and campaign-resume"),
    ("snn.optim_step_s", "s", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("autograd.backward_s", "s", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("autograd.backward_calls", "count", "lower", "wall_s on fig8-mitigation"),
    ("autograd.conv2d_s", "s", "lower", "wall_s/cpu_s on fig8-mitigation and campaign-resume"),
    ("autograd.conv2d_calls", "count", "lower", "wall_s on fig8-mitigation"),
    ("core.mitigation_s", "s", "lower", "wall_s on fig8-mitigation"),
    ("core.mitigation_runs", "count", "lower", "wall_s on fig8-mitigation"),
    ("core.prune_s", "s", "lower", "wall_s on fig8-mitigation"),
    ("faults.sweep_s", "s", "lower", "wall_s on fig5-sweep"),
    ("faults.sweep_points", "count", "lower", "wall_s on fig5-sweep"),
    ("faults.fault_map_build_s", "s", "lower", "wall_s on fig5-sweep"),
    ("faults.fault_maps_built", "count", "lower", "wall_s on fig5-sweep"),
    ("faults.cache_write_s", "s", "lower", "wall_s on fig5-sweep"),
    ("faults.cache_writes", "count", "lower", "wall_s on fig5-sweep"),
    ("faults.cache_read_s", "s", "lower", "wall_s on campaign-resume"),
    ("faults.cache_reads", "count", "lower", "wall_s on campaign-resume"),
    ("faults.cache_hits", "count", "higher", "wall_s on campaign-resume"),
    ("faults.cache_hit_ratio", "ratio", "higher", "wall_s on campaign-resume"),
    ("snn.inference.lower_s", "s", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.plan_cache_hits", "count", "higher", "wall_s on fig5-sweep"),
    ("snn.inference.plan_cache_misses", "count", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.fault_engine_s", "s", "lower", "wall_s and peak_rss_mb on fig5-sweep"),
    ("snn.inference.fault_engine_runs", "count", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.fault_maps_simulated", "count", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.clean_eval_s", "s", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.im2col_s", "s", "lower", "wall_s and peak_rss_mb on fig5-sweep"),
    ("snn.inference.im2col_calls", "count", "lower", "wall_s on fig5-sweep"),
    ("snn.inference.im2col_bytes", "bytes", "lower", "peak_rss_mb on fig5-sweep (computed)"),
    ("systolic.chain_apply_s", "s", "lower", "wall_s on fig5-sweep"),
    ("systolic.chain_apply_calls", "count", "lower", "wall_s on fig5-sweep"),
    ("systolic.sim_macs", "count", "lower",
     "none: analytical work of the simulated inferences, must repeat exactly"),
    ("systolic.host_ns_per_sim_mac", "ns", "lower", "wall_s on fig5-sweep"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
    ("trace.unattributed_share", "ratio", "lower",
     "none: share of wall_s outside every top-level span"),
]


def _count_sweep(tracer, bound, result):
    tracer.count("faults.sweep_points", len(result))


def _count_fault_maps(tracer, bound, result):
    tracer.count("faults.fault_maps_built", len(result) if isinstance(result, list) else 1)


def _count_cache_read(tracer, bound, result):
    tracer.count("faults.cache_hits", int(result is not None))


def _count_im2col(tracer, bound, result):
    # Bytes read plus bytes written, computed from the array shapes.
    tracer.count("snn.inference.im2col_bytes", bound["x"].nbytes + result.nbytes)


def _note_engine_dims(tracer, bound, result):
    source = bound.get("arrays") or bound.get("schedules")
    first = list(source)[0]
    tracer.engine_dims[id(bound["self"])] = (first.rows, first.cols)


def _count_fault_engine_run(tracer, bound, result):
    engine = bound["self"]
    rows, cols = tracer.engine_dims.get(id(engine), (1, 1))
    tracer.count("snn.inference.fault_engine_runs")
    tracer.count("snn.inference.fault_maps_simulated", engine.num_maps)
    macs = plan_macs(engine.plan, tuple(getattr(bound["inputs"], "shape", ())), rows, cols)
    tracer.count("systolic.sim_macs", engine.num_maps * macs)


#: (span name, module, owner class or None, attribute, counter hook).
TARGETS = [
    ("datasets.load", "repro.datasets", None, "load_dataset", None),
    ("experiments.prepare_baseline", "repro.experiments.baseline", None,
     "prepare_baseline", None),
    ("snn.train_step", "repro.snn.training", "Trainer", "train_step", None),
    ("snn.evaluate", "repro.snn.training", "Trainer", "evaluate", None),
    ("snn.optim_step", "repro.snn.optim", "Adam", "step", None),
    ("autograd.backward", "repro.autograd.tensor", "Tensor", "backward", None),
    ("autograd.conv2d", "repro.autograd.functional", None, "conv2d", None),
    ("core.mitigation", "repro.core.base", "FaultMitigation", "run", None),
    ("core.prune", "repro.core.pruning", None, "find_pruned_weight_indices", None),
    ("core.prune", "repro.core.pruning", None, "set_pruned_weights_to_zero", None),
    ("faults.sweep", "repro.faults.analysis", None, "sweep_bit_locations", _count_sweep),
    ("faults.sweep", "repro.faults.analysis", None, "sweep_faulty_pe_count", _count_sweep),
    ("faults.sweep", "repro.faults.analysis", None, "sweep_array_sizes", _count_sweep),
    ("faults.fault_map_build", "repro.faults.campaign", "CampaignPoint", "build_fault_maps",
     _count_fault_maps),
    ("faults.fault_map_build", "repro.faults.fault_map", None, "fault_map_from_rate",
     _count_fault_maps),
    ("faults.cache_write", "repro.faults.campaign", None, "store_record_safe", None),
    ("faults.cache_read", "repro.faults.campaign", None, "load_cached_record",
     _count_cache_read),
    ("snn.inference.lower", "repro.snn.inference.plan", None, "lower_plan", None),
    ("snn.inference.fault_engine", "repro.snn.inference.engine", "FusedFaultEngine",
     "__init__", _note_engine_dims),
    ("snn.inference.fault_engine", "repro.snn.inference.engine", "FusedFaultEngine",
     "evaluate", None),
    ("snn.inference.fault_engine", "repro.snn.inference.engine", "FusedFaultEngine",
     "run", _count_fault_engine_run),
    ("snn.inference.clean_eval", "repro.snn.inference.engine", "FusedInferenceEngine",
     "__init__", None),
    ("snn.inference.clean_eval", "repro.snn.inference.engine", "FusedInferenceEngine",
     "evaluate", None),
    # The fused engine's patch gathers: the fork lanes call the backend
    # method, the clean-lane kernels their class-level ``_im2col`` hook.
    ("snn.inference.im2col", "repro.snn.inference.backends.base", "Backend", "im2col",
     _count_im2col),
    ("snn.inference.im2col", "repro.snn.inference.backends.ops_numpy",
     "SoftwareAffineKernel", "_im2col", _count_im2col),
    ("snn.inference.im2col", "repro.snn.inference.backends.ops_numpy",
     "ArrayAffineKernel", "_im2col", _count_im2col),
    ("systolic.chain_apply", "repro.systolic.chain_kernel", None, "apply_chain_plan", None),
]


def plan_macs(plan, input_shape: tuple, rows: int, cols: int) -> int:
    """Analytical MACs of one fault-free inference of ``plan`` on ``input_shape``.

    Shapes are propagated through the plan's op specs and each affine layer
    is costed by :func:`repro.systolic.scheduler.schedule_layer`.
    """

    from repro.snn.inference.plan import AffineSpec, FlattenSpec, PoolSpec
    from repro.systolic.scheduler import LayerWorkload, schedule_layer

    if len(input_shape) in (3, 5):  # time-major input
        steps, batch, shape = input_shape[0], input_shape[1], input_shape[2:]
    else:
        steps, batch, shape = plan.time_steps, input_shape[0], input_shape[1:]
    total = 0
    for op in plan.ops:
        if isinstance(op, AffineSpec):
            out_features, in_features = op.weight_matrix_shape
            if op.kind == "conv":
                kh, kw = op.weight.shape[2:]
                out_h = (shape[1] + 2 * op.padding - kh) // op.stride + 1
                out_w = (shape[2] + 2 * op.padding - kw) // op.stride + 1
                positions, shape = out_h * out_w, (out_features, out_h, out_w)
            else:
                positions, shape = 1, (out_features,)
            workload = LayerWorkload(f"affine{op.index}", out_features, in_features,
                                     batch * positions * steps)
            total += schedule_layer(workload, rows, cols).mac_operations
        elif isinstance(op, PoolSpec):
            shape = (shape[0], shape[1] // op.kernel_size, shape[2] // op.kernel_size)
        elif isinstance(op, FlattenSpec):
            size = 1
            for extent in shape:
                size *= extent
            shape = (size,)
    return int(total)


class Tracer:
    """In-memory span recorder that wraps :data:`TARGETS` while active.

    Use as a context manager: entering installs the wrappers, leaving
    removes every one of them (including references that modules imported
    while the wrappers were installed).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: One entry per span: [name, start, end, parent index or None].
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.engine_dims: Dict[int, tuple] = {}
        self._local = threading.local()
        self._originals: Dict[int, object] = {}
        self._patched: List[tuple] = []
        self._plan_cache_start = (0, 0)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span named ``name`` around the ``with`` body."""

        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- installation ------------------------------------------------------
    def _wrap(self, span_name: str, function: Callable, hook) -> Callable:
        tracer = self
        signature = inspect.signature(function) if hook is not None else None

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer.begin(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _set(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        from repro.snn.inference.plan_cache import default_plan_cache

        for span_name, module_name, class_name, attribute, hook in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                raw = vars(owner)[attribute]
                if isinstance(raw, staticmethod):
                    self._set(owner, attribute,
                              staticmethod(self._wrap(span_name, raw.__func__, hook)))
                else:
                    self._set(owner, attribute, self._wrap(span_name, raw, hook))
                continue
            function = getattr(module, attribute)
            wrapper = self._wrap(span_name, function, hook)
            self._originals[id(wrapper)] = function
            for holder in _repro_modules():
                for name, value in list(vars(holder).items()):
                    if value is function:
                        self._set(holder, name, wrapper)
        cache = default_plan_cache()
        self._plan_cache_start = (cache.hits, cache.misses)

    def uninstall(self) -> None:
        from repro.snn.inference.plan_cache import default_plan_cache

        cache = default_plan_cache()
        self.count("snn.inference.plan_cache_hits", cache.hits - self._plan_cache_start[0])
        self.count("snn.inference.plan_cache_misses",
                   cache.misses - self._plan_cache_start[1])
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        # Modules imported while tracing may have copied a wrapper by name.
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                if getattr(value, "__perfbench_wrapper__", False):
                    setattr(holder, name, self._originals[id(value)])
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "run": self.run_id}) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters),
                                     "run": self.run_id}) + "\n")


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def wrappers_left() -> List[str]:
    """Locations still holding a tracing wrapper (empty once uninstalled)."""

    found = []
    owners = list(_repro_modules())
    for _, module_name, class_name, _, _ in TARGETS:
        module = sys.modules.get(module_name)
        if module is not None and class_name is not None:
            owners.append(getattr(module, class_name))
    for owner in owners:
        for name, value in list(vars(owner).items()):
            function = value.__func__ if isinstance(value, staticmethod) else value
            if getattr(function, "__perfbench_wrapper__", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found


def read_jsonl(path):
    """Spans and counters written by :meth:`Tracer.write_jsonl`."""

    spans, counters = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if "counters" in entry:
                counters = entry["counters"]
            else:
                spans.append([entry["name"], entry["start"], entry["end"], entry["parent"]])
    return spans, counters


def summarize(spans: List[list]) -> Dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""

    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["total_s"] += end - start
    return dict(table)


def top_level_seconds(spans: List[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent is None)


def layer_metrics(spans: List[list], counters: Dict[str, float], wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced iteration."""

    table = summarize(spans)

    def seconds(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    reads = calls("faults.cache_read")
    fault_engine_s = seconds("snn.inference.fault_engine")
    sim_macs = counters.get("systolic.sim_macs", 0)
    values = {
        "cli.import_s": seconds("cli.import"),
        "datasets.load_calls": calls("datasets.load"),
        "experiments.prepare_baseline_calls": calls("experiments.prepare_baseline"),
        "snn.train_steps": calls("snn.train_step"),
        "snn.evaluate_calls": calls("snn.evaluate"),
        "autograd.backward_calls": calls("autograd.backward"),
        "autograd.conv2d_calls": calls("autograd.conv2d"),
        "core.mitigation_runs": calls("core.mitigation"),
        "faults.cache_writes": calls("faults.cache_write"),
        "faults.cache_reads": reads,
        "faults.cache_hit_ratio": counters.get("faults.cache_hits", 0) / reads if reads else 0.0,
        "snn.inference.im2col_calls": calls("snn.inference.im2col"),
        "systolic.chain_apply_calls": calls("systolic.chain_apply"),
        "systolic.host_ns_per_sim_mac": fault_engine_s / sim_macs * 1e9 if sim_macs else 0.0,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.unattributed_share": 1.0 - top_level_seconds(spans) / wall_s,
    }
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name in counters or unit != "s":
            value = counters.get(name, 0)
        else:
            value = seconds(name[:-len("_s")])
        metrics[name] = int(value) if unit in ("count", "bytes") else value
    return metrics


def format_self_time_table(spans: List[list], wall_s: float) -> str:
    """Per-layer self-time table, largest self time first."""

    table = summarize(spans)
    lines = [f"{'span':<30} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"{name:<30} {row['calls']:>8} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {100 * row['self_s'] / wall_s:>6.1f}%")
    unattributed = wall_s - top_level_seconds(spans)
    lines.append(f"{'(outside any span)':<30} {'':>8} {'':>10} {unattributed:>10.4f} "
                 f"{100 * unattributed / wall_s:>6.1f}%")
    return "\n".join(lines)
