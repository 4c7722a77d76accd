"""Outside-in layer tracer for the cSTF benchmark.

The tracer measures the layers of a ``cstf`` run without touching the
program: :meth:`Tracer.install` replaces public callables of the ``repro``
modules with timing shims and :meth:`Tracer.uninstall` puts every original
object back. Each shim records ``(id, layer, start, end, parent, thread)``
into an in-memory list; parents come from a per-thread stack, so a span's
children are always on its own thread.

Two kinds of target are patched:

- a module function (``"module:name"``) is rebound in *every* loaded
  ``repro`` module that holds it, because callers such as
  ``repro.core.cstf`` or ``repro.engine.driver`` imported it by name;
- a method (``"module:Class.method"``) is patched on the class and on
  every subclass that overrides it (``ThreadsBackend.run_shards`` and
  ``ProcessBackend.run_shards`` as well as ``ExecutionBackend.run_shards``).

Spans recorded in forked worker processes stay in those processes; the
trace covers the benchmark process and its threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["LAYERS", "Tracer", "find_patched", "layer_metrics", "span_cost_s"]

#: Layer name -> the public callables whose time it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "machine.stats": ("repro.machine.analytic:TensorStats.from_coo",),
    "tensor.convert": (
        "repro.tensor.blco:BlcoTensor.from_coo",
        "repro.tensor.csf:CsfTensor.from_coo",
        "repro.tensor.alto:AltoTensor.from_coo",
        "repro.tensor.hicoo:HicooTensor.from_coo",
    ),
    "engine.format": ("repro.engine.plan:PlanCache.format",),
    "engine.plan": ("repro.engine.plan:PlanCache.plan",),
    "engine.block_plans": ("repro.engine.plan:PlanCache.block_plans",),
    "engine.mttkrp": ("repro.engine.driver:engine_mttkrp",),
    "engine.run_stream": ("repro.engine.execute:run_stream",),
    "engine.run_shards": ("repro.engine.backends.base:ExecutionBackend.run_shards",),
    "engine.tree_reduce": ("repro.engine.backends.base:tree_reduce",),
    "engine.shm.lease": ("repro.engine.backends.shm:SegmentPool.lease",),
    "updates.update": ("repro.updates.base:UpdateMethod.update",),
    "machine.fused": (
        "repro.machine.executor:Executor.fused_auxiliary",
        "repro.machine.executor:Executor.fused_prox_primal",
        "repro.machine.executor:Executor.fused_dual_update",
    ),
    "machine.solve": (
        "repro.machine.executor:Executor.cholesky",
        "repro.machine.executor:Executor.cholesky_solve",
        "repro.machine.executor:Executor.spd_inverse",
        "repro.machine.executor:Executor.gemm",
    ),
    "machine.gram": ("repro.machine.executor:Executor.gram",),
    "machine.normalize": ("repro.machine.executor:Executor.normalize_columns",),
    "machine.charge": (
        "repro.machine.analytic:charge_mttkrp",
        "repro.machine.executor:Executor.record",
    ),
    "core.fit": ("repro.core.kruskal:KruskalTensor.fit",),
    "resilience.ensure_finite": ("repro.resilience.guards:ensure_finite",),
    "resilience.checkpoint": ("repro.resilience.checkpoint:save_checkpoint",),
    "resilience.supervisor": ("repro.resilience.supervisor:RunSupervisor.run",),
    "obs.sink": ("repro.obs.sinks:JsonlSink.emit",),
    "obs.merge": ("repro.obs.worker:merge_worker_batch",),
}

#: Wrapped so that the supervisor's self time excludes the driver, but not
#: a layer: the driver's own time is the run's unattributed residual.
DRIVER = ("core.cstf", "repro.core.cstf:cstf")

#: Name of the span the benchmark opens around each public call.
ROOT = "bench.call"

#: Modules defining subclasses that override a traced method; imported
#: before patching so the subclasses exist.
SUBCLASS_MODULES = (
    "repro.engine.backends.serial",
    "repro.engine.backends.threads",
    "repro.engine.backends.processes",
    "repro.updates",
)

_MARK = "_bench_trace_layer"


def _subclasses(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _repro_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Timing shims over the :data:`LAYERS` callables; see the module doc."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        """*fn* with each call recorded as a span of *layer*.

        The shim is written inline, not through a context manager, because
        its cost lands in the traced layers' self times.
        """
        spans, ids, local = self.spans, self._ids, self._local
        clock, thread = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, layer, t0, t1, parent, thread()))

        setattr(traced, _MARK, layer)
        return traced

    # ------------------------------------------------------------------ #
    def _set(self, owner, attr: str, new, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _patch_function(self, module, name: str, layer: str) -> None:
        original = getattr(module, name)
        traced = self.wrap(layer, original)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced, original)

    def _patch_method(self, base: type, name: str, layer: str) -> None:
        for cls in _subclasses(base):
            raw = vars(cls).get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(layer, raw.__func__))
            else:
                new = self.wrap(layer, raw)
            self._set(cls, name, new, raw)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name in SUBCLASS_MODULES:
            importlib.import_module(name)
        targets = [(layer, t) for layer, ts in LAYERS.items() for t in ts]
        targets.append(DRIVER)
        try:
            for layer, target in targets:
                mod_name, qualname = target.split(":")
                module = importlib.import_module(mod_name)
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    self._patch_method(getattr(module, cls_name), method, layer)
                else:
                    self._patch_function(module, qualname, layer)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    def dump(self, path, **meta) -> None:
        """Write the recorded spans (and *meta*) as JSON."""
        payload = dict(meta)
        payload["columns"] = ["id", "layer", "start", "end", "parent", "thread"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def span_cost_s(calls: int = 20_000) -> float:
    """Cost of one shim: a traced no-op call minus a bare one, best of 5."""

    def noop():
        return None

    traced = Tracer().wrap("span_cost", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return min(costs)


def find_patched() -> list[str]:
    """Every tracing shim still reachable from a loaded ``repro`` module."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, raw in list(vars(value).items()):
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found


def layer_metrics(spans, main_thread: int) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    *spans* are the spans recorded during the run, including exactly one
    :data:`ROOT` span around the public call. For every layer in
    :data:`LAYERS`:
    ``<layer>.self_s`` sums the self time (duration minus same-thread
    children) of its spans on *main_thread*; ``<layer>.busy_s`` sums the
    durations of its outermost spans on every thread; ``<layer>.calls``
    counts those outermost spans (a span nested in a span of the same layer
    is part of the outer call). ``core.wall_s`` is the root duration and
    ``core.residual_s`` the part of it no layer claims, so that
    ``core.residual_s + sum(<layer>.self_s) == core.wall_s``.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, _layer, t0, t1, parent, _thread in spans:
        if parent:
            child_time[parent] += t1 - t0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for sid, layer, t0, t1, parent, thread in spans:
        if layer not in LAYERS:
            continue
        if thread == main_thread:
            out[f"{layer}.self_s"] += (t1 - t0) - child_time[sid]
        enclosing = by_id.get(parent)
        if enclosing is None or enclosing[1] != layer:
            out[f"{layer}.busy_s"] += t1 - t0
            out[f"{layer}.calls"] += 1
    (t0, t1), = [(s[2], s[3]) for s in spans if s[1] == ROOT]
    wall = t1 - t0
    out["core.wall_s"] = wall
    out["core.residual_s"] = wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out
