"""Cross-process telemetry: capture in workers, ship batches, merge.

The ambient :mod:`contextvars` session in :mod:`repro.obs.spans` does not
cross ``fork`` (and deliberately must not: a forked child inherits the
parent's open JSONL file handle), so spans and metrics produced inside a
:class:`~repro.engine.backends.processes.ProcessBackend` worker would be
silently dropped. This module closes that gap:

- :class:`WorkerTelemetrySession` — a sink-less :class:`Telemetry` the
  worker loop installs as its ambient session. Everything the shard code
  records (``shard_kernel`` spans, counters, gauges,
  histograms, events) lands in local memory; :meth:`~WorkerTelemetrySession.drain`
  packages the *new* items since the previous drain into a compact
  JSON-serializable batch that rides back over the existing duplex pipe —
  piggybacked on each shard result, plus one final flush at shutdown.

- :func:`merge_worker_batch` — the parent-side merger. Worker spans are
  re-rooted under the dispatching ``shard`` span (ids remapped into the
  parent session, timestamps rebased onto the anchor span) and stamped
  with ``worker={"pid": ..., "id": ...}`` attribution; counters, gauges,
  and histogram samples are merged into the ambient
  :class:`~repro.obs.metrics.MetricsRegistry` so summaries, the doctor,
  and ``repro watch`` see one coherent run regardless of backend.

The shipping path meters itself: each drain records the seconds it spent
packaging, and the merger accumulates ``obs.overhead.worker_s`` /
``obs.overhead.merge_s`` counters (plus batch/span counts) so a run can
prove the telemetry self-cost stays under budget (see OBSERVABILITY.md).
"""

from __future__ import annotations

import os
import time

from repro.obs.spans import Telemetry

__all__ = ["WorkerTelemetrySession", "merge_worker_batch"]


class WorkerTelemetrySession(Telemetry):
    """A local capture session for one pool worker (process *or* thread).

    Identical to :class:`Telemetry` except it never opens a sink (the
    parent owns the JSONL stream) and it knows how to :meth:`drain`
    incrementally: closed spans are shipped exactly once, counters ship
    as deltas, gauges ship last-value-when-changed, histograms ship only
    samples not yet sent. Open spans stay behind until they close, so a
    drain in the middle of a shard never tears a span.
    """

    def __init__(self, worker_id: int = 0, clock=time.perf_counter):
        super().__init__(jsonl_path=None, capture_kernels=True, clock=clock)
        self.worker_id = int(worker_id)
        self._shipped_counters: dict[str, float] = {}
        self._shipped_gauges: dict[str, float] = {}
        self._shipped_hist: dict[str, int] = {}
        self._shipped_events = 0
        self._overhead_unshipped = 0.0

    # ------------------------------------------------------------------ #
    def drain(self) -> dict:
        """Package everything new since the last drain into one batch."""
        t_drain0 = self._clock()
        spans: list[dict] = []
        remaining = []
        for s in self.record.spans:
            if s.open:
                remaining.append(s)
            else:
                spans.append(
                    {"id": s.id, "parent": s.parent, "name": s.name,
                     "ts": s.t0, "dur": s.dur, "attrs": dict(s.attrs)}
                )
        self.record.spans = remaining

        counters: dict[str, float] = {}
        for name, value in self.metrics.counters.items():
            delta = value - self._shipped_counters.get(name, 0.0)
            if delta:
                counters[name] = delta
                self._shipped_counters[name] = value

        gauges: dict[str, float] = {}
        for name, value in self.metrics.gauges.items():
            if self._shipped_gauges.get(name) != value:
                gauges[name] = value
                self._shipped_gauges[name] = value

        hists: dict[str, list[float]] = {}
        for name, hist in self.metrics.histograms.items():
            offset = self._shipped_hist.get(name, 0)
            fresh = hist.values[offset:]
            if fresh:
                hists[name] = list(fresh)
                self._shipped_hist[name] = len(hist.values)

        events = [
            {"kind": e.kind, "phase": e.phase, "mode": e.mode,
             "iteration": e.iteration, "detail": e.detail, "data": dict(e.data)}
            for e in self.record.events[self._shipped_events:]
        ]
        self._shipped_events = len(self.record.events)

        overhead = self._overhead_unshipped + (self._clock() - t_drain0)
        self._overhead_unshipped = 0.0
        return {
            "pid": os.getpid(),
            "worker": self.worker_id,
            "spans": spans,
            "counters": counters,
            "gauges": gauges,
            "hists": hists,
            "events": events,
            "overhead_s": overhead,
        }


def merge_worker_batch(tel, batch: dict | None, *, anchor=None) -> int:
    """Merge one shipped worker batch into the parent session *tel*.

    Spans are re-rooted: their worker-local ids are remapped into the
    parent session, their parent pointers follow the mapping (a span whose
    parent was not shipped — e.g. still open worker-side — re-roots under
    *anchor*), and their timestamps are rebased so the earliest shipped
    span starts at the anchor span's ``t0`` (or at ``tel.now()`` for the
    final anchor-less flush). Metrics merge into the ambient registry as
    ordinary counter/gauge/histogram updates, so they also stream to the
    JSONL sink for live consumers.

    Returns the number of spans merged.
    """
    if batch is None or not getattr(tel, "enabled", False):
        return 0
    t_merge0 = time.perf_counter()
    worker = {"pid": int(batch.get("pid", 0)), "id": int(batch.get("worker", 0))}
    anchor_id = anchor.id if anchor is not None else None

    spans = sorted(batch.get("spans", ()), key=lambda s: s["id"])
    if anchor is not None:
        base = anchor.t0
    else:
        base = tel.now()
    t_min = min((s["ts"] for s in spans), default=0.0)
    mapping: dict[int, int] = {}
    for sp in spans:
        parent = mapping.get(sp.get("parent"), anchor_id)
        merged = tel.add_span(
            sp["name"],
            base + (sp["ts"] - t_min),
            sp["dur"],
            parent=parent,
            worker=worker,
            attrs=sp.get("attrs"),
        )
        mapping[sp["id"]] = merged.id

    for name, delta in batch.get("counters", {}).items():
        tel.counter(name, delta)
    for name, value in batch.get("gauges", {}).items():
        tel.gauge(name, value)
    for name, values in batch.get("hists", {}).items():
        for value in values:
            tel.observe(name, value)
    for ev in batch.get("events", ()):
        tel.event(
            ev["kind"], ev["phase"], mode=ev.get("mode"),
            iteration=ev.get("iteration"), detail=ev.get("detail", ""),
            data=dict(ev.get("data", {}), worker_pid=worker["pid"]),
        )

    # Telemetry self-cost meter: what did shipping itself cost?
    tel.counter("obs.overhead.batches")
    if spans:
        tel.counter("obs.overhead.spans", len(spans))
    tel.counter("obs.overhead.worker_s", float(batch.get("overhead_s", 0.0)))
    tel.counter("obs.overhead.merge_s", time.perf_counter() - t_merge0)
    return len(spans)
