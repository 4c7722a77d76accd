"""Cross-process telemetry plumbing: worker-side capture sessions,
incremental batch drains, and the parent-side merger that re-roots
shipped spans with pid/worker attribution.
"""

import os

import pytest

from repro.obs import (
    Telemetry,
    WorkerTelemetrySession,
    current_telemetry,
    merge_worker_batch,
    validate_record,
)

pytestmark = pytest.mark.telemetry


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


class TestWorkerSession:
    def test_has_no_sink(self):
        session = WorkerTelemetrySession(worker_id=3)
        assert session._sink is None
        assert session.worker_id == 3

    def test_drain_ships_closed_spans_once(self):
        clock = FakeClock()
        session = WorkerTelemetrySession(clock=clock)
        with session.span("shard_kernel", shard=0):
            clock.tick()
        batch = session.drain()
        assert [s["name"] for s in batch["spans"]] == ["shard_kernel"]
        assert batch["spans"][0]["dur"] == 1.0
        assert batch["spans"][0]["attrs"]["shard"] == 0
        # A second drain with no new activity ships nothing.
        assert session.drain()["spans"] == []

    def test_open_spans_stay_behind(self):
        clock = FakeClock()
        session = WorkerTelemetrySession(clock=clock)
        outer = session.open_span("outer")
        with session.span("inner"):
            clock.tick()
        batch = session.drain()
        assert [s["name"] for s in batch["spans"]] == ["inner"]
        session.close_span(outer)
        batch = session.drain()
        assert [s["name"] for s in batch["spans"]] == ["outer"]

    def test_counters_ship_as_deltas(self):
        session = WorkerTelemetrySession()
        session.counter("engine.plan.hits", 3)
        assert session.drain()["counters"] == {"engine.plan.hits": 3}
        session.counter("engine.plan.hits", 2)
        assert session.drain()["counters"] == {"engine.plan.hits": 2}
        assert session.drain()["counters"] == {}

    def test_gauges_ship_when_changed(self):
        session = WorkerTelemetrySession()
        session.gauge("g", 1.5)
        assert session.drain()["gauges"] == {"g": 1.5}
        assert session.drain()["gauges"] == {}
        session.gauge("g", 1.5)  # same value: no change, no ship
        assert session.drain()["gauges"] == {}
        session.gauge("g", 2.5)
        assert session.drain()["gauges"] == {"g": 2.5}

    def test_histograms_ship_new_samples_only(self):
        session = WorkerTelemetrySession()
        session.observe("h", 1.0)
        session.observe("h", 2.0)
        assert session.drain()["hists"] == {"h": [1.0, 2.0]}
        session.observe("h", 3.0)
        assert session.drain()["hists"] == {"h": [3.0]}
        assert session.drain()["hists"] == {}

    def test_events_ship_incrementally(self):
        session = WorkerTelemetrySession()
        session.event("plan_repaired", "STORE", detail="x")
        batch = session.drain()
        assert [e["kind"] for e in batch["events"]] == ["plan_repaired"]
        assert session.drain()["events"] == []

    def test_batch_identifies_pid_and_worker(self):
        batch = WorkerTelemetrySession(worker_id=7).drain()
        assert batch["pid"] == os.getpid()
        assert batch["worker"] == 7
        assert batch["overhead_s"] >= 0.0

    def test_batch_is_json_serializable(self):
        import json

        session = WorkerTelemetrySession()
        with session.span("shard_kernel", shard=1, mode=2):
            session.counter("c")
            session.observe("h", 0.5)
        json.dumps(session.drain())  # must not raise


class TestMergeWorkerBatch:
    def _batch(self, *, pid=4242, worker=1, spans=()):
        return {
            "pid": pid, "worker": worker, "spans": list(spans),
            "counters": {}, "gauges": {}, "hists": {}, "events": [],
            "overhead_s": 0.001,
        }

    def test_spans_remapped_and_attributed(self):
        tel = Telemetry()
        anchor = tel.add_span("shard", 5.0, 2.0)
        batch = self._batch(spans=[
            {"id": 0, "parent": None, "name": "shard_kernel",
             "ts": 100.0, "dur": 1.0, "attrs": {"shard": 1}},
            {"id": 1, "parent": 0, "name": "chunk",
             "ts": 100.2, "dur": 0.5, "attrs": {}},
        ])
        assert merge_worker_batch(tel, batch, anchor=anchor) == 2
        kernel = next(s for s in tel.record.spans if s.name == "shard_kernel")
        chunk = next(s for s in tel.record.spans if s.name == "chunk")
        # Re-rooted under the anchor, child hierarchy preserved via remap.
        assert kernel.parent == anchor.id
        assert chunk.parent == kernel.id
        assert kernel.worker == {"pid": 4242, "id": 1}
        # Timestamps rebased onto the anchor's start.
        assert kernel.t0 == anchor.t0
        assert chunk.t0 == pytest.approx(anchor.t0 + 0.2)

    def test_orphan_parent_reroots_under_anchor(self):
        tel = Telemetry()
        anchor = tel.add_span("shard", 0.0, 1.0)
        batch = self._batch(spans=[
            {"id": 5, "parent": 3, "name": "inner",  # parent 3 never shipped
             "ts": 0.0, "dur": 0.1, "attrs": {}},
        ])
        merge_worker_batch(tel, batch, anchor=anchor)
        (inner,) = [s for s in tel.record.spans if s.name == "inner"]
        assert inner.parent == anchor.id

    def test_anchorless_flush_merges_at_now(self):
        tel = Telemetry()
        batch = self._batch(spans=[
            {"id": 0, "parent": None, "name": "late",
             "ts": 9.0, "dur": 0.1, "attrs": {}},
        ])
        assert merge_worker_batch(tel, batch) == 1
        (late,) = [s for s in tel.record.spans if s.name == "late"]
        assert late.parent is None
        assert late.worker == {"pid": 4242, "id": 1}

    def test_metrics_merge_into_registry(self):
        tel = Telemetry()
        batch = self._batch()
        batch["counters"] = {"engine.plan.hits": 2}
        batch["gauges"] = {"g": 7.0}
        batch["hists"] = {"h": [1.0, 2.0]}
        merge_worker_batch(tel, batch)
        summary = tel.metrics.summary()
        assert summary["counters"]["engine.plan.hits"] == 2
        assert summary["gauges"]["g"] == 7.0
        assert summary["histograms"]["h"]["count"] == 2

    def test_events_gain_worker_pid(self):
        tel = Telemetry()
        batch = self._batch()
        batch["events"] = [{"kind": "plan_repaired", "phase": "STORE",
                            "mode": None, "iteration": None,
                            "detail": "d", "data": {}}]
        merge_worker_batch(tel, batch)
        (ev,) = tel.record.events
        assert ev.data["worker_pid"] == 4242

    def test_overhead_meter_accumulates(self):
        tel = Telemetry()
        batch = self._batch(spans=[
            {"id": 0, "parent": None, "name": "k",
             "ts": 0.0, "dur": 0.1, "attrs": {}},
        ])
        merge_worker_batch(tel, batch)
        counters = tel.metrics.summary()["counters"]
        assert counters["obs.overhead.batches"] == 1
        assert counters["obs.overhead.spans"] == 1
        assert counters["obs.overhead.worker_s"] == pytest.approx(0.001)
        assert counters["obs.overhead.merge_s"] > 0.0

    def test_none_batch_and_disabled_session_are_noops(self):
        from repro.obs import NULL

        tel = Telemetry()
        assert merge_worker_batch(tel, None) == 0
        assert merge_worker_batch(NULL, self._batch()) == 0
        assert tel.metrics.summary()["counters"] == {}

    def test_merged_span_lines_validate_against_schema(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tel = Telemetry(jsonl_path=path)
        anchor = tel.add_span("shard", 0.0, 1.0)
        batch = self._batch(spans=[
            {"id": 0, "parent": None, "name": "shard_kernel",
             "ts": 0.0, "dur": 0.5, "attrs": {"shard": 0}},
        ])
        merge_worker_batch(tel, batch, anchor=anchor)
        tel.close()
        from repro.obs import read_jsonl

        for rec in read_jsonl(path):
            assert validate_record(rec) == []
        worker_lines = [
            r for r in read_jsonl(path)
            if r.get("type") == "span" and r.get("worker")
        ]
        assert len(worker_lines) == 1
        assert worker_lines[0]["worker"] == {"pid": 4242, "id": 1}


class TestForkIsolation:
    def test_ambient_session_does_not_cross_fork(self):
        if not hasattr(os, "fork"):
            pytest.skip("fork not available")
        tel = Telemetry()
        with tel.activate():
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: report whether the ambient session leaked
                leaked = current_telemetry() is tel
                os.write(w, b"1" if leaked else b"0")
                os._exit(0)
            os.close(w)
            leaked = os.read(r, 1)
            os.close(r)
            os.waitpid(pid, 0)
        assert leaked == b"0", "forked child inherited the parent session"
