"""JSONL sink, the line-contract schema, and the Chrome-trace exporter."""

import io
import json

import pytest

from repro.obs import (
    Telemetry,
    jsonl_to_chrome_trace,
    read_jsonl,
    telemetry_to_chrome_trace,
    validate_jsonl,
    validate_record,
    write_telemetry_chrome_trace,
)
from repro.obs.chrome import PID_DEVICE, PID_HOST, PID_RESILIENCE, PID_WORKERS
from repro.obs.sinks import JsonlSink

pytestmark = pytest.mark.telemetry


def _emit_session(path):
    """A tiny but complete session: meta, spans, metric, event, summary."""
    tel = Telemetry(jsonl_path=path)
    tel.set_meta(kind="test", rank=4)
    with tel.span("run"):
        with tel.span("phase", mode=1):
            tel.observe("latency", 0.5)
        tel.counter("calls")
        tel.event("checkpoint_saved", "CHECKPOINT", iteration=1, detail="x")
    tel.close()
    return tel


class TestJsonlSink:
    def test_roundtrip_and_blank_line_safety(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "meta", "version": 1, "run": {}})
        sink.close()
        path.write_text(path.read_text() + "\n\n")
        assert read_jsonl(path) == [{"type": "meta", "version": 1, "run": {}}]

    def test_file_object_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"type": "meta", "version": 1, "run": {}})
        sink.close()
        assert not buf.closed
        assert buf.getvalue().count("\n") == 1

    def test_lines_are_byte_identical_to_json_dumps(self):
        records = [
            {"type": "meta", "version": 1, "run": {}},
            {"type": "span", "name": "core.iter", "t0": 0.1, "t1": 1e-300,
             "attrs": {"mode": 2, "ok": True, "tag": None}},
            {"nested": [1, [2.5, {"k": "v"}], []], "neg": -0.0, "big": 10**30},
            {"text": "quote \" backslash \\ tab \t newline \n é 漢 \U0001f600"},
            {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
            {3: "int key", "b": False},
        ]
        buf = io.StringIO()
        sink = JsonlSink(buf)
        for rec in records:
            sink.emit(rec)
        sink.close()
        expected = "".join(
            json.dumps(rec, separators=(",", ":")) + "\n" for rec in records
        )
        assert buf.getvalue() == expected
        assert sink.lines_written == len(records)

    def test_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"meta"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(path)


class TestSchema:
    def test_session_stream_validates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_session(path)
        assert validate_jsonl(path) == []
        types = [r["type"] for r in read_jsonl(path)]
        assert types[0] == "meta"
        assert types[-1] == "summary"
        assert "span" in types and "metric" in types and "event" in types

    def test_rejects_unknown_type(self):
        assert validate_record({"type": "bogus"})
        assert validate_record({"no_type": True})

    def test_rejects_missing_required_field(self):
        errors = validate_record({"type": "metric", "kind": "counter", "name": "x"})
        assert any("value" in e for e in errors)

    def test_rejects_bad_enum(self):
        errors = validate_record(
            {"type": "metric", "kind": "dial", "name": "x", "value": 1.0, "ts": 0.0}
        )
        assert errors

    def test_empty_file_is_invalid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert any("no telemetry records" in e for e in validate_jsonl(path))


class TestChromeTrace:
    def test_three_process_tracks(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tel = _emit_session(path)
        for source in (tel.record, path):
            trace = telemetry_to_chrome_trace(source)
            pids = {e["pid"] for e in trace["traceEvents"]}
            assert {PID_HOST, PID_DEVICE, PID_RESILIENCE} <= pids

    def test_span_events_are_complete_events_in_us(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_session(path)
        trace = jsonl_to_chrome_trace(path)
        spans = [e for e in trace["traceEvents"]
                 if e.get("cat") == "host" and e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"run", "phase"} <= names
        phase = next(e for e in spans if e["name"] == "phase")
        assert phase["args"]["mode"] == 1

    def test_resilience_events_are_instants(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_session(path)
        trace = jsonl_to_chrome_trace(path)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "checkpoint_saved"
        assert instants[0]["pid"] == PID_RESILIENCE

    def test_write_produces_loadable_json(self, tmp_path):
        src = tmp_path / "run.jsonl"
        out = tmp_path / "trace.json"
        _emit_session(src)
        write_telemetry_chrome_trace(src, out)
        loaded = json.loads(out.read_text())
        assert isinstance(loaded["traceEvents"], list)
        assert loaded["otherData"]["kind"] == "test"


class TestDeviceTrack:
    """The simulated kernel stream on the device track (pid 2)."""

    @pytest.fixture
    def traced(self, rng):
        from repro.machine.executor import Executor

        tel = Telemetry()
        ex = Executor("a100")
        tel.attach_executor(ex)
        h = rng.random((32, 4))
        with ex.phase("GRAM"):
            ex.gram(h)
        with ex.phase("UPDATE"):
            ex.add(h, h)
            ex.norm_sq(h)
        return ex, telemetry_to_chrome_trace(tel.record)

    @staticmethod
    def _kernels(trace):
        return [e for e in trace["traceEvents"]
                if e["pid"] == PID_DEVICE and e["ph"] == "X"]

    def test_event_per_kernel(self, traced):
        _, trace = traced
        events = self._kernels(trace)
        assert [e["name"] for e in events] == ["dsyrk_gram", "dgeam_add", "norm_sq"]

    def test_events_sequential_nonoverlapping(self, traced):
        _, trace = traced
        end = 0.0
        for e in self._kernels(trace):
            assert e["ts"] >= end - 1e-6
            end = e["ts"] + e["dur"]

    def test_durations_match_timeline(self, traced):
        ex, trace = traced
        total_us = sum(e["dur"] for e in self._kernels(trace))
        assert total_us == pytest.approx(
            ex.timeline.total_seconds() * 1e6, rel=1e-3
        )

    def test_phase_tracks_named(self, traced):
        _, trace = traced
        names = {
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["pid"] == PID_DEVICE
            and e["name"] == "thread_name"
        }
        assert names == {"GRAM", "UPDATE"}

    def test_full_driver_trace(self):
        """A whole cSTF run puts every simulated kernel on the device track."""
        from repro.core.config import CstfConfig
        from repro.core.cstf import cstf
        from repro.tensor.synthetic import random_sparse

        tel = Telemetry()
        t = random_sparse((15, 12, 9), nnz=150, seed=0)
        cstf(t, CstfConfig(rank=3, max_iters=1, device="h100", telemetry=tel))
        trace = telemetry_to_chrome_trace(tel.record)
        events = self._kernels(trace)
        # 3 modes × 10 inner ADMM iterations × 4+ kernels, plus setup.
        assert len(events) == len(tel.record.kernels) > 40
        assert any(e["name"] == "fused_auxiliary" for e in events)
        assert trace["otherData"]["device"] == "H100"

    def test_write_roundtrip(self, tmp_path):
        """A cSTF session written to disk names its simulated device."""
        from repro.core.config import CstfConfig
        from repro.core.cstf import cstf
        from repro.tensor.synthetic import random_sparse

        tel = Telemetry()
        t = random_sparse((8, 7, 6), nnz=40, seed=0)
        cstf(t, CstfConfig(rank=2, max_iters=1, device="a100", telemetry=tel))
        path = tmp_path / "trace.json"
        write_telemetry_chrome_trace(tel.record, path)
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["device"] == "A100"
        assert loaded["otherData"]["simulated_device_track"] is True
        assert self._kernels(loaded)


def _worker_span(span_id, shard, pid, *, parent=None, name="shard_kernel"):
    return {
        "type": "span", "id": span_id, "parent": parent, "name": name,
        "ts": 0.0, "dur": 0.01, "attrs": {"shard": shard}, "sim": None,
        "worker": {"pid": pid, "id": shard},
    }


def _shard_span(span_id, shard):
    return {
        "type": "span", "id": span_id, "parent": None, "name": "shard",
        "ts": 0.0, "dur": 0.02, "attrs": {"shard": shard, "nnz": 10},
        "sim": None,
    }


class TestWorkerSchema:
    """Schema v2: the optional ``worker`` span field round-trips and its
    absence (v1 legacy lines) stays valid."""

    def test_worker_field_round_trips(self, tmp_path):
        from repro.obs import SCHEMA_VERSION, Telemetry

        assert SCHEMA_VERSION == 2
        path = tmp_path / "run.jsonl"
        tel = Telemetry(jsonl_path=path)
        tel.add_span(
            "shard_kernel", 0.0, 0.5, worker={"pid": 77, "id": 2},
            attrs={"shard": 2},
        )
        tel.close()
        assert validate_jsonl(path) == []
        (line,) = [r for r in read_jsonl(path) if r["type"] == "span"]
        assert line["worker"] == {"pid": 77, "id": 2}

    def test_legacy_span_without_worker_is_valid(self):
        assert validate_record(_shard_span(0, 0)) == []

    def test_null_worker_is_valid(self):
        span = _shard_span(0, 0)
        span["worker"] = None
        assert validate_record(span) == []

    def test_malformed_worker_rejected(self):
        span = _worker_span(0, 0, 42)
        span["worker"] = {"pid": 42}  # id missing
        assert validate_record(span)
        span["worker"] = "pid 42"  # wrong type
        assert validate_record(span)

    def test_ingest_parses_worker(self, tmp_path):
        from repro.obs.analysis import load_run

        path = tmp_path / "run.jsonl"
        lines = [
            {"type": "meta", "version": 2, "run": {}},
            _worker_span(0, 1, 55),
            _shard_span(1, 0),
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        record = load_run(path)
        by_name = {s.name: s for s in record.spans}
        assert by_name["shard_kernel"].worker == {"pid": 55, "id": 1}
        assert by_name["shard"].worker is None


class TestWorkerTracks:
    """Chrome export: worker-attributed spans land on per-worker pid
    tracks keyed by slot, with the OS pid as the thread lane."""

    def _records(self):
        return [
            {"type": "meta", "version": 2, "run": {}},
            _shard_span(0, 0),
            _shard_span(1, 1),
            _worker_span(2, 0, 501, parent=0),
            _worker_span(3, 1, 502, parent=1),
        ]

    def test_distinct_pid_per_worker_slot(self):
        trace = telemetry_to_chrome_trace(self._records())
        kernels = [e for e in trace["traceEvents"]
                   if e["ph"] == "X" and e["name"] == "shard_kernel"]
        assert {e["pid"] for e in kernels} == {PID_WORKERS, PID_WORKERS + 1}
        assert {e["tid"] for e in kernels} == {501, 502}
        assert all(e["cat"] == "worker" for e in kernels)
        assert all(e["args"]["worker_pid"] == e["tid"] for e in kernels)

    def test_track_and_lane_names(self):
        trace = telemetry_to_chrome_trace(self._records())
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        track_names = {
            e["pid"]: e["args"]["name"]
            for e in metas if e["name"] == "process_name"
        }
        assert track_names[PID_WORKERS] == "worker 0"
        assert track_names[PID_WORKERS + 1] == "worker 1"
        lanes = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in metas if e["name"] == "thread_name"
        }
        assert lanes[(PID_WORKERS, 501)] == "pid 501"
        assert lanes[(PID_WORKERS + 1, 502)] == "pid 502"

    def test_respawn_keeps_track_name_adds_pid_lane(self):
        """The same worker slot across a respawn: one track, two lanes."""
        records = [
            _shard_span(0, 1),
            _worker_span(1, 1, 601, parent=0),
            _shard_span(2, 1),
            _worker_span(3, 1, 602, parent=2),  # respawned: new OS pid
        ]
        trace = telemetry_to_chrome_trace(records)
        track = PID_WORKERS + 1
        names = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["pid"] == track
        ]
        assert names == ["worker 1"]  # one stable track name
        lanes = {
            e["tid"] for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == track
        }
        assert lanes == {601, 602}

    def test_shard_spans_render_side_by_side_on_host(self):
        trace = telemetry_to_chrome_trace(self._records())
        shards = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "shard"]
        assert all(e["pid"] == PID_HOST for e in shards)
        assert len({e["tid"] for e in shards}) == 2  # one thread per shard
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for e in shards:
            shard = e["args"]["shard"]
            assert thread_names[(PID_HOST, e["tid"])] == f"shard {shard}"
