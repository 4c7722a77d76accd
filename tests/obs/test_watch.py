"""The live run monitor: incremental JSONL tailing, panel aggregation,
and the guarantee that watching a run never perturbs it.
"""

import io
import json

import pytest

from repro.obs import JsonlTail, RunMonitor
from repro.obs.watch import sparkline, watch_run

pytestmark = pytest.mark.telemetry


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series(self):
        assert len(sparkline([1.0, 1.0, 1.0])) == 3

    def test_rising_series_rises(self):
        s = sparkline([0.0, 0.5, 1.0])
        assert s[0] < s[-1]

    def test_window(self):
        assert len(sparkline(range(100), width=8)) == 8


class TestJsonlTail:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert JsonlTail(tmp_path / "absent.jsonl").poll() == []

    def test_incremental_polls(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(_line({"a": 1}))
        tail = JsonlTail(path)
        assert tail.poll() == [{"a": 1}]
        assert tail.poll() == []
        with open(path, "ab") as fh:
            fh.write(_line({"b": 2}))
        assert tail.poll() == [{"b": 2}]

    def test_partial_trailing_line_carried(self, tmp_path):
        path = tmp_path / "run.jsonl"
        whole = _line({"x": 1})
        path.write_bytes(whole[:5])  # writer caught mid-write
        tail = JsonlTail(path)
        assert tail.poll() == []
        with open(path, "ab") as fh:
            fh.write(whole[5:])
        assert tail.poll() == [{"x": 1}]

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"not json\n" + _line({"ok": True}) + b"\n")
        assert JsonlTail(path).poll() == [{"ok": True}]

    def test_tailing_never_modifies_the_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        payload = _line({"a": 1}) + _line({"b": 2})
        path.write_bytes(payload)
        before = path.stat().st_mtime_ns
        tail = JsonlTail(path)
        tail.poll()
        tail.poll()
        assert path.read_bytes() == payload
        assert path.stat().st_mtime_ns == before


def _feed_monitor():
    mon = RunMonitor(title="demo")
    mon.feed([
        {"type": "meta", "version": 2, "run": {}},
        {"type": "span", "id": 0, "parent": None, "name": "shard",
         "ts": 0.0, "dur": 0.01, "attrs": {"shard": 0, "nnz": 500}},
        {"type": "span", "id": 1, "parent": 0, "name": "shard_kernel",
         "ts": 0.0, "dur": 0.008, "attrs": {"shard": 0},
         "worker": {"pid": 321, "id": 0}},
        {"type": "span", "id": 2, "parent": None, "name": "shard",
         "ts": 0.0, "dur": 0.02,
         "attrs": {"shard": 1, "nnz": 400, "redone": True}},
        {"type": "metric", "kind": "counter", "name": "engine.plan.hits",
         "value": 3.0, "ts": 0.1},
        {"type": "metric", "kind": "counter", "name": "engine.plan.misses",
         "value": 1.0, "ts": 0.1},
        {"type": "metric", "kind": "counter", "name": "obs.overhead.batches",
         "value": 2.0, "ts": 0.1},
        {"type": "metric", "kind": "histogram", "name": "cstf.fit",
         "value": 0.61, "ts": 0.2},
        {"type": "metric", "kind": "histogram", "name": "cstf.fit",
         "value": 0.72, "ts": 0.3},
        {"type": "event", "kind": "worker_lost", "phase": "EXECUTE",
         "ts": 0.2, "mode": 0, "iteration": 1, "detail": "", "data": {}},
    ])
    return mon


class TestRunMonitor:
    def test_aggregation(self):
        mon = _feed_monitor()
        assert mon.version == 2
        assert mon.records == 10
        assert not mon.finished
        assert mon.shards[0]["runs"] == 1 and mon.shards[0]["redone"] == 0
        assert mon.shards[1]["redone"] == 1
        assert mon.worker_pids == {0: 321}
        assert mon.kernel_spans == 1
        assert mon.fit_trajectory == [0.61, 0.72]
        assert mon.events == {"worker_lost": 1}
        assert mon.counters["engine.plan.hits"] == 3.0

    def test_summary_line_finishes(self):
        mon = RunMonitor()
        mon.feed([{"type": "summary", "metrics": {}}])
        assert mon.finished

    def test_render_panel(self):
        panel = _feed_monitor().render()
        assert "demo" in panel and "schema v2" in panel and "live" in panel
        assert "fit      0.720000" in panel
        assert "shard 0" in panel and "shard 1" in panel
        assert "redone=1" in panel
        assert "pids=[321]" in panel
        assert "worker_lost=1" in panel
        assert "overhead batches=2" in panel

    def test_render_empty_stream(self):
        assert "0 records" in RunMonitor().render()

    def test_non_dict_records_ignored(self):
        mon = RunMonitor()
        mon.feed(["junk", 42, None])
        assert mon.records == 0


class TestWatchRun:
    def test_once_renders_and_returns(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "wb") as fh:
            fh.write(_line({"type": "meta", "version": 2, "run": {}}))
            fh.write(_line({"type": "summary", "metrics": {}}))
        buf = io.StringIO()
        mon = watch_run(path, once=True, out=buf)
        assert mon.finished
        assert "finished" in buf.getvalue()
        assert "\x1b[2J" not in buf.getvalue()  # --once never clears

    def test_exits_on_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(_line({"type": "summary", "metrics": {}}))
        buf = io.StringIO()
        mon = watch_run(path, interval=0.01, out=buf)
        assert mon.finished
        assert "\x1b[2J" in buf.getvalue()  # live mode clears in place

    def test_duration_budget_expires(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(_line({"type": "meta", "version": 2, "run": {}}))
        mon = watch_run(path, interval=0.01, duration=0.05, out=io.StringIO())
        assert not mon.finished

    def test_watching_does_not_modify_the_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        payload = (
            _line({"type": "meta", "version": 2, "run": {}})
            + _line({"type": "summary", "metrics": {}})
        )
        path.write_bytes(payload)
        watch_run(path, once=True, out=io.StringIO())
        assert path.read_bytes() == payload
