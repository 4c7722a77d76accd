"""The live run monitor behind ``repro watch``.

Tails a telemetry JSONL stream *while the run writes it* and renders a
compact, in-place-refreshing status panel: per-shard progress, worker
health (dispatches, lost workers, respawns, silent workers, final
flushes), shard faults, the fit trajectory as a sparkline, and the
telemetry self-cost meter. Two pieces:

- :class:`JsonlTail` — an incremental reader that remembers its byte
  offset and carries partial trailing lines between polls. It opens the
  file read-only on every poll and never writes, truncates, or locks —
  the run being watched cannot tell it is being watched.
- :class:`RunMonitor` — a stateful aggregator fed parsed records;
  :meth:`RunMonitor.render` produces the panel as plain text, so tests
  (and any other frontend) can drive it without a terminal.

``watch_run`` ties them together for the CLI: poll, feed, redraw, sleep —
until the run's ``summary`` line lands, a ``--duration`` budget expires,
or the user interrupts.
"""

from __future__ import annotations

import json
import os
import time

__all__ = ["JsonlTail", "RunMonitor", "sparkline", "watch_run"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """Render the last *width* values as a unicode block sparkline."""
    tail = [float(v) for v in values][-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0.0:
        return _BLOCKS[3] * len(tail)
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - lo) / span * len(_BLOCKS)))]
        for v in tail
    )


class JsonlTail:
    """Incremental, read-only reader of a (possibly growing) JSONL file."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._offset = 0
        self._carry = b""

    def poll(self) -> list[dict]:
        """Parse every complete line appended since the previous poll.

        A trailing partial line (the writer mid-``write``) is carried to
        the next poll; unparseable lines are skipped, not fatal — a live
        stream is allowed to be momentarily torn.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._offset += len(data)
        data = self._carry + data
        lines = data.split(b"\n")
        self._carry = lines.pop()
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except (ValueError, UnicodeDecodeError):
                continue
        return records


class RunMonitor:
    """Aggregates a telemetry record stream into a live status panel."""

    def __init__(self, title: str = ""):
        self.title = title
        self.records = 0
        self.version = None
        self.finished = False
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.fit_trajectory: list[float] = []
        self.events: dict[str, int] = {}
        self.shards: dict[int, dict] = {}
        self.worker_pids: dict[int, int] = {}
        self.kernel_spans = 0
        self.span_names: dict[str, int] = {}
        self._t_last = None

    # ------------------------------------------------------------------ #
    def feed(self, records) -> None:
        for obj in records:
            if not isinstance(obj, dict):
                continue
            self.records += 1
            kind = obj.get("type")
            if kind == "meta":
                self.version = obj.get("version", self.version)
            elif kind == "span":
                self._feed_span(obj)
            elif kind == "metric":
                self._feed_metric(obj)
            elif kind == "event":
                self.events[obj.get("kind", "?")] = (
                    self.events.get(obj.get("kind", "?"), 0) + 1
                )
                self._t_last = obj.get("ts", self._t_last)
            elif kind == "summary":
                self.finished = True

    def _feed_span(self, obj: dict) -> None:
        name = obj.get("name", "?")
        self.span_names[name] = self.span_names.get(name, 0) + 1
        self._t_last = obj.get("ts", self._t_last)
        worker = obj.get("worker")
        if worker:
            self.worker_pids[int(worker.get("id", 0))] = int(worker.get("pid", 0))
        if name == "shard":
            attrs = obj.get("attrs", {})
            shard = int(attrs.get("shard", -1))
            entry = self.shards.setdefault(shard, {"runs": 0, "redone": 0})
            entry["runs"] += 1
            entry["nnz"] = attrs.get("nnz")
            entry["dur"] = obj.get("dur", 0.0)
            if attrs.get("redone"):
                entry["redone"] += 1
        elif worker and name.endswith("kernel"):
            self.kernel_spans += 1

    def _feed_metric(self, obj: dict) -> None:
        name = obj.get("name", "?")
        value = float(obj.get("value", 0.0))
        kind = obj.get("kind")
        self._t_last = obj.get("ts", self._t_last)
        if kind == "counter":
            self.counters[name] = self.counters.get(name, 0.0) + value
        elif kind == "gauge":
            self.gauges[name] = value
        elif kind == "histogram":
            if name == "cstf.fit":
                self.fit_trajectory.append(value)

    # ------------------------------------------------------------------ #
    def _c(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def render(self) -> str:
        """The status panel as plain text (one frame)."""
        lines = []
        head = self.title or "telemetry"
        status = "finished" if self.finished else "live"
        version = f"v{self.version}" if self.version is not None else "v?"
        lines.append(
            f"{head} — schema {version} · {self.records} records · {status}"
        )
        if self.fit_trajectory:
            lines.append(
                f"  fit      {self.fit_trajectory[-1]:.6f}  "
                f"{sparkline(self.fit_trajectory)}"
            )
        elif "cstf.last_fit" in self.gauges:
            lines.append(f"  fit      {self.gauges['cstf.last_fit']:.6f}")
        if self.shards:
            runs = sum(e["runs"] for e in self.shards.values())
            redone = sum(e["redone"] for e in self.shards.values())
            lines.append(
                f"  shards   {len(self.shards)} active · {runs} executed · "
                f"{redone} redone serially · kernel spans {self.kernel_spans}"
            )
            for shard in sorted(self.shards)[:8]:
                e = self.shards[shard]
                nnz = e.get("nnz")
                lines.append(
                    f"    shard {shard}: runs={e['runs']} redone={e['redone']}"
                    + (f" nnz={nnz}" if nnz is not None else "")
                    + f" last={e.get('dur', 0.0) * 1e3:.1f}ms"
                )
        if self.worker_pids or self._c("engine.backend.dispatches"):
            pids = sorted(set(self.worker_pids.values()))
            lines.append(
                f"  workers  pids={pids or '[]'} · "
                f"dispatches={self._c('engine.backend.dispatches'):.0f} · "
                f"lost={self._c('engine.backend.workers_lost'):.0f} · "
                f"respawns={self._c('engine.backend.respawns'):.0f} · "
                f"silent={self._c('obs.worker.silent'):.0f} · "
                f"flushes={self._c('obs.worker.flushes'):.0f}"
            )
        retries = self._c("engine.shard.retries")
        timeouts = self._c("engine.shard.timeouts")
        if retries or timeouts or self.events:
            evs = " ".join(f"{k}={v}" for k, v in sorted(self.events.items()))
            lines.append(
                f"  faults   retries={retries:.0f} timeouts={timeouts:.0f}"
                + (f" · events: {evs}" if evs else "")
            )
        if self._c("obs.overhead.batches"):
            lines.append(
                f"  overhead batches={self._c('obs.overhead.batches'):.0f} "
                f"spans={self._c('obs.overhead.spans'):.0f} "
                f"worker={self._c('obs.overhead.worker_s') * 1e3:.2f}ms "
                f"merge={self._c('obs.overhead.merge_s') * 1e3:.2f}ms"
            )
        return "\n".join(lines)


def watch_run(
    path,
    *,
    interval: float = 0.5,
    duration: float | None = None,
    once: bool = False,
    clear: bool = True,
    out=None,
) -> RunMonitor:
    """Tail *path* and redraw the panel until the run finishes.

    Returns the final :class:`RunMonitor` (the CLI prints nothing else).
    The file is only ever opened for reading — watching a live run cannot
    perturb it.
    """
    import sys

    out = out or sys.stdout
    tail = JsonlTail(path)
    monitor = RunMonitor(title=os.path.basename(os.fspath(path)))
    deadline = time.monotonic() + duration if duration else None
    while True:
        monitor.feed(tail.poll())
        frame = monitor.render()
        if clear and not once:
            out.write("\x1b[2J\x1b[H")
        out.write(frame + "\n")
        out.flush()
        if once or monitor.finished:
            return monitor
        if deadline is not None and time.monotonic() >= deadline:
            return monitor
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return monitor
