"""Streaming JSONL sink and the matching reader.

One JSON object per line, written as telemetry happens — a run killed
mid-flight still leaves an audit trail up to its last flushed line. Line
shapes are the stable contract in :mod:`repro.obs.schema`; the Chrome-trace
exporter (:mod:`repro.obs.chrome`) and ``scripts/check_trace.py`` both
consume this format.

Telemetry is strictly non-fatal: a write failure (ENOSPC, a closed pipe, a
yanked volume) **degrades the sink to a null sink** instead of propagating
into the run. The first failing write closes the file handle best-effort;
every line from then on is counted in :attr:`JsonlSink.dropped` (mirrored
as the ``obs.sink.dropped`` counter by the owning
:class:`~repro.obs.spans.Telemetry`), so the in-memory run record still
shows exactly how much audit trail was lost.
"""

from __future__ import annotations

import errno
import json
from pathlib import Path

__all__ = ["JsonlSink", "read_jsonl"]

#: ``json.dumps(obj, separators=(",", ":"))`` builds a fresh encoder per
#: call; one shared encoder with the same settings writes the same bytes.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


class JsonlSink:
    """Append telemetry records to a ``.jsonl`` file (or text file object).

    ``degraded`` flips true after the first write ``OSError``; from then on
    the sink behaves as a null sink and ``dropped`` counts the lines lost.
    ``fail_next_write`` is the chaos-injection arm for the ``disk_full``
    fault: the next :meth:`emit` raises a synthetic ENOSPC internally and
    takes the same degradation path a real full disk would.
    """

    def __init__(self, target):
        if isinstance(target, (str, Path)):
            self._fh = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.lines_written = 0
        self.dropped = 0
        self.degraded = False
        self.fail_next_write = False

    def emit(self, obj: dict) -> None:
        if self._fh is None:
            if self.degraded:
                self.dropped += 1
            return
        try:
            if self.fail_next_write:
                self.fail_next_write = False
                raise OSError(errno.ENOSPC, "injected disk_full fault")
            self._fh.write(_encode_compact(obj) + "\n")
            self.lines_written += 1
        except OSError:
            self._degrade()
            self.dropped += 1

    def _degrade(self) -> None:
        """Swap to a null sink: close best-effort, never raise again."""
        fh, self._fh = self._fh, None
        self.degraded = True
        if fh is not None and self._owns:
            try:
                fh.close()
            except OSError:
                pass

    def flush(self) -> None:
        if self._fh is None:
            return
        try:
            self._fh.flush()
        except OSError:
            self._degrade()

    def close(self) -> None:
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        try:
            fh.flush()
            if self._owns:
                fh.close()
        except OSError:
            self.degraded = True


def read_jsonl(source) -> list[dict]:
    """Parse a telemetry JSONL file into its record dicts (blank-line safe)."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno} is not valid JSON: {exc}") from exc
    return records
