#!/usr/bin/env python
"""Validate telemetry JSONL files against the published schema.

Checks every line of each file against ``repro.obs.schema.TELEMETRY_SCHEMA``
(the stable on-disk contract documented in docs/OBSERVABILITY.md) and then
confirms the stream converts to a loadable Chrome trace. Exit code 0 iff
every file passes.

``--require-worker-spans`` adds the trace-completeness gate for captured
sharded runs: every ``shard`` span must have at least one descendant span
carrying worker attribution (a ``shard_kernel`` shipped back from the
worker that executed it) — the guarantee that cross-process telemetry is
not silently dropping kernel spans.

``--require-transport-attr`` adds the transport-provenance gate: every
``shard`` span must carry a ``transport`` attr naming one of the known
transports (``inline``/``threads``/``pipe``/``shm``), so a trace *proves*
which shard transport actually ran (e.g. that an shm-enabled chaos run did
not silently fall back to pipes).

``--require-pressure-events`` adds the pressure-evidence gate for the
resource chaos stage: the trace must contain at least one
pressure-degradation event (``transport_downgraded``/``checkpoint_skipped``)
or, as a fallback for runs whose sink itself degraded, a nonzero pressure
counter in the summary snapshot — proof that injected resource pressure
actually exercised the degraded paths.

Each file is read exactly once: the parsed records feed the schema check
(which counts them), the completeness gate, and the Chrome-trace
conversion.

Run:  python scripts/check_trace.py [--quiet] run.jsonl [more.jsonl ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import telemetry_to_chrome_trace  # noqa: E402
from repro.obs.schema import validate_record  # noqa: E402
from repro.obs.sinks import read_jsonl  # noqa: E402


def check_worker_spans(records) -> list[str]:
    """The trace-completeness gate: no executed shard may be span-silent.

    Every ``shard`` span needs ≥1 descendant span with ``worker``
    attribution; a sharded trace with no shard spans at all also fails —
    that is the exact symptom this gate exists to catch.
    """
    spans = [r for r in records if r.get("type") == "span"]
    shard_spans = [s for s in spans if s.get("name") == "shard"]
    if not shard_spans:
        return ["--require-worker-spans: trace contains no shard spans"]
    attributed = {s.get("parent") for s in spans if s.get("worker")}
    problems = []
    for s in shard_spans:
        if s["id"] not in attributed:
            problems.append(
                f"--require-worker-spans: shard span #{s['id']} "
                f"(shard {s.get('attrs', {}).get('shard')}) has no "
                f"worker-attributed kernel span"
            )
    return problems


_TRANSPORTS = ("inline", "threads", "pipe", "shm")


def check_transport_attrs(records) -> list[str]:
    """The transport-provenance gate: every shard span names its transport.

    A sharded trace with no shard spans at all also fails — proving "which
    transport ran" requires shards to have run at all.
    """
    shard_spans = [
        r for r in records
        if r.get("type") == "span" and r.get("name") == "shard"
    ]
    if not shard_spans:
        return ["--require-transport-attr: trace contains no shard spans"]
    problems = []
    for s in shard_spans:
        transport = s.get("attrs", {}).get("transport")
        if transport not in _TRANSPORTS:
            problems.append(
                f"--require-transport-attr: shard span #{s['id']} "
                f"(shard {s.get('attrs', {}).get('shard')}) has transport "
                f"attr {transport!r}, expected one of {_TRANSPORTS}"
            )
    return problems


#: Resilience event kinds that prove pressure-triggered degradation ran.
_PRESSURE_KINDS = (
    "transport_downgraded",
    "checkpoint_skipped",
)

#: Summary counters accepted as fallback evidence (a degraded sink drops
#: event records, but the final metrics snapshot still carries the tally).
_PRESSURE_COUNTERS = (
    "engine.shm.downgrades",
    "resilience.checkpoint.skips",
    "obs.sink.dropped",
)


def check_pressure_events(records) -> list[str]:
    """The pressure-evidence gate: the trace must prove degradation fired.

    A resource-pressure chaos run that shows no ``transport_downgraded`` /
    ``checkpoint_skipped`` event — and no
    pressure counter in the summary snapshot — means the injected pressure
    silently did nothing, which is exactly the failure this gate exists to
    catch.
    """
    if any(
        r.get("type") == "event" and r.get("kind") in _PRESSURE_KINDS
        for r in records
    ):
        return []
    for r in records:
        if r.get("type") != "summary":
            continue
        counters = (r.get("metrics") or {}).get("counters") or {}
        if any(counters.get(c, 0) > 0 for c in _PRESSURE_COUNTERS):
            return []
    return [
        "--require-pressure-events: trace contains no pressure-degradation "
        f"events ({'/'.join(_PRESSURE_KINDS)}) and no pressure counters "
        f"({'/'.join(_PRESSURE_COUNTERS)}) in the summary"
    ]


def check_file(
    path: str, *, require_worker_spans: bool = False,
    require_transport_attr: bool = False, require_pressure_events: bool = False,
) -> tuple[list[str], int]:
    """Validate *path*; returns ``(problems, record_count)``.

    The file is opened once, with the handle released before validation
    starts; the count is taken from the records actually validated, so it
    cannot drift from what the schema check saw.
    """
    with open(path, encoding="utf-8") as fh:
        records = read_jsonl(fh)
    if not records:
        return (["file contains no telemetry records"], 0)
    errors: list[str] = []
    for i, rec in enumerate(records, start=1):
        errors.extend(f"line {i}: {e}" for e in validate_record(rec))
    if errors:
        return errors, len(records)
    if require_worker_spans:
        errors = check_worker_spans(records)
        if errors:
            return errors, len(records)
    if require_transport_attr:
        errors = check_transport_attrs(records)
        if errors:
            return errors, len(records)
    if require_pressure_events:
        errors = check_pressure_events(records)
        if errors:
            return errors, len(records)
    try:
        trace = telemetry_to_chrome_trace(records)
    except Exception as exc:  # defensive: schema-valid should always convert
        return [f"chrome-trace conversion failed: {exc}"], len(records)
    if not isinstance(trace.get("traceEvents"), list) or not trace["traceEvents"]:
        return ["chrome-trace conversion produced no events"], len(records)
    return [], len(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="telemetry JSONL files to validate")
    parser.add_argument("--quiet", action="store_true",
                        help="print failures only (for CI wrappers)")
    parser.add_argument("--require-worker-spans", action="store_true",
                        help="fail unless every shard span has >=1 "
                             "worker-attributed kernel span beneath it "
                             "(cross-process trace completeness)")
    parser.add_argument("--require-transport-attr", action="store_true",
                        help="fail unless every shard span carries a "
                             "transport attr naming a known transport "
                             "(inline/threads/pipe/shm)")
    parser.add_argument("--require-pressure-events", action="store_true",
                        help="fail unless the trace shows pressure-triggered "
                             "degradation: a transport_downgraded/"
                             "checkpoint_skipped "
                             "event, or a pressure counter in the summary "
                             "snapshot")
    args = parser.parse_args(argv)

    failed = 0
    for path in args.files:
        if not Path(path).exists():
            print(f"[FAIL] {path}: no such file")
            failed += 1
            continue
        problems, count = check_file(
            path, require_worker_spans=args.require_worker_spans,
            require_transport_attr=args.require_transport_attr,
            require_pressure_events=args.require_pressure_events,
        )
        if problems:
            failed += 1
            print(f"[FAIL] {path}")
            for p in problems[:10]:
                print(f"       {p}")
            if len(problems) > 10:
                print(f"       ... and {len(problems) - 10} more")
        elif not args.quiet:
            print(f"[PASS] {path} ({count} records)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
