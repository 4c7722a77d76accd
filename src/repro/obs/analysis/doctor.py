"""The run doctor: ranked findings explaining why a run was slow or sick.

:func:`diagnose` replays a run's telemetry — the metrics-registry summary,
the resilience event mirror, and the span tree — and emits ranked
:class:`Finding` objects, each carrying the span IDs and iterations that
evidence it. Detectors cover the failure modes the AO-ADMM literature
(Huang, Sidiropoulos & Liavas 2015) and the paper's GPU evaluation say to
watch:

- **ADMM stall** — divergence recoveries, restarts, or give-ups in the
  inner loop (``admm_divergence``/``admm_restart``/``admm_giveup`` events);
- **ρ thrash** — repeated ρ rescales, or a final-ρ histogram spanning
  orders of magnitude across update calls;
- **oscillating fit** — the outer-loop objective moving backwards, from
  the per-iteration fit values stamped on the ``fit`` spans;
- **BLCO load imbalance** — the ``mttkrp.blco.block_imbalance`` gauge the
  BLCO kernel records (max/mean nonzeros per block);
- **checkpoint-resume gaps** — a resumed run that never re-armed
  checkpointing, leaving its post-resume progress unprotected;
- **lost workers** — shard worker processes that died mid-run
  (``worker_lost`` events / ``engine.backend.workers_lost``): recovered
  bit-identically, but something is killing workers;
- **silent workers** — shards that returned results but shipped no
  worker-attributed kernel spans (``obs.worker.silent``): the numbers are
  fine, the cross-process telemetry path is not;
- **degraded execution** — the run only finished because the execution
  layer healed itself: shard retries/timeouts, plan-cache repairs,
  lost workers, supervisor retries, ladder degradations, or format
  fallbacks;
- **resource pressure** — the run degraded under /dev/shm or disk
  pressure: shm dispatches downgraded to pipe transport
  (``transport_downgraded``), checkpoint writes skipped on ENOSPC
  (``checkpoint_skipped``), telemetry records dropped by a degraded sink
  (``obs.sink.dropped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.analysis.ingest import load_run
from repro.obs.record import RunRecord, Span

__all__ = ["Finding", "diagnose"]

_SEVERITY_ORDER = {"error": 0, "warn": 1, "info": 2}

#: Gauge threshold for flagging BLCO block imbalance (max/mean block nnz).
BLCO_IMBALANCE_THRESHOLD = 2.0

#: ρ histogram max/min spread that counts as thrash.
RHO_SPREAD_THRESHOLD = 8.0


@dataclass(frozen=True)
class Finding:
    """One diagnosis, with the telemetry that evidences it.

    ``evidence`` holds machine-usable pointers — ``span_ids`` into the
    record's span list, ``iterations``/``modes``, raw counts — so a caller
    can jump from the finding to the exact trace region.
    """

    code: str
    severity: str  # "error" | "warn" | "info"
    summary: str
    evidence: dict = field(default_factory=dict)
    score: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.code}: {self.summary}"


# --------------------------------------------------------------------- #
# Span indexing helpers
# --------------------------------------------------------------------- #
def _span_iteration(span: Span, by_id: dict[int, Span]) -> int | None:
    """Outer iteration a span belongs to, walking up to an ``outer_iter``."""
    node = span
    while node is not None:
        it = node.attrs.get("iteration")
        if it is not None:
            return it
        node = by_id.get(node.parent) if node.parent is not None else None
    return None


def _update_spans_for(
    record: RunRecord, iterations: set, modes: set
) -> tuple[list[int], list[int]]:
    """``update`` spans matching any offending (iteration, mode).

    Returns ``(span_ids, span_iterations)`` — the second list names the
    outer iterations the matched spans belong to, which stands in for the
    event-carried iterations when the EventLog did not record any.
    """
    by_id = {s.id: s for s in record.spans}
    ids: list[int] = []
    its: set[int] = set()
    for s in record.spans:
        if s.name != "update":
            continue
        it = _span_iteration(s, by_id)
        if (not iterations or it in iterations) and (
            not modes or s.attrs.get("mode") in modes
        ):
            ids.append(s.id)
            if it is not None:
                its.add(it)
    return ids, sorted(its)


def _hist(record: RunRecord, name: str) -> dict | None:
    return (record.metrics_summary or {}).get("histograms", {}).get(name)


def _gauge(record: RunRecord, name: str):
    return (record.metrics_summary or {}).get("gauges", {}).get(name)


def _counter(record: RunRecord, name: str) -> float:
    return float((record.metrics_summary or {}).get("counters", {}).get(name, 0.0))


# --------------------------------------------------------------------- #
# Detectors (each returns a list of findings)
# --------------------------------------------------------------------- #
def _detect_admm_stall(record: RunRecord) -> list[Finding]:
    divergences = [e for e in record.events if e.kind == "admm_divergence"]
    restarts = [e for e in record.events if e.kind == "admm_restart"]
    giveups = [e for e in record.events if e.kind == "admm_giveup"]
    if not (divergences or restarts or giveups):
        return []
    iterations = sorted({e.iteration for e in divergences + restarts + giveups
                         if e.iteration is not None})
    modes = sorted({e.mode for e in divergences + restarts + giveups
                    if e.mode is not None})
    span_ids, span_iters = _update_spans_for(record, set(iterations), set(modes))
    if not iterations:
        # The EventLog did not carry iteration indices; name the outer
        # iterations of the update spans that evidence the stall instead.
        iterations = span_iters
    severity = "error" if giveups else "warn"
    where = ""
    if iterations:
        where = f" at outer iteration{'s' if len(iterations) > 1 else ''} " + \
            ", ".join(str(i) for i in iterations[:6])
        if len(iterations) > 6:
            where += ", ..."
    spans_note = f"; evidence spans #{', #'.join(str(i) for i in span_ids[:6])}" \
        if span_ids else ""
    summary = (
        f"ADMM inner loop stalled{where}: {len(divergences)} divergence "
        f"recover{'ies' if len(divergences) != 1 else 'y'}, "
        f"{len(restarts)} restart{'s' if len(restarts) != 1 else ''}, "
        f"{len(giveups)} give-up{'s' if len(giveups) != 1 else ''}{spans_note}"
    )
    return [
        Finding(
            code="admm_stall",
            severity=severity,
            summary=summary,
            evidence={
                "span_ids": span_ids,
                "iterations": iterations,
                "modes": modes,
                "divergences": len(divergences),
                "restarts": len(restarts),
                "giveups": len(giveups),
            },
            score=float(len(divergences) + 5 * len(restarts) + 25 * len(giveups)),
        )
    ]


def _detect_rho_thrash(record: RunRecord) -> list[Finding]:
    rescales = [e for e in record.events if e.kind == "admm_rho_rescale"]
    # ρ differs across modes by design (it tracks each gram's scale), so a
    # wide global histogram alone is not thrash; repeated rescale events are.
    if len(rescales) < 3:
        return []
    rho = _hist(record, "admm.rho")
    spread = None
    if rho and rho.get("count", 0) >= 2 and rho.get("min", 0.0) > 0.0:
        spread = rho["max"] / rho["min"]
    iterations = sorted({e.iteration for e in rescales if e.iteration is not None})
    modes = sorted({e.mode for e in rescales if e.mode is not None})
    span_ids, span_iters = _update_spans_for(record, set(iterations), set(modes))
    if not iterations:
        iterations = span_iters
    bits = [f"{len(rescales)} ρ-rescale events"]
    if spread is not None and spread > RHO_SPREAD_THRESHOLD:
        bits.append(f"final-ρ spread {spread:.1f}x across update calls")
    return [
        Finding(
            code="rho_thrash",
            severity="warn",
            summary="ADMM penalty ρ is thrashing: " + "; ".join(bits),
            evidence={
                "span_ids": span_ids,
                "iterations": iterations,
                "modes": modes,
                "rescales": len(rescales),
                "rho_spread": spread,
            },
            score=float(len(rescales)) + min(spread or 0.0, 100.0),
        )
    ]


def _detect_fit_oscillation(record: RunRecord) -> list[Finding]:
    # Preferred evidence: per-iteration fit values stamped on the fit spans.
    fit_spans = [s for s in record.spans if s.name == "fit" and "fit" in s.attrs]
    fit_spans.sort(key=lambda s: s.t0)
    values = [float(s.attrs["fit"]) for s in fit_spans]
    drops: list[int] = []  # indices of spans whose fit decreased
    if len(values) >= 2:
        drops = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    if drops:
        span_ids = [fit_spans[i].id for i in drops]
        worst = min(values[i] - values[i - 1] for i in drops)
        by_id = {s.id: s for s in record.spans}
        iterations = sorted(
            {it for it in (_span_iteration(fit_spans[i], by_id) for i in drops)
             if it is not None}
        )
        return [
            Finding(
                code="fit_oscillation",
                severity="warn",
                summary=(
                    f"fit decreased on {len(drops)} of {len(values) - 1} outer "
                    f"iterations (worst drop {worst:.2e}); AO-ADMM should be "
                    f"monotone once the inner loops converge"
                ),
                evidence={"span_ids": span_ids, "iterations": iterations,
                          "drops": len(drops), "worst_drop": worst},
                score=float(len(drops)) + abs(worst),
            )
        ]
    # Fallback (summary-only traces): a negative fit-delta histogram floor.
    delta = _hist(record, "cstf.fit_delta")
    if delta and delta.get("count", 0) >= 2 and delta.get("min", 0.0) < 0.0:
        return [
            Finding(
                code="fit_oscillation",
                severity="warn",
                summary=(
                    f"fit-delta histogram has a negative floor "
                    f"({delta['min']:.2e} over {delta['count']} iterations): "
                    f"the objective moved backwards at least once"
                ),
                evidence={"worst_drop": delta["min"], "samples": delta["count"]},
                score=abs(delta["min"]),
            )
        ]
    return []


def _detect_blco_imbalance(record: RunRecord) -> list[Finding]:
    imbalance = _gauge(record, "mttkrp.blco.block_imbalance")
    if imbalance is None or imbalance <= BLCO_IMBALANCE_THRESHOLD:
        return []
    blocks = _gauge(record, "mttkrp.blco.blocks")
    span_ids = [s.id for s in record.spans
                if s.name == "mttkrp_kernel" and s.attrs.get("format") == "blco"]
    return [
        Finding(
            code="blco_load_imbalance",
            severity="warn",
            summary=(
                f"BLCO blocks are imbalanced: max/mean nonzeros per block is "
                f"{imbalance:.1f}x across {int(blocks) if blocks else '?'} blocks "
                f"— the largest block bounds every MTTKRP launch"
            ),
            evidence={"span_ids": span_ids[:8], "imbalance": imbalance,
                      "blocks": blocks},
            score=float(imbalance),
        )
    ]


def _detect_checkpoint_gaps(record: RunRecord) -> list[Finding]:
    resumed = [e for e in record.events if e.kind == "checkpoint_resumed"]
    saved = [e for e in record.events if e.kind == "checkpoint_saved"]
    findings: list[Finding] = []
    if resumed:
        at = resumed[-1].iteration
        findings.append(
            Finding(
                code="checkpoint_resume",
                severity="info",
                summary=f"run resumed from a checkpoint at outer iteration {at}",
                evidence={"iteration": at, "resumes": len(resumed)},
                score=float(len(resumed)),
            )
        )
        later_saves = [e for e in saved
                       if e.iteration is not None and (at is None or e.iteration > at)]
        if not later_saves:
            findings.append(
                Finding(
                    code="checkpoint_gap",
                    severity="warn",
                    summary=(
                        f"resumed from iteration {at} but wrote no further "
                        f"checkpoints: all post-resume progress is unprotected"
                    ),
                    evidence={"resumed_iteration": at, "later_saves": 0},
                    score=10.0,
                )
            )
    return findings


def _detect_lost_workers(record: RunRecord) -> list[Finding]:
    """Process-backend worker deaths: every loss was recovered bit-identically,
    but a nonzero count means something is killing workers (OOM, bad node,
    chaos harness) and the run paid a serial redo per loss."""
    lost_events = [e for e in record.events if e.kind == "worker_lost"]
    lost = max(_counter(record, "engine.backend.workers_lost"), len(lost_events))
    if lost == 0:
        return []
    respawns = _counter(record, "engine.backend.respawns")
    exitcodes = sorted(
        {e.data.get("exitcode") for e in lost_events
         if e.data.get("exitcode") is not None}
    )
    codes = f" (worker exit codes: {exitcodes})" if exitcodes else ""
    return [
        Finding(
            code="lost_workers",
            severity="warn",
            summary=(
                f"{int(lost)} shard worker process(es) died mid-run and were "
                f"respawned ({int(respawns)} respawns); each lost shard was "
                f"re-executed serially{codes} — results are bit-identical, "
                f"but find what is killing the workers (OOM killer, node "
                f"health, injected faults)"
            ),
            evidence={
                "workers_lost": lost,
                "respawns": respawns,
                "exitcodes": exitcodes,
                "iterations": sorted(
                    {e.iteration for e in lost_events if e.iteration is not None}
                ),
            },
            score=float(lost),
        )
    ]


def _detect_silent_workers(record: RunRecord) -> list[Finding]:
    """Shards that returned results but shipped no kernel spans.

    Every captured shard should merge at least one worker-attributed
    ``shard_kernel`` span under its ``shard`` span; a shard span with no
    attributed descendants means the worker's telemetry was lost or its
    capture is stuck — the numbers are fine, the observability is not."""
    shard_spans = [s for s in record.spans if s.name == "shard"]
    if not shard_spans:
        return []
    attributed_parents = {
        s.parent for s in record.spans
        if s.worker is not None and s.parent is not None
    }
    silent = [s for s in shard_spans if s.id not in attributed_parents]
    counted = _counter(record, "obs.worker.silent")
    if not silent and counted == 0:
        return []
    span_ids = [s.id for s in silent[:8]]
    shards = sorted({s.attrs.get("shard") for s in silent
                     if s.attrs.get("shard") is not None})
    n = max(len(silent), int(counted))
    return [
        Finding(
            code="silent_worker",
            severity="warn",
            summary=(
                f"{n} shard(s) returned results but shipped no kernel spans "
                f"(shard indices {shards}): worker telemetry was lost or the "
                f"capture session is stuck — numerics are unaffected, but "
                f"per-worker attribution has holes"
            ),
            evidence={"span_ids": span_ids, "shards": shards,
                      "silent_counter": counted},
            score=float(n),
        )
    ]


def _detect_degraded_execution(record: RunRecord) -> list[Finding]:
    degraded = [e for e in record.events if e.kind == "execution_degraded"]
    fallbacks = [e for e in record.events if e.kind == "format_fallback"]
    shard_events = [e for e in record.events
                    if e.kind in ("shard_retry", "shard_timeout")]
    counts = {
        "supervisor retries": _counter(record, "resilience.retries"),
        "degradations": _counter(record, "resilience.degradations"),
        "shard retries": _counter(record, "engine.shard.retries"),
        "shard timeouts": _counter(record, "engine.shard.timeouts"),
        "plan repairs": _counter(record, "engine.plan.repairs"),
        "workers lost": _counter(record, "engine.backend.workers_lost"),
        "silent workers": _counter(record, "obs.worker.silent"),
    }
    total = sum(counts.values()) + len(degraded) + len(fallbacks) + len(shard_events)
    if total == 0:
        return []
    bits = [f"{int(v)} {k}" for k, v in counts.items() if v > 0]
    for label, evs in (("tier degradations", degraded),
                       ("format fallbacks", fallbacks)):
        if evs and not any(label.split()[-1] in b for b in bits):
            bits.append(f"{len(evs)} {label}")
    tiers = [e.data.get("to_tier") for e in degraded if e.data.get("to_tier")]
    where = f" (landed on '{tiers[-1]}')" if tiers else ""
    severity = "warn" if (degraded or fallbacks
                          or counts["supervisor retries"] > 0) else "info"
    return [
        Finding(
            code="degraded_execution",
            severity=severity,
            summary=(
                "run completed through execution-layer recovery: "
                + ", ".join(bits) + where
                + " — results are bit-identical, but wall-clock and "
                  "robustness margins suffered; investigate the trigger"
            ),
            evidence={
                "counters": {k: v for k, v in counts.items() if v > 0},
                "degraded_to": tiers,
                "format_fallbacks": len(fallbacks),
                "shard_events": len(shard_events),
            },
            score=float(total),
        )
    ]


def _detect_resource_pressure(record: RunRecord) -> list[Finding]:
    """Shm/disk pressure the run absorbed by degrading, ranked.

    Every signal here is a *survived* pressure episode — the run finished
    and its numerics are bit-identical — but each one traded something
    away (zero-copy transport, checkpoint currency, or telemetry
    completeness).
    """
    downgrades = [e for e in record.events if e.kind == "transport_downgraded"]
    ck_skips = [e for e in record.events if e.kind == "checkpoint_skipped"]
    counts = {
        "shm dispatches downgraded to pipe transport": max(
            _counter(record, "engine.shm.downgrades"), len(downgrades)
        ),
        "checkpoint writes skipped (ENOSPC)": max(
            _counter(record, "resilience.checkpoint.skips"), len(ck_skips)
        ),
        "telemetry records dropped by a degraded sink": _counter(
            record, "obs.sink.dropped"
        ),
    }
    total = sum(counts.values())
    if total == 0:
        return []
    bits = [f"{int(v)} {k}" for k, v in counts.items() if v > 0]
    return [
        Finding(
            code="resource_pressure",
            severity="warn",
            summary=(
                "run degraded under resource pressure: " + "; ".join(bits)
                + " — results are bit-identical, but free /dev/shm or disk "
                  "space or shrink the run to stop paying the degraded paths"
            ),
            evidence={
                "counters": {k: v for k, v in counts.items() if v > 0},
                "iterations": sorted(
                    {e.iteration for e in downgrades + ck_skips
                     if e.iteration is not None}
                ),
            },
            score=float(total),
        )
    ]


_DETECTORS = (
    _detect_admm_stall,
    _detect_rho_thrash,
    _detect_fit_oscillation,
    _detect_blco_imbalance,
    _detect_checkpoint_gaps,
    _detect_lost_workers,
    _detect_silent_workers,
    _detect_degraded_execution,
    _detect_resource_pressure,
)


def diagnose(source) -> list[Finding]:
    """Run every detector over *source* and rank the findings.

    *source* is anything :func:`~repro.obs.analysis.ingest.load_run`
    accepts — a ``CstfResult.telemetry`` record, a JSONL path, or parsed
    records. Findings are ordered most severe first (``error`` > ``warn`` >
    ``info``), ties broken by detector score descending.
    """
    record = load_run(source)
    findings: list[Finding] = []
    for detector in _DETECTORS:
        findings.extend(detector(record))
    findings.sort(key=lambda f: (_SEVERITY_ORDER.get(f.severity, 3), -f.score))
    return findings
