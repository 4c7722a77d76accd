"""Structured resilience events, the event log, and the error type.

Every recovery action anywhere in the stack — a jittered Cholesky retry, an
ADMM rollback, a sentinel repair, an injected fault, a checkpoint write —
is recorded as one :class:`ResilienceEvent` on the run's shared
:class:`EventLog`. The log is surfaced on
:class:`~repro.core.cstf.CstfResult` so a campaign's operator can audit
exactly what the resilience layer did, and it travels inside
:class:`ResilienceError` when a run cannot be saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResilienceEvent", "EventLog", "ResilienceError"]


# Canonical event kinds (informal enum; free-form kinds are allowed).
NONFINITE_INPUT = "nonfinite_input"
SENTINEL_REPAIR = "sentinel_repair"
SENTINEL_WARN = "sentinel_warn"
CHOLESKY_JITTER = "cholesky_jitter"
CHOLESKY_RECOVERED = "cholesky_recovered"
ADMM_DIVERGENCE = "admm_divergence"
ADMM_RHO_RESCALE = "admm_rho_rescale"
ADMM_RESTART = "admm_restart"
ADMM_GIVEUP = "admm_giveup"
FAULT_INJECTED = "fault_injected"
CHECKPOINT_SAVED = "checkpoint_saved"
CHECKPOINT_RESUMED = "checkpoint_resumed"
CHECKPOINT_CORRUPT = "checkpoint_corrupt"
SLICE_SKIPPED = "slice_skipped"

# Execution-resilience kinds (shard fault tolerance + run supervision).
SHARD_RETRY = "shard_retry"
SHARD_TIMEOUT = "shard_timeout"
WORKER_LOST = "worker_lost"
PLAN_REPAIRED = "plan_repaired"
RUN_RETRY = "run_retry"
EXECUTION_DEGRADED = "execution_degraded"
FORMAT_FALLBACK = "format_fallback"
DEADLINE_EXCEEDED = "deadline_exceeded"

# Resource-pressure kinds (a full /dev/shm or disk and their degradations).
TRANSPORT_DOWNGRADED = "transport_downgraded"
CHECKPOINT_SKIPPED = "checkpoint_skipped"


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery (or injection) action taken by the resilience layer.

    Attributes
    ----------
    kind:
        Machine-readable action tag, e.g. ``"cholesky_jitter"`` or
        ``"sentinel_repair"`` (see the module-level constants).
    phase:
        The cSTF phase the event occurred in (``GRAM``/``MTTKRP``/``UPDATE``/
        ``NORMALIZE``/``SOLVE``/``STREAM``/``CHECKPOINT``).
    mode:
        Tensor mode being updated, when applicable.
    iteration:
        Outer AO iteration (or stream step), when applicable.
    detail:
        Human-readable one-liner describing what happened.
    data:
        Small numeric payload (shift magnitudes, residuals, attempt counts).
    """

    kind: str
    phase: str
    mode: int | None = None
    iteration: int | None = None
    detail: str = ""
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        loc = self.phase
        if self.mode is not None:
            loc += f"/mode{self.mode}"
        if self.iteration is not None:
            loc += f"@it{self.iteration}"
        return f"[{self.kind}] {loc}: {self.detail}"


class EventLog:
    """Append-only list of :class:`ResilienceEvent` with query helpers."""

    def __init__(self):
        self.events: list[ResilienceEvent] = []
        self._listeners: list = []

    def subscribe(self, listener) -> None:
        """Register a ``(ResilienceEvent) -> None`` observer called on every
        record — the bridge that mirrors resilience actions into an active
        telemetry session as instant trace events."""
        self._listeners.append(listener)

    def record(
        self,
        kind: str,
        phase: str,
        *,
        mode: int | None = None,
        iteration: int | None = None,
        detail: str = "",
        **data,
    ) -> ResilienceEvent:
        ev = ResilienceEvent(
            kind=kind, phase=phase, mode=mode, iteration=iteration,
            detail=detail, data=data,
        )
        self.events.append(ev)
        for listener in self._listeners:
            listener(ev)
        return ev

    def of_kind(self, kind: str) -> list[ResilienceEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog({self.counts()})"


class ResilienceError(RuntimeError):
    """A failure the resilience layer detected but could not (or, per
    policy, was told not to) repair.

    Carries the run's event log so the caller sees the full recovery history
    leading up to the failure, not just the terminal symptom.
    """

    def __init__(self, message: str, events=None):
        super().__init__(message)
        if isinstance(events, EventLog):
            events = list(events)
        self.events: list[ResilienceEvent] = list(events or [])

    def __str__(self) -> str:
        base = super().__str__()
        if not self.events:
            return base
        tail = "; ".join(str(e) for e in self.events[-3:])
        return f"{base} (events: {len(self.events)}; last: {tail})"
