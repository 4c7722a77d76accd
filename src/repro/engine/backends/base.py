"""The execution-backend seam: how sharded MTTKRP work gets dispatched.

An :class:`ExecutionBackend` owns exactly one decision — *where* the
per-shard segment streams run (inline, on a thread pool, or in isolated
worker processes). Everything else lives here, once:
:meth:`ExecutionBackend.run_shards` is the only shard loop. It announces
the dispatch, draws the injected shard faults, has the backend submit
every shard, collects the shards in order, recovers the failed ones, and
tree-reduces the partials exactly once. Every shard executes the identical
:func:`~repro.engine.execute.run_stream` into a private
``(out_rows, rank)`` accumulator, so all backends are bitwise identical to
serial execution (disjoint output rows; the reduce adds exact zeros).

The recovery contract: each shard's ``shard_timeout`` deadline is anchored
when *its own* collection starts, so collecting or redoing earlier shards
never erodes a later shard's budget. A collected shard has one of four
outcomes — ``ok``, the worker *raised*, the worker was *lost* (killed,
aborted, or its pipe broke: process backend only), or it missed its
deadline — and each failure maps to one counter and one resilience event:

========= =============================== =================
outcome   counter                         event
========= =============================== =================
raised    ``engine.shard.retries``        ``shard_retry``
lost      ``engine.backend.workers_lost`` ``worker_lost``
timeout   ``engine.shard.timeouts``       ``shard_timeout``
========= =============================== =================

after which the shard is re-executed *serially on the dispatching thread*
into a fresh zeroed accumulator. Each shard's summation order is private,
so the redo is bit-identical to a clean run; an abandoned worker's buffer
never enters the reduction. A shard whose serial redo raises too (a
genuinely poisoned plan) propagates to the caller, whose replan-once
recovery takes over.

A backend supplies only the primitives that really differ:
:meth:`~ExecutionBackend._submit` (put every shard in flight),
:meth:`~ExecutionBackend._wait` (wait for one shard and report its
outcome), and the optional :meth:`~ExecutionBackend._finish` and
:meth:`~ExecutionBackend._close` hooks. The defaults run each shard inline at collection — the serial
backend, which additionally draws no faults (nothing can crash or
straggle), so a serial run's injector RNG stream matches a run that never
shards.

The observability contract is backend-independent too: every executed
shard runs through :func:`run_shard_captured`, which records a
``shard_kernel`` span (plus any counters the shard code touches) in a
local :class:`~repro.obs.worker.WorkerTelemetrySession` and returns the
drained batch alongside the partial. The loop synthesizes one ``shard``
span per shard under the ambient session's current span
(:meth:`ExecutionBackend._finish_shard`) and merges the worker batches
beneath it with pid/worker attribution — so a trace has the same shape
whether the shard ran inline, on a thread, or in another process. Each
``shard`` span carries a ``transport`` attr (``inline`` / ``threads`` /
``pipe`` / ``shm``) naming how that shard's inputs and accumulator
actually traveled, so traces prove which transport ran.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.kernels.partition import imbalance
from repro.obs import current_telemetry
from repro.obs.worker import WorkerTelemetrySession, merge_worker_batch
from repro.resilience.events import SHARD_RETRY, SHARD_TIMEOUT, WORKER_LOST

__all__ = [
    "ExecutionBackend",
    "ShardJob",
    "apply_shard_faults",
    "run_shard_captured",
    "tree_reduce",
]

#: Shard outcomes a backend's ``_wait`` reports.
OK, RAISED, LOST, TIMEOUT = "ok", "raised", "lost", "timeout"

#: Failed outcome -> (counter, resilience event kind, detail template).
_RECOVERY = {
    RAISED: ("engine.shard.retries", SHARD_RETRY, "worker raised ({why})"),
    LOST: (
        "engine.backend.workers_lost", WORKER_LOST,
        "worker process {why}; worker respawned",
    ),
    TIMEOUT: (
        "engine.shard.timeouts", SHARD_TIMEOUT, "missed its {timeout:g}s deadline"
    ),
}


def run_shard_captured(
    stream, fmats, mode, out: np.ndarray, chunk: int, shard: int, *,
    enabled: bool = True,
):
    """Execute one shard stream under a local capture session.

    Returns ``(partial, batch)``: the accumulator and the drained
    telemetry batch — a ``shard_kernel`` span plus whatever counters the
    shard code bumped — ready for :func:`~repro.obs.worker.merge_worker_batch`.
    With ``enabled=False`` the capture session is skipped entirely and the
    batch is ``None`` (the zero-overhead path when telemetry is off).
    Pool threads never see the ambient contextvars session, so this is how
    a shard on any thread ships its telemetry.
    """
    from repro.engine.execute import run_stream

    if not enabled:
        return run_stream(stream, fmats, mode, out, chunk), None
    session = WorkerTelemetrySession(worker_id=shard)
    with session.activate():
        with session.span("shard_kernel", shard=shard, mode=mode, nnz=stream.nnz):
            result = run_stream(stream, fmats, mode, out, chunk)
    return result, session.drain()


def apply_shard_faults(kinds, delay: float, mode, *, can_kill: bool) -> None:
    """Worker-side: act out the injected execution faults aimed at a shard.

    *kinds* is the set of fault kinds drawn for this shard. A process
    worker (*can_kill*) dies by a real ``SIGKILL`` on ``kill_worker`` /
    ``oom_worker`` — no reply at all, the silence the watchdog must
    detect. A thread cannot be killed on its own, so there ``kill_worker``
    degrades to a crash and ``oom_worker`` to the allocator failing
    (``MemoryError``). ``slow_shard`` sleeps *delay* seconds first.
    """
    if can_kill and kinds & {"kill_worker", "oom_worker"}:
        os.kill(os.getpid(), signal.SIGKILL)
    if "slow_shard" in kinds:
        time.sleep(delay)
    if "oom_worker" in kinds:
        raise MemoryError(f"injected worker OOM on mode-{mode} shard")
    if kinds & {"worker_crash", "kill_worker"}:
        from repro.resilience.faults import InjectedWorkerCrash

        raise InjectedWorkerCrash(f"injected worker crash on mode-{mode} shard")


def tree_reduce(partials: list[np.ndarray]) -> np.ndarray:
    """Pairwise in-place reduction of the shard accumulators.

    The empty list is a contract violation, not a silent zero: a dispatch
    always has at least one shard (``EngineConfig.shards >= 1``), and the
    shape/dtype of an empty reduction would have to be invented. Raises
    ``ValueError`` so a buggy caller fails loudly instead of with a bare
    ``IndexError`` deep in the reduce.
    """
    if not partials:
        raise ValueError("tree_reduce() requires at least one shard partial")
    while len(partials) > 1:
        nxt = []
        for i in range(0, len(partials) - 1, 2):
            np.add(partials[i], partials[i + 1], out=partials[i])
            nxt.append(partials[i])
        if len(partials) % 2:
            nxt.append(partials[-1])
        partials = nxt
    return partials[0]


class ShardJob:
    """One dispatch: the shards' inputs and injected faults.

    A backend's ``_submit`` hangs whatever it puts in flight (futures,
    workers, shm leases) on the job, and sets :attr:`transport`.
    """

    transport = "inline"

    def __init__(self, streams, fmats, mode, out_rows, rank, cfg, capture,
                 faults, delay):
        self.streams, self.fmats, self.mode = streams, fmats, mode
        self.out_rows, self.rank, self.cfg = out_rows, rank, cfg
        self.capture, self.faults, self.delay = capture, faults, delay

    def zeros(self) -> np.ndarray:
        """A fresh zeroed ``(out_rows, rank)`` shard accumulator."""
        return np.zeros((self.out_rows, self.rank), dtype=np.float64)

    def run(self, i: int):
        """Shard *i* into a fresh zeroed accumulator: ``(partial, batch)``."""
        return run_shard_captured(
            self.streams[i], self.fmats, self.mode, self.zeros(),
            self.cfg.chunk, i, enabled=self.capture,
        )


class ExecutionBackend:
    """One shard-dispatch strategy; see the module docstring for the contract."""

    #: Registry name (``EngineConfig.backend`` value selecting this backend).
    name = "base"
    #: Whether dispatches draw the injector's worker faults.
    draws_faults = True

    def run_shards(
        self,
        streams,
        fmats,
        mode: int,
        out_rows: int,
        rank: int,
        cfg,
        *,
        faults=None,
        events=None,
    ) -> np.ndarray:
        """Execute per-worker shard streams and tree-reduce the partials."""
        self._announce(streams)
        tel = current_telemetry()
        n = len(streams)
        # One set object per shard, as the draw returns: each pool thread
        # touches only its own shard's (see ThreadsBackend._submit).
        kinds, delay = [frozenset() for _ in range(n)], 0.0
        if faults is not None and self.draws_faults:
            kinds, delay = faults.draw_shard_faults(n, mode=mode, events=events)
        job = ShardJob(
            streams, fmats, mode, out_rows, rank, cfg, tel.enabled, kinds, delay
        )
        anchor, t_dispatch = tel.current_span_id(), tel.now()
        self._submit(job, faults, events)
        partials = []
        try:
            for i, stream in enumerate(streams):
                deadline = None
                if cfg.shard_timeout > 0.0:
                    deadline = time.monotonic() + cfg.shard_timeout
                outcome, value, batches = self._wait(job, i, deadline)
                redone = outcome != OK
                if redone:
                    counter, kind, what = _RECOVERY[outcome]
                    tel.counter(counter)
                    if events is not None:
                        what = what.format(
                            why=value.pop("why", None), timeout=cfg.shard_timeout
                        )
                        events.record(
                            kind, "MTTKRP", mode=mode,
                            detail=f"shard {i}/{n} {what}; re-executed serially",
                            shard=i, nnz=stream.nnz, **value,
                        )
                    value, batch = job.run(i)
                    batches.append(batch)
                self._finish_shard(
                    tel, anchor, t_dispatch, i, stream.nnz, batches,
                    redone=redone, captured=tel.enabled,
                    transport="inline" if redone else job.transport,
                )
                partials.append(value)
            return self._finish(job, tree_reduce(partials))
        finally:
            partials = value = None  # drop shm views before the leases go
            self._close(job)

    def shutdown(self) -> None:
        """Release worker resources (pools, processes, pipes). Idempotent."""

    # ------------------------------------------------------------------ #
    # Backend primitives (defaults: inline execution at collection)
    # ------------------------------------------------------------------ #
    def _submit(self, job: ShardJob, faults, events) -> None:
        """Put every shard of *job* in flight."""

    def _wait(self, job: ShardJob, i: int, deadline: float | None):
        """Wait for shard *i* until the ``time.monotonic()`` *deadline*.

        Returns ``(outcome, value, batches)``: for ``OK`` the partial and
        the worker telemetry batches; for a failure a dict of resilience
        event data whose ``"why"`` entry says what happened, plus any
        batches the failed attempt shipped.
        """
        partial, batch = job.run(i)
        return OK, partial, [batch]

    def _finish(self, job: ShardJob, reduced: np.ndarray) -> np.ndarray:
        """Hook on the reduced result; returns what the caller gets."""
        return reduced

    def _close(self, job: ShardJob) -> None:
        """Release the dispatch's resources, on success and on error."""

    # ------------------------------------------------------------------ #
    # Shared bookkeeping
    # ------------------------------------------------------------------ #
    def _announce(self, streams) -> None:
        tel = current_telemetry()
        if tel.enabled:
            tel.counter("engine.backend.dispatches")
            tel.gauge("engine.shard.workers", float(len(streams)))
            tel.gauge(
                "engine.shard.imbalance", imbalance([s.nnz for s in streams])
            )

    def _finish_shard(
        self, tel, anchor: int | None, t0: float, shard: int, nnz: int,
        batches, *, redone: bool = False, captured: bool = True,
        transport: str | None = None,
    ) -> None:
        """Synthesize the parent-side ``shard`` span and merge worker batches.

        *anchor* is the ambient session's current span id at dispatch time
        (typically the driver's ``mttkrp`` span); *t0* the dispatch
        timestamp on the session clock. Shard spans overlap in time, so
        they cannot ride the LIFO span stack — :meth:`Telemetry.add_span`
        records them as already-completed spans. When *captured* shards
        ship no spans at all, the ``obs.worker.silent`` counter bumps —
        the doctor's ``silent_worker`` evidence.

        *transport* names how the shard's inputs and accumulator actually
        traveled — ``"inline"`` (same-thread execution, including every
        serial redo), ``"threads"`` (shared-address-space pool), ``"pipe"``
        (pickled over the worker pipe), or ``"shm"`` (zero-copy shared
        memory) — recorded as the shard span's ``transport`` attr so a
        trace *proves* which transport ran (``check_trace.py
        --require-transport-attr``).
        """
        if not tel.enabled:
            return
        attrs = {"shard": int(shard), "nnz": int(nnz)}
        if transport is not None:
            attrs["transport"] = str(transport)
        if redone:
            attrs["redone"] = True
        span = tel.add_span("shard", t0, tel.now() - t0, parent=anchor, attrs=attrs)
        merged = 0
        for batch in batches or ():
            merged += merge_worker_batch(tel, batch, anchor=span)
        if captured and merged == 0:
            tel.counter("obs.worker.silent")
