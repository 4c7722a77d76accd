"""Process-pool backend: shards in isolated workers, with real crash recovery.

Workers are separate OS processes, so the failure modes are the real
thing: a worker that takes a ``SIGKILL`` (OOM killer, operator, the chaos
harness's ``kill_worker`` fault) or aborts simply *disappears* — no
exception, no return value. The shared loop of
:mod:`repro.engine.backends.base` owns dispatch order, deadlines, events
and the serial redo; this backend supplies the watchdog its ``_wait``
runs around each outstanding shard:

- **liveness** — each worker owns a private duplex pipe; while a result is
  pending the parent polls the pipe and the process in short beats. A
  worker that is no longer alive (negative exitcode = died on a signal)
  is *lost*: it is respawned and its exit status named in the
  ``worker_lost`` event.
- **straggler deadline** — a worker still running past its shard's
  deadline is killed outright (its private accumulator dies with it) and
  respawned, as a ``shard_timeout``.
- **broken pipes and failed deliveries** — a task pipe that raises
  ``EOFError``/``OSError`` can never deliver, even if the worker process
  is technically still alive (wedged); it is lost at once rather than
  polled forever.
- **in-worker exceptions** — a worker that raises sends back an error
  marker and stays alive (``shard_retry``).

Shard streams stay resident in the workers. A shard is a segment range
of a cached plan's stream, named by its key ``(plan token, a, c)``
(:meth:`~repro.engine.plan.MttkrpPlan.shard_streams`). A task carries the
key, and the stream itself (pickled over the pipe) only when the worker
does not hold that key for the task's mode yet; each ship is counted as
``engine.proc.streams_shipped``. A worker keeps one stream per mode and
replaces it when a new key arrives. The parent tracks what each worker
holds on its :class:`_Worker`, so a respawned or fork-refreshed worker
starts empty and is sent its streams again, and after a worker raised
the parent forgets what it holds for that mode. A worker sent a key it
does not hold raises, and the serial redo covers the shard.

Factor matrices and accumulators travel over one of two transports:

- **pipe** — the baseline: factor matrices pickled into every task,
  each ``(out_rows, rank)`` accumulator pickled back in the reply.
- **shm** (default where POSIX shared memory works; see
  ``EngineConfig.shm``) — zero-copy via :mod:`repro.engine.backends.shm`:
  the parent publishes each factor matrix once per dispatch into a pooled
  shared-memory segment and pre-zeroes one shm accumulator per shard that
  the worker fills in place, so tasks carry only segment names/shapes and
  the reply shrinks to a status tuple. Descriptors carry a per-dispatch
  generation tag a worker refuses when stale; fault paths discard the
  abandoned shm accumulator unread. Segments are unlinked on
  shutdown/atexit, idle segments on every respawn.

Pools are lazily sized, persistent across calls, refreshed if the parent
PID changes (fork safety: a forked child never reuses inherited workers,
whose pipes it shares with the real parent), and torn down by
:meth:`shutdown` / the registry ``atexit`` hook.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np

from repro.engine.backends.base import (
    LOST,
    OK,
    RAISED,
    TIMEOUT,
    ExecutionBackend,
    apply_shard_faults,
)
from repro.obs import current_telemetry
from repro.obs.worker import merge_worker_batch
from repro.resilience.events import TRANSPORT_DOWNGRADED

__all__ = ["ProcessBackend"]

#: Watchdog poll beat while a shard result is outstanding, in seconds.
HEARTBEAT = 0.02

def _attach_shm_task(shm_desc: dict, attached: list, last_gen: int):
    """Worker-side: map one task's shm descriptors into ndarray views.

    Appends every successful attach to *attached* (the caller detaches in
    its ``finally`` whatever was mapped, even on a half-failed attach) and
    refuses descriptors from a dispatch generation older than the newest
    this worker has served — a respawned parent pool or recycled name must
    never be scribbled on.
    """
    from repro.engine.backends.shm import (
        ShmAttachError,
        attach_segment,
        segment_view,
    )

    gen = int(shm_desc["gen"])
    if gen < last_gen:
        raise ShmAttachError(
            f"stale shm generation {gen} (worker already served {last_gen})"
        )
    fmats = []
    for desc in shm_desc["fmats"]:
        seg = attach_segment(desc["name"])
        attached.append(seg)
        fmats.append(segment_view(seg, desc["shape"]))
    seg = attach_segment(shm_desc["out"]["name"])
    attached.append(seg)
    out = segment_view(seg, shm_desc["out"]["shape"])
    return fmats, out, gen


def _resident_stream(task: dict, resident: dict):
    """Worker-side: the task's shard stream, kept resident by mode."""
    mode, key, stream = task["mode"], task["key"], task.get("stream")
    if stream is not None:
        resident[mode] = (key, stream)
        return stream
    held = resident.get(mode)
    if held is None or held[0] != key:
        raise LookupError(
            f"worker holds no mode-{mode} shard stream {key} "
            f"(holds {held[0] if held else None})"
        )
    return held[1]


def _worker_main(conn, worker_id: int) -> None:
    """Worker loop: receive task dicts, answer ``("ok", partial, batch)``.

    Runs until the parent sends ``None`` or closes the pipe. A task's
    ``stream`` is kept as this worker's resident stream for its mode under
    the task's ``key``; a task without one runs the resident stream,
    which must hold that key. Exceptions
    are answered as ``("error", message, batch)`` and do not kill the
    worker; an injected ``kill`` task dies by real ``SIGKILL`` before any
    reply, which is exactly the silence the parent's watchdog must detect.

    Telemetry: the worker installs its own
    :class:`~repro.obs.worker.WorkerTelemetrySession` as the ambient
    session the moment it starts (the parent's session never crosses the
    fork — see :mod:`repro.obs.spans`), so ``shard_kernel`` spans *and*
    everything deep code bumps — counters, gauges —
    are captured locally. Each reply piggybacks the drained batch when the
    task asked for capture; the ``None`` shutdown sentinel is answered
    with a final ``("flush", batch)`` carrying whatever is still
    unshipped, so end-of-run traces are never truncated.
    """
    from repro.engine.execute import run_stream
    from repro.obs.worker import WorkerTelemetrySession

    session = WorkerTelemetrySession(worker_id=worker_id)
    session.push()
    last_gen = 0
    resident: dict[int, tuple] = {}  # mode -> (shard key, stream)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            session.counter("obs.worker.flushes")
            try:
                conn.send(("flush", session.drain()))
            except (OSError, ValueError):
                pass
            return
        capture = bool(task.get("telemetry"))
        try:
            apply_shard_faults(
                task.get("faults", frozenset()), task.get("delay", 0.0),
                task["mode"], can_kill=True,
            )
            stream = _resident_stream(task, resident)
            shm_desc = task.get("shm")
            attached: list = []
            try:
                if shm_desc is not None:
                    fmats, out, last_gen = _attach_shm_task(
                        shm_desc, attached, last_gen
                    )
                else:
                    fmats = task["fmats"]
                    out = np.zeros(
                        (task["out_rows"], task["rank"]), dtype=np.float64
                    )
                if capture:
                    with session.span(
                        "shard_kernel", shard=task["shard"], mode=task["mode"],
                        nnz=stream.nnz,
                    ):
                        run_stream(
                            stream, fmats, task["mode"], out, task["chunk"]
                        )
                else:
                    run_stream(stream, fmats, task["mode"], out, task["chunk"])
                # shm: the parent already holds the filled accumulator —
                # the reply carries no payload at all.
                result = None if shm_desc is not None else out
            finally:
                fmats = out = None  # drop buffer views before unmapping
                for seg in attached:
                    try:
                        seg.close()
                    except BufferError:  # pragma: no cover - defensive
                        pass
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            try:
                conn.send((
                    "error", f"{type(exc).__name__}: {exc}",
                    session.drain() if capture else None,
                ))
            except (OSError, ValueError):
                return
        else:
            try:
                conn.send(("ok", result, session.drain() if capture else None))
            except (OSError, ValueError):
                return


class _Worker:
    """One pool slot: a process, its private task/result pipe, and the
    shard key it holds per mode (``held``; a fresh worker holds none)."""

    __slots__ = ("proc", "conn", "held")

    def __init__(self, ctx, index: int):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, index),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.held: dict[int, tuple] = {}

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self, grace: float = 0.2) -> dict | None:
        """Shut the worker down; returns its final telemetry flush batch.

        The ``None`` sentinel is answered by a ``("flush", batch)`` reply
        carrying everything the worker had not yet shipped; stale replies
        from abandoned shards are skipped while waiting for it. Returns
        ``None`` when the worker died before flushing.
        """
        batch = None
        try:
            if self.proc.is_alive():
                self.conn.send(None)
                deadline = time.monotonic() + grace
                while time.monotonic() < deadline:
                    if not self.conn.poll(HEARTBEAT):
                        continue
                    reply = self.conn.recv()
                    if reply and reply[0] == "flush":
                        batch = reply[1]
                        break
        except (EOFError, OSError, ValueError):
            pass
        self.proc.join(timeout=grace)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=grace)
        self.conn.close()
        self.proc.close()
        return batch

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(timeout=1.0)
        finally:
            self.conn.close()
            try:
                self.proc.close()
            except ValueError:  # pragma: no cover - still-running straggler
                pass


class ProcessBackend(ExecutionBackend):
    name = "processes"

    def __init__(self):
        # fork is preferred where available: worker spawn is ~ms, and the
        # child executes only repro code paths that never touch inherited
        # locks. Falls back to spawn elsewhere (workers import repro fresh).
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: list[_Worker] = []
        self._pid = os.getpid()
        self._shm_pool = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_workers(self, n: int) -> list[_Worker]:
        if self._pid != os.getpid():
            # Forked child: inherited Process handles belong to the real
            # parent. Close the inherited pipe FDs (the other ends are the
            # parent's; keeping ours open would leak an FD per worker and
            # hold the parent's pipes half-open), then drop the handles
            # unjoined and build a private pool. The inherited shm pool's
            # segments also belong to the parent — forget them, never
            # unlink them.
            for worker in self._workers:
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            self._workers = []
            self._shm_pool = None
            self._pid = os.getpid()
        while len(self._workers) < n:
            self._workers.append(_Worker(self._ctx, len(self._workers)))
        for i in range(n):
            if not self._workers[i].alive():
                self._respawn(i)
        return self._workers[:n]

    def _respawn(self, index: int) -> _Worker:
        try:
            self._workers[index].kill()
        except (OSError, ValueError):  # pragma: no cover - already reaped
            pass
        if self._shm_pool is not None:
            # Respawn hygiene: idle segments are unlinked so the fresh
            # worker can never attach a recycled name from a dispatch it
            # did not see. The current dispatch's leases are untouched.
            self._shm_pool.flush_free()
        self._workers[index] = _Worker(self._ctx, index)
        current_telemetry().counter("engine.backend.respawns")
        return self._workers[index]

    def shutdown(self) -> None:
        workers, self._workers = self._workers, []
        tel = current_telemetry()
        for worker in workers:
            try:
                batch = worker.stop()
            except (OSError, ValueError):  # pragma: no cover - defensive
                batch = None
            # Final flush: anything a worker had not shipped yet (metrics
            # between shards, the flush counter itself) merges before the
            # process is reaped, so end-of-run traces are not truncated.
            if batch is not None:
                merge_worker_batch(tel, batch)
        pool, self._shm_pool = self._shm_pool, None
        if pool is not None:
            # Leak hygiene: every segment the transport ever created is
            # unlinked here (shutdown_backends wires this into atexit).
            pool.close()

    # ------------------------------------------------------------------ #
    # Shared-memory transport plumbing
    # ------------------------------------------------------------------ #
    def _use_shm(self, cfg) -> bool:
        mode = cfg.shm
        if mode == "off":
            return False
        from repro.engine.backends.shm import shm_available

        if shm_available():
            return True
        if mode == "on":
            raise RuntimeError(
                "EngineConfig.shm='on' but POSIX shared memory is "
                "unavailable on this host (shm='auto' falls back to the "
                "pipe transport instead)"
            )
        return False  # pragma: no cover - host without /dev/shm

    def _segment_pool(self):
        if self._shm_pool is None:
            from repro.engine.backends.shm import SegmentPool

            self._shm_pool = SegmentPool()
        return self._shm_pool

    # ------------------------------------------------------------------ #
    # Shard primitives
    # ------------------------------------------------------------------ #
    def _submit(self, job, faults, events) -> None:
        n = len(job.streams)
        job.workers = self._ensure_workers(n)
        job.fmats = [np.ascontiguousarray(f, dtype=np.float64) for f in job.fmats]
        job.pool = self._segment_pool() if self._use_shm(job.cfg) else None
        job.views, job.leases, job.fmat_leases = [None] * n, [None] * n, []
        shm_base = None
        if job.pool is not None:
            shm_base = self._publish(job, faults, events)
        job.transport = "pipe" if job.pool is None else "shm"
        job.sent = [self._send(job, i, shm_base) for i in range(n)]

    def _publish(self, job, faults, events) -> dict | None:
        """Lease and fill every shm segment of the dispatch up front.

        Returns the descriptor base every task extends, or ``None`` after
        a lease failure downgraded the whole dispatch to the pipe
        transport — before any task ships with a half-published
        descriptor set.
        """
        from repro.engine.backends.shm import ShmExhausted

        pool = job.pool
        try:
            if faults is not None and faults.fires(
                "shm_exhausted", mode=job.mode, events=events
            ):
                raise ShmExhausted(
                    "injected shm_exhausted fault: /dev/shm lease refused"
                )
            # One write, N readers: each factor matrix is published once
            # per dispatch; every task carries only names and shapes.
            fmat_descs = []
            for f in job.fmats:
                lease = pool.lease(f.nbytes)
                job.fmat_leases.append(lease)
                lease.view(f.shape)[...] = f
                fmat_descs.append({"name": lease.name, "shape": f.shape})
            for i in range(len(job.streams)):
                job.leases[i] = pool.lease(job.out_rows * job.rank * 8)
                job.views[i] = job.leases[i].view((job.out_rows, job.rank))
                # run_stream assigns segment sums into disjoint rows; rows
                # no nonzero touches must be exact zeros, and a reused
                # segment still holds the previous dispatch.
                job.views[i][...] = 0.0
            return {"gen": pool.next_generation(), "fmats": fmat_descs}
        except ShmExhausted as exc:
            # /dev/shm pressure (kernel or injected fault): this
            # dispatch pickles over the pipes — bit-identical, only the
            # transport differs.
            self._close(job)
            n = len(job.streams)
            job.pool, job.fmat_leases = None, []
            job.views, job.leases = [None] * n, [None] * n
            current_telemetry().counter("engine.shm.downgrades")
            if events is not None:
                events.record(
                    TRANSPORT_DOWNGRADED, "MTTKRP", mode=job.mode,
                    detail=f"shm lease failed ({exc}); dispatch fell "
                           f"back to the pipe transport",
                    error=str(exc),
                )
            return None

    def _send(self, job, i: int, shm_base) -> bool:
        """Deliver shard *i*'s task; whether it is in flight. A failed
        delivery is collected as a lost worker."""
        stream, worker = job.streams[i], job.workers[i]
        task = {
            "mode": job.mode, "out_rows": job.out_rows, "rank": job.rank,
            "chunk": job.cfg.chunk, "shard": i, "telemetry": job.capture,
            "faults": job.faults[i], "delay": job.delay, "key": stream.key,
        }
        ship = worker.held.get(job.mode) != stream.key
        if ship:
            task["stream"] = stream
        if shm_base is not None:
            task["shm"] = dict(shm_base, out={
                "name": job.leases[i].name, "shape": (job.out_rows, job.rank),
            })
        else:
            task["fmats"] = job.fmats
        try:
            worker.conn.send(task)
        except (OSError, ValueError):
            return False
        if ship:
            current_telemetry().counter("engine.proc.streams_shipped")
            worker.held[job.mode] = stream.key
        return True

    def _wait(self, job, i, deadline):
        """Watchdog loop for one outstanding shard result.

        Reports a dead worker, a broken pipe or a failed delivery as a
        lost worker and a live worker past *deadline* as a timeout —
        killing and respawning it either way. An ``"ok"`` reply on the
        shm transport means the worker filled the shard's segment in
        place.
        """
        tel = current_telemetry()
        worker = job.workers[i]
        context = "task delivery failed"
        while job.sent[i]:
            try:
                if worker.conn.poll(HEARTBEAT):
                    status, payload, batch = worker.conn.recv()
                    if status == "ok":
                        view = job.views[i]
                        return OK, payload if view is None else view, [batch]
                    # In-worker exception: the worker survives, but may
                    # have raised before it kept the shard's stream.
                    worker.held.pop(job.mode, None)
                    if payload.startswith("ShmAttachError"):
                        tel.counter("engine.shm.attach_failures")
                    self._discard(job, i)
                    return RAISED, {"why": payload}, [batch]
            except (EOFError, OSError):
                # The pipe broke: even a live (wedged) worker can never
                # deliver. A dying worker's EOF can race its reapability,
                # so grant a short grace to report its real exit status.
                worker.proc.join(timeout=0.2)
                context = "task pipe broke"
                break
            if not worker.alive():
                context = None
                break
            if deadline is not None and time.monotonic() >= deadline:
                # Straggler: killed, its private accumulator dies with it.
                job.workers[i] = self._respawn(i)
                self._discard(job, i)
                return TIMEOUT, {}, []
        if job.sent[i] and "oom_worker" in job.faults[i]:
            context = "OOM-killed (injected memory pressure)"
        exitcode = worker.proc.exitcode
        if exitcode is not None and exitcode < 0:
            how = f"died on signal {signal.Signals(-exitcode).name}"
        elif exitcode is not None:
            how = f"exited with code {exitcode}"
        else:
            how = "became unreachable"  # live worker behind a dead pipe
        job.workers[i] = self._respawn(i)
        self._discard(job, i)
        why = f"{how} ({context})" if context else how
        return LOST, {"why": why, "exitcode": exitcode}, []

    def _discard(self, job, i: int) -> None:
        # Fault hygiene: the abandoned shm accumulator (a killed worker may
        # have been mid-write into it) is never read and never recycled.
        if job.leases[i] is not None:
            job.views[i] = None
            job.pool.discard(job.leases[i])
            job.leases[i] = None

    def _finish(self, job, reduced):
        # The reduction root may be an shm view; the caller owns the result
        # beyond this dispatch's leases.
        return reduced if job.pool is None else np.array(reduced, copy=True)

    def _close(self, job) -> None:
        if job.pool is not None:
            job.views = None  # drop segment views first
            for lease in job.fmat_leases + job.leases:
                if lease is not None:
                    job.pool.release(lease)
