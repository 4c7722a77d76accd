"""Thread-pool backend: shards on a shared in-process executor.

Pools are created per worker-count on demand, torn down by
:meth:`~ThreadsBackend.shutdown` (wired into
:func:`repro.engine.backends.shutdown_backends` and its ``atexit`` hook),
and never survive a ``fork`` — a forked child only inherits the forking
thread, so an inherited executor would accept work that no thread will
ever run; the backend registry drops every backend instance in the child
via ``os.register_at_fork``, and this backend additionally discards its
pools if it ever observes a changed PID.

The primitives: ``_submit`` hands every shard to the pool, ``_wait``
waits on its future until the shard's deadline. A straggler that misses
it is abandoned — it finishes into its orphaned buffer — and the shared
loop of :mod:`repro.engine.backends.base` redoes the shard serially.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time

from repro.engine.backends.base import (
    OK,
    RAISED,
    TIMEOUT,
    ExecutionBackend,
    apply_shard_faults,
    run_shard_captured,
)

__all__ = ["ThreadsBackend"]


def _run_on_thread(
    stream, fmats, mode, out, chunk, shard, *, kinds, delay, capture
):
    """Pool-thread body: the shard's injected faults, then the shard."""
    apply_shard_faults(kinds, delay, mode, can_kill=False)
    return run_shard_captured(
        stream, fmats, mode, out, chunk, shard, enabled=capture
    )


class ThreadsBackend(ExecutionBackend):
    name = "threads"

    def __init__(self):
        self._pools: dict[int, concurrent.futures.ThreadPoolExecutor] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # ------------------------------------------------------------------ #
    def _pool(self, workers: int) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pid != os.getpid():
                # Forked child: the inherited executors have no worker
                # threads. Drop them (no join — those threads never existed
                # here) and start fresh.
                self._pools = {}
                self._pid = os.getpid()
            pool = self._pools.get(workers)
            if pool is None:
                pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
                self._pools[workers] = pool
            return pool

    def shutdown(self) -> None:
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            # wait=False: an abandoned straggler may still be sleeping in an
            # orphaned shard; it holds no shared state worth waiting for.
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    def _submit(self, job, faults, events) -> None:
        pool = self._pool(len(job.streams))
        job.transport = "threads"
        # Threads get the shard's inputs, not the shared job: on a 2-vCPU
        # host, pool threads reading the job measured 10-20% more CPU time
        # in run_stream on mttkrp-delicious (cause not pinned down).
        outs = [job.zeros() for _ in job.streams]
        job.futures = [
            pool.submit(
                _run_on_thread, stream, job.fmats, job.mode, out,
                job.cfg.chunk, i, kinds=job.faults[i], delay=job.delay,
                capture=job.capture,
            )
            for i, (stream, out) in enumerate(zip(job.streams, outs))
        ]

    def _wait(self, job, i, deadline):
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            partial, batch = job.futures[i].result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            return TIMEOUT, {}, []
        except Exception as exc:
            return RAISED, {"why": f"{type(exc).__name__}: {exc}"}, []
        return OK, partial, [batch]
