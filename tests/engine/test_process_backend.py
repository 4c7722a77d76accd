"""The process-isolation backend: real worker processes, real SIGKILLs.

Everything here spawns OS processes, so the suite is marked ``procfaults``
and excluded from tier-1 (``addopts = -m "not procfaults"``); it runs via
``scripts/run_fault_suite.py --backend processes`` or an explicit
``-m procfaults``. The invariant under test is the tentpole guarantee:
every recovery path — watchdog-detected worker death, straggler kill,
in-worker exception — produces bits identical to serial execution.
"""

import multiprocessing
import signal
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    get_backend,
    shutdown_backends,
)
from repro.engine.backends.processes import ProcessBackend
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.procfaults


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 30, 20), nnz=2500, seed=3)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(1)
    return [rng.random((d, 6)) for d in tensor.shape]


@pytest.fixture(scope="module", autouse=True)
def _reap_workers():
    """Leave no worker processes behind once the module is done."""
    yield
    shutdown_backends()


def _cfg(**overrides):
    kw = dict(shards=3, chunk=256, backend="processes")
    kw.update(overrides)
    return EngineConfig(**kw)


class TestBitIdentity:
    def test_matches_seed_all_modes(self, tensor, factors):
        cache = PlanCache()
        for mode in range(tensor.ndim):
            ref = mttkrp_coo(tensor, factors, mode)
            got = engine_mttkrp(tensor, factors, mode, "coo", _cfg(), cache)
            assert np.array_equal(ref, got)

    def test_repeated_dispatch_reuses_the_pool(self, tensor, factors):
        backend = get_backend("processes")
        cache = PlanCache()
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(), cache)
        pids = [w.proc.pid for w in backend._workers]
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(), cache)
        assert [w.proc.pid for w in backend._workers] == pids


class TestKillWorker:
    def test_sigkilled_worker_detected_and_shard_redone(self, tensor, factors):
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=5
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(), PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(ref, got)
        lost = events.of_kind("worker_lost")
        assert len(lost) == 1
        # A real SIGKILL death, not a simulated one: the watchdog saw the
        # negative exitcode and named the signal.
        assert lost[0].data["exitcode"] == -signal.SIGKILL
        assert "SIGKILL" in lost[0].detail
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.backend.workers_lost"] == 1
        assert counters["engine.backend.respawns"] >= 1

    def test_pool_recovers_for_the_next_dispatch(self, tensor, factors):
        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=8
        )
        cache = PlanCache()
        events = EventLog()
        engine_mttkrp(
            tensor, factors, 0, "coo", _cfg(), cache,
            faults=inj, events=events,
        )
        assert len(events.of_kind("worker_lost")) == 1
        # The respawned pool serves the next (fault-free) dispatch cleanly.
        got = engine_mttkrp(tensor, factors, 1, "coo", _cfg(), cache)
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 1))
        assert len(events.of_kind("worker_lost")) == 1
        backend = get_backend("processes")
        assert all(w.alive() for w in backend._workers)


class TestInWorkerException:
    def test_crash_reply_redoes_shard_without_killing_worker(
        self, tensor, factors
    ):
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "worker_crash", probability=1.0), seed=4
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(), PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(ref, got)
        (retry,) = events.of_kind("shard_retry")
        assert "InjectedWorkerCrash" in retry.detail
        assert events.of_kind("worker_lost") == []
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.shard.retries"] == 1
        assert "engine.backend.workers_lost" not in counters


class TestStraggler:
    def test_straggler_killed_and_shard_redone(self, tensor, factors):
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "slow_shard", probability=1.0, magnitude=0.5),
            seed=2,
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(shard_timeout=0.05),
                PlanCache(), faults=inj, events=events,
            )
        assert np.array_equal(ref, got)
        assert len(events.of_kind("shard_timeout")) == 1
        assert tel.metrics.summary()["counters"]["engine.shard.timeouts"] == 1


class TestStragglerDeadlineAnchoring:
    def test_slow_shard_zero_does_not_time_out_shard_one(self, monkeypatch):
        """Regression: shard deadlines used to be anchored at batch launch,
        so the time the watchdog spent collecting a slow-but-healthy shard 0
        ate shard 1's budget and killed it as a spurious straggler. Each
        deadline is now anchored when *that* shard's collection begins."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so workers inherit the patched kernel")
        shutdown_backends()

        # Mode-0 rows with very different weights, so the two shards
        # have distinguishable nnz (the patched kernel keys its sleep on it).
        rng = np.random.default_rng(17)
        big = np.column_stack(
            [np.zeros(60, dtype=np.int64),
             rng.integers(0, 10, 60), rng.integers(0, 8, 60)]
        )
        small = np.column_stack(
            [np.ones(6, dtype=np.int64),
             rng.integers(0, 10, 6), rng.integers(0, 8, 6)]
        )
        from repro.tensor.coo import SparseTensor

        tensor = SparseTensor(
            np.vstack([big, small]), rng.random(66), (2, 10, 8)
        )
        fmats = [rng.random((d, 4)) for d in tensor.shape]
        ref = mttkrp_coo(tensor, fmats, 0)
        streams = PlanCache().plan(tensor, 0).shard_streams(2)
        assert streams[0].nnz != streams[1].nnz
        # Shard 0 finishes inside its own budget; shard 1 takes longer than
        # one budget from launch but less than one budget from the moment
        # its collection begins (~ when shard 0 delivers).
        sleeps = {streams[0].nnz: 0.9, streams[1].nnz: 2.0}

        import repro.engine.execute as execute_mod

        real_run_stream = execute_mod.run_stream

        def sleepy_run_stream(stream, mats, mode, out, chunk):
            time.sleep(sleeps.get(stream.nnz, 0.0))
            return real_run_stream(stream, mats, mode, out, chunk)

        # Patched before the pool forks, so workers inherit the slow kernel.
        monkeypatch.setattr(execute_mod, "run_stream", sleepy_run_stream)
        backend = ProcessBackend()
        events = EventLog()
        try:
            got = backend.run_shards(
                streams, [np.asarray(f) for f in fmats], 0,
                tensor.shape[0], 4,
                EngineConfig(shards=2, backend="processes", shard_timeout=1.5),
                events=events,
            )
        finally:
            backend.shutdown()
        assert np.array_equal(ref, got)
        assert events.of_kind("shard_timeout") == []
        assert events.of_kind("worker_lost") == []


class TestBrokenPipe:
    class _WedgeShardZero:
        """Fault stub: shard 0 sleeps far longer than the test tolerates."""

        def draw_shard_faults(self, n_shards, *, mode=None, events=None):
            return [frozenset({"slow_shard"}), frozenset()], 5.0

        def fires(self, kind, **_):
            return False

    def test_dead_pipe_with_live_worker_is_a_lost_worker(
        self, tensor, factors
    ):
        """Regression: a broken task pipe whose worker process was still
        alive used to poll forever under ``shard_timeout=0`` (liveness
        checks pass, the reply can never arrive). A dead pipe is now
        treated as a lost worker immediately: record, respawn, redo."""
        ref = mttkrp_coo(tensor, factors, 0)
        backend = ProcessBackend()
        streams = PlanCache().plan(tensor, 0).shard_streams(2)
        workers = backend._ensure_workers(2)
        # Sever worker 0's pipe while it is wedged mid-shard (and provably
        # still alive).
        timer = threading.Timer(0.4, workers[0].conn.close)
        events = EventLog()
        t0 = time.monotonic()
        timer.start()
        try:
            with telemetry_session() as tel:
                got = backend.run_shards(
                    streams, [np.asarray(f) for f in factors], 0,
                    tensor.shape[0], 6,
                    EngineConfig(
                        shards=2, backend="processes", shard_timeout=0.0
                    ),
                    faults=self._WedgeShardZero(), events=events,
                )
            elapsed = time.monotonic() - t0
        finally:
            timer.cancel()
            backend.shutdown()
        assert np.array_equal(ref, got)
        assert elapsed < 3.0  # did not wait out the wedged worker's sleep
        (lost,) = events.of_kind("worker_lost")
        assert "task pipe broke" in lost.detail
        assert events.of_kind("shard_timeout") == []
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.backend.workers_lost"] == 1
        assert counters["engine.backend.respawns"] >= 1


    def test_failed_task_delivery_is_a_lost_worker(self, tensor, factors):
        """Regression: a task that could not be delivered bumped
        ``engine.backend.workers_lost`` but logged no ``worker_lost``
        event. Delivery failure is now the shared lost-worker outcome."""
        ref = mttkrp_coo(tensor, factors, 0)
        backend = ProcessBackend()
        streams = PlanCache().plan(tensor, 0).shard_streams(2)
        backend._ensure_workers(2)[0].conn.close()
        events = EventLog()
        try:
            with telemetry_session() as tel:
                got = backend.run_shards(
                    streams, [np.asarray(f) for f in factors], 0,
                    tensor.shape[0], 6,
                    EngineConfig(shards=2, backend="processes"),
                    events=events,
                )
        finally:
            backend.shutdown()
        assert np.array_equal(ref, got)
        (lost,) = events.of_kind("worker_lost")
        assert lost.data["shard"] == 0
        assert "task delivery failed" in lost.detail
        assert tel.metrics.summary()["counters"]["engine.backend.workers_lost"] == 1


class TestForkSafety:
    def test_forked_child_closes_inherited_pipe_fds(self):
        """Regression: a forked child used to keep the inherited parent
        ends of every worker pipe open — one leaked FD per worker, holding
        the real parent's pipes half-open for the child's lifetime."""
        backend = ProcessBackend()
        backend._ensure_workers(1)
        inherited = backend._workers[0]
        pool = backend._segment_pool()
        lease = pool.lease(64)
        name = lease.name
        backend._pid = -1  # simulate: this process is a fork of the owner
        backend._ensure_workers(1)
        try:
            assert inherited.conn.closed
            assert backend._workers[0] is not inherited
            # The inherited shm pool is forgotten, never unlinked — its
            # segments still belong to the real parent.
            assert backend._shm_pool is None
            from repro.engine.backends.shm import attach_segment

            probe = attach_segment(name)  # still linked
            probe.close()
        finally:
            backend.shutdown()
            pool.close()  # the "real parent" reaps its own segments
            inherited.proc.kill()
            inherited.proc.join(timeout=2.0)


class TestLifecycle:
    def test_shutdown_stops_workers_and_is_idempotent(self, tensor, factors):
        backend = get_backend("processes")
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
        procs = [w.proc for w in backend._workers]
        assert procs
        backend.shutdown()
        assert backend._workers == []
        backend.shutdown()
        # A later dispatch lazily rebuilds the pool.
        got = engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))

    def test_fresh_backend_instance_is_independent(self, tensor, factors):
        """Direct construction (outside the registry) works and cleans up."""
        backend = ProcessBackend()
        plan = PlanCache().plan(tensor, 0)
        streams = plan.shard_streams(2)
        got = backend.run_shards(
            streams, [np.asarray(f) for f in factors], 0,
            tensor.shape[0], 6, EngineConfig(shards=2, backend="processes"),
        )
        backend.shutdown()
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
