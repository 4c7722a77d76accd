"""Cross-process telemetry under the real process pool (tentpole gate).

Marked ``procfaults`` (spawns OS processes; excluded from tier-1). The
contract under test: a traced run on the ``processes`` backend produces
the *same trace shape* as the threads backend — one ``shard`` span and
one worker-attributed ``shard_kernel`` span per shard — except the
kernel spans carry ≥2 distinct worker *pids*, proof they really executed
in other processes. Plus the shutdown-flush regression and the telemetry
self-cost budget.
"""

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
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.procfaults

SHARDS = 3


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 30, 20), nnz=2500, seed=3)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(1)
    return [rng.random((d, 6)) for d in tensor.shape]


@pytest.fixture(scope="module", autouse=True)
def _reap_workers():
    yield
    shutdown_backends()


def _cfg(backend="processes", **overrides):
    kw = dict(shards=SHARDS, chunk=256, backend=backend)
    kw.update(overrides)
    return EngineConfig(**kw)


class TestWorkerPidTracks:
    def test_kernel_spans_from_distinct_worker_pids(self, tensor, factors):
        import os

        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(), PlanCache()
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        kernels = [s for s in tel.record.spans if s.name == "shard_kernel"]
        assert len(kernels) == SHARDS
        pids = {k.worker["pid"] for k in kernels}
        # The acceptance criterion: spans from >= 2 distinct worker pids,
        # and none of them is the dispatching process.
        assert len(pids) >= 2
        assert os.getpid() not in pids
        # Worker slot ids match the shards they ran.
        assert sorted(k.worker["id"] for k in kernels) == list(range(SHARDS))

    def test_kernel_spans_rerooted_under_shard_spans(self, tensor, factors):
        with telemetry_session() as tel:
            engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
        shard_ids = {s.id for s in tel.record.spans if s.name == "shard"}
        kernels = [s for s in tel.record.spans if s.name == "shard_kernel"]
        assert {k.parent for k in kernels} == shard_ids
        for k in kernels:
            shard_span = next(s for s in tel.record.spans if s.id == k.parent)
            # Rebased into the shard span's window.
            assert k.t0 >= shard_span.t0

    def test_trace_shape_matches_threads_backend(self, tensor, factors):
        shapes = {}
        for backend in ("threads", "processes"):
            with telemetry_session() as tel:
                engine_mttkrp(
                    tensor, factors, 0, "coo", _cfg(backend), PlanCache()
                )
            shapes[backend] = sorted(
                (s.name, s.attrs.get("shard"))
                for s in tel.record.spans
                if s.name in ("shard", "shard_kernel")
            )
            shutdown_backends()
        assert shapes["threads"] == shapes["processes"]

    def test_chrome_export_has_per_worker_pid_tracks(self, tensor, factors):
        from repro.obs import telemetry_to_chrome_trace
        from repro.obs.chrome import PID_WORKERS

        with telemetry_session() as tel:
            engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
        trace = telemetry_to_chrome_trace(tel.record)
        kernel_events = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "shard_kernel"
        ]
        assert len(kernel_events) == SHARDS
        assert {e["pid"] for e in kernel_events} == {
            PID_WORKERS + s for s in range(SHARDS)
        }
        # tid is the worker's OS pid; >= 2 distinct real processes.
        assert len({e["tid"] for e in kernel_events}) >= 2

class TestShutdownFlush:
    def test_shutdown_merges_final_worker_flush(self, tensor, factors):
        """Regression: pending worker telemetry must be flushed and merged
        before pool teardown, not dropped with the processes."""
        with telemetry_session() as tel:
            engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
            assert "obs.worker.flushes" not in tel.metrics.summary()["counters"]
            shutdown_backends()
            counters = tel.metrics.summary()["counters"]
        # Every worker's shutdown flush arrived (the flush counter is
        # bumped worker-side immediately before draining, so a merged
        # flush is never empty).
        assert counters["obs.worker.flushes"] == SHARDS

    def test_shutdown_without_session_is_safe(self, tensor, factors):
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(), PlanCache())
        shutdown_backends()  # no ambient session: must not raise
        shutdown_backends()


class TestRecoveryAttribution:
    def test_killed_worker_shard_still_has_kernel_span(self, tensor, factors):
        import os

        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=5
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(), PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        (lost,) = events.of_kind("worker_lost")
        killed_shard = lost.data["shard"]
        # The redo ran inline on the dispatching process, captured all the
        # same: its kernel span carries the parent's pid.
        shard_spans = {
            s.attrs["shard"]: s for s in tel.record.spans if s.name == "shard"
        }
        assert shard_spans[killed_shard].attrs.get("redone") is True
        kernels = [s for s in tel.record.spans if s.name == "shard_kernel"]
        by_shard = {k.attrs["shard"]: k for k in kernels}
        assert set(by_shard) == set(range(SHARDS))
        assert by_shard[killed_shard].worker["pid"] == os.getpid()
        # No shard went silent: every captured shard shipped spans.
        assert "obs.worker.silent" not in tel.metrics.summary()["counters"]


class TestSelfCost:
    def test_shipping_overhead_under_budget(self, tensor, factors):
        """The acceptance budget: telemetry shipping (worker-side drain +
        parent-side merge) must stay under 5% of traced wall-clock.

        Best of three trials: the budget bounds the systematic shipping
        cost, and a single OS scheduling hiccup inside a ~millisecond
        drain would otherwise dominate the tiny wall-clock.
        """
        cache = PlanCache()
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(), cache)  # warm pool
        ratios = []
        for _ in range(3):
            t0 = time.perf_counter()
            with telemetry_session() as tel:
                for _ in range(5):
                    for mode in range(tensor.ndim):
                        engine_mttkrp(
                            tensor, factors, mode, "coo", _cfg(), cache
                        )
            wall = time.perf_counter() - t0
            counters = tel.metrics.summary()["counters"]
            overhead = (
                counters.get("obs.overhead.worker_s", 0.0)
                + counters.get("obs.overhead.merge_s", 0.0)
            )
            assert counters["obs.overhead.batches"] >= 5 * tensor.ndim * SHARDS
            ratios.append(overhead / wall)
            if ratios[-1] < 0.05:
                return
        assert min(ratios) < 0.05, (
            f"telemetry self-cost is >= 5% of wall-clock in all trials: "
            f"{[f'{r:.2%}' for r in ratios]}"
        )


class TestRespawnTracks:
    def test_respawned_slot_keeps_track_new_pid_lane(self, tensor, factors):
        """A killed-and-respawned worker slot stays on the same Chrome
        track (keyed by slot) but shows a new pid lane."""
        from repro.obs import telemetry_to_chrome_trace
        from repro.obs.chrome import PID_WORKERS

        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=5
        )
        events = EventLog()
        with telemetry_session() as tel:
            engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(), PlanCache(),
                faults=inj, events=events,
            )
            # Second dispatch on the respawned pool: the same slot now has
            # a different OS pid.
            engine_mttkrp(tensor, factors, 1, "coo", _cfg(), PlanCache())
        (lost,) = events.of_kind("worker_lost")
        slot = lost.data["shard"]
        trace = telemetry_to_chrome_trace(tel.record)
        track_pid = PID_WORKERS + slot
        names = [
            e for e in trace["traceEvents"]
            if e["ph"] == "M" and e["pid"] == track_pid
            and e["name"] == "process_name"
        ]
        assert [n["args"]["name"] for n in names] == [f"worker {slot}"]
        lanes = {
            e["tid"] for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == track_pid
        }
        assert len(lanes) >= 2  # old pid lane + respawned pid lane
