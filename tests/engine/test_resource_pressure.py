"""Resource-pressure resilience: budgets, OOM and shm-exhaustion injection.

Three layers, three speeds:

- :class:`TestSegmentPoolBudget` — pure pool mechanics (budget accounting,
  idle-segment trimming, :class:`ShmExhausted`); fast, runs in tier-1.
- :class:`TestThreadsOom` — the injected ``oom_worker`` fault on the
  in-process backend (a thread cannot be OOM-killed, so the fault raises
  ``MemoryError`` and the shard is redone serially, bit-identically).
- :class:`TestProcessPressure` — the real thing over worker processes:
  SIGKILL dressed as an OOM kill, per-worker RSS gauges, budget-breach
  recycling at shard boundaries, and shm-pressure transport downgrades.
  Marked ``pressure`` (excluded from tier-1 by addopts).

Every degraded path must stay bitwise identical to serial execution —
pressure changes *where* work runs, never what it computes.
"""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    shutdown_backends,
)
from repro.engine.backends.shm import (
    SegmentPool,
    ShmExhausted,
    shm_available,
)
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.resilience.events import TRANSPORT_DOWNGRADED, WORKER_RECYCLED
from repro.tensor.synthetic import random_sparse

RANK = 5


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((36, 28, 20), nnz=2200, seed=11)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(4)
    return [rng.random((d, RANK)) for d in tensor.shape]


@pytest.fixture(scope="module", autouse=True)
def _reap_workers():
    yield
    shutdown_backends()


# --------------------------------------------------------------------- #
# SegmentPool budget mechanics (tier-1)
# --------------------------------------------------------------------- #
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestSegmentPoolBudget:
    def test_live_bytes_tracks_free_and_leased(self):
        pool = SegmentPool()
        try:
            a = pool.lease(1024)
            assert pool.live_bytes() >= 1024
            pool.release(a)
            # Released segments stay resident (that is the reuse win) and
            # still count against the budget.
            assert pool.live_bytes() >= 1024
        finally:
            pool.close()
        assert pool.live_bytes() == 0

    def test_budget_trims_idle_segments_before_refusing(self):
        with telemetry_session() as tel:
            pool = SegmentPool(budget_bytes=8192)
            try:
                idle = pool.lease(4096)
                pool.release(idle)
                # 4096 live + 8192 requested > 8192: the idle segment must
                # be trimmed to make room rather than the lease failing.
                big = pool.lease(8192)
                assert big is not idle
                assert pool.live_bytes() <= 8192
            finally:
                pool.close()
        assert tel.metrics.summary()["counters"]["engine.shm.trims"] == 1

    def test_budget_refuses_when_nothing_left_to_trim(self):
        pool = SegmentPool(budget_bytes=4096)
        try:
            held = pool.lease(4096)  # leased, not idle: cannot be trimmed
            with pytest.raises(ShmExhausted, match="memory budget"):
                pool.lease(4096)
            # The pool stays usable: releasing makes the next lease fit.
            pool.release(held)
            again = pool.lease(4096)
            assert again is held
        finally:
            pool.close()

    def test_oversized_request_refused_outright(self):
        pool = SegmentPool(budget_bytes=1024)
        try:
            with pytest.raises(ShmExhausted):
                pool.lease(4096)
        finally:
            pool.close()

    def test_zero_budget_is_unbounded(self):
        pool = SegmentPool(budget_bytes=0)
        try:
            for _ in range(4):
                pool.lease(4096)
            assert pool.live_bytes() >= 4 * 4096
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# oom_worker on the threads backend (tier-1, chaos-style)
# --------------------------------------------------------------------- #
@pytest.mark.chaos
class TestPressureEventGate:
    """``check_trace.py --require-pressure-events``: the CI proof that an
    injected pressure campaign actually exercised the degraded paths."""

    @pytest.fixture()
    def gate(self):
        import sys
        from pathlib import Path

        scripts = Path(__file__).resolve().parents[2] / "scripts"
        sys.path.insert(0, str(scripts))
        try:
            from check_trace import check_pressure_events
        finally:
            sys.path.pop(0)
        return check_pressure_events

    def test_pressure_event_passes(self, gate):
        records = [{"type": "event", "kind": "worker_recycled", "data": {}}]
        assert gate(records) == []

    def test_summary_counter_fallback(self, gate):
        """A degraded sink drops event records; the final counter snapshot
        is still accepted as evidence."""
        records = [{
            "type": "summary",
            "metrics": {"counters": {"engine.shm.downgrades": 2}},
        }]
        assert gate(records) == []

    def test_clean_trace_fails(self, gate):
        records = [
            {"type": "event", "kind": "shard_retry", "data": {}},
            {"type": "summary",
             "metrics": {"counters": {"engine.shard.retries": 1}}},
        ]
        problems = gate(records)
        assert len(problems) == 1
        assert "--require-pressure-events" in problems[0]

    def test_empty_trace_fails(self, gate):
        assert gate([]) != []


class TestThreadsOom:
    def test_oom_worker_redone_serially_bit_identical(self, tensor, factors):
        cfg = EngineConfig(shards=3, chunk=256, backend="threads")
        inj = FaultInjector(
            FaultSpec("EXECUTE", "oom_worker", probability=1.0), seed=9
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", cfg, PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        retries = events.of_kind("shard_retry")
        assert retries and "MemoryError" in retries[0].detail
        assert tel.metrics.summary()["counters"]["engine.shard.retries"] >= 1


# --------------------------------------------------------------------- #
# Real worker processes under pressure (excluded from tier-1)
# --------------------------------------------------------------------- #
@pytest.mark.pressure
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestProcessPressure:
    def _cfg(self, **overrides):
        kw = dict(shards=3, chunk=256, backend="processes")
        kw.update(overrides)
        return EngineConfig(**kw)

    def test_oom_killed_worker_recovered_bit_identical(self, tensor, factors):
        inj = FaultInjector(
            FaultSpec("EXECUTE", "oom_worker", probability=1.0), seed=2
        )
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", self._cfg(shm="off"), PlanCache(),
            faults=inj, events=events,
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        lost = events.of_kind("worker_lost")
        assert lost and any("OOM" in e.detail for e in lost)

    def test_rss_gauges_and_budget_recycling(self, tensor, factors):
        # A 1-byte budget: every worker's real RSS breaches it, so each
        # collected shard recycles its worker — and the answer is
        # untouched.
        cfg = self._cfg(shm="off", memory_budget_bytes=1)
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", cfg, PlanCache(), events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        recycled = events.of_kind(WORKER_RECYCLED)
        assert len(recycled) == 3
        assert all(e.data["rss"] > e.data["budget"] for e in recycled)
        summary = tel.metrics.summary()
        assert summary["counters"]["engine.proc.workers_recycled"] == 3
        assert summary["gauges"]["engine.proc.worker_rss"] > 0
        assert summary["gauges"]["engine.proc.worker_rss_peak"] > 0
        assert summary["gauges"]["engine.proc.memory_budget"] == 1.0

    def test_injected_shm_exhaustion_downgrades_transport(
        self, tensor, factors
    ):
        inj = FaultInjector(
            FaultSpec("EXECUTE", "shm_exhausted", probability=1.0), seed=6
        )
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", self._cfg(shm="on"), PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        downgrades = events.of_kind(TRANSPORT_DOWNGRADED)
        assert downgrades and "pipe transport" in downgrades[0].detail
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.shm.downgrades"] >= 1
        # The injected fault itself is on the audit trail.
        assert any(
            e.data.get("fault_kind") == "shm_exhausted"
            for e in events.of_kind("fault_injected")
        )

    def test_memory_budget_downgrades_shm_dispatch(self, tensor, factors):
        # A budget far below the factor-matrix footprint: the pre-dispatch
        # lease block must fail and the whole dispatch fall back to pipes.
        cfg = self._cfg(shm="on", memory_budget_bytes=64)
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", cfg, PlanCache(), events=events,
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        assert events.of_kind(TRANSPORT_DOWNGRADED)

    def test_clean_run_has_zero_pressure_events(self, tensor, factors):
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", self._cfg(), PlanCache(),
                events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        assert not events.of_kind(WORKER_RECYCLED)
        assert not events.of_kind(TRANSPORT_DOWNGRADED)
        counters = tel.metrics.summary()["counters"]
        assert "engine.shm.downgrades" not in counters
        assert "engine.proc.workers_recycled" not in counters
