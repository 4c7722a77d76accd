"""Resource-pressure resilience: OOM and shm-exhaustion injection.

Two layers, two speeds:

- :class:`TestThreadsOom` — the injected ``oom_worker`` fault on the
  in-process backend (a thread cannot be OOM-killed, so the fault raises
  ``MemoryError`` and the shard is redone serially, bit-identically).
- :class:`TestProcessPressure` — the real thing over worker processes:
  SIGKILL dressed as an OOM kill and shm-pressure transport downgrades.
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
from repro.engine.backends.shm import shm_available
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.resilience.events import TRANSPORT_DOWNGRADED
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
        records = [{"type": "event", "kind": "transport_downgraded", "data": {}}]
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

    def test_clean_run_has_zero_pressure_events(self, tensor, factors):
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", self._cfg(), PlanCache(),
                events=events,
            )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        assert not events.of_kind(TRANSPORT_DOWNGRADED)
        counters = tel.metrics.summary()["counters"]
        assert "engine.shm.downgrades" not in counters
