"""Chaos suite for the execution layer: every injected execution fault must
recover, and recovery must be bitwise identical to a fault-free run.

Covers the tentpole guarantees: worker crashes re-execute their shard
serially into a fresh accumulator, stragglers trip the per-shard timeout
and take the same path, corrupted cached plans are detected (by the
integrity probe, or by the replan-once execution catch) and replanned —
all counted through telemetry and logged as resilience events.
"""

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    get_backend,
    get_plan_cache,
    shutdown_backends,
)
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.kernels.mttkrp_hicoo import mttkrp_hicoo
from repro.obs import Telemetry, telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec, InjectedWorkerCrash
from repro.tensor.hicoo import HicooTensor
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 30, 20), nnz=2500, seed=3)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(1)
    return [rng.random((d, 6)) for d in tensor.shape]


def _seed(tensor, factors):
    return [mttkrp_coo(tensor, factors, m) for m in range(tensor.ndim)]


class TestWorkerCrashRecovery:
    def test_crash_recovers_bit_identically(self, tensor, factors):
        ref = _seed(tensor, factors)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "worker_crash", probability=1.0), seed=5
        )
        cfg = EngineConfig(shards=4, chunk=256)
        cache = PlanCache()
        events = EventLog()
        for mode in range(tensor.ndim):
            got = engine_mttkrp(
                tensor, factors, mode, "coo", cfg, cache,
                faults=inj, events=events,
            )
            assert np.array_equal(ref[mode], got)
        assert inj.injected == tensor.ndim  # one crash per launch
        retries = events.of_kind("shard_retry")
        assert len(retries) == tensor.ndim
        for ev in retries:
            assert "InjectedWorkerCrash" in ev.detail
            assert "re-executed serially" in ev.detail

    def test_retry_counter_increments(self, tensor, factors):
        inj = FaultInjector(
            FaultSpec("EXECUTE", "worker_crash", probability=1.0), seed=5
        )
        with telemetry_session() as tel:
            engine_mttkrp(
                tensor, factors, 0, "coo",
                EngineConfig(shards=4), PlanCache(), faults=inj,
            )
        assert tel.metrics.summary()["counters"]["engine.shard.retries"] >= 1

    def test_crash_on_genuinely_broken_shard_propagates(self, tensor, factors):
        """A shard whose *serial* re-execution also fails is not swallowed
        at the shard level — the exception reaches the caller (where the
        driver's replan-once recovery takes over)."""
        cache = PlanCache()
        cfg = EngineConfig(shards=4)
        plan = cache.plan(tensor, 0)
        streams = plan.shard_streams(cfg.shards)
        streams[0].cols[1][0] = 2**31  # out-of-range gather in shard 0
        with pytest.raises(IndexError):
            get_backend(cfg.backend).run_shards(
                streams, [np.asarray(f) for f in factors], 0,
                tensor.shape[0], 6, cfg,
            )


    def test_threads_kill_degrades_to_crash_alongside_a_crash(
        self, tensor, factors
    ):
        """Regression: on threads a ``kill_worker`` drawn in the same
        dispatch as a ``worker_crash`` on another shard was logged as
        injected but never applied. Each fault now hits its own shard."""

        class _CrashAndKill:
            def draw_shard_faults(self, n_shards, *, mode=None, events=None):
                return [
                    frozenset({"worker_crash"}), frozenset({"kill_worker"}),
                    frozenset(),
                ], 0.0

        cfg = EngineConfig(shards=3, backend="threads")
        streams = PlanCache().plan(tensor, 0).shard_streams(cfg.shards)
        events = EventLog()
        got = get_backend(cfg.backend).run_shards(
            streams, [np.asarray(f) for f in factors], 0, tensor.shape[0], 6,
            cfg, faults=_CrashAndKill(), events=events,
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        retries = events.of_kind("shard_retry")
        assert [ev.data["shard"] for ev in retries] == [0, 1]
        assert all("InjectedWorkerCrash" in ev.detail for ev in retries)

    def test_same_kind_on_two_shards_faults_both(self, tensor, factors):
        """Regression: two ``worker_crash`` specs firing on different
        shards logged two ``fault_injected`` events, but the draw was keyed
        by fault kind, so only one shard crashed. Every logged fault now
        hits its shard."""
        inj = FaultInjector(
            [FaultSpec("EXECUTE", "worker_crash", probability=1.0)] * 2, seed=1
        )
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", EngineConfig(shards=3, backend="threads"),
            PlanCache(), faults=inj, events=events,
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        assert inj.injected == 2
        assert [ev.data["shard"] for ev in events.of_kind("fault_injected")] == [1, 0]
        assert [ev.data["shard"] for ev in events.of_kind("shard_retry")] == [0, 1]

    def test_serial_draws_no_shard_faults(self, tensor, factors):
        """Serial execution has no worker to hit: the injector's worker
        faults are never drawn, so its RNG stream stays where it was."""
        inj = FaultInjector(
            FaultSpec("EXECUTE", "worker_crash", probability=1.0), seed=5
        )
        state = inj.rng_state()
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo",
            EngineConfig(shards=3, backend="serial"), PlanCache(),
            faults=inj, events=events,
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))
        assert inj.injected == 0
        assert inj.rng_state() == state
        assert len(events) == 0


def _assert_timeouts_recovered(events) -> list[int]:
    """The injected straggler timed out and every timed-out shard was redone.

    A healthy shard may miss a 50 ms deadline on a loaded host too, so the
    number of timeouts is at least the number of stragglers, not equal.
    Returns the timed-out shard indices.
    """
    injected = {e.data["shard"] for e in events.of_kind("fault_injected")}
    timeouts = events.of_kind("shard_timeout")
    timed_out = [e.data["shard"] for e in timeouts]
    assert injected and injected <= set(timed_out)
    assert len(timed_out) == len(set(timed_out))
    assert all(e.detail.endswith("re-executed serially") for e in timeouts)
    return timed_out


class TestSlowShardTimeout:
    def test_straggler_times_out_and_recovers(self, tensor, factors):
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "slow_shard", probability=1.0, magnitude=0.5),
            seed=2,
        )
        cfg = EngineConfig(shards=4, shard_timeout=0.05)
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", cfg, PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(ref, got)
        timed_out = _assert_timeouts_recovered(events)
        assert tel.metrics.summary()["counters"]["engine.shard.timeouts"] == len(
            timed_out
        )

    def test_no_timeout_when_disabled(self, tensor, factors):
        """shard_timeout=0 disables straggler detection: the slow worker is
        simply awaited and the result is still exact."""
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "slow_shard", probability=1.0, magnitude=0.05),
            seed=2,
        )
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", EngineConfig(shards=4), PlanCache(),
            faults=inj, events=events,
        )
        assert np.array_equal(ref, got)
        assert events.of_kind("shard_timeout") == []

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            EngineConfig(shard_timeout=-1.0)


class TestCorruptPlanSelfHeal:
    def test_injected_corruption_heals_via_probe(self, tensor, factors):
        ref = mttkrp_coo(tensor, factors, 0)
        cache = PlanCache()
        cfg = EngineConfig()
        # Warm the cache, then let the injector corrupt it before lookup.
        assert np.array_equal(ref, engine_mttkrp(tensor, factors, 0, "coo", cfg, cache))
        inj = FaultInjector(
            FaultSpec("EXECUTE", "corrupt_plan", probability=1.0), seed=0
        )
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", cfg, cache, faults=inj, events=events,
        )
        assert np.array_equal(ref, got)
        assert cache.repairs == 1
        assert len(events.of_kind("fault_injected")) == 1
        assert len(events.of_kind("plan_repaired")) == 1

    def test_probe_invisible_corruption_heals_via_replan_once(self, tensor, factors):
        """An out-of-range coordinate passes the structural probe but blows
        up in execution; the driver must evict, replan, and re-execute."""
        ref = mttkrp_coo(tensor, factors, 1)
        cache = PlanCache()
        cfg = EngineConfig()
        engine_mttkrp(tensor, factors, 1, "coo", cfg, cache)
        assert cache.corrupt(tensor, how="cols") > 0
        events = EventLog()
        got = engine_mttkrp(tensor, factors, 1, "coo", cfg, cache, events=events)
        assert np.array_equal(ref, got)
        assert cache.repairs == 1
        assert len(events.of_kind("plan_repaired")) == 1

    def test_repairs_counted_in_telemetry(self, tensor, factors):
        cache = PlanCache()
        cfg = EngineConfig()
        engine_mttkrp(tensor, factors, 0, "coo", cfg, cache)
        cache.corrupt(tensor, how="bounds")
        with telemetry_session() as tel:
            engine_mttkrp(tensor, factors, 0, "coo", cfg, cache)
        assert tel.metrics.summary()["counters"]["engine.plan.repairs"] == 1

    def test_corrupt_without_cached_entry_is_noop(self, tensor):
        assert PlanCache().corrupt(tensor) == 0

    def test_sharded_cols_corruption_is_repaired_once(self, tensor, factors):
        """Regression: shard streams used to be private copies that
        ``corrupt`` never touched, so with ``shards > 1`` a ``cols``
        corruption was never executed or repaired and stayed cached. The
        shards are views of the plan's stream now and carry the damage."""
        ref = mttkrp_coo(tensor, factors, 1)
        cache = PlanCache()
        cfg = EngineConfig(shards=2, backend="threads")
        engine_mttkrp(tensor, factors, 1, "coo", cfg, cache)
        assert cache.corrupt(tensor, how="cols") > 0
        events = EventLog()
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 1, "coo", cfg, cache, events=events
            )
        assert np.array_equal(ref, got)
        assert tel.metrics.summary()["counters"]["engine.plan.repairs"] == 1
        assert cache.repairs == 1
        assert len(events.of_kind("plan_repaired")) == 1
        streams = [
            s for plan in cache._entries[id(tensor)].plans.values()
            for s in [plan.stream, *plan.shard_streams(cfg.shards)]
        ]
        assert streams
        assert all((c != 2**31).all() for s in streams for c in s.cols)

    def test_sharded_bounds_corruption_replans_once(self, tensor, factors):
        ref = mttkrp_coo(tensor, factors, 0)
        cache = PlanCache()
        cfg = EngineConfig(shards=2, backend="threads")
        engine_mttkrp(tensor, factors, 0, "coo", cfg, cache)
        cache.corrupt(tensor, how="bounds")
        misses = cache.misses
        events = EventLog()
        got = engine_mttkrp(tensor, factors, 0, "coo", cfg, cache, events=events)
        assert np.array_equal(ref, got)
        assert cache.repairs == 1
        assert len(events.of_kind("plan_repaired")) == 1
        assert cache.misses == misses + 1  # exactly one fresh plan build


class TestChaosDeterminism:
    def test_same_seed_same_campaign(self, tensor, factors):
        """The whole chaos campaign — which faults fire, on which shards —
        replays exactly from the injector seed."""
        def campaign():
            inj = FaultInjector(
                [
                    FaultSpec("EXECUTE", "worker_crash", probability=0.5),
                    FaultSpec("EXECUTE", "corrupt_plan", probability=0.3),
                ],
                seed=13,
            )
            events = EventLog()
            cache = PlanCache()
            cfg = EngineConfig(shards=3)
            for _ in range(3):
                for mode in range(tensor.ndim):
                    engine_mttkrp(
                        tensor, factors, mode, "coo", cfg, cache,
                        faults=inj, events=events,
                    )
            return [(e.kind, e.data.get("fault_kind"), e.data.get("shard"))
                    for e in events]

        assert campaign() == campaign()

    def test_threads_campaign_replays_pinned_event_stream(self, tensor, factors):
        """A threads campaign over every worker fault kind — crash, kill
        (degraded to a crash), OOM (a MemoryError) and a straggler past
        ``shard_timeout`` — logs exactly this ``(kind, mode, shard)``
        stream. The list pins the shared shard loop's event order: which
        outcome each shard maps to, and when it is recorded."""
        inj = FaultInjector(
            [
                FaultSpec("EXECUTE", "worker_crash", probability=0.4),
                FaultSpec(
                    "EXECUTE", "slow_shard", probability=0.3, magnitude=0.2
                ),
                FaultSpec("EXECUTE", "kill_worker", probability=0.3),
                FaultSpec("EXECUTE", "oom_worker", probability=0.3),
            ],
            seed=7,
        )
        events = EventLog()
        cache = PlanCache()
        cfg = EngineConfig(shards=3, backend="threads", shard_timeout=0.05)
        for _ in range(2):
            for mode in range(tensor.ndim):
                got = engine_mttkrp(
                    tensor, factors, mode, "coo", cfg, cache,
                    faults=inj, events=events,
                )
                assert np.array_equal(got, mttkrp_coo(tensor, factors, mode))
        assert [(e.kind, e.mode, e.data.get("shard")) for e in events] == [
            ("fault_injected", 0, 1), ("shard_retry", 0, 1),
            ("fault_injected", 1, 0), ("shard_timeout", 1, 0),
            ("fault_injected", 2, 1), ("shard_retry", 2, 1),
            ("fault_injected", 1, 0), ("fault_injected", 1, 1),
            ("shard_retry", 1, 0), ("shard_retry", 1, 1),
            ("fault_injected", 2, 2), ("fault_injected", 2, 0),
            ("shard_timeout", 2, 0), ("shard_retry", 2, 2),
        ]

    @pytest.mark.procfaults
    def test_process_campaign_replays_pinned_event_stream(self, tensor, tmp_path):
        """A processes campaign over every single-target execution fault —
        plan corruption, ENOSPC on the checkpoint and telemetry sink, and a
        refused shm lease — logs exactly this
        ``(kind, mode, iteration, target, detail)`` stream (recovery events
        without their detail, which names temporary paths)."""
        inj = FaultInjector(
            [
                FaultSpec("EXECUTE", "corrupt_plan", probability=0.3),
                FaultSpec("EXECUTE", "disk_full", probability=0.5),
                FaultSpec("EXECUTE", "shm_exhausted", probability=0.3),
            ],
            seed=8,
        )
        # The campaign's recovery events depend on what is already cached.
        get_plan_cache().clear()
        try:
            res = cstf(tensor, CstfConfig(
                rank=4, max_iters=2, update="admm", mttkrp_format="coo", seed=2,
                engine={"shards": 2, "backend": "processes", "shm": "on"},
                checkpoint_every=1, checkpoint_path=str(tmp_path / "ck.npz"),
                fault_injector=inj,
                telemetry=Telemetry(jsonl_path=str(tmp_path / "trace.jsonl")),
            ))
        finally:
            shutdown_backends()
        plan = "corrupted a cached plan before lookup"
        shm = "exhausted /dev/shm for the next segment lease"
        # One repair: the replan after the mode-0 injection evicts the whole
        # entry, so modes 1 and 2 build fresh plans, and the later
        # injections corrupt only plans this run never executes again.
        assert [
            (e.kind, e.mode, e.iteration, e.data.get("target"),
             e.detail if e.kind == "fault_injected" else None)
            for e in res.events
        ] == [
            ("fault_injected", None, 1, "sink",
             "injected ENOSPC on the next sink write"),
            ("fault_injected", None, 1, "checkpoint",
             "injected ENOSPC on the next checkpoint write"),
            ("checkpoint_skipped", None, 1, None, None),
            ("fault_injected", 0, None, None, plan),
            ("plan_repaired", 0, None, None, None),
            ("fault_injected", 1, None, None, plan),
            ("fault_injected", 1, None, None, shm),
            ("transport_downgraded", 1, None, None, None),
            ("fault_injected", 2, None, None, plan),
            ("fault_injected", 2, None, None, shm),
            ("transport_downgraded", 2, None, None, None),
            ("fault_injected", None, 2, "checkpoint",
             "injected ENOSPC on the next checkpoint write"),
            ("checkpoint_skipped", None, 2, None, None),
        ]
        counters = res.telemetry.metrics_summary["counters"]
        assert counters["engine.plan.repairs"] == 1
        assert counters["obs.sink.dropped"] > 0

    def test_injected_crash_exception_type(self):
        with pytest.raises(InjectedWorkerCrash):
            raise InjectedWorkerCrash("boom")


class TestHicooEnginePath:
    def test_bit_identical_to_seed_kernel(self, tensor, factors):
        """Satellite: hicoo routes through the cached serial per-block plan
        path and must reproduce mttkrp_hicoo bit for bit."""
        hicoo = HicooTensor.from_coo(tensor)
        cache = PlanCache()
        for mode in range(tensor.ndim):
            ref = mttkrp_hicoo(hicoo, factors, mode)
            got = engine_mttkrp(tensor, factors, mode, "hicoo", EngineConfig(), cache)
            assert np.array_equal(ref, got)
            # Second call hits the cached block plans, still exact.
            assert np.array_equal(ref, engine_mttkrp(
                tensor, factors, mode, "hicoo", EngineConfig(), cache
            ))
        assert cache.hits >= tensor.ndim
