"""The run supervisor: retries, the degradation ladder, deadlines, format
fallback, and checkpoint auto-resume — with injectable clocks so nothing
here actually sleeps.

Acceptance (robustness issue): each degradation rung fires exactly once
per trigger, supervised chaos runs produce factors bit-identical to
fault-free runs, and a no-fault supervised run adds zero retries, zero
degradations, and zero events.
"""

import sys

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine.config import EngineConfig
from repro.engine.driver import PlanBuildError
from repro.obs import telemetry_session
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceError,
    RunSupervisor,
    SupervisorConfig,
    supervised_cstf,
)
from repro.resilience.supervisor import _ladder
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((16, 12, 10), nnz=420, seed=7)


def _base(**overrides):
    kw = dict(rank=3, max_iters=3, mttkrp_format="coo", seed=2)
    kw.update(overrides)
    return CstfConfig(**kw)


class _Flaky:
    """Stand-in for cstf that fails a scripted number of times."""

    def __init__(self, failures, exc=RuntimeError("boom")):
        self.failures = failures
        self.exc = exc
        self.calls = 0
        self.configs = []

    def __call__(self, tensor, config=None, **kw):
        self.calls += 1
        self.configs.append(config)
        if self.calls <= self.failures:
            raise self.exc
        return cstf(tensor, config, **kw)


@pytest.fixture
def patch_cstf(monkeypatch):
    def apply(flaky):
        monkeypatch.setattr(
            sys.modules["repro.core.cstf"], "cstf", flaky
        )
        return flaky
    return apply


class TestNoFaultOverhead:
    def test_bit_identical_with_zero_events(self, tensor):
        plain = cstf(tensor, _base())
        sup = RunSupervisor(_base())
        supervised = sup.run(tensor)
        for a, b in zip(plain.kruskal.factors, supervised.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(plain.kruskal.weights, supervised.kruskal.weights)
        assert sup.retries == 0
        assert sup.degradations == 0
        assert len(sup.events) == 0

    def test_helper_matches_plain_cstf(self, tensor):
        plain = cstf(tensor, _base())
        supervised = supervised_cstf(tensor, _base())
        for a, b in zip(plain.kruskal.factors, supervised.kruskal.factors):
            assert np.array_equal(a, b)


class TestRetries:
    def test_transient_failure_retried(self, tensor, patch_cstf):
        flaky = patch_cstf(_Flaky(failures=2))
        sup = RunSupervisor(_base(), SupervisorConfig(max_retries=3),
                            sleep=lambda s: None)
        result = sup.run(tensor)
        assert flaky.calls == 3
        assert sup.retries == 2
        assert sup.degradations == 0
        assert [e.kind for e in result.events[:2]] == ["run_retry", "run_retry"]
        assert result.kruskal is not None

    def test_retry_counter_in_telemetry(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=1))
        with telemetry_session() as tel:
            supervised_cstf(
                tensor, _base(),
                supervisor={"max_retries": 2, "backoff_base": 0.0},
                sleep=lambda s: None,
            )
        assert tel.metrics.summary()["counters"]["resilience.retries"] == 1

    def test_mismatched_warm_start_raises_before_any_retry(self):
        """A warm start that does not fit the tensor is the caller's error:
        it used to be retried 6 times and degraded once before surfacing
        wrapped in ResilienceError; now the ValueError raises at once."""
        t = random_sparse((10, 8, 6), nnz=120, seed=1)
        bad = [np.ones((3, 2))] * 3
        sleeps = []
        with telemetry_session() as tel:
            with pytest.raises(ValueError, match="warm-start factor 0"):
                supervised_cstf(
                    t, rank=2, init_factors=bad, engine={"shards": 2},
                    sleep=sleeps.append,
                )
        assert sleeps == []
        assert "resilience.retries" not in tel.metrics.summary()["counters"]
        sup = RunSupervisor(
            CstfConfig(rank=2, init_factors=bad, engine={"shards": 2}),
            sleep=sleeps.append,
        )
        with pytest.raises(ValueError, match="warm-start factor 0"):
            sup.run(t)
        assert (sup.retries, sup.degradations, sleeps) == (0, 0, [])
        assert not sup.events.of_kind("run_retry")

    def test_exhausted_retries_raise_with_history(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=99))
        sup = RunSupervisor(
            _base(), SupervisorConfig(max_retries=1, degrade=False),
            sleep=lambda s: None,
        )
        with pytest.raises(ResilienceError, match="bottom tier"):
            sup.run(tensor)
        assert sup.retries == 1

    def test_backoff_is_seeded_and_deterministic(self, tensor, patch_cstf):
        def delays_for(seed):
            patch_cstf(_Flaky(failures=3))
            delays = []
            sup = RunSupervisor(
                _base(),
                SupervisorConfig(max_retries=3, seed=seed,
                                 backoff_base=0.1, backoff_max=10.0),
                sleep=delays.append,
            )
            sup.run(tensor)
            return delays

        a, b = delays_for(5), delays_for(5)
        assert a == b
        assert len(a) == 3
        # Exponential growth under full jitter bounds: base*2^k .. 1.5x that.
        for k, d in enumerate(a):
            assert 0.1 * 2**k <= d <= 1.5 * 0.1 * 2**k
        assert delays_for(6) != a


class TestDegradationLadder:
    def test_ladder_shape_from_sharded(self):
        rungs = _ladder(EngineConfig(shards=4, chunk=512))
        assert [name for name, _ in rungs] == ["sharded engine", "serial engine"]
        # The bottom rung keeps the configured chunk.
        assert rungs[1][1] == EngineConfig(shards=1, chunk=512)

    def test_ladder_shape_from_serial_engine(self):
        for serial in (EngineConfig(), EngineConfig(chunk=0)):
            assert _ladder(serial) == [("serial engine", serial)]

    def test_each_rung_fires_exactly_once_per_trigger(self, tensor, patch_cstf):
        """With max_retries=0 every failure is one trigger, and each must
        produce exactly one execution_degraded event stepping one rung."""
        flaky = patch_cstf(_Flaky(failures=2))
        sup = RunSupervisor(
            _base(engine={"shards": 4, "backend": "processes"}),
            SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=lambda s: None,
        )
        result = sup.run(tensor)
        degraded = [e for e in result.events if e.kind == "execution_degraded"]
        assert len(degraded) == 2
        assert [(e.data["from_tier"], e.data["to_tier"]) for e in degraded] == [
            ("process engine", "sharded engine"),
            ("sharded engine", "serial engine"),
        ]
        # The run that succeeded used the bottom rung: the serial engine.
        assert flaky.configs[-1].engine == EngineConfig(
            shards=1, backend="threads"
        )
        assert sup.degradations == 2

    def test_degraded_result_bit_identical(self, tensor, patch_cstf):
        plain = cstf(tensor, _base())
        patch_cstf(_Flaky(failures=1))
        sup = RunSupervisor(
            _base(engine={"shards": 4}),
            SupervisorConfig(max_retries=0),
            sleep=lambda s: None,
        )
        result = sup.run(tensor)
        assert sup.degradations == 1
        for a, b in zip(plain.kruskal.factors, result.kruskal.factors):
            assert np.array_equal(a, b)

    def test_degradations_counted_in_telemetry(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=1))
        with telemetry_session() as tel:
            supervised_cstf(
                tensor, _base(engine={"shards": 2}),
                supervisor={"max_retries": 0}, sleep=lambda s: None,
            )
        assert tel.metrics.summary()["counters"]["resilience.degradations"] == 1

    def test_degrade_disabled_raises_instead(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=99))
        sup = RunSupervisor(
            _base(engine={"shards": 4}),
            SupervisorConfig(max_retries=0, degrade=False),
            sleep=lambda s: None,
        )
        with pytest.raises(ResilienceError):
            sup.run(tensor)
        assert sup.degradations == 0


class _OomAbove(_Flaky):
    """Stand-in for cstf that OOMs whenever the engine runs too many shards."""

    def __init__(self, max_shards):
        super().__init__(failures=0)
        self.max_shards = max_shards

    def __call__(self, tensor, config=None, **kw):
        self.calls += 1
        self.configs.append(config)
        engine = config.engine
        if engine is not None and getattr(engine, "shards", 1) > self.max_shards:
            raise MemoryError("worker pool exceeded the memory budget")
        return cstf(tensor, config, **kw)


class TestPressureRungs:
    def test_memory_error_halves_shards_before_descending(
        self, tensor, patch_cstf
    ):
        flaky = patch_cstf(_OomAbove(max_shards=2))
        sup = RunSupervisor(
            _base(engine={"shards": 8}),
            SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=lambda s: None,
        )
        result = sup.run(tensor)
        # 8 OOMs -> 4 OOMs -> 2 fits: the ladder narrowed, it never
        # abandoned the sharded tier.
        assert [c.engine.shards for c in flaky.configs] == [8, 4, 2]
        degraded = [e for e in result.events if e.kind == "execution_degraded"]
        assert [e.data["to_tier"] for e in degraded] == [
            "sharded engine @ 4 shards", "sharded engine @ 4 shards @ 2 shards",
        ]
        assert all("memory pressure" in e.detail for e in degraded)
        assert sup.degradations == 2

    def test_pressure_rung_result_bit_identical(self, tensor, patch_cstf):
        plain = cstf(tensor, _base())
        patch_cstf(_OomAbove(max_shards=4))
        result = RunSupervisor(
            _base(engine={"shards": 8}),
            SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=lambda s: None,
        ).run(tensor)
        for a, b in zip(plain.kruskal.factors, result.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(plain.kruskal.weights, result.kruskal.weights)

    def test_two_shards_descend_normally(self, tensor, patch_cstf):
        # At <= 2 shards there is nothing left to halve: a MemoryError
        # takes the normal rung down.
        patch_cstf(_OomAbove(max_shards=1))
        sup = RunSupervisor(
            _base(engine={"shards": 2}),
            SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=lambda s: None,
        )
        result = sup.run(tensor)
        degraded = [e for e in result.events if e.kind == "execution_degraded"]
        assert [e.data["to_tier"] for e in degraded] == ["serial engine"]
        assert not any("@" in e.data["to_tier"] for e in degraded)

    def test_non_memory_errors_never_insert_pressure_rungs(
        self, tensor, patch_cstf
    ):
        patch_cstf(_Flaky(failures=1))
        sup = RunSupervisor(
            _base(engine={"shards": 8}),
            SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=lambda s: None,
        )
        result = sup.run(tensor)
        degraded = [e for e in result.events if e.kind == "execution_degraded"]
        assert [e.data["to_tier"] for e in degraded] == ["serial engine"]


class TestBackoffDeadlineAware:
    def test_backoff_caps_at_remaining_budget(self, tensor):
        t = {"now": 0.0}
        sup = RunSupervisor(
            _base(),
            SupervisorConfig(deadline=10.0, backoff_base=100.0,
                             backoff_max=100.0, jitter=0.0),
            clock=lambda: t["now"], sleep=lambda s: None,
        )
        start = 0.0
        t["now"] = 4.0
        assert sup._backoff(0, start=start) == pytest.approx(6.0)
        t["now"] = 11.0  # past the deadline: never negative
        assert sup._backoff(0, start=start) == 0.0

    def test_backoff_uncapped_without_start_or_deadline(self, tensor):
        sup = RunSupervisor(
            _base(),
            SupervisorConfig(deadline=10.0, backoff_base=100.0,
                             backoff_max=100.0, jitter=0.0),
            clock=lambda: 1e9, sleep=lambda s: None,
        )
        assert sup._backoff(0) == pytest.approx(100.0)
        no_deadline = RunSupervisor(
            _base(),
            SupervisorConfig(backoff_base=100.0, backoff_max=100.0, jitter=0.0),
            clock=lambda: 1e9, sleep=lambda s: None,
        )
        assert no_deadline._backoff(0, start=0.0) == pytest.approx(100.0)

    def test_retry_event_records_the_capped_delay(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=1))
        t = {"now": 0.0}

        def clock():
            t["now"] += 1.0
            return t["now"]

        delays = []
        sup = RunSupervisor(
            _base(),
            SupervisorConfig(max_retries=3, deadline=10.0,
                             backoff_base=100.0, backoff_max=100.0),
            clock=clock, sleep=delays.append,
        )
        result = sup.run(tensor)
        retries = [e for e in result.events if e.kind == "run_retry"]
        assert len(retries) == 1 and len(delays) == 1
        # The audit trail shows what the supervisor actually slept, not
        # the uncapped draw.
        assert retries[0].data["delay"] == delays[0] <= 10.0


class TestFormatFallback:
    def test_plan_build_failure_falls_back_to_coo(self, tensor, patch_cstf):
        class _BadPlan(_Flaky):
            def __call__(self, t, config=None, **kw):
                self.calls += 1
                self.configs.append(config)
                if config.mttkrp_format != "coo":
                    raise PlanBuildError("alto conversion failed")
                return cstf(t, config, **kw)

        flaky = patch_cstf(_BadPlan(failures=0))
        sup = RunSupervisor(
            _base(mttkrp_format="alto", engine="on"),
            SupervisorConfig(max_retries=0), sleep=lambda s: None,
        )
        result = sup.run(tensor)
        fallbacks = [e for e in result.events if e.kind == "format_fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0].data["from_format"] == "alto"
        assert flaky.configs[-1].mttkrp_format == "coo"
        assert sup.degradations == 1
        assert sup.retries == 0  # a fallback does not consume a retry

    def test_plan_build_failure_on_coo_is_terminal(self, tensor, patch_cstf):
        def always_bad(t, config=None, **kw):
            raise PlanBuildError("broken")
        patch_cstf(always_bad)
        sup = RunSupervisor(_base(), SupervisorConfig(), sleep=lambda s: None)
        with pytest.raises(ResilienceError, match="no format fallback"):
            sup.run(tensor)


class TestDeadline:
    def test_deadline_exceeded_raises_with_event(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=99))
        t = {"now": 0.0}

        def clock():
            t["now"] += 40.0
            return t["now"]

        sup = RunSupervisor(
            _base(), SupervisorConfig(max_retries=10, deadline=100.0),
            clock=clock, sleep=lambda s: None,
        )
        with pytest.raises(ResilienceError, match="deadline") as exc_info:
            sup.run(tensor)
        kinds = [e.kind for e in exc_info.value.events]
        assert kinds[-1] == "deadline_exceeded"
        assert "run_retry" in kinds

    def test_sleep_capped_to_remaining_budget(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=1))
        t = {"now": 0.0}

        def clock():
            t["now"] += 1.0
            return t["now"]

        delays = []
        sup = RunSupervisor(
            _base(),
            SupervisorConfig(max_retries=3, deadline=10.0,
                             backoff_base=100.0, backoff_max=100.0),
            clock=clock, sleep=delays.append,
        )
        sup.run(tensor)
        assert len(delays) == 1
        assert delays[0] <= 10.0

    def test_zero_deadline_never_trips(self, tensor, patch_cstf):
        patch_cstf(_Flaky(failures=2))
        result = supervised_cstf(
            tensor, _base(), supervisor={"max_retries": 3, "backoff_base": 0.0},
            sleep=lambda s: None,
        )
        assert result.kruskal is not None


class TestCheckpointAutoResume:
    def test_crash_resumes_from_checkpoint(self, tensor, tmp_path, patch_cstf):
        path = tmp_path / "sup.npz"
        cfg = _base(max_iters=6, checkpoint_every=2, checkpoint_path=path)

        class _CrashAfterCheckpoint(_Flaky):
            def __call__(self, t, config=None, **kw):
                self.calls += 1
                self.configs.append(config)
                if self.calls == 1:
                    # Simulate a crash mid-run, after a checkpoint landed.
                    cstf(t, _base(max_iters=2, checkpoint_every=2,
                                  checkpoint_path=path))
                    raise RuntimeError("died after iteration 2")
                return cstf(t, config, **kw)

        flaky = patch_cstf(_CrashAfterCheckpoint(failures=0))
        sup = RunSupervisor(cfg, SupervisorConfig(max_retries=2),
                            sleep=lambda s: None)
        result = sup.run(tensor)
        assert flaky.configs[1].resume_from == path
        assert result.start_iteration == 2
        assert result.iterations == 6
        retry = [e for e in result.events if e.kind == "run_retry"][0]
        assert "resuming from" in retry.detail
        # The resumed supervised run matches an uninterrupted run exactly.
        straight = cstf(tensor, _base(max_iters=6))
        for a, b in zip(straight.kruskal.factors, result.kruskal.factors):
            assert np.array_equal(a, b)

    def test_resume_disabled(self, tensor, tmp_path, patch_cstf):
        path = tmp_path / "sup.npz"
        cstf(tensor, _base(max_iters=2, checkpoint_every=2, checkpoint_path=path))
        flaky = patch_cstf(_Flaky(failures=1))
        sup = RunSupervisor(
            _base(checkpoint_every=2, checkpoint_path=path),
            SupervisorConfig(max_retries=1, resume=False),
            sleep=lambda s: None,
        )
        sup.run(tensor)
        assert flaky.configs[1].resume_from is None


class TestSupervisedChaosEndToEnd:
    def test_execution_faults_recover_bit_identically(self, tensor):
        """Full acceptance path: a supervised run with every execution fault
        kind injected completes with factors identical to a fault-free run,
        with the recoveries on the event log."""
        plain = cstf(tensor, _base())
        inj = FaultInjector(
            [
                FaultSpec("EXECUTE", "worker_crash", probability=0.6),
                FaultSpec("EXECUTE", "corrupt_plan", probability=0.4),
            ],
            seed=21,
        )
        result = supervised_cstf(
            tensor,
            _base(engine={"shards": 3, "chunk": 128}, fault_injector=inj),
        )
        assert inj.injected > 0
        for a, b in zip(plain.kruskal.factors, result.kruskal.factors):
            assert np.array_equal(a, b)
        kinds = {e.kind for e in result.events}
        assert "fault_injected" in kinds

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorConfig(max_retries=-1)
        with pytest.raises(ValueError, match="deadline"):
            SupervisorConfig(deadline=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            SupervisorConfig(jitter=2.0)
