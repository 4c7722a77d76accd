"""The cooperative in-run deadline and the process rung of the ladder.

A long-running attempt must stop *at an AO iteration boundary* when the
supervisor's wall-clock budget is crossed — checkpointing the completed
iterate first — rather than only noticing between attempts. And a run
that starts on the ``processes`` backend degrades one rung to the same
sharded configuration on threads before the classic ladder takes over.
"""

import sys

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine.config import EngineConfig
from repro.resilience import (
    DeadlineInterrupt,
    ResilienceError,
    RunSupervisor,
    SupervisorConfig,
    load_checkpoint,
    supervised_cstf,
)
from repro.resilience.supervisor import _ladder
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((16, 12, 10), nnz=420, seed=7)


class FakeClock:
    """Monotonic clock advancing one second per reading (first reading 0)."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _noop_sleep(_):  # pragma: no cover - timing glue
    pass


class TestProcessLadderRung:
    def test_processes_rung_tops_the_ladder(self):
        engine = EngineConfig(shards=4, chunk=128, backend="processes")
        rungs = _ladder(engine)
        assert [name for name, _ in rungs] == [
            "process engine", "sharded engine", "serial engine",
        ]
        assert rungs[0][1].backend == "processes"
        # One step down: identical sharding, thread dispatch — crash
        # isolation is lost, the parallel numerics are not.
        assert rungs[1][1].backend == "threads"
        assert rungs[1][1].shards == 4
        assert rungs[2][1].shards == 1 and rungs[2][1].chunk == 128

    def test_threads_backend_has_no_process_rung(self):
        rungs = _ladder(EngineConfig(shards=4, backend="threads"))
        assert [name for name, _ in rungs][0] == "sharded engine"

    def test_unsharded_processes_backend_has_no_process_rung(self):
        rungs = _ladder(EngineConfig(shards=1, backend="processes"))
        assert "process engine" not in [name for name, _ in rungs]

    def test_degrades_to_threads_on_repeated_failure(self, tensor, monkeypatch):
        calls = []
        real_cstf = cstf

        def flaky(t, config=None, **kw):
            calls.append(config)
            if len(calls) == 1:
                raise RuntimeError("worker pool exploded")
            return real_cstf(t, config, **kw)

        monkeypatch.setattr(sys.modules["repro.core.cstf"], "cstf", flaky)
        config = CstfConfig(
            rank=3, max_iters=2, seed=2,
            engine=EngineConfig(shards=2, backend="processes"),
        )
        sup = RunSupervisor(
            config, SupervisorConfig(max_retries=0, backoff_base=0.0),
            sleep=_noop_sleep,
        )
        result = sup.run(tensor)
        assert calls[0].engine.backend == "processes"
        assert calls[1].engine.backend == "threads"
        assert calls[1].engine.shards == 2
        (degraded,) = [e for e in result.events
                       if e.kind == "execution_degraded"]
        assert degraded.data["from_tier"] == "process engine"
        assert degraded.data["to_tier"] == "sharded engine"


class TestInRunDeadline:
    def test_guard_stops_at_iteration_boundary(self, tensor, tmp_path):
        path = tmp_path / "run.npz"
        clock = FakeClock()
        with pytest.raises(ResilienceError, match="deadline") as ei:
            supervised_cstf(
                tensor, rank=3, max_iters=30, seed=3, tol=0.0,
                checkpoint_every=1, checkpoint_path=path,
                supervisor=SupervisorConfig(deadline=2.5, max_retries=0),
                clock=clock, sleep=_noop_sleep,
            )
        (event,) = [e for e in ei.value.events
                    if e.kind == "deadline_exceeded"]
        assert "iteration boundary" in event.detail
        assert event.data["checkpointed"] is True
        # clock readings: start=0, then one per completed iteration — the
        # guard tripped after iteration 3 crossed the 2.5s budget, and that
        # iterate is on disk.
        assert load_checkpoint(path).iteration == 3

    def test_interrupted_run_resumes_bit_identically(self, tensor, tmp_path):
        path = tmp_path / "run.npz"
        straight = cstf(tensor, rank=3, max_iters=8, seed=3, tol=0.0)
        with pytest.raises(ResilienceError):
            supervised_cstf(
                tensor, rank=3, max_iters=8, seed=3, tol=0.0,
                checkpoint_every=1, checkpoint_path=path,
                supervisor=SupervisorConfig(deadline=2.5, max_retries=0),
                clock=FakeClock(), sleep=_noop_sleep,
            )
        resumed = cstf(tensor, rank=3, max_iters=8, seed=3, tol=0.0,
                       resume_from=path)
        for a, b in zip(straight.kruskal.factors, resumed.kruskal.factors):
            assert np.array_equal(a, b)

    def test_no_checkpoint_config_reports_uncheckpointed(self, tensor):
        with pytest.raises(ResilienceError) as ei:
            supervised_cstf(
                tensor, rank=3, max_iters=30, seed=3, tol=0.0,
                supervisor=SupervisorConfig(deadline=1.5, max_retries=0),
                clock=FakeClock(), sleep=_noop_sleep,
            )
        (event,) = [e for e in ei.value.events
                    if e.kind == "deadline_exceeded"]
        assert event.data["checkpointed"] is False

    def test_user_callback_still_runs_under_the_guard(self, tensor):
        seen = []
        result = supervised_cstf(
            tensor, rank=3, max_iters=3, seed=3, tol=0.0,
            on_iteration=seen.append,
            supervisor=SupervisorConfig(deadline=1000.0),
            clock=FakeClock(), sleep=_noop_sleep,
        )
        assert seen == [1, 2, 3]
        assert result.iterations == 3

    def test_zero_deadline_never_wraps_the_callback(self, tensor):
        """No deadline: the config's own callback is passed through as-is
        and nothing raises DeadlineInterrupt."""
        seen = []
        result = supervised_cstf(
            tensor, rank=3, max_iters=2, seed=3, tol=0.0,
            on_iteration=seen.append,
        )
        assert seen == [1, 2]
        assert result.events == []


class TestOnIterationCallback:
    def test_exception_checkpoints_completed_iterate(self, tensor, tmp_path):
        path = tmp_path / "run.npz"

        class Stop(Exception):
            pass

        def stop_after_two(iteration):
            if iteration == 2:
                raise Stop

        with pytest.raises(Stop):
            cstf(tensor, rank=3, max_iters=8, seed=3, tol=0.0,
                 checkpoint_every=100, checkpoint_path=path,
                 on_iteration=stop_after_two)
        # checkpoint_every would not have fired yet: the interrupt path
        # wrote the iterate itself.
        assert load_checkpoint(path).iteration == 2
        straight = cstf(tensor, rank=3, max_iters=8, seed=3, tol=0.0)
        resumed = cstf(tensor, rank=3, max_iters=8, seed=3, tol=0.0,
                       resume_from=path)
        for a, b in zip(straight.kruskal.factors, resumed.kruskal.factors):
            assert np.array_equal(a, b)

    def test_callback_without_checkpointing_just_raises(self, tensor):
        def boom(iteration):
            raise DeadlineInterrupt("stop")

        with pytest.raises(DeadlineInterrupt):
            cstf(tensor, rank=3, max_iters=4, seed=3, tol=0.0,
                 on_iteration=boom)

    def test_on_iteration_must_be_callable(self):
        with pytest.raises(ValueError, match="on_iteration"):
            CstfConfig(rank=3, on_iteration=5)
