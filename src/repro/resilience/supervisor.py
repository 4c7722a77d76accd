"""Run supervision: retries, deadlines, and the graceful-degradation ladder.

:class:`RunSupervisor` wraps :func:`~repro.core.cstf.cstf` the way a
campaign driver would run it unattended. A run that crashes is retried
with seeded exponential backoff plus jitter; when retries at the current
execution tier are exhausted the supervisor steps down the degradation
ladder instead of giving up::

    process engine → sharded engine → serial engine

(the ``process engine`` rung exists only when the run starts on the
``processes`` execution backend; stepping down re-runs the same sharded
configuration on in-process threads, losing crash isolation but not bits.
The serial engine is one shard at the configured chunk; there is no
unchunked rung below it, because chunking isolates nothing and a whole
``nnz × R`` accumulator only needs more memory).
Memory pressure gets its own intermediate rungs: a tier that exhausts its
retries on ``MemoryError`` with more than two shards first *halves its
shard count* — fewer simultaneous accumulators — and only then continues
the normal descent. Disjoint-row shards reduce to the same sums at any
shard count, so pressure rungs stay bit-identical too.
Every path below the starting rung is bit-identical to it (the engine's
rtol=0 guarantee), so degrading trades wall-clock for robustness and
nothing else. A :class:`~repro.engine.driver.PlanBuildError` (a format
conversion that cannot be built at all) triggers the orthogonal *format*
fallback instead: the run is re-dispatched with ``mttkrp_format="coo"``,
the one format that needs no conversion.

If the wrapped config checkpoints (``checkpoint_every``/``checkpoint_path``)
and a checkpoint file exists when an attempt crashes, the next attempt
resumes from it automatically — combined with the checkpoint layer's
bit-identical resume, a supervised crashy run converges to the same
factors as an uninterrupted one.

Everything the supervisor does is auditable: retries are ``run_retry``
events (counter ``resilience.retries``), ladder steps and format
fallbacks are ``execution_degraded``/``format_fallback`` events (counter
``resilience.degradations``), and a blown deadline is a
``deadline_exceeded`` event inside the raised
:class:`~repro.resilience.events.ResilienceError`. The supervisor's
events are prepended to ``CstfResult.events`` on success.

The wall clock and the backoff sleep are injectable (``clock``/``sleep``)
so the retry schedule is testable without real waiting; the jitter comes
from a private seeded generator, so a supervised campaign's retry timing
is reproducible from ``SupervisorConfig.seed``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from repro.obs import current_telemetry
from repro.resilience.events import (
    DEADLINE_EXCEEDED,
    EXECUTION_DEGRADED,
    FORMAT_FALLBACK,
    RUN_RETRY,
    EventLog,
    ResilienceError,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_shape, require

__all__ = [
    "SupervisorConfig",
    "RunSupervisor",
    "supervised_cstf",
    "DeadlineInterrupt",
]

_PHASE = "SUPERVISE"


class DeadlineInterrupt(Exception):
    """Raised by the supervisor's in-run deadline guard at an AO iteration
    boundary (via ``CstfConfig.on_iteration``) to stop a running attempt
    cooperatively — after the driver has checkpointed the completed
    iterate, when checkpointing is configured."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the run supervisor.

    Attributes
    ----------
    max_retries:
        Retries *per ladder rung* before stepping down (``0`` = degrade on
        the first failure). Once the bottom rung (serial engine) exhausts
        its retries, the supervisor raises :class:`ResilienceError`.
    deadline:
        Total wall-clock budget in seconds across all attempts (``0``
        disables). Checked between attempts, *and* cooperatively inside a
        running attempt at every completed AO iteration (via
        ``CstfConfig.on_iteration``): a long-running attempt that crosses
        the budget stops at the next iteration boundary with
        :class:`DeadlineInterrupt`, checkpointing the completed iterate
        first when checkpointing is configured. The backoff sleep is
        capped to the remaining budget.
    backoff_base / backoff_max:
        Backoff before retry *k* at a rung is
        ``min(backoff_max, backoff_base * 2**k)`` seconds, scaled by the
        jitter draw.
    jitter:
        Uniform jitter fraction: the delay is multiplied by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` from the seeded generator.
    seed:
        Seed of the jitter generator (campaign-reproducible backoff).
    degrade:
        Enable the degradation ladder and the COO format fallback. When
        ``False`` the supervisor only retries at the starting tier.
    resume:
        Auto-resume from ``config.checkpoint_path`` when the file exists
        after a crashed attempt.
    """

    max_retries: int = 3
    deadline: float = 0.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    degrade: bool = True
    resume: bool = True

    def __post_init__(self):
        require(int(self.max_retries) >= 0, "max_retries must be >= 0")
        object.__setattr__(self, "max_retries", int(self.max_retries))
        require(float(self.deadline) >= 0.0, "deadline must be >= 0")
        object.__setattr__(self, "deadline", float(self.deadline))
        require(self.backoff_base >= 0.0, "backoff_base must be >= 0")
        require(self.backoff_max >= self.backoff_base,
                "backoff_max must be >= backoff_base")
        require(0.0 <= self.jitter <= 1.0, "jitter must be in [0, 1]")


def _ladder(engine):
    """Degradation rungs from a resolved engine config, top tier first.

    Each rung is ``(name, engine_config)``; the first rung is the
    configuration the run starts at and the last is the serial engine:
    one shard at the configured chunk.
    """
    rungs = []
    if engine.backend == "processes" and engine.shards > 1:
        # Top rung: isolated worker processes. One step down is the same
        # sharded configuration on in-process threads — loses crash
        # isolation, keeps the parallel numerics bit-identical.
        rungs.append(("process engine", engine))
        engine = replace(engine, backend="threads")
    if engine.shards > 1:
        rungs.append(("sharded engine", engine))
        engine = replace(engine, shards=1)
    rungs.append(("serial engine", engine))
    return rungs


class RunSupervisor:
    """Retry / degrade / deadline supervision around one cstf run.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.CstfConfig` of the run being
        supervised (used as the top of the degradation ladder).
    supervisor:
        A :class:`SupervisorConfig` (defaults applied when ``None``).
    clock / sleep:
        Injectable monotonic clock and sleep for deterministic tests.
    """

    def __init__(self, config, supervisor: SupervisorConfig | None = None, *,
                 clock=time.monotonic, sleep=time.sleep):
        self.config = config
        self.sup = supervisor if supervisor is not None else SupervisorConfig()
        self.clock = clock
        self.sleep = sleep
        self.rng = as_generator(self.sup.seed)
        self.events = EventLog()
        self.retries = 0
        self.degradations = 0

    # ------------------------------------------------------------------ #
    def _tel(self):
        tel = self.config.telemetry
        if hasattr(tel, "counter"):
            return tel
        return current_telemetry()

    def _backoff(self, attempt: int, *, start: float | None = None) -> float:
        """Jittered exponential delay before retry *attempt*, deadline-aware.

        When *start* is given and a deadline is configured, the delay is
        capped to the remaining wall-clock budget — a supervisor must
        never sleep through its own deadline (the jitter draw still
        happens, so capping does not shift the seeded schedule of later
        retries).
        """
        delay = min(self.sup.backoff_max, self.sup.backoff_base * (2.0 ** attempt))
        delay *= 1.0 + self.sup.jitter * float(self.rng.random())
        if start is not None and self.sup.deadline > 0.0:
            remaining = self.sup.deadline - (self.clock() - start)
            delay = max(0.0, min(delay, remaining))
        return delay

    def _checkpoint_available(self) -> bool:
        path = self.config.checkpoint_path
        return (
            self.sup.resume
            and path is not None
            and os.path.exists(os.fspath(path))
        )

    def _deadline_guard(self, start: float):
        """The ``on_iteration`` callback enforcing the in-run deadline.

        Chains to any user-provided callback first (its exceptions win),
        then raises :class:`DeadlineInterrupt` once the total budget is
        crossed — the driver checkpoints the completed iterate before the
        interrupt propagates back here.
        """
        inner = self.config.on_iteration

        def guard(iteration: int) -> None:
            if inner is not None:
                inner(iteration)
            elapsed = self.clock() - start
            if elapsed >= self.sup.deadline:
                raise DeadlineInterrupt(
                    f"outer iteration {iteration} completed {elapsed:.3f}s "
                    f"into a {self.sup.deadline:g}s deadline"
                )

        return guard

    def _check_deadline(self, start: float, context: str) -> None:
        if self.sup.deadline <= 0.0:
            return
        elapsed = self.clock() - start
        if elapsed >= self.sup.deadline:
            self.events.record(
                DEADLINE_EXCEEDED, _PHASE,
                detail=f"wall-clock deadline of {self.sup.deadline:g}s exceeded "
                       f"after {elapsed:.3f}s ({context})",
                deadline=self.sup.deadline, elapsed=elapsed,
            )
            raise ResilienceError(
                f"supervised run blew its {self.sup.deadline:g}s deadline "
                f"({context})",
                self.events,
            )

    # ------------------------------------------------------------------ #
    def run(self, tensor):
        """Run ``cstf(tensor, config)`` under supervision; see the module
        docstring for the retry/degrade/deadline semantics."""
        from repro.core.cstf import _coerce_init, cstf
        from repro.engine.driver import PlanBuildError

        # An invalid tensor or warm start fails the same way on every
        # attempt and rung: reject it before the retry loop.
        check_shape(tensor.shape, min_modes=2)
        if self.config.init_factors is not None:
            _coerce_init(
                tensor.shape, self.config.rank, self.config.init_factors
            )
        tel = self._tel()
        rungs = _ladder(self.config.engine)
        rung = 0
        fmt = self.config.mttkrp_format
        attempt = 0          # retries consumed at the current rung
        resume_from = self.config.resume_from
        start = self.clock()

        while True:
            name, engine = rungs[rung]
            cfg = replace(
                self.config, engine=engine, mttkrp_format=fmt,
                resume_from=resume_from,
            )
            if self.sup.deadline > 0.0:
                cfg = replace(cfg, on_iteration=self._deadline_guard(start))
            try:
                result = cstf(tensor, cfg)
            except DeadlineInterrupt as exc:
                elapsed = self.clock() - start
                checkpointed = (
                    self.config.checkpoint_path is not None
                    and os.path.exists(os.fspath(self.config.checkpoint_path))
                )
                self.events.record(
                    DEADLINE_EXCEEDED, _PHASE,
                    detail=f"in-run deadline guard stopped the attempt at an "
                           f"iteration boundary ({exc})"
                           + (f"; partial iterate checkpointed to "
                              f"{self.config.checkpoint_path}"
                              if checkpointed else ""),
                    deadline=self.sup.deadline, elapsed=elapsed,
                    checkpointed=checkpointed,
                )
                raise ResilienceError(
                    f"supervised run blew its {self.sup.deadline:g}s deadline "
                    f"(stopped cooperatively at an iteration boundary)",
                    self.events,
                ) from exc
            except PlanBuildError as exc:
                if not self.sup.degrade or fmt == "coo":
                    raise ResilienceError(
                        f"{fmt} plan build failed and no format fallback is "
                        f"available: {exc}",
                        self.events,
                    ) from exc
                # Format fallback is orthogonal to the ladder: the
                # conversion itself is broken, so re-dispatch through the
                # conversion-free COO format at the same rung.
                self.degradations += 1
                tel.counter("resilience.degradations")
                self.events.record(
                    FORMAT_FALLBACK, _PHASE,
                    detail=f"{fmt} plan build failed "
                           f"({type(exc).__name__}: {exc}); falling back to "
                           f"mttkrp_format='coo'",
                    from_format=fmt,
                )
                fmt = "coo"
                self._check_deadline(start, "after format fallback")
                continue
            except Exception as exc:
                if resume_from is not None and "checkpoint" in str(exc).lower():
                    # The resume itself is what failed (e.g. both the
                    # checkpoint and its rotation are torn): restart clean
                    # rather than replaying the same broken load.
                    resume_from = None
                elif self._checkpoint_available():
                    resume_from = self.config.checkpoint_path
                if attempt < self.sup.max_retries:
                    attempt += 1
                    self.retries += 1
                    tel.counter("resilience.retries")
                    delay = self._backoff(attempt - 1, start=start)
                    self.events.record(
                        RUN_RETRY, _PHASE,
                        detail=f"attempt {attempt}/{self.sup.max_retries} at "
                               f"tier '{name}' after {type(exc).__name__}: "
                               f"{exc}; backing off {delay:.3f}s"
                               + (f"; resuming from {resume_from}"
                                  if resume_from is not None else ""),
                        tier=name, attempt=attempt, delay=delay,
                    )
                    self._check_deadline(start, f"retrying tier '{name}'")
                    if delay > 0.0:
                        self.sleep(delay)
                    continue
                if self.sup.degrade and rung + 1 < len(rungs):
                    pressure = isinstance(exc, MemoryError) and engine.shards > 2
                    if pressure:
                        # Memory pressure: before abandoning this tier,
                        # retry it with half the workers — fewer shards
                        # means fewer simultaneous accumulators, and the
                        # result stays bit-identical (disjoint-row shards
                        # reduce to the same sums at any shard count).
                        halved = replace(engine, shards=engine.shards // 2)
                        rungs.insert(
                            rung + 1,
                            (f"{name} @ {halved.shards} shards", halved),
                        )
                    rung += 1
                    attempt = 0
                    self.degradations += 1
                    tel.counter("resilience.degradations")
                    self.events.record(
                        EXECUTION_DEGRADED, _PHASE,
                        detail=f"tier '{name}' exhausted its "
                               f"{self.sup.max_retries} retries "
                               f"({type(exc).__name__}: {exc}); "
                               + (f"halving shard count under memory "
                                  f"pressure: degrading to "
                                  if pressure else "degrading to ")
                               + f"'{rungs[rung][0]}'",
                        from_tier=name, to_tier=rungs[rung][0],
                    )
                    self._check_deadline(start, f"degrading from '{name}'")
                    continue
                raise ResilienceError(
                    f"supervised run failed at the bottom tier '{name}' after "
                    f"{self.retries} retries and {self.degradations} "
                    f"degradations: {type(exc).__name__}: {exc}",
                    self.events,
                ) from exc

            if len(self.events):
                result.events = list(self.events) + list(result.events)
            return result


def supervised_cstf(tensor, config=None, *, supervisor=None, clock=time.monotonic,
                    sleep=time.sleep, **overrides):
    """Run :func:`~repro.core.cstf.cstf` under a :class:`RunSupervisor`.

    ``config``/``overrides`` build the :class:`~repro.core.config.CstfConfig`
    exactly like :func:`~repro.core.cstf.cstf`; ``supervisor`` is a
    :class:`SupervisorConfig` (or dict of its fields).
    """
    from repro.core.config import CstfConfig

    if config is None:
        config = CstfConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    if isinstance(supervisor, dict):
        supervisor = SupervisorConfig(**supervisor)
    return RunSupervisor(config, supervisor, clock=clock, sleep=sleep).run(tensor)
