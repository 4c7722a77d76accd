"""Numerical-resilience layer: guarded solves, divergence recovery,
checkpoint/resume, and deterministic fault injection.

Long constrained-factorization campaigns fail in practice for exactly the
reasons the AO-ADMM literature warns about: per-mode subproblems go
ill-conditioned when factors lose rank, a single NaN propagates through
every Gram cache in one outer iteration, and an interrupted paper-scale run
loses hours of work. This package makes the stack survive those events:

- :mod:`~repro.resilience.guards` — guarded Cholesky/SPD-inverse with
  escalating diagonal jitter, plus phase-boundary finiteness sentinels.
- :mod:`~repro.resilience.events` — structured recovery events, the shared
  :class:`EventLog`, and :class:`ResilienceError`.
- :mod:`~repro.resilience.policy` — the :class:`ResiliencePolicy` knobs and
  the per-run context threaded through update methods.
- :mod:`~repro.resilience.checkpoint` — atomic checkpoint/resume of the AO
  loop (bit-identical continuation).
- :mod:`~repro.resilience.faults` — the seeded fault-injection harness the
  ``faults``/``chaos``/``procfaults`` test suites use to prove every
  recovery path fires (numeric corruption plus the ``EXECUTE`` faults
  targeting the host engine: worker crashes, real process kills,
  stragglers, corrupted plans).
- :mod:`~repro.resilience.supervisor` — unattended-run supervision:
  seeded-backoff retries, wall-clock deadlines (between attempts and
  cooperatively at AO iteration boundaries), checkpoint auto-resume,
  and the graceful-degradation ladder
  (process → sharded → serial engine).
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointCorrupt,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.events import EventLog, ResilienceError, ResilienceEvent
from repro.resilience.faults import FaultInjector, FaultSpec, InjectedWorkerCrash
from repro.resilience.supervisor import (
    DeadlineInterrupt,
    RunSupervisor,
    SupervisorConfig,
    supervised_cstf,
)
from repro.resilience.guards import (
    ensure_finite,
    guarded_cholesky,
    guarded_spd_inverse,
    sanitize_nonfinite,
)
from repro.resilience.policy import ResilienceContext, ResiliencePolicy

__all__ = [
    "Checkpoint",
    "CheckpointCorrupt",
    "DeadlineInterrupt",
    "EventLog",
    "FaultInjector",
    "FaultSpec",
    "InjectedWorkerCrash",
    "ResilienceContext",
    "ResilienceError",
    "ResilienceEvent",
    "ResiliencePolicy",
    "RunSupervisor",
    "SupervisorConfig",
    "supervised_cstf",
    "ensure_finite",
    "guarded_cholesky",
    "guarded_spd_inverse",
    "load_checkpoint",
    "sanitize_nonfinite",
    "save_checkpoint",
]
