"""Deterministic fault injection for resilience testing.

A :class:`FaultInjector` corrupts intermediate arrays at chosen cSTF phases
with chosen probabilities, driven entirely by one seeded
:class:`numpy.random.Generator` — so a fault campaign is exactly
reproducible from its seed, and the injector's RNG state can be
checkpointed alongside the run (a resumed faulty run replays the *same*
remaining faults).

Fault kinds:

- ``"nan"`` / ``"inf"`` — overwrite ``count`` random entries.
- ``"perturb"`` — multiply ``count`` random entries by ``magnitude``
  (finite but wildly wrong values; exercises divergence detection rather
  than NaN sentinels).
- ``"indefinite"`` — subtract ``magnitude × diag-scale × I`` from a square
  matrix, destroying positive definiteness (exercises the guarded
  Cholesky); falls back to ``"perturb"`` on non-square targets.

Beyond the numeric kinds, the ``"EXECUTE"`` phase targets the *execution
layer* itself (the host engine, its persistence and its transport) rather
than any array. Each kind is drawn at exactly one place and acted out where
it lands:

``worker_crash`` / ``slow_shard`` / ``kill_worker`` / ``oom_worker``
    Drawn by :meth:`FaultInjector.draw_shard_faults` in
    ``ExecutionBackend.run_shards`` (``engine/backends/base.py``) before any
    shard launches; acted out by ``apply_shard_faults`` in the shard's
    worker. A crash raises mid-shard, a straggler sleeps ``magnitude``
    seconds (capped at 1s) past the per-shard timeout, and a kill or OOM
    is a real ``SIGKILL`` of a ``processes`` worker — on thread backends a
    kill degrades to a crash and an OOM to a ``MemoryError``. The shard is
    redone serially, bit-identically.
``corrupt_plan``
    Drawn by :meth:`FaultInjector.fires` in ``engine_mttkrp``
    (``engine/driver.py``) before the plan lookup; ``PlanCache.corrupt``
    damages the cached plans, the integrity probe in ``run_plan`` rejects
    them before execution, and the driver's replan-once recovery evicts,
    replans and logs ``plan_repaired``.
``disk_full``
    One draw per persistence target, each a synthetic ENOSPC the run
    survives: ``target="checkpoint"`` in ``cstf``'s checkpoint writer
    raises at once (the last checkpoint is kept); ``"sink"`` after each
    outer iteration of a telemetry-enabled ``cstf`` arms the JSONL sink's
    ``fail_next_write`` (the sink degrades).
``shm_exhausted``
    Drawn in ``ProcessBackend._publish`` (``engine/backends/processes.py``)
    on a shared-memory dispatch, which then fails its first lease as if
    /dev/shm were full and falls back to pipe transport.

Execution faults are drawn from the same seeded generator as the numeric
kinds, so a chaos campaign (``scripts/run_fault_suite.py``'s chaos stage)
is exactly reproducible from its seed.

Used by the ``faults``/``chaos``-marked test suites to prove every
recovery path in :mod:`repro.resilience` and :mod:`repro.engine` actually
fires; see ``scripts/run_fault_suite.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.resilience.events import FAULT_INJECTED, EventLog
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "InjectedWorkerCrash",
    "INJECTABLE_PHASES",
    "NUMERIC_PHASES",
]


class InjectedWorkerCrash(RuntimeError):
    """The exception an injected ``worker_crash`` fault raises mid-shard."""

#: Driver phases at which the injector can corrupt an intermediate array.
NUMERIC_PHASES = ("GRAM", "MTTKRP", "UPDATE", "NORMALIZE")

#: All injectable phases; the EXECUTE pseudo-phase targets the host
#: execution layer (worker crashes, stragglers, plan corruption) instead
#: of arrays.
INJECTABLE_PHASES = NUMERIC_PHASES + ("EXECUTE",)

_KINDS = ("nan", "inf", "perturb", "indefinite")
#: EXECUTE kinds aimed at one shard of a launch
#: (:meth:`FaultInjector.draw_shard_faults`).
_SHARD_KINDS = ("worker_crash", "slow_shard", "kill_worker", "oom_worker")
#: Single-target EXECUTE kinds (:meth:`FaultInjector.fires`) and the
#: ``fault_injected`` detail each logs.
_TARGET_DETAIL = {
    "corrupt_plan": "corrupted a cached plan before lookup",
    "disk_full": "injected ENOSPC on the next {target} write",
    "shm_exhausted": "exhausted /dev/shm for the next segment lease",
}
_EXEC_KINDS = _SHARD_KINDS + tuple(_TARGET_DETAIL)


@dataclass(frozen=True)
class FaultSpec:
    """One fault pattern: where, what, how often, how hard."""

    phase: str
    kind: str = "nan"
    probability: float = 1.0
    magnitude: float = 1e6
    count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "phase", str(self.phase).upper())
        require(
            self.phase in INJECTABLE_PHASES,
            f"fault phase must be one of {INJECTABLE_PHASES}, got {self.phase!r}",
        )
        if self.phase == "EXECUTE":
            require(
                self.kind in _EXEC_KINDS,
                f"EXECUTE fault kind must be one of {_EXEC_KINDS}, got {self.kind!r}",
            )
        else:
            require(
                self.kind in _KINDS,
                f"fault kind must be one of {_KINDS}, got {self.kind!r}",
            )
        require(0.0 <= self.probability <= 1.0, "probability must be in [0, 1]")
        require(self.count >= 1, "count must be >= 1")


class FaultInjector:
    """Seeded, phase-targeted corruption of intermediate arrays.

    Parameters
    ----------
    specs:
        One or more :class:`FaultSpec` (a single spec may be passed bare).
    seed:
        Seed for the injector's private generator. Determinism contract:
        the *k*-th call to :meth:`inject` always draws the same randomness
        for a given seed, independent of the arrays' contents.
    """

    def __init__(self, specs, seed=0):
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        require(bool(self.specs), "need at least one FaultSpec")
        for s in self.specs:
            require(isinstance(s, FaultSpec), f"expected FaultSpec, got {type(s).__name__}")
        self.rng = as_generator(seed)
        self.injected = 0

    # ------------------------------------------------------------------ #
    # RNG state (for checkpoint/resume of faulty campaigns)
    # ------------------------------------------------------------------ #
    def rng_state(self) -> dict:
        return self.rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state

    # ------------------------------------------------------------------ #
    def inject(
        self,
        phase: str,
        array,
        *,
        mode: int | None = None,
        iteration: int | None = None,
        events: EventLog | None = None,
    ):
        """Return *array*, possibly corrupted per the matching specs.

        Non-ndarray inputs (symbolic placeholders) pass through untouched,
        but the RNG is still advanced per matching spec so concrete and
        symbolic campaigns stay in lockstep.
        """
        phase = str(phase).upper()
        out = array
        for spec in self.specs:
            if spec.phase != phase or spec.phase == "EXECUTE":
                continue
            fire = bool(self.rng.random() < spec.probability)
            if not fire or not isinstance(out, np.ndarray):
                if fire:
                    # Burn the position draws so the stream stays aligned.
                    self.rng.integers(0, 2**31, size=spec.count)
                continue
            out = self._corrupt(out, spec)
            self.injected += 1
            if events is not None:
                events.record(
                    FAULT_INJECTED, phase, mode=mode, iteration=iteration,
                    detail=f"injected {spec.kind} fault "
                           f"(count={spec.count}, magnitude={spec.magnitude:g})",
                    fault_kind=spec.kind, count=spec.count,
                )
        return out

    def _corrupt(self, array: np.ndarray, spec: FaultSpec) -> np.ndarray:
        out = np.array(array, dtype=np.float64, copy=True)
        if spec.kind == "indefinite" and out.ndim == 2 and out.shape[0] == out.shape[1]:
            # Keep the draw count identical to the element-wise kinds.
            self.rng.integers(0, 2**31, size=spec.count)
            rank = out.shape[0]
            scale = max(abs(float(np.trace(out))) / rank, 1.0)
            out -= spec.magnitude * scale * np.eye(rank)
            return out
        flat_positions = self.rng.integers(0, 2**31, size=spec.count) % max(out.size, 1)
        flat = out.ravel()
        if spec.kind == "nan":
            flat[flat_positions] = np.nan
        elif spec.kind == "inf":
            flat[flat_positions] = np.inf
        else:  # "perturb", and "indefinite" on non-square arrays
            flat[flat_positions] = flat[flat_positions] * spec.magnitude + spec.magnitude
        return out

    # ------------------------------------------------------------------ #
    # Execution-layer faults (the chaos harness for the host engine)
    # ------------------------------------------------------------------ #
    def draw_shard_faults(
        self,
        n_shards: int,
        *,
        mode: int | None = None,
        events: EventLog | None = None,
    ) -> tuple[list[frozenset], float]:
        """Which worker faults fire for an upcoming *n_shards* launch.

        Returns ``(kinds, delay)``: one frozenset of the fault kinds aimed
        at each shard, and the straggler sleep in seconds (the first firing
        ``slow_shard`` spec's ``magnitude``, capped at one second so a
        default-magnitude spec cannot hang a run). Must be called from the
        dispatching (main) thread *before* workers launch, so the RNG
        stream order — and with it the whole chaos campaign — stays
        deterministic.
        """
        kinds = [set() for _ in range(n_shards)]
        delay = 0.0
        for spec in self.specs:
            if spec.phase != "EXECUTE" or spec.kind not in _SHARD_KINDS:
                continue
            if not (self.rng.random() < spec.probability):
                continue
            shard = int(self.rng.integers(0, 2**31)) % n_shards
            kinds[shard].add(spec.kind)
            if spec.kind == "slow_shard" and not delay:
                delay = min(float(spec.magnitude), 1.0)
            self.injected += 1
            if events is not None:
                events.record(
                    FAULT_INJECTED, "EXECUTE", mode=mode,
                    detail=f"injected {spec.kind} on shard {shard} of {n_shards}",
                    fault_kind=spec.kind, shard=shard,
                )
        return [frozenset(k) for k in kinds], delay

    def fires(
        self,
        kind: str,
        *,
        target: str | None = None,
        mode: int | None = None,
        iteration: int | None = None,
        events: EventLog | None = None,
    ) -> bool:
        """Whether a single-target execution fault of *kind* fires now.

        Draws once per matching spec, in spec order, and logs each firing
        spec as a ``fault_injected`` event. ``disk_full`` names the
        persistence *target* about to write (``"checkpoint"`` /
        ``"sink"``), so each surface draws independently
        from the shared stream.
        """
        require(kind in _TARGET_DETAIL, f"not a single-target fault kind: {kind!r}")
        data = {"fault_kind": kind}
        if target is not None:
            data["target"] = target
        fired = False
        for spec in self.specs:
            if spec.phase != "EXECUTE" or spec.kind != kind:
                continue
            if self.rng.random() < spec.probability:
                fired = True
                self.injected += 1
                if events is not None:
                    events.record(
                        FAULT_INJECTED, "EXECUTE", mode=mode,
                        iteration=iteration,
                        detail=_TARGET_DETAIL[kind].format(target=target),
                        **data,
                    )
        return fired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector(specs={len(self.specs)}, injected={self.injected})"
