"""The cSTF driver: Algorithm 1 (AO-ADMM) with full phase instrumentation.

Per outer iteration and mode ``n`` the driver performs the paper's four
phases:

1. **GRAM** — ``S⁽ⁿ⁾ = ⊛_{m≠n} G⁽ᵐ⁾`` from cached Gram matrices, plus the
   refresh ``G⁽ⁿ⁾ = H⁽ⁿ⁾ᵀH⁽ⁿ⁾`` after the update (lines 8 and 12).
2. **MTTKRP** — ``M⁽ⁿ⁾`` in the configured sparse format (line 9),
   computed by the host engine (:class:`~repro.engine.driver.EngineMttkrp`,
   the one concrete MTTKRP path; its ``CstfConfig.engine`` knobs change
   host wall-clock, never bits) and charged analytically from the tensor
   statistics, so the simulated time reflects the device, not the host's
   NumPy speed.
3. **UPDATE** — the constraint update (line 10), e.g. ADMM/cuADMM.
4. **NORMALIZE** — column normalization with λ absorption (line 11).

The same code path serves concrete tensors and paper-scale
:class:`~repro.machine.analytic.TensorStats` (symbolic factors).
"""

from __future__ import annotations

import errno
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import CstfConfig
from repro.core.kruskal import KruskalTensor
from repro.core.trace import (
    PHASE_FIT,
    PHASE_GRAM,
    PHASE_MTTKRP,
    PHASE_NORMALIZE,
    PHASE_UPDATE,
)
from repro.machine.analytic import TensorStats, charge_mttkrp
from repro.machine.executor import Executor
from repro.machine.symbolic import SymArray
from repro.obs import resolve_telemetry
from repro.resilience.checkpoint import (
    CheckpointCorrupt,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.events import (
    CHECKPOINT_CORRUPT,
    CHECKPOINT_RESUMED,
    CHECKPOINT_SAVED,
    CHECKPOINT_SKIPPED,
    ResilienceEvent,
)
from repro.resilience.guards import ensure_finite
from repro.resilience.policy import STATE_KEY, ResilienceContext, ResiliencePolicy
from repro.tensor.coo import SparseTensor
from repro.updates.base import get_update
from repro.utils.rng import as_generator
from repro.utils.validation import check_shape, require

__all__ = ["CstfResult", "cstf"]


@dataclass
class CstfResult:
    """Everything a cSTF run produces.

    ``kruskal`` is ``None`` for analytic (paper-scale) runs, where only the
    simulated timeline is meaningful.
    """

    kruskal: KruskalTensor | None
    executor: Executor
    iterations: int
    converged: bool
    fits: list[float] = field(default_factory=list)

    events: list[ResilienceEvent] = field(default_factory=list)
    """Every recovery/injection/checkpoint action taken during the run."""

    start_iteration: int = 0
    """Outer iteration the run (re)started from; nonzero after a resume."""

    telemetry: object = None
    """The run's :class:`~repro.obs.RunRecord` when telemetry was enabled
    (spans, simulated kernel stream, resilience events, metrics summary);
    ``None`` for untraced runs."""

    @property
    def timeline(self):
        return self.executor.timeline

    @property
    def fit(self) -> float | None:
        return self.fits[-1] if self.fits else None

    @property
    def recoveries(self) -> int:
        """Number of resilience events excluding checkpoint bookkeeping."""
        skip = (CHECKPOINT_SAVED, CHECKPOINT_RESUMED)
        return sum(1 for e in self.events if e.kind not in skip)

    def per_iteration_seconds(self) -> float:
        """Simulated seconds per outer iteration over the four timed phases
        (iterations executed by *this* process, for resumed runs)."""
        timed = sum(
            self.timeline.seconds(p)
            for p in (PHASE_GRAM, PHASE_MTTKRP, PHASE_UPDATE, PHASE_NORMALIZE)
        )
        return timed / max(self.iterations - self.start_iteration, 1)


class _SymbolicMttkrp:
    """Charges MTTKRP cost from statistics; returns shape-only results."""

    def __init__(self, stats: TensorStats, fmt: str):
        self.fmt = fmt
        self.stats = stats
        self.ndim = stats.ndim

    def compute(self, ex: Executor, factors, mode: int, rank: int):
        charge_mttkrp(ex, self.stats, rank, mode, self.fmt)
        return SymArray((self.stats.shape[mode], rank))


def _init_factors(shape, rank, nonneg: bool, seed, init_factors=None):
    if init_factors is not None:
        factors = _coerce_init(shape, rank, init_factors)
        if nonneg:
            factors = [np.maximum(f, 0.0) for f in factors]
        return factors
    rng = as_generator(seed)
    factors = []
    for dim in shape:
        f = rng.random((dim, rank))
        if not nonneg:
            f = f - 0.5
        factors.append(np.asarray(f, dtype=np.float64))
    return factors


def _coerce_init(shape, rank, init):
    """Validate a warm start (list of factors or a KruskalTensor)."""
    if isinstance(init, KruskalTensor):
        if init.shape != tuple(shape) or init.rank != rank:
            raise ValueError(
                f"warm-start model {init.shape}/rank {init.rank} does not match "
                f"tensor {tuple(shape)}/rank {rank}"
            )
        # Fold λ into the first factor so the model is preserved exactly.
        factors = [np.array(f, dtype=np.float64) for f in init.factors]
        factors[0] = factors[0] * init.weights[None, :]
        return factors
    factors = [np.array(f, dtype=np.float64) for f in init]
    if len(factors) != len(shape):
        raise ValueError(f"expected {len(shape)} warm-start factors, got {len(factors)}")
    for n, (f, dim) in enumerate(zip(factors, shape)):
        if f.shape != (dim, rank):
            raise ValueError(
                f"warm-start factor {n} has shape {f.shape}, expected {(dim, rank)}"
            )
    return factors


def cstf(tensor, config: CstfConfig | None = None, **overrides) -> CstfResult:
    """Run constrained sparse tensor factorization (Algorithm 1).

    Parameters
    ----------
    tensor:
        A :class:`SparseTensor` (concrete run) or
        :class:`~repro.machine.analytic.TensorStats` (analytic, paper-scale
        run; the fit and factors are not produced).
    config / overrides:
        A :class:`CstfConfig`, or keyword overrides of its fields.

    Returns
    -------
    CstfResult
        Factors (as a :class:`KruskalTensor`), fit trace, and the simulated
        device timeline.
    """
    if config is None:
        config = CstfConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")

    # Telemetry is resolved once per run and installed as the ambient
    # session so deep call sites (MTTKRP kernels, ADMM inner loops) can
    # self-instrument; the default resolves to a no-op with zero overhead.
    tel = resolve_telemetry(config.telemetry)
    with tel.activate(), tel.span("run"):
        result = _cstf_run(tensor, config, tel)
    tel.flush()
    return result


def _cstf_run(tensor, config: CstfConfig, tel) -> CstfResult:
    analytic = isinstance(tensor, TensorStats)
    update = get_update(config.update, **config.update_params)
    ex = Executor(config.device)
    tel.attach_executor(ex)
    rank = config.rank
    shape = tensor.shape
    check_shape(shape, min_modes=2)
    tel.set_meta(
        kind="cstf", device=ex.device.name, rank=rank,
        update=getattr(update, "name", str(config.update)),
        mttkrp_format=config.mttkrp_format, analytic=analytic,
    )

    # Resilience plumbing: one policy + event log per run, threaded to the
    # update methods through their state dict. Analytic (symbolic) runs have
    # no numerics to guard.
    policy = ResiliencePolicy.resolve(config.resilience)
    ctx = ResilienceContext(policy) if (policy is not None and not analytic) else None
    if ctx is not None:
        tel.attach_events(ctx.events)
    injector = config.fault_injector
    require(
        injector is None or not analytic,
        "fault injection requires a concrete tensor (analytic runs have no numerics)",
    )

    checkpoint = None
    if config.resume_from is not None:
        require(not analytic, "resume_from requires a concrete tensor")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CheckpointCorrupt)
            checkpoint = load_checkpoint(config.resume_from)
        for w in caught:
            # A torn primary generation fell back to the rotated .prev:
            # surface the degradation on the run's event log (and keep the
            # warning visible to callers outside this capture).
            if not issubclass(w.category, CheckpointCorrupt):
                warnings.warn_explicit(
                    w.message, w.category, w.filename, w.lineno
                )
                continue
            if ctx is not None:
                ctx.events.record(
                    CHECKPOINT_CORRUPT, "CHECKPOINT",
                    detail=str(w.message),
                )
        require(
            checkpoint.shape == tuple(shape),
            f"checkpoint shape {checkpoint.shape} does not match tensor {tuple(shape)}",
        )
        require(
            checkpoint.rank == rank,
            f"checkpoint rank {checkpoint.rank} does not match config rank {rank}",
        )
        if tel.enabled:
            # Continue the interrupted run's telemetry: cumulative counters
            # and histograms resume without a gap (iteration indices follow
            # from the restored outer-iteration counter).
            tel.metrics.load_state(checkpoint.telemetry_state)
            tel.counter("cstf.resumes")

    if analytic:
        mttkrp_engine = _SymbolicMttkrp(tensor, config.mttkrp_format)
        factors = [SymArray((dim, rank)) for dim in shape]
        weights = SymArray((rank,))
    else:
        if not isinstance(tensor, SparseTensor):
            raise TypeError(
                f"tensor must be SparseTensor or TensorStats, got {type(tensor).__name__}"
            )
        # Imported here, not at module level: importing the engine while
        # ``repro`` initializes measured ~20% more process CPU per call on
        # the threads-sharded mttkrp-delicious bench workload (2-vCPU VM).
        from repro.engine.driver import EngineMttkrp

        mttkrp_engine = EngineMttkrp(
            tensor, config.mttkrp_format, config.engine,
            events=ctx.events if ctx is not None else None,
            injector=injector,
        )
        if checkpoint is not None:
            factors = [np.array(f, dtype=np.float64) for f in checkpoint.factors]
            weights = np.array(checkpoint.weights, dtype=np.float64)
        else:
            factors = _init_factors(
                shape, rank, update.nonnegative, config.seed, config.init_factors
            )
            weights = np.ones(rank, dtype=np.float64)

    # Analytic runs must not allocate concrete per-mode state (dual
    # variables at paper scale would be gigabytes); updates detect symbolic
    # operands and synthesize shape-only state on the fly.
    state = {} if analytic else update.init_state(tuple(shape), rank)
    if checkpoint is not None:
        # Restore the update method's array state (ADMM duals) and, for
        # resumed fault campaigns, the injector's RNG stream.
        state.update(checkpoint.state_arrays)
        if injector is not None and checkpoint.rng_state is not None:
            injector.set_rng_state(checkpoint.rng_state)
    if ctx is not None:
        state[STATE_KEY] = ctx
    ndim = len(shape)

    if checkpoint is not None:
        # The Gram cache resumes from the checkpoint verbatim — recomputing
        # it would give the same bits, but the saved arrays are the record.
        grams = [np.array(g, dtype=np.float64) for g in checkpoint.grams]
        if ctx is not None:
            ctx.events.record(
                CHECKPOINT_RESUMED, "CHECKPOINT", iteration=checkpoint.iteration,
                detail=f"resumed from {config.resume_from} at outer iteration "
                       f"{checkpoint.iteration}",
            )
    else:
        # Initial Gram cache (line 4 of Algorithm 1).
        with ex.phase(PHASE_GRAM), tel.span("gram_init"):
            grams = [ex.gram(f) for f in factors]

    fits: list[float] = list(checkpoint.fits) if checkpoint is not None else []
    converged = False
    start_iteration = checkpoint.iteration if checkpoint is not None else 0
    iterations = start_iteration
    events = ctx.events if ctx is not None else None
    needs_tensor = getattr(update, "needs_tensor", False)
    m_last = None  # stays None for updates that never form M
    for _ in range(start_iteration, config.max_iters):
        iterations += 1
        iter_span = tel.open_span("outer_iter", iteration=iterations)
        tel.counter("cstf.outer_iterations")
        for mode in range(ndim):
            if not needs_tensor:
                with ex.phase(PHASE_GRAM), tel.span("gram", mode=mode):
                    s_mat = _gram_chain(ex, grams, mode, rank, analytic)
                if injector is not None:
                    s_mat = injector.inject(
                        PHASE_GRAM, s_mat, mode=mode, iteration=iterations,
                        events=events,
                    )
                with ex.phase(PHASE_MTTKRP), tel.span("mttkrp", mode=mode):
                    m_mat = mttkrp_engine.compute(ex, factors, mode, rank)
                # The fit reuses the last mode's M; keep it before injection,
                # which returns a corrupted copy.
                m_last = m_mat
                if injector is not None:
                    m_mat = injector.inject(
                        PHASE_MTTKRP, m_mat, mode=mode, iteration=iterations,
                        events=events,
                    )
                # Phase-boundary sentinel (host-side; charges no device time).
                m_mat = ensure_finite(
                    m_mat, ctx, phase=PHASE_MTTKRP, what="MTTKRP result",
                    mode=mode, iteration=iterations,
                )
            with ex.phase(PHASE_UPDATE), tel.span("update", mode=mode):
                # The update solves for the unnormalized factor H·diag(λ);
                # reapply the weights to warm-start from the current model.
                h_start = ex.col_scale(factors[mode], weights, name="col_scale_lambda")
                if needs_tensor:
                    # Generalized-loss updates (e.g. KL-MU) work directly on
                    # the tensor instead of the (M, S) sufficient statistics.
                    h_new = update.update_with_tensor(
                        ex, mode, tensor, factors, h_start, state
                    )
                else:
                    h_new = update.update(ex, mode, m_mat, s_mat, h_start, state)
            if injector is not None:
                h_new = injector.inject(
                    PHASE_UPDATE, h_new, mode=mode, iteration=iterations,
                    events=events,
                )
            h_new = ensure_finite(
                h_new, ctx, phase=PHASE_UPDATE, what=f"mode-{mode} factor update",
                mode=mode, iteration=iterations,
            )
            with ex.phase(PHASE_NORMALIZE), tel.span("normalize", mode=mode):
                factors[mode], weights = ex.normalize_columns(
                    h_new, kind=config.normalize
                )
            if injector is not None:
                factors[mode] = injector.inject(
                    PHASE_NORMALIZE, factors[mode], mode=mode,
                    iteration=iterations, events=events,
                )
            factors[mode] = ensure_finite(
                factors[mode], ctx, phase=PHASE_NORMALIZE,
                what=f"normalized mode-{mode} factor", mode=mode,
                iteration=iterations,
            )
            weights = ensure_finite(
                weights, ctx, phase=PHASE_NORMALIZE, what="weight vector λ",
                mode=mode, iteration=iterations,
            )
            with ex.phase(PHASE_GRAM), tel.span("gram", mode=mode, refresh=True):
                grams[mode] = ex.gram(factors[mode])

        if not analytic and config.compute_fit:
            with ex.phase(PHASE_FIT), tel.span("fit", iteration=iterations) as fit_span:
                # After the last mode's update every other factor is the one
                # its MTTKRP was computed from, so ⟨X, X̂⟩ is an I_N×R dot;
                # without M the fit falls back to the nonzero pass.
                model = KruskalTensor(factors, weights)
                fits.append(model.fit(tensor, mttkrp=m_last, grams=grams))
                _charge_fit(ex, tensor, rank)
                if fit_span is not None:
                    # Stamp the value on the span so trace consumers (the
                    # run doctor's oscillation detector) can read the fit
                    # trajectory without the metrics summary.
                    fit_span.attrs["fit"] = fits[-1]
            tel.observe("cstf.fit", fits[-1])
            if len(fits) >= 2:
                tel.observe("cstf.fit_delta", fits[-1] - fits[-2])
            tel.gauge("cstf.last_fit", fits[-1])
            if (
                config.tol > 0.0
                and len(fits) >= 2
                and abs(fits[-1] - fits[-2]) < config.tol
            ):
                converged = True

        if injector is not None and tel.enabled and injector.fires(
            "disk_full", target="sink", iteration=iterations, events=events,
        ):
            # The telemetry sink's turn to hit ENOSPC: arm the real
            # degradation path (null sink + obs.sink.dropped) and carry on.
            tel.inject_sink_failure()

        if (
            config.checkpoint_every > 0
            and not analytic
            and iterations % config.checkpoint_every == 0
        ):
            with tel.span("checkpoint", iteration=iterations):
                _write_checkpoint(config, update, shape, rank, iterations,
                                  factors, weights, grams, fits, state, ctx, tel)
        tel.close_span(iter_span)
        if config.on_iteration is not None:
            try:
                config.on_iteration(iterations)
            except BaseException:
                # Cooperative interruption (the supervisor's in-run deadline
                # guard, a campaign driver's stop signal): the just-completed
                # iterate is checkpointed before the interrupt propagates, so
                # the interrupted run resumes bit-identically.
                if config.checkpoint_path is not None and not analytic:
                    _write_checkpoint(config, update, shape, rank, iterations,
                                      factors, weights, grams, fits, state,
                                      ctx, tel)
                raise
        if converged:
            break

    kruskal = None if analytic else KruskalTensor(factors, weights)
    return CstfResult(
        kruskal=kruskal,
        executor=ex,
        iterations=iterations,
        converged=converged,
        fits=fits,
        events=list(ctx.events) if ctx is not None else [],
        start_iteration=start_iteration,
        telemetry=tel.record if tel.enabled else None,
    )


def _write_checkpoint(config, update, shape, rank, iteration, factors, weights,
                      grams, fits, state, ctx, tel) -> None:
    """Persist the AO-loop state atomically and log the save.

    Persistence never fails a run that can still compute: a write
    ``OSError`` (ENOSPC and friends) is recorded as a ``checkpoint_skipped``
    event and swallowed — ``save_checkpoint`` rotates generations only
    after the temp write succeeds, so the last completed checkpoint (and
    its ``.prev``) survive intact.
    """
    injector = config.fault_injector
    state_arrays = {k: v for k, v in state.items() if k != STATE_KEY}
    events = ctx.events if ctx is not None else None
    try:
        if injector is not None and injector.fires(
            "disk_full", target="checkpoint", iteration=iteration, events=events
        ):
            raise OSError(errno.ENOSPC, "injected disk_full fault")
        save_checkpoint(
            config.checkpoint_path,
            iteration=iteration,
            factors=factors,
            weights=weights,
            grams=grams,
            fits=fits,
            state_arrays=state_arrays,
            rng_state=injector.rng_state() if injector is not None else None,
            telemetry_state=tel.metrics.state_dict() if tel.enabled else None,
            meta={
                "shape": [int(d) for d in shape],
                "rank": int(rank),
                "update": getattr(update, "name", str(config.update)),
            },
        )
    except OSError as exc:
        tel.counter("resilience.checkpoint.skips")
        if ctx is not None:
            ctx.events.record(
                CHECKPOINT_SKIPPED, "CHECKPOINT", iteration=iteration,
                detail=f"checkpoint write to {config.checkpoint_path} failed "
                       f"({type(exc).__name__}: {exc}); keeping the last "
                       f"completed checkpoint and continuing",
                error=str(exc),
            )
        return
    if ctx is not None:
        ctx.events.record(
            CHECKPOINT_SAVED, "CHECKPOINT", iteration=iteration,
            detail=f"checkpoint written to {config.checkpoint_path} "
                   f"after outer iteration {iteration}",
        )


def _gram_chain(ex: Executor, grams, skip: int, rank: int, analytic: bool):
    """Hadamard chain over the cached Grams, excluding *skip* (line 8)."""
    picked = [g for m, g in enumerate(grams) if m != skip]
    if len(picked) == 1:
        return ex.copy(picked[0], name="dcopy_gram")
    out = picked[0]
    for g in picked[1:]:
        out = ex.hadamard(out, g, name="hadamard_gram")
    return out


def _charge_fit(ex: Executor, tensor: SparseTensor, rank: int) -> None:
    """Charge the fit evaluation: a TTV-like pass over the nonzeros plus the
    R×R norm form, under the FIT phase, outside the paper's timed phases.

    The host computes the fit from the last mode's MTTKRP and the cached
    Grams, not from a pass over the nonzeros; this simulated record is
    deliberately unchanged, so timelines and kernel counts stay comparable
    across versions and never enter ``per_iteration_seconds``."""
    nnz = float(tensor.nnz)
    ndim = tensor.ndim
    ex.record(
        "fit_inner_product",
        flops=nnz * rank * (ndim + 1),
        reads=nnz * (ndim + 1) + nnz * ndim * rank * 0.2,
        writes=1,
        parallel_work=nnz,
        traffic_kind="gather",
    )
