"""Format dispatch for the engine: cached, chunked, optionally sharded MTTKRP.

:func:`engine_mttkrp` is the engine's analogue of the per-format kernels
of :mod:`repro.kernels`. Per format:

- ``coo`` — one cached plan per mode over the canonical COO order;
  bitwise identical to :func:`~repro.kernels.mttkrp_coo.mttkrp_coo`.
- ``alto`` — the ALTO linearization and its decoded coordinate matrix are
  cached once per tensor (the kernel delinearizes per call); plans are built
  over the ALTO nonzero order, so the summation order — and the bits —
  match :func:`~repro.kernels.mttkrp_alto.mttkrp_alto`.
- ``blco`` — the BLCO conversion and per-block decoded plans are cached;
  blocks accumulate into the output in block order exactly like
  :func:`~repro.kernels.mttkrp_blco.mttkrp_blco`. Executed serially (the
  per-block structure is the paper's own blocking).
- ``hicoo`` — the HiCOO blocking and per-block plans are cached; blocks
  accumulate serially in block order, value-first then ascending-mode
  multiplies, so the bits match
  :func:`~repro.kernels.mttkrp_hicoo.mttkrp_hicoo`.
- ``csf`` — per-root mode trees are cached once per tensor and handed to
  the unchanged :func:`~repro.kernels.mttkrp_csf.mttkrp_csf` tree walk
  (one tree per root mode, so no mode re-roots through COO).

Sharding applies to the ``coo`` and ``alto`` plan paths.

Robustness: a format conversion or plan build that fails raises
:class:`PlanBuildError`, which the run supervisor treats as a trigger for
the COO format fallback. A failure *during execution* of cached state (a
plan that fails the integrity probe :func:`~repro.engine.execute.run_plan`
runs before dispatch, or one whose damage the probe misses and execution
trips over) triggers the one repair path, a replan-once recovery: the
tensor's cache entry is invalidated, the repair is counted
(``engine.plan.repairs``) and logged (``plan_repaired``), and the call
re-dispatches from fresh plans; only a second failure propagates. The
``corrupt_plan`` chaos fault (:class:`~repro.resilience.faults
.FaultInjector`) deliberately corrupts the cached plans before lookup to
prove this self-heal fires.

:class:`EngineMttkrp` is the cstf driver's one concrete MTTKRP path. It
charges the simulated device cost from the tensor statistics
(:func:`~repro.machine.analytic.charge_mttkrp`, the same call analytic runs
make), so device timelines never depend on the engine knobs — only the host
wall-clock does. The per-format kernels of :mod:`repro.kernels` stay in the
library as the bit-exact reference the engine is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.execute import run_plan
from repro.engine.plan import PlanCache, get_plan_cache
from repro.kernels.mttkrp import check_factors, mttkrp_kernel_span
from repro.kernels.mttkrp_blco import record_block_balance
from repro.kernels.mttkrp_csf import mttkrp_csf
from repro.machine.analytic import TensorStats, charge_mttkrp
from repro.resilience.events import PLAN_REPAIRED
from repro.utils.validation import check_axis, check_shape

__all__ = ["PlanBuildError", "engine_mttkrp", "EngineMttkrp"]


class PlanBuildError(RuntimeError):
    """A format conversion or plan build failed before execution started.

    Distinct from execution failures on purpose: no partial work has been
    done, so the caller (typically :class:`~repro.resilience.supervisor
    .RunSupervisor`) can safely fall back to the plain COO format.
    """


def _build_alto(tensor):
    from repro.tensor.alto import AltoTensor

    return AltoTensor.from_coo(tensor)


def _build_blco(tensor):
    from repro.tensor.blco import BlcoTensor

    return BlcoTensor.from_coo(tensor)


def _build_hicoo(tensor):
    from repro.tensor.hicoo import HicooTensor

    return HicooTensor.from_coo(tensor)


def _build_csf_forest(tensor):
    from repro.tensor.csf import CsfTensor

    return [CsfTensor.from_coo(tensor, root_mode=m) for m in range(tensor.ndim)]


def _convert(cache, tensor, name, build):
    """Cached format conversion, wrapping build failures in PlanBuildError."""
    try:
        return cache.format(tensor, name, build)
    except Exception as exc:
        raise PlanBuildError(
            f"{name} conversion failed: {type(exc).__name__}: {exc}"
        ) from exc


_ENGINE_FORMATS = ("coo", "alto", "blco", "hicoo", "csf")


def _dispatch(tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events):
    if fmt == "coo":
        plan = cache.plan(tensor, mode)
        return run_plan(
            plan, fmats, mode, tensor.shape[mode], rank, cfg,
            faults=faults, events=events,
        )

    if fmt == "alto":
        alto = _convert(cache, tensor, "alto", _build_alto)
        decoded = _convert(
            cache, tensor, "alto_indices", lambda _t: alto.all_mode_indices()
        )
        plan = cache.plan(
            tensor, mode, fmt="alto", indices=decoded, values=alto.values
        )
        return run_plan(
            plan, fmats, mode, tensor.shape[mode], rank, cfg,
            faults=faults, events=events,
        )

    if fmt in ("blco", "hicoo"):
        build = _build_blco if fmt == "blco" else _build_hicoo
        blocked = _convert(cache, tensor, fmt, build)
        if fmt == "blco" and tensor.nnz:
            record_block_balance(blocked)
        out = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
        serial = EngineConfig(chunk=cfg.chunk, shards=1)
        for plan in cache.block_plans(tensor, blocked, mode, fmt=fmt):
            # Per-block accumulation into a private buffer then `out +=`,
            # matching the seed kernel's block order bit for bit.
            out += run_plan(plan, fmats, mode, tensor.shape[mode], rank, serial)
        return out

    if fmt == "csf":
        forest = _convert(cache, tensor, "csf", _build_csf_forest)
        # The undecorated tree walk: engine_mttkrp already opened this
        # call's mttkrp_kernel span.
        return mttkrp_csf.__wrapped__(forest[mode], factors, mode)

    raise ValueError(f"unknown engine format {fmt!r}")


def engine_mttkrp(
    tensor,
    factors,
    mode: int,
    fmt: str = "coo",
    cfg: EngineConfig | None = None,
    cache: PlanCache | None = None,
    *,
    faults=None,
    events=None,
) -> np.ndarray:
    """Cached/sharded MTTKRP over a COO tensor, dispatched by format.

    ``faults`` (a :class:`~repro.resilience.faults.FaultInjector`) enables
    the chaos paths: ``corrupt_plan`` draws corrupt the cached plans before
    lookup, and shard-level faults ride into the sharded executor. Every
    recovery is logged to ``events`` when given.

    Telemetry matches the per-format kernels: each call is one
    ``mttkrp_kernel`` span and one ``mttkrp.calls.<fmt>`` count, and BLCO
    calls gauge the block balance (``mttkrp.blco.blocks`` /
    ``mttkrp.blco.block_imbalance``).
    """
    cfg = cfg if cfg is not None else EngineConfig()
    # `is not None`, not truthiness: an empty PlanCache has len() == 0.
    cache = cache if cache is not None else get_plan_cache()
    check_shape(tensor.shape, min_modes=2)
    mode = check_axis(mode, tensor.ndim)
    if fmt not in _ENGINE_FORMATS:
        raise ValueError(f"unknown engine format {fmt!r}")
    rank = check_factors(tensor.shape, factors, mode)
    fmats = [np.asarray(f, dtype=np.float64) for f in factors]

    if faults is not None and faults.fires("corrupt_plan", mode=mode, events=events):
        cache.corrupt(tensor)

    with mttkrp_kernel_span(fmt, mode):
        try:
            return _dispatch(
                tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events
            )
        except PlanBuildError:
            raise
        except Exception as exc:
            # Replan-once self-heal: cached state failed the integrity probe
            # or blew up in execution — e.g. an out-of-range coordinate from
            # a corrupted plan. Evict everything cached for this tensor and
            # re-dispatch from fresh plans; a second failure is a genuine
            # bug and propagates.
            cache.invalidate(tensor)
            cache.record_repair(
                f"execution over cached {fmt} plans failed "
                f"({type(exc).__name__}); entry evicted and replanned"
            )
            if events is not None:
                events.record(
                    PLAN_REPAIRED, "MTTKRP", mode=mode,
                    detail=f"{fmt} execution failed ({type(exc).__name__}: "
                           f"{exc}); cache entry evicted, replanned, and "
                           f"re-executed",
                    fmt=fmt,
                )
            return _dispatch(
                tensor, factors, fmats, mode, fmt, cfg, cache, rank, faults, events
            )


class EngineMttkrp:
    """The cstf driver's concrete MTTKRP: engine execution plus cost.

    Charges the simulated device cost from the tensor statistics (the
    :func:`~repro.machine.analytic.charge_mttkrp` call analytic runs make
    too), so the simulated timeline never depends on the host-side
    execution knobs. ``events``/``injector`` thread the run's resilience
    context into the execution layer so shard recoveries and plan repairs
    land on ``CstfResult.events``.
    """

    def __init__(
        self,
        tensor,
        fmt: str,
        cfg: EngineConfig,
        cache: PlanCache | None = None,
        *,
        events=None,
        injector=None,
    ):
        self.fmt = fmt
        self.cfg = cfg
        self.cache = cache if cache is not None else get_plan_cache()
        self.stats = TensorStats.from_coo(tensor)
        self.ndim = tensor.ndim
        self.tensor = tensor
        self.events = events
        self.injector = injector

    def compute(self, ex, factors, mode: int, rank: int):
        charge_mttkrp(ex, self.stats, rank, mode, self.fmt)
        return engine_mttkrp(
            self.tensor, factors, mode, self.fmt, self.cfg, self.cache,
            faults=self.injector, events=self.events,
        )
