"""ADMM and cuADMM constraint updates (Algorithms 2 and 3 of the paper).

One class covers the whole design space of Section 4.3 through two flags:

``fuse_ops``
    Operation fusion (OF). Off: the auxiliary variable, proximity step,
    dual update, and convergence reductions are issued as individual
    cuBLAS-style kernels (DCOPY/DGEAM/prox/reductions) with intermediate
    global-memory round trips. On: the three custom fused kernels of
    Section 4.3.1 are used instead.

``preinvert``
    Pre-inversion (PI). Off: every inner iteration applies ``(S+ρI)⁻¹``
    via two serialized triangular solves. On: the explicit inverse is
    computed once before the loop (line 4 of Algorithm 3) and each inner
    iteration performs a single GEMM.

The numerical iterates are identical in all four configurations (up to
floating-point round-off) — only the kernel sequence, and therefore the
simulated cost, changes. ``AdmmUpdate()`` is the baseline; :func:`cuadmm`
returns the both-flags-on configuration.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.linalg.proximal import get_proximal
from repro.machine.executor import Executor
from repro.machine.symbolic import SymArray, is_symbolic
from repro.obs import current_telemetry
from repro.resilience.events import (
    ADMM_DIVERGENCE,
    ADMM_GIVEUP,
    ADMM_RESTART,
    ADMM_RHO_RESCALE,
    NONFINITE_INPUT,
)
from repro.resilience.guards import guarded_cholesky, sanitize_nonfinite
from repro.resilience.policy import ResilienceContext
from repro.updates.base import UpdateMethod, register_update
from repro.utils.validation import check_positive_int, require

__all__ = ["AdmmUpdate", "cuadmm"]

#: Update-state key of the fused loop's scratch arrays (see :func:`_scratch`).
_SCRATCH_KEY = "admm_scratch"


class AdmmUpdate(UpdateMethod):
    """AO-ADMM factor update with togglable GPU optimizations.

    Parameters
    ----------
    constraint:
        Name of (or instance of) a proximity operator from
        :mod:`repro.linalg.proximal`; default nonnegativity.
    inner_iters:
        Fixed inner-iteration count. The paper fixes 10 (Section 5.1:
        "ADMM converges in approximately 10 iterations for all practical
        purposes"); the tolerance check can end the loop earlier.
    tol:
        Convergence tolerance ε for the primal and dual residual ratios
        (Algorithm 2 line 9). Ignored in symbolic (paper-scale analytic)
        mode, where the loop always runs ``inner_iters`` times.
    fuse_ops, preinvert:
        The OF and PI optimizations described in the module docstring.
    """

    nonnegative = True

    def __init__(
        self,
        constraint="nonneg",
        inner_iters: int = 10,
        tol: float = 0.0,
        fuse_ops: bool = False,
        preinvert: bool = False,
        constraint_params: dict | None = None,
        record_residuals: bool = False,
    ):
        self.prox = get_proximal(constraint, **(constraint_params or {}))
        self.inner_iters = check_positive_int(inner_iters, "inner_iters")
        require(tol >= 0.0, "tol must be non-negative")
        self.tol = float(tol)
        self.fuse_ops = bool(fuse_ops)
        self.preinvert = bool(preinvert)
        self.record_residuals = bool(record_residuals)
        self.nonnegative = self.prox.name in ("nonneg", "nonneg_l1", "simplex", "box")
        suffix = {
            (False, False): "",
            (True, False): "+OF",
            (False, True): "+PI",
            (True, True): "+OF+PI",
        }[(self.fuse_ops, self.preinvert)]
        self.name = f"admm{suffix}" if suffix != "+OF+PI" else "cuadmm"

    # ------------------------------------------------------------------ #
    def init_state(self, shape: tuple[int, ...], rank: int) -> dict[str, Any]:
        """Allocate one dual variable U per mode (zeros, warm-started)."""
        return {
            "dual": [np.zeros((dim, rank), dtype=np.float64) for dim in shape],
        }

    def _dual(self, state: dict[str, Any], mode: int, h):
        """Fetch the dual variable, matching symbolic/concrete mode of *h*."""
        if is_symbolic(h):
            return SymArray(h.shape)
        if not state:
            raise ValueError("ADMM requires state from init_state()")
        return state["dual"][mode]

    # ------------------------------------------------------------------ #
    def update(self, ex: Executor, mode: int, m_mat, s_mat, h, state: dict[str, Any]):
        symbolic = is_symbolic(m_mat, s_mat, h)
        rank = h.shape[1]
        tel = current_telemetry()
        u = self._dual(state, mode, h)
        # Resilience context arrives through the driver's state dict; update
        # calls without one (direct use, historical tests) keep fail-fast
        # semantics. Symbolic mode never needs recovery — no numerics run.
        ctx = None if symbolic else ResilienceContext.from_state(state)
        s_arr = None

        # Preconditioning ρ = trace(S)/R and diagonal loading S + ρI — one
        # tiny R×R kernel, identical record in symbolic and concrete mode.
        ex.record(
            "diag_load",
            flops=rank * rank + rank,
            reads=rank * rank,
            writes=rank * rank,
            parallel_work=rank * rank,
        )
        if symbolic:
            rho = 1.0
            l_factor = ex.cholesky(SymArray((rank, rank)))
        else:
            s_arr = np.asarray(s_mat, dtype=np.float64)
            if ctx is not None:
                s_arr, n_bad = sanitize_nonfinite(s_arr)
                if n_bad:
                    ctx.events.record(
                        NONFINITE_INPUT, "UPDATE", mode=mode,
                        detail=f"zeroed {n_bad} non-finite entries of S before "
                               f"diagonal loading",
                        bad_entries=n_bad,
                    )
                    s_arr = 0.5 * (s_arr + s_arr.T)
            rho = float(np.trace(s_arr)) / rank
            rho = rho if math.isfinite(rho) and rho > 0.0 else 1.0
            l_factor, rho = self._factorize(ex, s_arr, rho, ctx, mode)
        g_inv = ex.spd_inverse(l_factor) if self.preinvert else None

        # Scratch for the fused loop's auxiliary/solve/prox/dual temporaries.
        # Never the returned H, the saved dual, the warm start or last_good:
        # every H and U an iteration yields is a fresh array, so a rollback
        # restores them bit for bit.
        scratch = (
            _scratch(state, h.shape) if self.fuse_ops and not symbolic
            else (None, None)
        )
        residuals: list[tuple[float, float]] = []
        h0 = h  # pristine warm start, used by the fresh-restart fallback
        last_good = (h, u)
        failures = 0
        it = 0
        ref_scale = 0.0
        if ctx is not None:
            # Scale reference for blow-up detection: the warm start and the
            # RHS bound any sane iterate's magnitude. Computed once, from
            # finite entries only (NaN/Inf operands must not poison the
            # reference they are judged against).
            ref_scale = 1.0 + _finite_max(h0) + _finite_max(m_mat)
        while it < self.inner_iters:
            solver_error = None
            try:
                if self.fuse_ops:
                    h_new, u_new, r_primal, r_dual, h_sq, u_sq = self._iter_fused(
                        ex, m_mat, h, u, rho, l_factor, g_inv, scratch
                    )
                else:
                    h_new, u_new, r_primal, r_dual, h_sq, u_sq = self._iter_generic(
                        ex, m_mat, h, u, rho, l_factor, g_inv
                    )
            except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
                if ctx is None:
                    raise
                # The solves skip SciPy's finiteness scan, so NaN/Inf operands
                # surface through the residual norms below; what lands here is
                # a singular triangular factor, a constraint operator that
                # rejects its input, or NumPy's raise-on-error mode. Same
                # escalation path as a diverged iterate.
                solver_error = exc
                h_new = u_new = None
                r_primal = r_dual = h_sq = u_sq = float("nan")
            if ctx is None and not symbolic and not all(
                math.isfinite(v) for v in (r_primal, r_dual, h_sq, u_sq)
            ):
                # Fail fast without a resilience context: a NaN/Inf operand
                # or iterate makes a residual or a squared norm non-finite.
                raise ValueError(
                    f"ADMM inner iterate is not finite (mode {mode}, r_primal="
                    f"{r_primal:.3e}, r_dual={r_dual:.3e}); run with a "
                    f"resilience context to recover"
                )
            if ctx is not None and (
                solver_error is not None
                or _diverged(
                    h_new, u_new, r_primal, r_dual, h_sq, u_sq,
                    ctx.policy.divergence_threshold * ref_scale,
                )
            ):
                failures += 1
                cause = (
                    f"solver raised {type(solver_error).__name__}"
                    if solver_error is not None
                    else f"inner iterate diverged (r_primal={r_primal:.3e}, "
                         f"r_dual={r_dual:.3e})"
                )
                ctx.events.record(
                    ADMM_DIVERGENCE, "UPDATE", mode=mode,
                    detail=f"{cause}; failure {failures}",
                    r_primal=r_primal, r_dual=r_dual, failures=failures,
                )
                if failures <= ctx.policy.max_admm_failures:
                    # ρ-rescale (Liavas & Sidiropoulos' standard remedy) and
                    # roll back to the last finite iterate; the failed
                    # iteration is retried, not counted.
                    rho *= ctx.policy.rho_rescale
                    ctx.events.record(
                        ADMM_RHO_RESCALE, "UPDATE", mode=mode,
                        detail=f"rescaled rho to {rho:.3e} and rolled back",
                        rho=rho,
                    )
                    l_factor, rho = self._factorize(ex, s_arr, rho, ctx, mode)
                    g_inv = ex.spd_inverse(l_factor) if self.preinvert else None
                    h, u = last_good
                    continue
                if failures == ctx.policy.max_admm_failures + 1:
                    # Fresh restart: sanitized warm start, zero duals,
                    # one more ρ escalation, inner count reset.
                    h_restart, _ = sanitize_nonfinite(np.asarray(h0, dtype=np.float64))
                    if self.nonnegative:
                        h_restart = np.maximum(h_restart, 0.0)
                    u_restart = np.zeros_like(h_restart)
                    rho *= ctx.policy.rho_rescale
                    l_factor, rho = self._factorize(ex, s_arr, rho, ctx, mode)
                    g_inv = ex.spd_inverse(l_factor) if self.preinvert else None
                    ctx.events.record(
                        ADMM_RESTART, "UPDATE", mode=mode,
                        detail=f"fresh restart with zero duals and rho={rho:.3e}",
                        rho=rho,
                    )
                    h, u = h_restart, u_restart
                    last_good = (h, u)
                    it = 0
                    continue
                # Even the restart diverged (e.g. M itself is corrupt):
                # return the last finite iterate rather than garbage and let
                # the driver's sentinel decide what to do.
                ctx.events.record(
                    ADMM_GIVEUP, "UPDATE", mode=mode,
                    detail="divergence persisted after restart; returning the "
                           "last finite iterate",
                    failures=failures,
                )
                h, u = last_good
                break
            h, u = h_new, u_new
            last_good = (h, u)
            it += 1
            if self.record_residuals:
                residuals.append((r_primal, r_dual))
            if math.isfinite(r_primal) and math.isfinite(r_dual):
                # Inner-loop convergence telemetry (NaN residuals of the
                # symbolic mode are skipped — no numerics ran).
                tel.observe("admm.r_primal", r_primal, mode=mode)
                tel.observe("admm.r_dual", r_dual, mode=mode)
            # Every inner iteration ends with the convergence scalars being
            # read back by the host loop — a stream synchronization that no
            # amount of kernel fusion removes. This fixed latency is what
            # caps the optimization gains on small factor matrices (the
            # ≈1.0–1.3× NIPS/Enron bars of Figure 4).
            ex.record("host_readback_sync", reads=4, writes=0, parallel_work=1, launches=4)
            # NaN residuals (symbolic mode) never satisfy the test, so the
            # loop runs the fixed count — matching the paper's methodology.
            if self.tol > 0.0 and r_primal < self.tol and r_dual < self.tol:
                break

        tel.observe("admm.inner_iters", it, mode=mode)
        tel.observe("admm.rho", rho, mode=mode)
        if failures:
            tel.counter("admm.failures", failures)
        if not symbolic:
            state["dual"][mode] = u
        if self.record_residuals:
            # Section 5.1 reproduction hook: the per-inner-iteration primal
            # and dual residual ratios of the last update call.
            state["residuals"] = residuals
        return h

    # ------------------------------------------------------------------ #
    def _factorize(self, ex: Executor, s_arr, rho: float, ctx, mode: int):
        """Factor ``S + ρI``; guarded (jitter escalation) when a resilience
        context is present, historical fail-fast otherwise."""
        rank = s_arr.shape[0]
        if ctx is None:
            return ex.cholesky(s_arr + rho * np.eye(rank)), rho
        return guarded_cholesky(
            s_arr, rho=rho, policy=ctx.policy, events=ctx.events,
            phase="UPDATE", mode=mode, chol=ex.cholesky,
        )

    # ------------------------------------------------------------------ #
    def _solve(self, ex: Executor, h_aux, l_factor, g_inv, out=None):
        """Apply ``(S + ρI)⁻¹`` on the right of the I×R auxiliary matrix.

        *h_aux* is scratch: the triangular solves overwrite it (in place,
        since its transpose is F-contiguous) and skip SciPy's finiteness
        scan — the caller detects NaN/Inf from the residual norms. The
        pre-inverted GEMM writes into *out* when given.
        """
        if self.preinvert:
            # H̄ = H̃ (LLᵀ)⁻¹ — a single GEMM (the inverse is symmetric).
            return ex.gemm(h_aux, g_inv, name="dgemm_apply_inverse", out=out)
        # Two serialized triangular solves on R×I right-hand sides; the
        # transposes are layout flags on DTRSM, not data movement.
        return ex.cholesky_solve(
            l_factor, h_aux.T, check_finite=False, overwrite_b=True
        ).T

    def _iter_generic(self, ex: Executor, m_mat, h, u, rho, l_factor, g_inv):
        """One inner iteration as discrete cuBLAS-style kernels.

        Returns ``(H, U, r_primal, r_dual, ‖H‖², ‖U‖²)``.
        """
        h_prev = ex.copy(h, name="dcopy_hprev")
        t_sum = ex.add(h, u, name="dgeam_h_plus_u")
        h_aux = ex.geam(1.0, m_mat, rho, t_sum, name="dgeam_aux")
        h_bar = self._solve(ex, h_aux, l_factor, g_inv)
        t_arg = ex.sub(h_bar, u, name="dgeam_prox_arg")
        h_new = ex.prox(self.prox, t_arg, rho)
        dh = ex.sub(h_new, h_bar, name="dgeam_dh")
        u_new = ex.add(u, dh, name="dgeam_dual")
        r_primal_num = ex.norm_sq(dh, name="norm_primal")
        h_norm = ex.norm_sq(h_new, name="norm_h")
        d_prev = ex.sub(h_new, h_prev, name="dgeam_dprev")
        r_dual_num = ex.norm_sq(d_prev, name="norm_dual")
        u_norm = ex.norm_sq(u_new, name="norm_u")
        r_primal = r_primal_num / max(h_norm, 1e-30)
        r_dual = r_dual_num / max(u_norm, 1e-30)
        return h_new, u_new, r_primal, r_dual, h_norm, u_norm

    def _iter_fused(self, ex: Executor, m_mat, h, u, rho, l_factor, g_inv, scratch):
        """One inner iteration with the cuADMM fused kernels.

        *scratch* is two I×R arrays (two ``None`` in symbolic mode): the
        auxiliary H̃ is formed in the first, the solve leaves H̄ in the
        first (triangular solves, in place) or the second (pre-inverted
        GEMM), the prox argument goes to the other one, and the dual kernel
        reuses H̄'s array for ΔH and ``H - H_prev``.
        """
        aux_buf, other = scratch
        h_prev = h  # No DCOPY: the fused dual kernel reads the old H in place.
        h_aux = ex.fused_auxiliary(m_mat, h, u, rho, out=aux_buf)
        h_bar = self._solve(ex, h_aux, l_factor, g_inv, out=other)
        work = aux_buf if h_bar is other else other
        h_new = ex.fused_prox_primal(self.prox, h_bar, u, rho, work=work)
        u_new, r_primal_num, h_norm, r_dual_num, u_norm = ex.fused_dual_update(
            u, h_new, h_bar, h_prev, work=h_bar
        )
        r_primal = r_primal_num / max(h_norm, 1e-30)
        r_dual = r_dual_num / max(u_norm, 1e-30)
        return h_new, u_new, r_primal, r_dual, h_norm, u_norm


def _scratch(state: dict[str, Any], shape) -> tuple[np.ndarray, np.ndarray]:
    """Two C-contiguous scratch arrays of *shape* for the fused inner loop.

    One pair per run, kept in the update state and shared by the modes:
    an update call leaves nothing in it, and the modes run one after the
    other. It grows to the largest factor seen. The pair sits in a dict
    because checkpoints persist only array-valued state.
    """
    size = shape[0] * shape[1]
    pool = state.setdefault(_SCRATCH_KEY, {})
    bufs = pool.get("bufs")
    if bufs is None or bufs[0].size < size:
        bufs = pool["bufs"] = (np.empty(size), np.empty(size))
    return bufs[0][:size].reshape(shape), bufs[1][:size].reshape(shape)


def _diverged(h_new, u_new, r_primal: float, r_dual: float, h_sq: float,
              u_sq: float, limit: float) -> bool:
    """Blow-up test: any non-finite iterate/residual, or an iterate entry
    larger than *limit* in magnitude (finite but headed for overflow).

    *h_sq* and *u_sq* are ``‖H‖²`` and ``‖U‖²``, which the iteration has
    already reduced. A finite sum of squares means every entry is finite,
    and ``max|H| ≤ ‖H‖``, so the entry scans run only when a norm exceeds
    *limit* (rare: the iterate is large or divergent). When a sum of
    squares overflows with every entry finite (entries of order
    ``1e154/√n``), the test falls back to the full scan, so the decision
    equals the full scan's in every case.

    Residual *ratios* are deliberately not thresholded — their
    denominators legitimately approach zero on sparse factors (a mostly
    zero H or a freshly zeroed dual), which would flag healthy updates.
    """
    if not (math.isfinite(r_primal) and math.isfinite(r_dual)):
        return True
    if math.isfinite(h_sq) and math.isfinite(u_sq):
        # The rounded sum of squares is at least max² (1 - 2⁻⁵³); the slack
        # covers that and the rounding of the square root.
        if math.sqrt(max(h_sq, u_sq)) * (1.0 + 1e-12) <= limit:
            return False
    elif not (np.isfinite(h_new).all() and np.isfinite(u_new).all()):
        return True
    return bool(
        max(np.abs(h_new).max(initial=0.0), np.abs(u_new).max(initial=0.0)) > limit
    )


def _finite_max(arr) -> float:
    """Largest finite magnitude in *arr* (0.0 when none exist)."""
    a = np.asarray(arr, dtype=np.float64)
    if a.size:
        hi, lo = a.max(), a.min()
        if math.isfinite(hi) and math.isfinite(lo):
            # All finite (NaN propagates through max/min): no mask, no copy.
            return float(max(hi, -lo))
    finite = a[np.isfinite(a)]
    return float(np.abs(finite).max()) if finite.size else 0.0


def cuadmm(constraint="nonneg", inner_iters: int = 10, tol: float = 0.0, **kwargs) -> AdmmUpdate:
    """The fully optimized cuADMM configuration (Algorithm 3: OF + PI)."""
    return AdmmUpdate(
        constraint=constraint,
        inner_iters=inner_iters,
        tol=tol,
        fuse_ops=True,
        preinvert=True,
        **kwargs,
    )


register_update("admm", AdmmUpdate)
register_update("cuadmm", cuadmm)
register_update("admm_of", lambda **kw: AdmmUpdate(fuse_ops=True, **kw))
register_update("admm_pi", lambda **kw: AdmmUpdate(preinvert=True, **kw))
