"""ADMM divergence recovery: rollback, ρ-rescale, restart, give-up."""

import numpy as np
import pytest

from repro.machine.executor import Executor
from repro.resilience import ResilienceContext, ResiliencePolicy
from repro.resilience.policy import STATE_KEY
from repro.updates.admm import AdmmUpdate, _diverged, cuadmm
from repro.updates.blocked_admm import BlockedAdmmUpdate


def _problem(rows=12, rank=3, seed=0):
    """A healthy (M, S, H) triple for a nonnegative update."""
    rng = np.random.default_rng(seed)
    h_true = rng.random((rows, rank))
    s = h_true.T @ h_true + rank * np.eye(rank)
    m = rng.random((rows, rank))
    h0 = rng.random((rows, rank))
    return m, s, h0


def _state_with_ctx(update, rows, rank, policy=None):
    state = update.init_state((rows, rank), rank)
    ctx = ResilienceContext(policy or ResiliencePolicy())
    state[STATE_KEY] = ctx
    return state, ctx


class TestCleanPathUnchanged:
    @pytest.mark.parametrize("factory", [AdmmUpdate, cuadmm, BlockedAdmmUpdate])
    def test_context_does_not_change_healthy_numerics(self, factory):
        """With no faults, resilient and fail-fast updates are bit-identical."""
        m, s, h0 = _problem()
        upd_a, upd_b = factory(), factory()
        state_plain = upd_a.init_state((12, 3), 3)
        out_plain = upd_a.update(Executor("a100"), 0, m, s, h0.copy(), state_plain)
        state_ctx, ctx = _state_with_ctx(upd_b, 12, 3)
        out_ctx = upd_b.update(Executor("a100"), 0, m, s, h0.copy(), state_ctx)
        assert np.array_equal(out_plain, out_ctx)
        assert len(ctx.events) == 0


class TestDivergenceRecovery:
    def test_nan_rhs_triggers_full_escalation_and_stays_finite(self):
        """A NaN M makes every iterate non-finite: the update must roll back,
        rescale ρ, restart fresh, finally give up — and still return the
        last finite iterate instead of garbage."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = AdmmUpdate()
        policy = ResiliencePolicy(max_admm_failures=2)
        state, ctx = _state_with_ctx(update, 12, 3, policy)
        out = update.update(Executor("a100"), 0, m, s, h0.copy(), state)
        assert np.isfinite(out).all()
        assert np.isfinite(state["dual"][0]).all()
        kinds = ctx.events.counts()
        assert kinds["admm_divergence"] == 4  # 2 rollbacks + restart + give-up
        assert kinds["admm_rho_rescale"] == 2
        assert kinds["admm_restart"] == 1
        assert kinds["admm_giveup"] == 1

    def test_without_context_nan_fails_fast(self):
        """Historical fail-fast behavior: no context, no recovery — the
        non-finite residual norms of the first iterate raise."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = AdmmUpdate()
        state = update.init_state((12, 3), 3)
        with pytest.raises(ValueError):
            update.update(Executor("a100"), 0, m, s, h0, state)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("factory", [lambda: AdmmUpdate(fuse_ops=True), cuadmm],
                             ids=["admm_of", "cuadmm"])
    def test_without_context_nan_fails_fast_fused(self, factory):
        """The fused kernels fail fast too: no context, a NaN in M raises."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = factory()
        state = update.init_state((12, 3), 3)
        with pytest.raises(ValueError, match="not finite"):
            update.update(Executor("a100"), 0, m, s, h0, state)

    def test_divergence_detail_names_the_residuals(self):
        """A NaN operand is caught from the residual norms, not by SciPy."""
        m, s, h0 = _problem()
        m = m.copy()
        m[0, 0] = np.nan
        update = AdmmUpdate()
        state, ctx = _state_with_ctx(update, 12, 3)
        update.update(Executor("a100"), 0, m, s, h0.copy(), state)
        first = ctx.events.of_kind("admm_divergence")[0]
        assert first.detail == (
            "inner iterate diverged (r_primal=nan, r_dual=nan); failure 1"
        )

    def test_indefinite_gram_recovers_via_guarded_factorization(self):
        m, s, h0 = _problem()
        s_bad = s - (np.linalg.eigvalsh(s)[0] + 10 * np.trace(s)) * np.eye(3)
        update = AdmmUpdate()
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s_bad, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("cholesky_jitter")) >= 1
        assert len(ctx.events.of_kind("cholesky_recovered")) >= 1

    def test_nonfinite_gram_sanitized(self):
        m, s, h0 = _problem()
        s_bad = s.copy()
        s_bad[0, 1] = np.inf
        update = AdmmUpdate()
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s_bad, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("nonfinite_input")) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN math pre-detection
    @pytest.mark.parametrize("flags", [{}, {"fuse_ops": True}, {"preinvert": True},
                                       {"fuse_ops": True, "preinvert": True}])
    def test_recovery_works_in_every_kernel_configuration(self, flags):
        """OF/PI change the kernel schedule, never the recovery semantics."""
        m, s, h0 = _problem(seed=3)
        m = m.copy()
        m[2, 1] = np.inf
        update = AdmmUpdate(**flags)
        state, ctx = _state_with_ctx(update, 12, 3)
        out = update.update(Executor("a100"), 0, m, s, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("admm_giveup")) == 1


class TestBlockedAdmm:
    def test_blocked_update_shares_recovery_and_charges_refactorizations(self):
        m, s, h0 = _problem(rows=32)
        m = m.copy()
        m[0, 0] = np.nan
        update = BlockedAdmmUpdate(block_rows=8)
        state, ctx = _state_with_ctx(update, 32, 3, ResiliencePolicy(max_admm_failures=1))
        ex = Executor("cpu", keep_records=True)
        out = update.update(ex, 0, m, s, h0, state)
        assert np.isfinite(out).all()
        assert len(ctx.events.of_kind("admm_giveup")) == 1
        # One nominal DPOTRF plus one per recovery re-factorization.
        recoveries = len(ctx.events.of_kind("admm_rho_rescale")) + len(
            ctx.events.of_kind("admm_restart")
        ) + len(ctx.events.of_kind("cholesky_jitter"))
        assert recoveries >= 1
        potrfs = [r for r in ex.timeline.records if r.name == "dpotrf"]
        assert len(potrfs) == 1 + recoveries


def _diverged_full_scan(h_new, u_new, r_primal, r_dual, limit):
    """The decision as made by scanning every entry (the reference)."""
    if not (np.isfinite(r_primal) and np.isfinite(r_dual)):
        return True
    if not (np.isfinite(h_new).all() and np.isfinite(u_new).all()):
        return True
    return bool(
        max(np.abs(h_new).max(initial=0.0), np.abs(u_new).max(initial=0.0)) > limit
    )


def _sq(a):
    return float(np.vdot(a, a).real)


class TestDivergenceDecision:
    """The norm-based test decides as the full entry scan does."""

    LIMIT = 1e6

    def _cases(self):
        rng = np.random.default_rng(7)
        h = rng.random((50, 4))
        u = rng.standard_normal((50, 4))
        nan_h = h.copy()
        nan_h[3, 1] = np.nan
        inf_u = u.copy()
        inf_u[10, 2] = np.inf
        neg_inf_h = h.copy()
        neg_inf_h[0, 0] = -np.inf
        big_h = h.copy()
        big_h[5, 3] = 2 * self.LIMIT  # finite, over the threshold
        # ‖H‖ over the limit while every entry is under it.
        spread = np.full((400, 4), 0.9 * self.LIMIT)
        at_limit = h.copy()
        at_limit[1, 1] = self.LIMIT  # equal is not over
        over_by_ulp = h.copy()
        over_by_ulp[2, 0] = np.nextafter(self.LIMIT, np.inf)
        huge = np.full((50, 4), 1e160)  # ‖H‖² overflows, entries finite
        return {
            "healthy": (h, u, 0.1, 0.2),
            "nan_h": (nan_h, u, 0.1, 0.2),
            "inf_u": (h, inf_u, 0.1, 0.2),
            "neg_inf_h": (neg_inf_h, u, 0.1, 0.2),
            "nan_residual": (h, u, float("nan"), 0.2),
            "inf_residual": (h, u, 0.1, float("inf")),
            "over_threshold": (big_h, u, 0.1, 0.2),
            "norm_over_entries_under": (spread, np.zeros_like(spread), 0.1, 0.2),
            "at_limit": (at_limit, u, 0.1, 0.2),
            "over_by_ulp": (over_by_ulp, u, 0.1, 0.2),
            "squares_overflow": (huge, u, 0.1, 0.2),
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/NaN norms
    @pytest.mark.parametrize("limit", [LIMIT, 1e300])
    def test_matches_full_scan(self, limit):
        for name, (h, u, rp, rd) in self._cases().items():
            want = _diverged_full_scan(h, u, rp, rd, limit)
            got = _diverged(h, u, rp, rd, _sq(h), _sq(u), limit)
            assert got == want, name

    def test_cases_cover_both_decisions(self):
        """The crafted set exercises the skip, the scan and the rejects."""
        cases = self._cases()
        h, u, _, _ = cases["norm_over_entries_under"]
        assert np.sqrt(_sq(h)) > self.LIMIT >= np.abs(h).max()
        decided = {
            name: _diverged_full_scan(h, u, rp, rd, self.LIMIT)
            for name, (h, u, rp, rd) in cases.items()
        }
        assert decided["healthy"] is False
        assert decided["norm_over_entries_under"] is False
        assert decided["at_limit"] is False
        assert decided["over_by_ulp"] is True
        assert decided["nan_h"] and decided["inf_u"] and decided["over_threshold"]


class _Recording(Executor):
    """Executor that copies every fused iterate and can poison one prox."""

    def __init__(self, poison_call=None):
        super().__init__("a100")
        self.poison_call = poison_call
        self.aux_args, self.h_out, self.u_out = [], [], []

    def fused_auxiliary(self, m, h, u, rho, name="fused_auxiliary", out=None):
        self.aux_args.append((h.copy(), u.copy()))
        return super().fused_auxiliary(m, h, u, rho, name=name, out=out)

    def fused_prox_primal(self, op, h_aux, u, rho, name="fused_prox_primal", work=None):
        h_new = super().fused_prox_primal(op, h_aux, u, rho, name=name, work=work)
        if len(self.h_out) == self.poison_call:
            h_new[0, 0] = np.nan
        self.h_out.append(h_new.copy())
        return h_new

    def fused_dual_update(self, u, h, h_aux, h_prev, name="fused_dual_update", work=None):
        out = super().fused_dual_update(u, h, h_aux, h_prev, name=name, work=work)
        self.u_out.append(out[0].copy())
        return out


FUSED = [lambda: AdmmUpdate(fuse_ops=True), cuadmm]


class TestScratchBuffers:
    """Per-mode scratch is reused across calls but never aliases results."""

    @pytest.mark.parametrize("factory", FUSED + [AdmmUpdate, BlockedAdmmUpdate],
                             ids=["admm_of", "cuadmm", "admm", "blocked_admm"])
    @pytest.mark.parametrize("with_ctx", [False, True])
    def test_second_call_leaves_first_results_alone(self, factory, with_ctx):
        """Mode 0, a smaller mode 1 (the scratch is shared), mode 0 again."""
        m, s, h0 = _problem(rows=30, rank=4)
        m1, s1, h01 = _problem(rows=20, rank=4, seed=1)
        update = factory()
        state = update.init_state((30, 20), 4)
        if with_ctx:
            state[STATE_KEY] = ResilienceContext(ResiliencePolicy())
        ex = Executor("a100")
        h0_copy = h0.copy()
        h1 = update.update(ex, 0, m, s, h0, state)
        u1 = state["dual"][0]
        h1_copy, u1_copy = h1.copy(), u1.copy()
        update.update(ex, 1, m1, s1, h01, state)
        h2 = update.update(ex, 0, m, s, h1, state)
        np.testing.assert_array_equal(h1, h1_copy)
        np.testing.assert_array_equal(u1, u1_copy)
        np.testing.assert_array_equal(h0, h0_copy)
        assert not np.may_share_memory(h2, h1)
        assert not np.may_share_memory(state["dual"][0], u1)

    @pytest.mark.parametrize("factory", FUSED, ids=["admm_of", "cuadmm"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_rollback_restores_previous_iterate_exactly(self, factory, k):
        """A NaN at inner iteration k rolls back to iteration k-1's (H, U),
        bit for bit, although iteration k wrote into the scratch."""
        m, s, h0 = _problem(rows=30, rank=4)
        update = factory()
        state, ctx = _state_with_ctx(update, 30, 4)
        ex = _Recording(poison_call=k)
        update.update(ex, 0, m, s, h0, state)
        assert len(ctx.events.of_kind("admm_rho_rescale")) == 1
        h_prev, u_prev = ex.h_out[k - 1], ex.u_out[k - 1]
        # Call k+1 is the retry of iteration k, from the restored iterate.
        h_retry, u_retry = ex.aux_args[k + 1]
        np.testing.assert_allclose(h_retry, h_prev, rtol=0, atol=0)
        np.testing.assert_allclose(u_retry, u_prev, rtol=0, atol=0)
        assert np.isfinite(ex.h_out[-1]).all()
