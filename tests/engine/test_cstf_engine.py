"""cSTF runs through the engine: bit-identity with the per-format kernel
oracle, plan-cache hit rates, telemetry counters, simulated-cost
invariance, gram rescale."""

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.engine import EngineConfig, get_plan_cache
from repro.tensor.synthetic import random_sparse


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 25, 15), nnz=2500, seed=7)


def _run(tensor, engine, fmt="coo", iters=6, telemetry="off", **kwargs):
    return cstf(
        tensor,
        CstfConfig(
            rank=6, max_iters=iters, update="cuadmm", device="a100",
            mttkrp_format=fmt, compute_fit=True, seed=1, telemetry=telemetry,
            engine=engine, **kwargs,
        ),
    )


def _assert_bit_equal(a, b):
    assert np.array_equal(a.kruskal.weights, b.kruskal.weights)
    for fa, fb in zip(a.kruskal.factors, b.kruskal.factors):
        assert np.array_equal(fa, fb)
    assert a.fits == b.fits


class TestBitIdentity:
    """Engine runs against the per-format kernel oracle (rtol=0)."""

    @pytest.mark.parametrize("fmt", ["coo", "alto", "blco", "csf"])
    def test_engine_matches_seed_per_format(self, tensor, fmt, kernel_oracle):
        with kernel_oracle():
            reference = _run(tensor, "on", fmt)
        _assert_bit_equal(reference, _run(tensor, "on", fmt))

    @pytest.mark.parametrize("fmt", ["coo", "alto"])
    def test_sharded_matches_seed(self, tensor, fmt, kernel_oracle):
        with kernel_oracle():
            reference = _run(tensor, "on", fmt)
        sharded = _run(tensor, {"shards": 3, "chunk": 512}, fmt)
        _assert_bit_equal(reference, sharded)

    @pytest.mark.procfaults
    @pytest.mark.parametrize("fmt", ["coo", "alto"])
    def test_processes_match_seed(self, tensor, fmt, kernel_oracle):
        from repro.engine import shutdown_backends

        with kernel_oracle():
            reference = _run(tensor, "on", fmt, iters=3)
        try:
            procs = _run(
                tensor, {"shards": 2, "chunk": 512, "backend": "processes"},
                fmt, iters=3,
            )
        finally:
            shutdown_backends()
        _assert_bit_equal(reference, procs)

    def test_simulated_timeline_unchanged(self, tensor, kernel_oracle):
        with kernel_oracle():
            reference = _run(tensor, "on")
        engine = _run(tensor, "on")
        for phase in PHASES:
            assert engine.timeline.seconds(phase) == reference.timeline.seconds(phase)


class TestPlanCacheBehavior:
    def test_hit_rate_after_first_iteration(self, tensor):
        """Acceptance: >= 90% plan-cache hit rate once the first AO
        iteration has populated the cache (one miss per mode)."""
        get_plan_cache().clear()
        result = _run(tensor, "on", iters=10, telemetry="on")
        counters = result.telemetry.metrics_summary["counters"]
        hits = counters["engine.plan.hits"]
        misses = counters["engine.plan.misses"]
        assert misses == tensor.ndim  # one per mode, first iteration only
        assert hits / (hits + misses) >= 0.9

    def test_global_cache_reused_across_runs(self, tensor):
        get_plan_cache().clear()
        _run(tensor, "on", iters=2)
        before = get_plan_cache().misses
        _run(tensor, "on", iters=2)  # same tensor object → all hits
        assert get_plan_cache().misses == before

    def test_counters_flow_through_telemetry(self, tensor):
        get_plan_cache().clear()
        result = _run(tensor, "on", iters=3, telemetry="on")
        counters = result.telemetry.metrics_summary["counters"]
        assert counters["engine.plan.hits"] > 0
        assert counters["engine.plan.misses"] > 0

    def test_shard_gauges_recorded(self, tensor):
        result = _run(tensor, {"shards": 3}, iters=2, telemetry="on")
        gauges = result.telemetry.metrics_summary["gauges"]
        assert gauges["engine.shard.workers"] == 3.0
        assert gauges["engine.shard.imbalance"] >= 1.0


class TestConfigPlumbing:
    def test_engine_setting_normalized_on_config(self):
        cfg = CstfConfig(engine="sharded")
        assert cfg.engine is not None and cfg.engine.shards >= 2
        assert CstfConfig().engine == EngineConfig()
        assert CstfConfig(engine=None).engine == EngineConfig()
        for removed in ("off", False):
            with pytest.raises(ValueError, match="seed-kernel MTTKRP path was removed"):
                CstfConfig(engine=removed)

    def test_invalid_engine_setting_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            CstfConfig(engine="warp-speed")

    def test_analytic_runs_ignore_engine(self):
        from repro.machine.analytic import TensorStats

        stats = TensorStats.from_dims((50, 40, 30), 4000)
        result = cstf(stats, CstfConfig(rank=4, max_iters=2, engine="on",
                                        compute_fit=False))
        assert result.kruskal is None
