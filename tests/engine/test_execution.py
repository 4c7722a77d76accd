"""Engine execution must be bitwise identical to the seed kernels —
serial, chunked at any size, sharded, and for every dispatch format."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    MttkrpPlan,
    PlanCache,
    all_mode_krp_rows,
    engine_mttkrp,
    run_plan,
)
from repro.kernels.mttkrp_coo import mttkrp_coo, partial_khatri_rao_rows
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import random_sparse
from tests.kernel_oracle import oracle_mttkrp


def _factors(shape, rank, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((d, rank)) for d in shape]


def _run(tensor, factors, mode, **cfg_kwargs):
    plan = MttkrpPlan.from_arrays(
        tensor.indices, tensor.values, tensor.shape, mode
    )
    fmats = [np.asarray(f, dtype=np.float64) for f in factors]
    rank = fmats[0].shape[1]
    return run_plan(
        plan, fmats, mode, tensor.shape[mode], rank, EngineConfig(**cfg_kwargs)
    )


class TestBitwiseAgainstSeed:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_serial_matches_coo_kernel(self, small3, factors3, mode):
        seed = mttkrp_coo(small3, factors3, mode)
        assert np.array_equal(_run(small3, factors3, mode), seed)

    @pytest.mark.parametrize("chunk", [0, 1, 3, 17, 4096])
    def test_any_chunk_size_is_bitwise_stable(self, small3, factors3, chunk):
        seed = mttkrp_coo(small3, factors3, 0)
        assert np.array_equal(_run(small3, factors3, 0, chunk=chunk), seed)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_sharded_matches_serial(self, small3, factors3, shards):
        seed = mttkrp_coo(small3, factors3, 1)
        got = _run(small3, factors3, 1, chunk=16, shards=shards)
        assert np.array_equal(got, seed)

    def test_more_shards_than_segments(self):
        t = random_sparse((3, 5, 4), nnz=6, seed=2)
        factors = _factors(t.shape, 4)
        seed = mttkrp_coo(t, factors, 0)
        assert np.array_equal(_run(t, factors, 0, shards=16), seed)

    def test_short_mode_tensor(self, small4, factors4):
        for mode in range(small4.ndim):
            seed = mttkrp_coo(small4, factors4, mode)
            assert np.array_equal(
                _run(small4, factors4, mode, chunk=32, shards=3), seed
            )

    def test_empty_tensor(self):
        t = SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (7, 5, 3))
        factors = _factors(t.shape, 2)
        out = _run(t, factors, 0, shards=4)
        assert np.array_equal(out, np.zeros((7, 2)))

    def test_single_nonzero(self):
        t = SparseTensor(
            np.array([[2, 1, 0]], dtype=np.int64), np.array([1.5]), (4, 3, 2)
        )
        factors = _factors(t.shape, 3)
        assert np.array_equal(
            _run(t, factors, 0, shards=2), mttkrp_coo(t, factors, 0)
        )


class TestDriverDispatch:
    """engine_mttkrp vs the seed dispatcher, per format, cached twice."""

    @pytest.mark.parametrize("fmt", ["coo", "alto", "blco", "csf"])
    def test_formats_bitwise(self, small3, factors3, fmt):
        cache = PlanCache()
        seed = oracle_mttkrp(small3, factors3, 0, fmt)
        cfg = EngineConfig(chunk=64)
        cold = engine_mttkrp(small3, factors3, 0, fmt, cfg, cache)
        warm = engine_mttkrp(small3, factors3, 0, fmt, cfg, cache)
        assert np.array_equal(cold, seed)
        assert np.array_equal(warm, seed)

    @pytest.mark.parametrize("fmt", ["coo", "alto"])
    def test_sharded_formats_bitwise(self, small4, factors4, fmt):
        cache = PlanCache()
        cfg = EngineConfig(chunk=32, shards=3)
        for mode in range(small4.ndim):
            seed = oracle_mttkrp(small4, factors4, mode, fmt)
            got = engine_mttkrp(small4, factors4, mode, fmt, cfg, cache)
            assert np.array_equal(got, seed), (fmt, mode)

    def test_cached_plan_skips_recast_but_not_bits(self, small3):
        """Satellite 3: float32 factors are cast once and reused; results
        stay bitwise equal to the uncached seed path (rtol=0)."""
        cache = PlanCache()
        factors = [
            np.asarray(f, dtype=np.float32)
            for f in _factors(small3.shape, 5, seed=9)
        ]
        seed = mttkrp_coo(small3, factors, 0)
        cfg = EngineConfig()
        for _ in range(3):
            got = engine_mttkrp(small3, factors, 0, "coo", cfg, cache)
            assert np.array_equal(got, seed)

    def test_unknown_format_rejected(self, small3, factors3):
        with pytest.raises(ValueError, match="unknown engine format"):
            engine_mttkrp(small3, factors3, 0, "sptensor", EngineConfig(), PlanCache())
        # A 1-mode tensor has no Khatri-Rao product to execute.
        vector = SparseTensor(np.array([[0], [2], [4]]), np.ones(3), (5,))
        with pytest.raises(ValueError, match=r"at least 2 mode.*\(5,\)"):
            engine_mttkrp(vector, [np.ones((5, 2))], 0, "coo", EngineConfig(), PlanCache())


class TestBatchedKrp:
    def test_per_mode_bitwise_matches_seed(self, small3, factors3):
        per_mode, full = all_mode_krp_rows(
            small3.indices, small3.values, factors3, include_full=True
        )
        for mode in range(small3.ndim):
            seed = partial_khatri_rao_rows(
                small3.indices, small3.values, factors3, mode
            )
            assert np.array_equal(per_mode[mode], seed)
        seed_full = partial_khatri_rao_rows(
            small3.indices, small3.values, factors3, None
        )
        assert np.array_equal(full, seed_full)

    def test_without_full_product(self, small4, factors4):
        per_mode, full = all_mode_krp_rows(
            small4.indices, small4.values, factors4
        )
        assert full is None
        assert len(per_mode) == small4.ndim

    def test_empty_nonzeros(self):
        idx = np.zeros((0, 2), dtype=np.int64)
        vals = np.zeros(0)
        factors = [np.ones((3, 2)), np.ones((4, 2))]
        per_mode, full = all_mode_krp_rows(idx, vals, factors, include_full=True)
        assert all(p.shape == (0, 2) for p in per_mode)
        assert full.shape == (0, 2)
