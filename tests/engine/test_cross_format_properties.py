"""Cross-format MTTKRP equivalence property test (satellite 4).

For random shapes — including length-1 modes, empty slices, and
single-nonzero tensors — every storage format must agree with the dense
oracle, and the engine's cached/sharded execution must reproduce each
format's seed kernel bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, PlanCache, engine_mttkrp
from repro.kernels.mttkrp import mttkrp_dense
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import random_sparse
from tests.kernel_oracle import oracle_mttkrp

FORMATS = ("coo", "alto", "blco", "csf")


@st.composite
def problem(draw):
    ndim = draw(st.integers(min_value=2, max_value=4))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=10)) for _ in range(ndim)
    )
    cap = int(np.prod(shape))
    nnz = draw(st.integers(min_value=1, max_value=min(50, cap)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    mode = draw(st.integers(min_value=0, max_value=ndim - 1))
    rank = draw(st.integers(min_value=1, max_value=5))
    tensor = random_sparse(shape, nnz, seed=seed)
    rng = np.random.default_rng(seed + 1)
    factors = [rng.random((d, rank)) for d in shape]
    return tensor, factors, mode


class TestCrossFormatProperty:
    @given(problem())
    @settings(max_examples=40, deadline=None)
    def test_formats_agree_and_engine_is_bitwise(self, prob):
        tensor, factors, mode = prob
        oracle = mttkrp_dense(tensor.to_dense(), factors, mode)
        cache = PlanCache()
        serial = EngineConfig(chunk=8)
        sharded = EngineConfig(chunk=8, shards=3)
        for fmt in FORMATS:
            seed = oracle_mttkrp(tensor, factors, mode, fmt)
            # Every format agrees with the dense oracle (floating error only).
            np.testing.assert_allclose(seed, oracle, rtol=1e-10, atol=1e-12,
                                       err_msg=fmt)
            # Engine execution is bitwise equal to the seed kernel, cold
            # and from cache.
            cold = engine_mttkrp(tensor, factors, mode, fmt, serial, cache)
            warm = engine_mttkrp(tensor, factors, mode, fmt, serial, cache)
            assert np.array_equal(cold, seed), fmt
            assert np.array_equal(warm, seed), fmt
            if fmt in ("coo", "alto"):
                shard = engine_mttkrp(tensor, factors, mode, fmt, sharded, cache)
                assert np.array_equal(shard, seed), f"{fmt} sharded"


class TestEdgeShapes:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_length_one_target_mode(self, fmt):
        t = random_sparse((1, 8, 6), nnz=20, seed=3)
        rng = np.random.default_rng(0)
        factors = [rng.random((d, 3)) for d in t.shape]
        seed = oracle_mttkrp(t, factors, 0, fmt)
        got = engine_mttkrp(t, factors, 0, fmt, EngineConfig(shards=2), PlanCache())
        assert np.array_equal(got, seed)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_single_nonzero_tensor(self, fmt):
        t = SparseTensor(
            np.array([[1, 2, 0, 3]], dtype=np.int64), np.array([2.5]),
            (3, 4, 1, 5),
        )
        rng = np.random.default_rng(1)
        factors = [rng.random((d, 2)) for d in t.shape]
        for mode in range(t.ndim):
            seed = oracle_mttkrp(t, factors, mode, fmt)
            got = engine_mttkrp(
                t, factors, mode, fmt, EngineConfig(chunk=1), PlanCache()
            )
            assert np.array_equal(got, seed), mode

    def test_empty_slices_stay_zero(self):
        """Rows of the target mode with no nonzeros must stay exactly 0.0
        in both the seed and the engine output."""
        idx = np.array([[0, 0, 0], [4, 1, 1]], dtype=np.int64)
        t = SparseTensor(idx, np.array([1.0, 2.0]), (5, 2, 2))
        rng = np.random.default_rng(2)
        factors = [rng.random((d, 3)) for d in t.shape]
        seed = mttkrp_coo(t, factors, 0)
        got = engine_mttkrp(t, factors, 0, "coo", EngineConfig(), PlanCache())
        assert np.array_equal(got, seed)
        assert np.array_equal(got[1:4], np.zeros((3, 3)))

    def test_two_mode_tensor(self):
        t = random_sparse((9, 7), nnz=25, seed=4)
        rng = np.random.default_rng(3)
        factors = [rng.random((d, 4)) for d in t.shape]
        for mode in (0, 1):
            seed = mttkrp_coo(t, factors, mode)
            got = engine_mttkrp(
                t, factors, mode, "coo", EngineConfig(shards=2), PlanCache()
            )
            assert np.array_equal(got, seed)
