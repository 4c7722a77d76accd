"""TensorStats and the analytic MTTKRP cost records."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.frostt import get_dataset
from repro.machine.analytic import MTTKRP_LOCALITY, TensorStats, charge_mttkrp
from repro.machine.executor import Executor
from repro.machine.symbolic import SymArray
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import random_sparse
from tests.stats_oracle import reference_stats

#: 3 and 8 bits leave high bits on several modes (multi-block BLCO keys);
#: 48 is the default budget.
BIT_BUDGETS = (3, 8, 48)


@st.composite
def coo_tensor(draw):
    """1- to 4-mode tensors with short and long modes, nnz from 0."""
    ndim = draw(st.integers(min_value=1, max_value=4))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=12) | st.integers(min_value=13, max_value=5000))
        for _ in range(ndim)
    )
    nnz = draw(st.integers(min_value=0, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    indices = np.stack([rng.integers(0, d, size=nnz) for d in shape], axis=1)
    return SparseTensor(indices.reshape(nnz, ndim), rng.random(nnz) + 0.5, shape)


class TestFromCoo:
    def test_exact_stats(self, small4):
        stats = TensorStats.from_coo(small4)
        assert stats.shape == small4.shape
        assert stats.nnz == small4.nnz
        for m in range(small4.ndim):
            assert stats.distinct[m] == small4.distinct_mode_indices(m)

    def test_csf_levels_match_tree(self, small4):
        from repro.tensor.csf import CsfTensor

        stats = TensorStats.from_coo(small4)
        levels = CsfTensor.from_coo(small4, root_mode=0).level_sizes()
        assert list(stats.csf_level_sizes) == [float(s) for s in levels]


class TestFromCooExact:
    """``from_coo`` counts without conversions and equals the conversions."""

    @given(coo_tensor(), st.sampled_from(BIT_BUDGETS))
    @example(SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 5, 6)), 3)
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, tensor, bit_budget):
        stats = TensorStats.from_coo(tensor, bit_budget=bit_budget)
        assert stats == reference_stats(tensor, bit_budget)

    @pytest.mark.parametrize("name", ["nips", "uber", "vast", "nell2", "delicious"])
    @pytest.mark.parametrize("bit_budget", BIT_BUDGETS)
    def test_frostt_analogues(self, name, bit_budget):
        tensor = get_dataset(name).load_scaled(seed=0, target_nnz=20_000)
        stats = TensorStats.from_coo(tensor, bit_budget=bit_budget)
        assert stats == reference_stats(tensor, bit_budget)
        if bit_budget == 3:
            assert stats.num_blocks > 1

    @pytest.mark.parametrize("bit_budget", [8, 48])
    def test_peak_allocation_below_index_array(self, bit_budget):
        """Counting needs O(nnz) scratch, not a BLCO and a CSF copy."""
        tensor = random_sparse((409, 2000, 825, 28), nnz=200_000, seed=5)
        tracemalloc.start()
        try:
            TensorStats.from_coo(tensor, bit_budget=bit_budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.indices.nbytes


class TestFromDims:
    def test_saturated_modes(self):
        # nnz >> dim: every index should appear.
        stats = TensorStats.from_dims((10, 1000000), nnz=100000)
        assert stats.distinct[0] == pytest.approx(10.0)
        assert stats.distinct[1] == pytest.approx(1000000 * (1 - np.exp(-0.1)), rel=0.01)

    def test_estimate_close_to_exact(self):
        t = random_sparse((400, 300, 200), nnz=5000, seed=0)
        est = TensorStats.from_dims(t.shape, t.nnz)
        exact = TensorStats.from_coo(t)
        for m in range(3):
            assert est.distinct[m] == pytest.approx(exact.distinct[m], rel=0.1)

    def test_single_block_small_tensor(self):
        stats = TensorStats.from_dims((100, 100, 100), nnz=1000)
        assert stats.num_blocks == 1

    def test_blocks_grow_with_index_space(self):
        big = TensorStats.from_dims((1 << 25, 1 << 25, 1 << 25), nnz=10**6)
        assert big.num_blocks > 1

    def test_density(self):
        stats = TensorStats.from_dims((10, 10), nnz=20)
        assert stats.density() == pytest.approx(0.2)

    def test_negative_nnz_rejected(self):
        with pytest.raises(ValueError):
            TensorStats.from_dims((4, 4), nnz=-1)


class TestChargeMttkrp:
    @pytest.fixture
    def stats(self):
        return TensorStats.from_dims((50000, 40000, 30000), nnz=2_000_000)

    @pytest.mark.parametrize("fmt", ["blco", "csf", "alto", "coo"])
    def test_positive_time_all_formats(self, stats, fmt):
        ex = Executor("a100")
        seconds = charge_mttkrp(ex, stats, 32, 0, fmt)
        assert seconds > 0
        assert ex.timeline.seconds(ex.current_phase) >= 0

    def test_alto_cheaper_than_coo(self, stats):
        """ALTO stores one index word per nonzero vs ndim for COO and has a
        tighter locality window — it must never be slower."""
        ex_alto, ex_coo = Executor("cpu"), Executor("cpu")
        t_alto = charge_mttkrp(ex_alto, stats, 32, 0, "alto")
        t_coo = charge_mttkrp(ex_coo, stats, 32, 0, "coo")
        assert t_alto < t_coo

    def test_cost_scales_with_rank(self, stats):
        ex16, ex64 = Executor("a100"), Executor("a100")
        t16 = charge_mttkrp(ex16, stats, 16, 0, "blco")
        t64 = charge_mttkrp(ex64, stats, 64, 0, "blco")
        assert t64 > 1.5 * t16

    def test_unknown_format_rejected(self, stats):
        with pytest.raises(ValueError, match="format"):
            charge_mttkrp(Executor("a100"), stats, 32, 0, "hicoo")

    def test_mode_out_of_range(self, stats):
        with pytest.raises(ValueError):
            charge_mttkrp(Executor("a100"), stats, 32, 5, "blco")

    def test_short_mode_contention_on_gpu(self):
        """The VAST effect: accumulating into a 2-long mode serializes GPU
        atomics, making that mode far slower than a long mode of the same
        tensor."""
        stats = TensorStats.from_dims((165427, 11374, 2), nnz=26_021_945)
        ex_long, ex_short = Executor("a100"), Executor("a100")
        t_long = charge_mttkrp(ex_long, stats, 32, 0, "blco")
        t_short = charge_mttkrp(ex_short, stats, 32, 2, "blco")
        assert t_short > 3 * t_long

    def test_locality_table_complete(self):
        assert set(MTTKRP_LOCALITY) == {"blco", "alto", "csf", "coo"}


class TestSymArray:
    def test_shape_and_size(self):
        a = SymArray((3, 4))
        assert a.shape == (3, 4)
        assert a.size == 12
        assert a.ndim == 2

    def test_transpose_and_copy(self):
        a = SymArray((3, 4))
        assert a.T.shape == (4, 3)
        assert a.copy().shape == a.shape

    def test_varargs_construction(self):
        assert SymArray(5, 6).shape == (5, 6)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            SymArray((0, 3))
