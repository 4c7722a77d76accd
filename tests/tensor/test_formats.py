"""Unit and property tests for the ALTO, BLCO and CSF formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.alto import AltoTensor
from repro.tensor.blco import BlcoTensor, split_bit_widths
from repro.tensor.coo import SparseTensor
from repro.tensor.csf import CsfTensor
from repro.tensor.synthetic import random_sparse


class TestAlto:
    def test_roundtrip(self, small4):
        assert AltoTensor.from_coo(small4).to_coo().allclose(small4)

    def test_linear_indices_sorted(self, small4):
        a = AltoTensor.from_coo(small4)
        assert np.all(np.diff(a.linear_indices) >= 0)

    def test_mode_indices_multiset_preserved(self, small4):
        a = AltoTensor.from_coo(small4)
        for m in range(small4.ndim):
            assert np.array_equal(
                np.sort(a.mode_indices(m)), np.sort(small4.indices[:, m])
            )

    def test_all_mode_indices_consistent(self, small3):
        a = AltoTensor.from_coo(small3)
        full = a.all_mode_indices()
        for m in range(small3.ndim):
            assert np.array_equal(full[:, m], a.mode_indices(m))

    def test_index_bits(self, small3):
        a = AltoTensor.from_coo(small3)
        # 17 -> 5 bits, 13 -> 4 bits, 9 -> 4 bits
        assert a.index_bits() == 13

    def test_empty(self):
        t = SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 4, 4))
        a = AltoTensor.from_coo(t)
        assert a.nnz == 0
        assert a.to_coo().nnz == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            AltoTensor(np.zeros(3, dtype=np.int64), np.zeros(2), (4, 4))


class TestBlcoSplit:
    def test_no_split_needed(self):
        low, high = split_bit_widths([3, 4, 2], budget=16)
        assert low == [3, 4, 2]
        assert high == [0, 0, 0]

    def test_split_strips_widest(self):
        low, high = split_bit_widths([10, 4], budget=12)
        assert low == [8, 4]
        assert high == [2, 0]

    def test_split_balances(self):
        low, high = split_bit_widths([10, 10], budget=10)
        assert low == [5, 5]
        assert sum(high) == 10

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            split_bit_widths([3], budget=0)


class TestBlco:
    @pytest.mark.parametrize("budget", [4, 7, 10, 48])
    def test_roundtrip_various_budgets(self, small4, budget):
        b = BlcoTensor.from_coo(small4, bit_budget=budget)
        assert b.to_coo().allclose(small4)

    def test_single_block_when_budget_large(self, small4):
        b = BlcoTensor.from_coo(small4, bit_budget=48)
        assert b.num_blocks == 1

    def test_blocks_multiply_when_budget_tight(self, small4):
        wide = BlcoTensor.from_coo(small4, bit_budget=48)
        tight = BlcoTensor.from_coo(small4, bit_budget=6)
        assert tight.num_blocks > wide.num_blocks

    def test_nnz_preserved_across_blocks(self, small4):
        b = BlcoTensor.from_coo(small4, bit_budget=6)
        assert sum(blk.nnz for blk in b.blocks) == small4.nnz

    def test_block_keys_unique_and_sorted(self, small4):
        b = BlcoTensor.from_coo(small4, bit_budget=6)
        keys = [blk.key for blk in b.blocks]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_block_mode_indices_within_bounds(self, small4):
        b = BlcoTensor.from_coo(small4, bit_budget=7)
        for blk in b.blocks:
            for m in range(b.ndim):
                idx = b.block_mode_indices(blk, m)
                assert (idx >= 0).all() and (idx < small4.shape[m]).all()

    def test_low_bits_fit_budget(self, small4):
        b = BlcoTensor.from_coo(small4, bit_budget=9)
        assert sum(b.low_widths) <= 9

    def test_many_blocks_roundtrip_and_headers(self):
        """A tight budget splits thousands of blocks; every block header
        must equal its key's per-mode high fields, and every nonzero in a
        block must carry exactly those high bits."""
        t = random_sparse((300, 200, 120), nnz=4000, seed=11)
        b = BlcoTensor.from_coo(t, bit_budget=8)
        assert b.num_blocks > 1000
        assert b.to_coo().allclose(t)
        high = b.high_widths
        shift = 0
        offsets = [0] * b.ndim
        for m in reversed(range(b.ndim)):
            offsets[m], shift = shift, shift + high[m]
        for blk in b.blocks:
            assert blk.high.dtype == np.int64
            assert blk.linear.flags.c_contiguous
            expected = [(blk.key >> offsets[m]) & ((1 << high[m]) - 1)
                        for m in range(b.ndim)]
            assert np.array_equal(blk.high, expected)
            for m in range(b.ndim):
                coords = b.block_mode_indices(blk, m)
                assert np.array_equal(
                    coords >> b.low_widths[m],
                    np.full(blk.nnz, blk.high[m]),
                )

    def test_empty(self):
        t = SparseTensor(np.zeros((0, 2), dtype=np.int64), np.zeros(0), (8, 8))
        b = BlcoTensor.from_coo(t)
        assert b.num_blocks == 0
        assert b.to_coo().nnz == 0


class TestCsf:
    def test_roundtrip_each_root(self, small4):
        for root in range(small4.ndim):
            c = CsfTensor.from_coo(small4, root_mode=root)
            assert c.to_coo().allclose(small4)

    def test_level_sizes_monotone(self, small4):
        c = CsfTensor.from_coo(small4, root_mode=0)
        sizes = c.level_sizes()
        assert sizes == sorted(sizes)
        assert sizes[-1] == small4.nnz

    def test_root_level_counts_distinct_indices(self, small4):
        c = CsfTensor.from_coo(small4, root_mode=1)
        assert c.level_sizes()[0] == small4.distinct_mode_indices(1)

    def test_fptr_spans_cover_children(self, small4):
        c = CsfTensor.from_coo(small4, root_mode=0)
        for level in range(small4.ndim - 1):
            ptr = c.fptr[level]
            assert ptr[0] == 0
            assert ptr[-1] == c.fids[level + 1].size
            assert np.all(np.diff(ptr) >= 1)  # every node has >= 1 child

    def test_leaf_counts_sum_to_nnz(self, small4):
        c = CsfTensor.from_coo(small4, root_mode=2)
        counts = c.leaf_counts()
        for level_counts in counts:
            assert level_counts.sum() == small4.nnz

    def test_custom_mode_order(self, small4):
        c = CsfTensor.from_coo(small4, root_mode=1, mode_order=[1, 3, 0, 2])
        assert c.mode_order == (1, 3, 0, 2)
        assert c.to_coo().allclose(small4)

    def test_mode_order_must_start_with_root(self, small4):
        with pytest.raises(ValueError, match="root_mode"):
            CsfTensor.from_coo(small4, root_mode=1, mode_order=[0, 1, 2, 3])

    def test_empty(self):
        t = SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 4, 4))
        c = CsfTensor.from_coo(t)
        assert c.nnz == 0
        assert c.level_sizes() == [0, 0, 0]


@st.composite
def small_sparse(draw):
    ndim = draw(st.integers(min_value=2, max_value=4))
    shape = tuple(draw(st.integers(min_value=2, max_value=20)) for _ in range(ndim))
    space = int(np.prod(shape))
    nnz = draw(st.integers(min_value=1, max_value=min(space, 60)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_sparse(shape, nnz=nnz, seed=seed)


class TestFormatProperties:
    @given(small_sparse())
    @settings(max_examples=40, deadline=None)
    def test_alto_roundtrip(self, tensor):
        assert AltoTensor.from_coo(tensor).to_coo().allclose(tensor)

    @given(small_sparse(), st.integers(min_value=3, max_value=48))
    @settings(max_examples=40, deadline=None)
    def test_blco_roundtrip(self, tensor, budget):
        assert BlcoTensor.from_coo(tensor, bit_budget=budget).to_coo().allclose(tensor)

    @given(small_sparse())
    @settings(max_examples=40, deadline=None)
    def test_csf_roundtrip(self, tensor):
        for root in range(tensor.ndim):
            assert CsfTensor.from_coo(tensor, root_mode=root).to_coo().allclose(tensor)
