"""Unit tests for the canonical COO sparse tensor."""

import numpy as np
import pytest

from repro.tensor.coo import SparseTensor


def _make(indices, values, shape):
    return SparseTensor(np.asarray(indices), np.asarray(values, dtype=float), shape)


class TestConstruction:
    def test_basic_properties(self):
        t = _make([[0, 1], [2, 0]], [1.5, -2.0], (3, 2))
        assert t.shape == (3, 2)
        assert t.ndim == 2
        assert t.nnz == 2
        assert t.density == pytest.approx(2 / 6)

    def test_values_are_float64(self):
        t = _make([[0, 0]], [3], (2, 2))
        assert t.values.dtype == np.float64

    def test_indices_are_int64(self):
        t = _make([[0, 0]], [3.0], (2, 2))
        assert t.indices.dtype == np.int64

    def test_duplicate_coordinates_are_summed(self):
        t = _make([[1, 1], [1, 1], [0, 0]], [2.0, 3.0, 1.0], (2, 2))
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[1, 1] == pytest.approx(5.0)
        assert dense[0, 0] == pytest.approx(1.0)

    def test_entries_sorted_lexicographically(self):
        t = _make([[2, 0], [0, 1], [1, 2]], [1.0, 2.0, 3.0], (3, 3))
        assert np.array_equal(t.indices[:, 0], [0, 1, 2])

    def test_empty_tensor(self):
        t = SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), (4, 5, 6))
        assert t.nnz == 0
        assert t.norm() == 0.0
        assert t.to_dense().sum() == 0.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            _make([[3, 0]], [1.0], (3, 2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _make([[-1, 0]], [1.0], (3, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinate columns"):
            _make([[0, 0, 0]], [1.0], (3, 2))

    def test_value_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values"):
            _make([[0, 0], [1, 1]], [1.0], (3, 2))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            _make([[0]], [1.0], (0,))

    def test_one_mode_tensor_from_flat_indices(self):
        t = SparseTensor(np.array([1, 3]), np.array([2.0, 4.0]), (5,))
        assert t.ndim == 1
        assert t.to_dense()[3] == 4.0


class TestConversions:
    def test_dense_roundtrip(self, small3):
        again = SparseTensor.from_dense(small3.to_dense())
        assert again.allclose(small3)

    def test_from_dense_threshold(self):
        dense = np.array([[0.5, 0.01], [0.0, -2.0]])
        t = SparseTensor.from_dense(dense, tol=0.1)
        assert t.nnz == 2
        assert set(map(tuple, t.indices)) == {(0, 0), (1, 1)}

    def test_norm_matches_dense(self, small3):
        assert small3.norm() == pytest.approx(np.linalg.norm(small3.to_dense()))


class TestTransforms:
    def test_permute_modes_roundtrip(self, small4):
        perm = small4.permute_modes([2, 0, 3, 1])
        back = perm.permute_modes([1, 3, 0, 2])
        assert back.allclose(small4)

    def test_permute_matches_dense_transpose(self, small3):
        perm = small3.permute_modes([2, 1, 0])
        assert np.allclose(perm.to_dense(), small3.to_dense().transpose(2, 1, 0))

    def test_permute_invalid(self, small3):
        with pytest.raises(ValueError, match="permutation"):
            small3.permute_modes([0, 0, 1])

    def test_scale_values(self, small3):
        doubled = small3.scale_values(2.0)
        assert np.allclose(doubled.values, 2.0 * small3.values)
        assert doubled.shape == small3.shape


class TestStatistics:
    def test_mode_fiber_counts_sum_to_nnz(self, small4):
        for m in range(small4.ndim):
            counts = small4.mode_fiber_counts(m)
            assert counts.sum() == small4.nnz
            assert counts.shape == (small4.shape[m],)

    def test_distinct_mode_indices(self, small4):
        for m in range(small4.ndim):
            expected = len(np.unique(small4.indices[:, m]))
            assert small4.distinct_mode_indices(m) == expected

    def test_distinct_empty(self):
        t = SparseTensor(np.zeros((0, 2), dtype=np.int64), np.zeros(0), (3, 3))
        assert t.distinct_mode_indices(0) == 0

    def test_mode_indices_negative_mode(self, small3):
        assert np.array_equal(small3.mode_indices(-1), small3.mode_indices(2))

    def test_repr_mentions_shape_and_nnz(self, small3):
        text = repr(small3)
        assert "17x13x9" in text
        assert str(small3.nnz) in text
