"""KruskalTensor model and factor match score."""

import numpy as np
import pytest

from repro.core.kruskal import KruskalTensor, factor_match_score
from repro.kernels.gram import gram
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.tensor.coo import SparseTensor


@pytest.fixture
def model(rng):
    return KruskalTensor([rng.random((d, 3)) for d in (8, 7, 6)], rng.random(3) + 0.5)


class TestBasics:
    def test_properties(self, model):
        assert model.shape == (8, 7, 6)
        assert model.rank == 3
        assert model.ndim == 3

    def test_default_weights(self, rng):
        m = KruskalTensor([rng.random((4, 2)), rng.random((5, 2))])
        assert np.array_equal(m.weights, [1.0, 1.0])

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="rank"):
            KruskalTensor([rng.random((4, 2)), rng.random((5, 3))])

    def test_weight_length_validated(self, rng):
        with pytest.raises(ValueError, match="length-R"):
            KruskalTensor([rng.random((4, 2))], np.ones(3))


class TestReconstruction:
    def test_full_matches_manual(self, rng):
        a, b = rng.random((3, 2)), rng.random((4, 2))
        w = np.array([2.0, 0.5])
        m = KruskalTensor([a, b], w)
        manual = sum(w[r] * np.outer(a[:, r], b[:, r]) for r in range(2))
        assert np.allclose(m.full(), manual)

    def test_values_at_matches_full(self, model, rng):
        idx = np.column_stack([rng.integers(0, d, 20) for d in model.shape])
        dense = model.full()
        assert np.allclose(model.values_at(idx), dense[tuple(idx.T)])

    def test_norm_sq_matches_dense(self, model):
        assert model.norm_sq() == pytest.approx(np.linalg.norm(model.full()) ** 2)

    def test_inner_with_sparse_matches_dense(self, model, rng):
        dense = model.full()
        t = SparseTensor.from_dense(np.where(rng.random(model.shape) < 0.3, dense, 0.0))
        assert model.inner_with_sparse(t) == pytest.approx(
            float((t.to_dense() * dense).sum())
        )

    def test_shape_mismatch_rejected(self, model):
        t = SparseTensor(np.zeros((1, 3), dtype=np.int64), np.ones(1), (9, 9, 9))
        with pytest.raises(ValueError, match="shape"):
            model.inner_with_sparse(t)


class TestFit:
    def test_perfect_fit(self, model):
        t = SparseTensor.from_dense(model.full())
        assert model.fit(t) == pytest.approx(1.0, abs=1e-6)

    def test_residual_nonnegative(self, model, rng):
        t = SparseTensor.from_dense(rng.random(model.shape))
        assert model.residual_norm_sq(t) >= 0.0

    def test_fit_of_zero_model_is_zero(self, rng):
        t = SparseTensor.from_dense(rng.random((4, 4)) + 0.1)
        zero = KruskalTensor([np.zeros((4, 1)), np.zeros((4, 1))])
        assert zero.fit(t) == pytest.approx(0.0)

    def test_fit_against_zero_tensor_rejected(self, model):
        t = SparseTensor(np.zeros((0, 3), dtype=np.int64), np.zeros(0), model.shape)
        with pytest.raises(ValueError, match="all-zero"):
            model.fit(t)


class TestFitFromStatistics:
    """``fit(tensor, mttkrp=..., grams=...)`` against the nonzero-pass oracle."""

    @pytest.fixture
    def gappy(self, rng):
        """A tensor whose last mode has empty slices (rows 1, 3, 4, 6, 7)."""
        dense = np.where(rng.random((9, 7, 8)) < 0.3, rng.random((9, 7, 8)), 0.0)
        dense[:, :, [1, 3, 4, 6, 7]] = 0.0
        return SparseTensor.from_dense(dense)

    @pytest.fixture
    def model3(self, gappy, rng):
        return KruskalTensor([rng.random((d, 4)) for d in gappy.shape], rng.random(4) + 0.5)

    def test_fit_matches_oracle(self, gappy, model3):
        m = mttkrp_coo(gappy, model3.factors, gappy.ndim - 1)
        assert not m[[1, 3, 4, 6, 7]].any()
        grams = [gram(f) for f in model3.factors]
        got = model3.fit(gappy, mttkrp=m, grams=grams)
        assert got == pytest.approx(model3.fit(gappy), rel=1e-12)

    def test_cached_grams_give_the_same_bits(self, model3):
        grams = [f.T @ f for f in model3.factors]
        assert model3.norm_sq(grams) == model3.norm_sq()

    def test_near_exact_model_reports_the_nonzero_pass(self, model3):
        """Within round-off of an exact fit both evaluations are noise; the
        MTTKRP path then returns the oracle's bits."""
        exact = SparseTensor.from_dense(model3.full())
        m = mttkrp_coo(exact, model3.factors, exact.ndim - 1)
        grams = [gram(f) for f in model3.factors]
        assert model3.fit(exact, mttkrp=m, grams=grams) == model3.fit(exact)

    def test_mttkrp_shape_validated(self, gappy, model3):
        with pytest.raises(ValueError, match="MTTKRP"):
            model3.fit(gappy, mttkrp=np.zeros((3, 4)))

    def test_gram_count_validated(self, gappy, model3):
        with pytest.raises(ValueError, match="Gram"):
            model3.fit(gappy, grams=[np.eye(4)])


class TestNormalized:
    def test_reconstruction_preserved(self, model):
        assert np.allclose(model.normalized().full(), model.full())

    def test_unit_columns(self, model):
        normed = model.normalized()
        for f in normed.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0)


class TestFactorMatchScore:
    def test_identity(self, model):
        assert factor_match_score(model, model) == pytest.approx(1.0)

    def test_permutation_invariant(self, model):
        perm = [2, 0, 1]
        permuted = KruskalTensor(
            [f[:, perm] for f in model.factors], model.weights[perm]
        )
        assert factor_match_score(model, permuted) == pytest.approx(1.0)

    def test_scaling_invariant(self, model):
        scaled = KruskalTensor(
            [f * np.array([2.0, 0.5, 3.0]) for f in model.factors], model.weights
        )
        assert factor_match_score(model, scaled) == pytest.approx(1.0)

    def test_unrelated_models_score_low(self, rng):
        a = KruskalTensor([np.eye(6)[:, :3], np.eye(6)[:, :3]])
        b = KruskalTensor([np.eye(6)[:, 3:], np.eye(6)[:, 3:]])
        assert factor_match_score(a, b) < 0.1

    def test_shape_mismatch_rejected(self, model, rng):
        other = KruskalTensor([rng.random((9, 3)), rng.random((7, 3)), rng.random((6, 3))])
        with pytest.raises(ValueError):
            factor_match_score(model, other)
