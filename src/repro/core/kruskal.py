"""Kruskal (CP) tensors: weighted sums of rank-1 outer products.

``X̂ = Σ_r λ_r · h⁽¹⁾_r ∘ ... ∘ h⁽ᴺ⁾_r`` — the model both the constrained
and unconstrained factorizations produce. Fit against sparse tensors is
computed without densifying via the standard inner-product expansion::

    ‖X - X̂‖² = ‖X‖² - 2⟨X, X̂⟩ + ‖X̂‖²

with ``⟨X, X̂⟩`` a sum over the nonzeros and ``‖X̂‖² = λᵀ(⊛ₘ G⁽ᵐ⁾)λ``.

Inside an AO loop both terms come almost for free. Right after the last
mode's update every other factor is the one the last mode's MTTKRP
``M⁽ᴺ⁾`` was computed from, so::

    ⟨X, X̂⟩ = Σ_r λ_r Σ_i M⁽ᴺ⁾[i, r] · H⁽ᴺ⁾[i, r]

is an ``I_N × R`` dot, and ``‖X̂‖²`` follows from the Gram matrices the
loop already caches. :meth:`KruskalTensor.fit` takes both as the optional
keywords ``mttkrp=`` and ``grams=``; without them it makes the pass over
the nonzeros (the oracle the driver's fit is tested against). A near-exact
model, whose residual is within the expansion's round-off, also takes the
nonzero pass, so its reported fit is the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.gram import gram, hadamard_of_grams
from repro.tensor.coo import SparseTensor
from repro.utils.validation import require

__all__ = ["KruskalTensor", "factor_match_score"]

#: Relative residual ``‖X - X̂‖² / ‖X‖²`` below which a fit from the MTTKRP
#: falls back to the nonzero pass. Both evaluations carry a round-off of
#: about ε‖X‖² in ``‖X - X̂‖²``, i.e. ε/(2r) in the fit for a relative
#: residual norm r; above this floor (r ≥ 1e-3) that is ≤ 1e-13·(a few), so
#: the two agree to 1e-12, and below it neither is more than noise.
_NEAR_EXACT = 1e-6


class KruskalTensor:
    """A rank-R CP model: factor list plus weight vector λ."""

    __slots__ = ("factors", "weights")

    def __init__(self, factors, weights=None):
        self.factors = [np.ascontiguousarray(f, dtype=np.float64) for f in factors]
        require(len(self.factors) >= 1, "need at least one factor")
        rank = self.factors[0].shape[1]
        for n, f in enumerate(self.factors):
            require(f.ndim == 2 and f.shape[1] == rank, f"factor {n} rank mismatch")
        if weights is None:
            weights = np.ones(rank, dtype=np.float64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        require(self.weights.shape == (rank,), "weights must be length-R")

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    # ------------------------------------------------------------------ #
    def full(self) -> np.ndarray:
        """Dense reconstruction (test scale only)."""
        rank = self.rank
        out = np.zeros(self.shape, dtype=np.float64)
        for r in range(rank):
            component = self.weights[r]
            block = np.array(component, dtype=np.float64)
            for f in self.factors:
                block = np.multiply.outer(block, f[:, r])
            out += block
        return out

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Model values at ``(n, ndim)`` coordinates, vectorized."""
        indices = np.asarray(indices, dtype=np.int64)
        acc = np.broadcast_to(self.weights, (indices.shape[0], self.rank)).copy()
        for mode, f in enumerate(self.factors):
            acc *= f[indices[:, mode]]
        return acc.sum(axis=1)

    def norm_sq(self, grams=None) -> float:
        """``‖X̂‖² = λᵀ (⊛ₘ HᵐᵀHᵐ) λ`` — O(N·I·R²), no densification.

        *grams* are the per-mode ``HᵐᵀHᵐ`` when the caller already holds
        them; the result is then O(N·R²).
        """
        if grams is None:
            grams = [gram(f) for f in self.factors]
        else:
            require(len(grams) == self.ndim, "need one Gram matrix per mode")
        chain = hadamard_of_grams(grams)
        return float(self.weights @ chain @ self.weights)

    def inner_with_sparse(self, tensor: SparseTensor) -> float:
        """``⟨X, X̂⟩`` over the stored nonzeros."""
        require(tensor.shape == self.shape, "tensor/model shape mismatch")
        return float(np.dot(tensor.values, self.values_at(tensor.indices)))

    def residual_norm_sq(
        self, tensor: SparseTensor, *, mttkrp=None, grams=None, tensor_norm=None
    ) -> float:
        """``‖X - X̂‖²`` (clipped at zero against round-off).

        *mttkrp* and *grams* are as in :meth:`fit`; *tensor_norm* is
        ``tensor.norm()`` when the caller already has it.
        """
        if tensor_norm is None:
            tensor_norm = tensor.norm()
        x_sq = tensor_norm ** 2
        if mttkrp is not None:
            # ⟨X, X̂⟩ = Σ_r λ_r Σ_i M⁽ᴺ⁾[i, r]·H⁽ᴺ⁾[i, r], an I_N×R dot.
            last = self.factors[-1]
            require(tensor.shape == self.shape, "tensor/model shape mismatch")
            require(mttkrp.shape == last.shape, "MTTKRP must match the last factor's shape")
            inner = float(self.weights @ np.einsum("ir,ir->r", mttkrp, last))
            res = x_sq - 2.0 * inner + self.norm_sq(grams)
            if res >= _NEAR_EXACT * x_sq:
                return res
            # Near-exact model: both evaluations are round-off, so report the
            # nonzero pass's bits, the value ``fit(tensor)`` gives.
            grams = None
        return max(x_sq - 2.0 * self.inner_with_sparse(tensor) + self.norm_sq(grams), 0.0)

    def fit(self, tensor: SparseTensor, *, mttkrp=None, grams=None) -> float:
        """The standard CP fit ``1 - ‖X - X̂‖ / ‖X‖`` (1 is exact).

        Optional statistics an AO loop already holds skip the work:

        - *mttkrp*: the last mode's MTTKRP from the other factors, which
          replaces the pass over the nonzeros with an ``I_N × R`` dot;
        - *grams*: the per-mode Gram matrices ``HᵐᵀHᵐ``, which replace the
          recomputation of ``‖X̂‖²``'s Gram chain.

        With *mttkrp* the result agrees with ``fit(tensor)`` to 1e-12
        relative; a near-exact model (``‖X - X̂‖² < 1e-6·‖X‖²``) returns
        ``fit(tensor)`` itself.
        """
        denom = tensor.norm()
        require(denom > 0.0, "cannot compute fit against an all-zero tensor")
        residual = self.residual_norm_sq(
            tensor, mttkrp=mttkrp, grams=grams, tensor_norm=denom
        )
        return 1.0 - float(np.sqrt(residual)) / denom

    def normalized(self) -> "KruskalTensor":
        """Equivalent model with unit-2-norm columns, norms folded into λ."""
        new_factors = []
        lam = self.weights.copy()
        for f in self.factors:
            norms = np.linalg.norm(f, axis=0)
            norms = np.where(norms > 0.0, norms, 1.0)
            new_factors.append(f / norms)
            lam = lam * norms
        return KruskalTensor(new_factors, lam)

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"KruskalTensor(shape={dims}, rank={self.rank})"


def factor_match_score(a: KruskalTensor, b: KruskalTensor) -> float:
    """Factor match score between two CP models (1.0 = same up to
    permutation and scaling).

    Components are greedily matched by the product of per-mode cosine
    similarities; the score is the mean matched congruence. Standard
    recovery metric for planted-factor tests.
    """
    require(a.shape == b.shape, "models must share a shape")
    require(a.rank == b.rank, "models must share a rank")
    an = a.normalized()
    bn = b.normalized()
    rank = a.rank

    congruence = np.ones((rank, rank), dtype=np.float64)
    for fa, fb in zip(an.factors, bn.factors):
        congruence *= np.abs(fa.T @ fb)

    remaining = set(range(rank))
    total = 0.0
    for r in range(rank):
        cols = sorted(remaining)
        scores = congruence[r, cols]
        best = int(np.argmax(scores))
        total += float(scores[best])
        remaining.discard(cols[best])
    return total / rank
