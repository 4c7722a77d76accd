"""Shared fixtures: small deterministic tensors and factor sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import planted_sparse_cp, random_sparse
from tests.kernel_oracle import kernel_oracle as _kernel_oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)  # the paper's publication date


@pytest.fixture
def small3(rng) -> SparseTensor:
    """A modest 3-mode random sparse tensor."""
    return random_sparse((17, 13, 9), nnz=180, seed=rng)


@pytest.fixture
def small4(rng) -> SparseTensor:
    """A 4-mode tensor with one very short mode (VAST-like shape stress)."""
    return random_sparse((23, 4, 15, 11), nnz=260, seed=rng)


@pytest.fixture
def factors3(small3, rng):
    return [rng.random((d, 5)) for d in small3.shape]


@pytest.fixture
def factors4(small4, rng):
    return [rng.random((d, 6)) for d in small4.shape]


@pytest.fixture
def planted():
    """A genuinely low-rank sparse tensor plus its planted factors."""
    return planted_sparse_cp((22, 18, 14), rank=3, factor_sparsity=0.5, seed=11)


@pytest.fixture
def kernel_oracle():
    """A context manager: ``cstf`` runs inside it compute every MTTKRP with
    the per-format :mod:`repro.kernels` oracle instead of the engine (see
    ``tests/kernel_oracle.py``)."""
    return _kernel_oracle
