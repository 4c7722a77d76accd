"""Canonical coordinate (COO) sparse tensor.

``SparseTensor`` is the interchange representation of the library: every
other format (CSF, ALTO, BLCO) is constructed from a ``SparseTensor`` and can
reproduce one. Indices are stored as one ``(nnz, ndim)`` int64 array and
values as one float64 vector, mirroring the FROSTT ``.tns`` layout.

Duplicate coordinates are coalesced on construction (values summed), matching
the semantics of every sparse tensor library the paper compares against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.validation import check_axis, check_shape, require

__all__ = ["SparseTensor"]


class SparseTensor:
    """An N-mode sparse tensor in coordinate format.

    Parameters
    ----------
    indices:
        Integer array of shape ``(nnz, ndim)``; row *r* holds the coordinates
        of the *r*-th stored element.
    values:
        Float array of shape ``(nnz,)``.
    shape:
        Tensor dimensions. Every index must satisfy ``0 <= idx < dim``.

    Notes
    -----
    The constructor copies, validates, coalesces duplicates, and sorts the
    entries lexicographically (mode 0 slowest). Sorted order is a class
    invariant that downstream formats (CSF construction, segment reductions)
    and the exact statistics of :meth:`TensorStats.from_coo
    <repro.machine.analytic.TensorStats.from_coo>` rely on.
    """

    __slots__ = ("_indices", "_values", "_shape")

    def __init__(self, indices, values, shape):
        shape = check_shape(shape, min_modes=1)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if indices.ndim == 1 and len(shape) == 1:
            indices = indices[:, None]
        require(indices.ndim == 2, f"indices must be 2-D (nnz, ndim), got ndim={indices.ndim}")
        require(
            indices.shape[1] == len(shape),
            f"indices have {indices.shape[1]} coordinate columns but shape has "
            f"{len(shape)} modes",
        )
        require(
            values.ndim == 1 and values.shape[0] == indices.shape[0],
            f"values must be 1-D with one entry per index row "
            f"({values.shape} vs {indices.shape[0]} rows)",
        )
        require(
            bool(np.isfinite(values).all()),
            "tensor values must be finite (NaN/inf would silently poison "
            "Gram matrices and fits)",
        )
        if indices.shape[0]:
            lo = indices.min(axis=0)
            hi = indices.max(axis=0)
            require(bool((lo >= 0).all()), f"negative coordinates present (min per mode {lo})")
            require(
                bool((hi < np.asarray(shape)).all()),
                f"coordinates out of bounds: max per mode {hi} for shape {shape}",
            )
        indices, values = _coalesce(indices, values, shape)
        self._indices = indices
        self._values = values
        self._shape = shape

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def indices(self) -> np.ndarray:
        """``(nnz, ndim)`` int64 coordinates, lexicographically sorted."""
        return self._indices

    @property
    def values(self) -> np.ndarray:
        """``(nnz,)`` float64 values, aligned with :attr:`indices`."""
        return self._values

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def nnz(self) -> int:
        return self._values.shape[0]

    @property
    def density(self) -> float:
        """nnz divided by the product of the dimensions (may underflow to 0.0
        only for astronomically large shapes; computed in floats)."""
        total = 1.0
        for d in self._shape:
            total *= float(d)
        return self.nnz / total

    def norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.linalg.norm(self._values))

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array, tol: float = 0.0) -> "SparseTensor":
        """Extract entries with ``|x| > tol`` from a dense array."""
        array = np.asarray(array, dtype=np.float64)
        mask = np.abs(array) > tol
        coords = np.argwhere(mask)
        return cls(coords, array[mask], array.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array (use only at test scale)."""
        out = np.zeros(self._shape, dtype=np.float64)
        out[tuple(self._indices.T)] = self._values
        return out

    def mode_indices(self, mode: int) -> np.ndarray:
        """The coordinate column for *mode* (negative modes allowed)."""
        mode = check_axis(mode, self.ndim)
        return self._indices[:, mode]

    # ------------------------------------------------------------------ #
    # Structural transforms
    # ------------------------------------------------------------------ #
    def permute_modes(self, order: Iterable[int]) -> "SparseTensor":
        """Return a tensor with modes re-ordered according to *order*."""
        order = [check_axis(o, self.ndim) for o in order]
        require(sorted(order) == list(range(self.ndim)), f"invalid permutation {order}")
        new_shape = tuple(self._shape[o] for o in order)
        return SparseTensor(self._indices[:, order], self._values, new_shape)

    def scale_values(self, factor: float) -> "SparseTensor":
        """Return a copy with all values multiplied by *factor*."""
        out = SparseTensor.__new__(SparseTensor)
        out._indices = self._indices
        out._values = self._values * float(factor)
        out._shape = self._shape
        return out

    # ------------------------------------------------------------------ #
    # Statistics used by the cost models
    # ------------------------------------------------------------------ #
    def mode_fiber_counts(self, mode: int) -> np.ndarray:
        """Number of nonzeros per index along *mode* (length ``shape[mode]``).

        Drives load-balance statistics in the machine model and CSF slice
        construction.
        """
        mode = check_axis(mode, self.ndim)
        return np.bincount(self._indices[:, mode], minlength=self._shape[mode])

    def distinct_mode_indices(self, mode: int) -> int:
        """Count of distinct coordinates appearing along *mode*.

        Equals the number of factor-matrix rows actually touched by an
        MTTKRP, which determines the cache working set in the machine model.
        One O(nnz) scatter into a ``shape[mode]`` boolean mask, no sort.
        """
        mode = check_axis(mode, self.ndim)
        seen = np.zeros(self._shape[mode], dtype=bool)
        seen[self._indices[:, mode]] = True
        return int(np.count_nonzero(seen))

    # ------------------------------------------------------------------ #
    # Comparison / repr
    # ------------------------------------------------------------------ #
    def allclose(self, other: "SparseTensor", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural and numerical equality up to tolerance."""
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self._shape == other._shape
            and self._indices.shape == other._indices.shape
            and bool(np.array_equal(self._indices, other._indices))
            and bool(np.allclose(self._values, other._values, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self._shape)
        return f"SparseTensor(shape={dims}, nnz={self.nnz}, density={self.density:.3e})"


def _coalesce(indices: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
    """Sort lexicographically (mode 0 slowest) and sum duplicate coordinates."""
    if indices.shape[0] == 0:
        return indices.reshape(0, len(shape)), values
    perm = np.lexsort(tuple(indices[:, m] for m in reversed(range(len(shape)))))
    indices = indices[perm]
    values = values[perm]
    if indices.shape[0] > 1:
        dup = np.all(indices[1:] == indices[:-1], axis=1)
        if dup.any():
            # Group boundaries: first row plus every row that differs from its
            # predecessor.
            starts = np.flatnonzero(np.concatenate(([True], ~dup)))
            sums = np.add.reduceat(values, starts)
            indices = indices[starts]
            values = sums
    return np.ascontiguousarray(indices), np.ascontiguousarray(values)
