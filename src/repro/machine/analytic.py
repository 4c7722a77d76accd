"""Analytic cost records for the sparse kernels, driven by tensor statistics.

MTTKRP cost depends only on summary statistics of the sparse tensor — nnz,
mode lengths, distinct indices touched per mode, block/fiber structure — so
the simulator charges it from a :class:`TensorStats` instead of walking the
data. This is what lets Figures 5–8 be evaluated at the *paper's* scale
(up to 1.7 B nonzeros) on a laptop: statistics come straight from Table 2.

Concrete runs (scaled tensors) compute exact statistics with
:meth:`TensorStats.from_coo`; paper-scale runs estimate the distinct-index
counts with the standard occupancy formula ``d ≈ D(1 - exp(-nnz/D))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, prod

import numpy as np

from repro.machine.executor import Executor
from repro.utils.validation import check_shape, require

__all__ = ["TensorStats", "charge_mttkrp", "MTTKRP_LOCALITY"]

#: Effective working-set scale per format for the cache-miss model. A
#: locality-preserving traversal order means only a window of the factor
#: rows is hot at a time: ALTO's adaptive interleaving and CSF's fiber
#: grouping give tight windows on the CPU; BLCO's linearized streaming
#: gives a looser window because tens of thousands of GPU threads spread
#: accesses concurrently; raw COO order has no locality at all.
MTTKRP_LOCALITY = {"blco": 0.10, "alto": 0.05, "csf": 0.15, "coo": 1.0}


def _expected_distinct(space: float, draws: float) -> float:
    """Expected number of distinct cells hit by *draws* uniform samples."""
    if space <= 0.0:
        return 0.0
    ratio = draws / space
    if ratio > 50.0:  # saturated; avoids exp underflow work
        return space
    return space * (1.0 - exp(-ratio))


@dataclass(frozen=True)
class TensorStats:
    """Summary statistics of a sparse tensor for cost purposes."""

    shape: tuple[int, ...]
    nnz: int
    distinct: tuple[float, ...]
    """Distinct indices appearing along each mode (≈ factor rows touched)."""

    num_blocks: int = 1
    """BLCO block count (GPU kernel launches per MTTKRP)."""

    csf_level_sizes: tuple[float, ...] | None = None
    """Node counts per CSF level for the *shortest-root* tree; estimated
    when unknown. Level 0 is the root mode's distinct count."""

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @classmethod
    def from_coo(cls, tensor, bit_budget: int = 48) -> "TensorStats":
        """Exact statistics from a materialized COO tensor, in O(nnz).

        Every field is counted from the COO arrays; no format is built. The
        counts rely on :class:`~repro.tensor.coo.SparseTensor`'s invariant
        that entries are coalesced and sorted lexicographically (mode 0
        slowest):

        - ``num_blocks`` is the number of distinct BLCO block keys
          (:func:`~repro.tensor.blco.block_keys`) under *bit_budget*, or one
          when no mode has high bits;
        - level *l* of the root-0 natural-order CSF tree has one node per
          entry whose first *l* + 1 coordinates differ from the previous
          entry's, so ``csf_level_sizes`` is one cumulative pass over the
          sorted columns.
        """
        from repro.tensor.blco import block_keys, split_bit_widths
        from repro.tensor.linearize import mode_bit_widths

        idx = tensor.indices
        nnz = tensor.nnz
        distinct = tuple(float(tensor.distinct_mode_indices(m)) for m in range(tensor.ndim))

        low, high = split_bit_widths(mode_bit_widths(tensor.shape), bit_budget)
        num_blocks = np.unique(block_keys(idx, low, high)).size if any(high) else 1

        changed = np.zeros(nnz, dtype=bool)
        changed[:1] = True
        levels = []
        for m in range(tensor.ndim):
            col = idx[:, m]
            changed[1:] |= col[1:] != col[:-1]
            levels.append(float(np.count_nonzero(changed)))
        return cls(
            shape=tensor.shape,
            nnz=nnz,
            distinct=distinct,
            num_blocks=max(num_blocks, 1),
            csf_level_sizes=tuple(levels),
        )

    @classmethod
    def from_dims(cls, shape, nnz: int, bit_budget: int = 48) -> "TensorStats":
        """Estimated statistics from dimensions and nnz alone (Table 2 mode).

        Distinct counts use the occupancy expectation; the BLCO block count
        follows from the bit-budget overflow (each overflow bit doubles the
        potential block count, capped by nnz); CSF level sizes use the
        prefix-space occupancy expectation.
        """
        from repro.tensor.blco import split_bit_widths
        from repro.tensor.linearize import mode_bit_widths

        shape = check_shape(shape)
        require(nnz >= 0, "nnz must be non-negative")
        distinct = tuple(_expected_distinct(float(d), float(nnz)) for d in shape)

        widths = mode_bit_widths(shape)
        _, high = split_bit_widths(widths, bit_budget)
        overflow_bits = sum(high)
        # Occupied blocks: distinct high-bit prefixes among the nonzeros.
        num_blocks = int(
            min(_expected_distinct(2.0 ** min(overflow_bits, 60), float(nnz)), float(max(nnz, 1)))
        )

        levels = []
        space = 1.0
        for dim in shape:
            space *= float(dim)
            levels.append(_expected_distinct(space, float(nnz)))
        return cls(
            shape=shape,
            nnz=int(nnz),
            distinct=distinct,
            num_blocks=max(num_blocks, 1),
            csf_level_sizes=tuple(levels),
        )

    def density(self) -> float:
        return self.nnz / prod(float(d) for d in self.shape)


def charge_mttkrp(ex: Executor, stats: TensorStats, rank: int, mode: int, fmt: str) -> float:
    """Charge one MTTKRP kernel for *mode* on the executor's device.

    ``fmt`` selects the storage format's traffic profile: ``"blco"`` (GPU
    block-streaming), ``"csf"`` (SPLATT tree walk), ``"alto"`` or ``"coo"``
    (linearized / raw coordinate streaming). Returns simulated seconds.
    """
    require(0 <= mode < stats.ndim, f"mode {mode} out of range")
    nnz = float(stats.nnz)
    ndim = stats.ndim
    r = float(rank)
    other_distinct = sum(d for m, d in enumerate(stats.distinct) if m != mode)
    out_rows = stats.distinct[mode]

    if fmt == "blco":
        # A single kernel launch streams the block array (block headers are
        # part of the stream: ndim words per block). Streams value + one
        # packed index word per nonzero; gathers (ndim-1) factor rows per
        # nonzero; hierarchical (warp-reduced) atomics toward the output.
        reads = 2.0 * nnz + stats.num_blocks * ndim + nnz * (ndim - 1) * r + nnz * r * 0.25
        writes = out_rows * r + nnz * r * 0.25
        unique = 2.0 * nnz + other_distinct * r + out_rows * r
        # Atomic contention: the GPU kernel accumulates into the output with
        # atomics; when the target mode is much shorter than the nonzero
        # count (e.g. VAST's length-2 mode), conflicting updates serialize.
        # Warp-level pre-aggregation (factor 32) is modeled; beyond that the
        # conflict chains are charged as serialized steps. This is the
        # effect that makes VAST the outlier of Figures 7/8.
        contention_steps = int(nnz / (max(out_rows, 1.0) * 32.0))
        return ex.record(
            "mttkrp_blco",
            flops=nnz * r * ndim,
            reads=reads,
            writes=writes,
            parallel_work=nnz * r,
            unique_words=unique,
            working_set_words=(other_distinct + out_rows) * r * MTTKRP_LOCALITY["blco"],
            launches=1,
            serial_steps=contention_steps,
            traffic_kind="gather",
        )

    if fmt == "csf":
        # Tree walk: values once, per-node factor rows at each level, fiber
        # pointers once. Reuse across a fiber's leaves is structural (the
        # partial product), so logical gather traffic is per *node*, not per
        # nonzero — CSF's compression advantage.
        levels = stats.csf_level_sizes or tuple(
            min(nnz, float(prod(stats.shape[: l + 1]))) for l in range(ndim)
        )
        inner_nodes = sum(levels[1:])
        reads = nnz + sum(levels) + inner_nodes * r
        writes = out_rows * r + inner_nodes * r * 0.5
        unique = nnz + sum(levels) + other_distinct * r + out_rows * r
        return ex.record(
            "mttkrp_csf",
            flops=(nnz + inner_nodes) * r * 2.0,
            reads=reads,
            writes=writes,
            # SPLATT parallelizes over root subtrees, falling back to a
            # nonzero decomposition for short modes, so available parallelism
            # tracks the nonzero count, not the output row count.
            parallel_work=nnz * r,
            unique_words=unique,
            working_set_words=(other_distinct + out_rows) * r * MTTKRP_LOCALITY["csf"],
            launches=1,
            traffic_kind="gather",
        )

    if fmt in ("alto", "coo"):
        index_words = 1.0 if fmt == "alto" else float(ndim)
        reads = (1.0 + index_words) * nnz + nnz * (ndim - 1) * r + nnz * r * 0.25
        writes = out_rows * r + nnz * r * 0.25
        unique = (1.0 + index_words) * nnz + other_distinct * r + out_rows * r
        return ex.record(
            f"mttkrp_{fmt}",
            flops=nnz * r * ndim,
            reads=reads,
            writes=writes,
            parallel_work=nnz * r,
            unique_words=unique,
            working_set_words=(other_distinct + out_rows) * r * MTTKRP_LOCALITY[fmt],
            launches=1,
            traffic_kind="gather",
        )

    raise ValueError(f"unknown MTTKRP format {fmt!r}")
