"""BLCO: Blocked Linearized COOrdinate format (Nguyen et al., ICS '22).

BLCO is the state-of-the-art GPU sparse-tensor format for MTTKRP, and the one
the paper's cSTF-GPU framework uses. Each nonzero is stored as a single
fixed-width linearized index (concatenated per-mode bit fields). Tensors
whose total index bits exceed the word budget are split into *blocks*: the
overflowing high-order bits form a block key shared by every nonzero in the
block, and only the low-order bits are stored per nonzero.

This mirrors the real format's trade-off: a small per-block header plus a
dense stream of word-sized indices that GPU threads can decode with two
shift/mask instructions per mode — which is what
:func:`repro.kernels.mttkrp_blco.mttkrp_blco` emulates block-by-block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor import linearize as lin
from repro.tensor.coo import SparseTensor
from repro.utils.validation import check_axis, require

__all__ = ["BlcoBlock", "BlcoTensor", "block_keys", "split_bit_widths"]

#: Default in-block index budget, matching the 48-bit effective element index
#: the BLCO GPU kernels use on 64-bit words (the remainder is metadata).
DEFAULT_BIT_BUDGET = 48


def split_bit_widths(widths: list[int], budget: int) -> tuple[list[int], list[int]]:
    """Split per-mode bit widths into (low, high) so ``sum(low) <= budget``.

    High bits are stripped one at a time from the mode with the widest
    remaining low field (ties to the lower mode id), which balances block
    counts across long modes the way the BLCO generator does.
    """
    require(budget >= 1, f"bit budget must be >= 1, got {budget}")
    low = list(widths)
    high = [0] * len(widths)
    while sum(low) > budget:
        mode = max(range(len(low)), key=lambda m: (low[m], -m))
        if low[mode] == 0:  # pragma: no cover - cannot happen while sum>budget
            raise ValueError("cannot satisfy bit budget")
        low[mode] -= 1
        high[mode] += 1
    return low, high


def block_keys(indices: np.ndarray, low: list[int], high: list[int]) -> np.ndarray:
    """Packed block key of every ``(nnz, ndim)`` coordinate row: each mode's
    high bits (above its ``low`` field) at its concatenated ``high`` offset."""
    high_off = lin.concat_bit_offsets(high)
    key = np.zeros(indices.shape[0], dtype=np.int64)
    for mode, bits in enumerate(high):
        if bits:
            key |= (indices[:, mode] >> low[mode]) << high_off[mode]
    return key


@dataclass(frozen=True)
class BlcoBlock:
    """One BLCO block: a shared high-bit coordinate plus packed low bits."""

    key: int
    """Packed high-order bits identifying the block."""

    high: np.ndarray
    """Per-mode high-bit values (``ndim`` int64); the block's coordinate
    origin is ``high << low_width`` in every mode."""

    linear: np.ndarray
    """``(block_nnz,)`` packed low-order linearized indices."""

    values: np.ndarray
    """``(block_nnz,)`` float64 values."""

    @property
    def nnz(self) -> int:
        return self.values.shape[0]


class BlcoTensor:
    """Sparse tensor in blocked linearized coordinate format."""

    __slots__ = ("_shape", "_low", "_high", "_offsets", "_blocks")

    def __init__(self, shape, low_widths, high_widths, blocks):
        self._shape = tuple(int(d) for d in shape)
        self._low = list(low_widths)
        self._high = list(high_widths)
        self._offsets = lin.concat_bit_offsets(self._low)
        self._blocks = list(blocks)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, tensor: SparseTensor, bit_budget: int = DEFAULT_BIT_BUDGET) -> "BlcoTensor":
        """Encode a COO tensor, splitting into blocks as the budget requires."""
        widths = lin.mode_bit_widths(tensor.shape)
        low, high = split_bit_widths(widths, bit_budget)
        low_off = lin.concat_bit_offsets(low)
        high_off = lin.concat_bit_offsets(high)

        idx = tensor.indices
        nnz = tensor.nnz
        low_coords = np.empty_like(idx)
        for mode in range(len(widths)):
            low_coords[:, mode] = idx[:, mode] & ((np.int64(1) << low[mode]) - 1)
        key = block_keys(idx, low, high)

        linear = lin.encode_concat(low_coords, low, low_off)

        blocks: list[BlcoBlock] = []
        if nnz:
            order = np.lexsort((linear, key))
            key = key[order]
            linear = linear[order]
            values = tensor.values[order]
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            # Every block header decoded in one array expression; a mode
            # with no high bits has an all-zero mask.
            block_key = key[starts]
            highs = (
                block_key[:, None] >> np.asarray(high_off, dtype=np.int64)
            ) & ((np.int64(1) << np.asarray(high, dtype=np.int64)) - 1)
            bounds = np.append(starts, nnz).tolist()
            blocks = [
                BlcoBlock(
                    key=k, high=h, linear=linear[a:b], values=values[a:b]
                )
                for k, h, a, b in zip(
                    block_key.tolist(), highs, bounds[:-1], bounds[1:]
                )
            ]
        return cls(tensor.shape, low, high, blocks)

    def to_coo(self) -> SparseTensor:
        """Decode back to canonical COO form."""
        if not self._blocks:
            return SparseTensor(
                np.zeros((0, self.ndim), dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                self._shape,
            )
        chunks_idx = []
        chunks_val = []
        for block in self._blocks:
            coords = lin.decode_concat(block.linear, self._low, self._offsets)
            for mode in range(self.ndim):
                if self._high[mode]:
                    coords[:, mode] |= block.high[mode] << self._low[mode]
            chunks_idx.append(coords)
            chunks_val.append(block.values)
        return SparseTensor(np.vstack(chunks_idx), np.concatenate(chunks_val), self._shape)

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def blocks(self) -> list[BlcoBlock]:
        return self._blocks

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def nnz(self) -> int:
        return int(sum(b.nnz for b in self._blocks))

    @property
    def low_widths(self) -> list[int]:
        """Per-mode bit widths stored in the packed in-block index."""
        return list(self._low)

    @property
    def high_widths(self) -> list[int]:
        """Per-mode bit widths folded into the block key."""
        return list(self._high)

    def block_mode_indices(self, block: BlcoBlock, mode: int) -> np.ndarray:
        """Full coordinates along *mode* for one block (two shifts + or)."""
        mode = check_axis(mode, self.ndim)
        width = self._low[mode]
        mask = (np.int64(1) << width) - 1
        out = (block.linear >> self._offsets[mode]) & mask
        if self._high[mode]:
            out = out | (block.high[mode] << width)
        return out

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self._shape)
        return (
            f"BlcoTensor(shape={dims}, nnz={self.nnz}, blocks={self.num_blocks}, "
            f"low_bits={sum(self._low)})"
        )
