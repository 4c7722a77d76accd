"""BLCO MTTKRP: the block-streaming GPU algorithm (Nguyen et al., ICS '22).

Each BLCO block is processed as one kernel launch would be on the GPU: the
in-block linearized indices are decoded with two shift/mask operations per
mode, the scaled Khatri-Rao rows are formed, and contributions are reduced
into the output. The per-block structure matters for the machine model —
block count determines launch overhead and per-block working sets determine
cache behaviour — and for correctness under the blocked index compression.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.mttkrp import check_factors, traced_mttkrp
from repro.kernels.mttkrp_coo import segment_accumulate
from repro.obs import current_telemetry
from repro.tensor.blco import BlcoTensor
from repro.utils.validation import check_axis

__all__ = ["mttkrp_blco", "record_block_balance"]


def record_block_balance(tensor: BlcoTensor) -> None:
    """Gauge the block-count and nnz load imbalance for the run doctor.

    Imbalance is max/mean nonzeros per block — the GPU figure of merit,
    since the fattest block bounds every launch. Computed only when a
    telemetry session is live; the kernel stays gauge-free otherwise.
    Called per MTTKRP by this kernel and by the engine's BLCO path.
    """
    tel = current_telemetry()
    if not tel.enabled or not tensor.blocks:
        return
    sizes = [block.nnz for block in tensor.blocks]
    mean = sum(sizes) / len(sizes)
    tel.gauge("mttkrp.blco.blocks", float(len(sizes)))
    tel.gauge("mttkrp.blco.block_imbalance",
              max(sizes) / mean if mean > 0 else 1.0)


@traced_mttkrp("blco")
def mttkrp_blco(tensor: BlcoTensor, factors, mode: int) -> np.ndarray:
    """MTTKRP over a BLCO tensor; returns ``(shape[mode], R)``."""
    mode = check_axis(mode, tensor.ndim)
    rank = check_factors(tensor.shape, factors, mode)
    out = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    if tensor.nnz == 0:
        return out
    record_block_balance(tensor)

    fmats = [np.asarray(f, dtype=np.float64) for f in factors]
    for block in tensor.blocks:
        acc = np.broadcast_to(block.values[:, None], (block.nnz, rank)).copy()
        for m in range(tensor.ndim):
            if m == mode:
                continue
            acc *= fmats[m][tensor.block_mode_indices(block, m)]
        targets = tensor.block_mode_indices(block, mode)
        # Blocks own disjoint high-bit regions only in blocked modes; in
        # general several blocks may hit the same output rows, so accumulate.
        out += segment_accumulate(acc, targets, tensor.shape[mode])
    return out
