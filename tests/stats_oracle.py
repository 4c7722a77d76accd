"""Format-built tensor statistics as a reference for ``TensorStats.from_coo``.

:func:`reference_stats` reads every field off a real conversion: distinct
indices from ``np.unique`` per mode, the block count from
:meth:`BlcoTensor.from_coo <repro.tensor.blco.BlcoTensor.from_coo>` and the
level sizes from the root-0 :meth:`CsfTensor.from_coo
<repro.tensor.csf.CsfTensor.from_coo>` tree. ``TensorStats.from_coo``
counts the same quantities straight from the sorted COO arrays, so the two
must be equal dataclasses on every tensor and bit budget.
"""

from __future__ import annotations

import numpy as np

from repro.machine.analytic import TensorStats
from repro.tensor.blco import BlcoTensor
from repro.tensor.csf import CsfTensor

__all__ = ["reference_stats"]


def reference_stats(tensor, bit_budget: int = 48) -> TensorStats:
    """Statistics of *tensor* from its BLCO and CSF conversions."""
    blco = BlcoTensor.from_coo(tensor, bit_budget=bit_budget)
    csf = CsfTensor.from_coo(tensor, root_mode=0)
    return TensorStats(
        shape=tensor.shape,
        nnz=tensor.nnz,
        distinct=tuple(
            float(np.unique(tensor.indices[:, m]).size) for m in range(tensor.ndim)
        ),
        num_blocks=max(blco.num_blocks, 1),
        csf_level_sizes=tuple(float(s) for s in csf.level_sizes()),
    )
