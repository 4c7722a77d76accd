"""MTTKRP dispatch and the dense reference implementation.

See Section 2.2 of the paper: for a mode-3 tensor the mode-1 MTTKRP is
``X_(1) (B ⊙ C)``; sparse kernels never materialize the Khatri-Rao product
but compute its rows on the fly per nonzero (Figure 2).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.obs import current_telemetry
from repro.tensor.alto import AltoTensor
from repro.tensor.blco import BlcoTensor
from repro.tensor.coo import SparseTensor
from repro.tensor.csf import CsfTensor
from repro.tensor.dense import DenseTensor, matricize
from repro.tensor.hicoo import HicooTensor
from repro.utils.validation import check_axis, require

__all__ = [
    "khatri_rao", "mttkrp_dense", "mttkrp", "check_factors", "traced_mttkrp",
    "mttkrp_kernel_span",
]


def mttkrp_kernel_span(fmt: str, mode: int):
    """Telemetry of one MTTKRP kernel call, shared by every MTTKRP path.

    Bumps the ``mttkrp.calls.<fmt>`` counter and returns the host span
    (``with mttkrp_kernel_span(fmt, mode): ...``) named ``mttkrp_kernel``,
    carrying the storage format and target mode. With no ambient telemetry
    session this is two attribute lookups and a no-op context — effectively
    free next to the kernel body.
    """
    tel = current_telemetry()
    tel.counter(f"mttkrp.calls.{fmt}")
    return tel.span("mttkrp_kernel", format=fmt, mode=mode)


def traced_mttkrp(fmt: str):
    """Decorate a per-format ``kernel(tensor, factors, mode)`` function
    with :func:`mttkrp_kernel_span`; the undecorated kernel stays reachable
    as ``__wrapped__``."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(tensor, factors, mode, *args, **kwargs):
            with mttkrp_kernel_span(fmt, mode):
                return fn(tensor, factors, mode, *args, **kwargs)

        return wrapper

    return decorate


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Khatri-Rao product of a sequence of matrices.

    All inputs must share the same column count R; the result has
    ``prod(rows)`` rows with the *leftmost* matrix's index slowest — matching
    the C-order matricization of :mod:`repro.tensor.dense`.
    """
    matrices = [np.asarray(m, dtype=np.float64) for m in matrices]
    require(len(matrices) >= 1, "khatri_rao needs at least one matrix")
    rank = matrices[0].shape[1]
    for m in matrices:
        require(m.ndim == 2 and m.shape[1] == rank, "all factors must share the rank")
    out = matrices[0]
    for m in matrices[1:]:
        # (I, R) ⊙ (J, R) -> (I*J, R): broadcasting the row dimensions.
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, rank)
    return out


def check_factors(shape, factors, mode=None) -> int:
    """Validate factor-matrix shapes against *shape*; return the rank."""
    require(len(factors) == len(shape), f"expected {len(shape)} factors, got {len(factors)}")
    rank = None
    for n, (dim, f) in enumerate(zip(shape, factors)):
        f = np.asarray(f)
        require(f.ndim == 2, f"factor {n} must be 2-D")
        if mode is not None and n == mode:
            # The target mode's factor is not read by MTTKRP; its row count
            # may differ mid-update, but the rank must still agree.
            pass
        else:
            require(
                f.shape[0] == dim,
                f"factor {n} has {f.shape[0]} rows but mode length is {dim}",
            )
        if rank is None:
            rank = f.shape[1]
        require(f.shape[1] == rank, f"factor {n} rank {f.shape[1]} != {rank}")
    return int(rank)  # type: ignore[arg-type]


@traced_mttkrp("dense")
def mttkrp_dense(tensor, factors, mode: int) -> np.ndarray:
    """Dense oracle: ``matricize(X, mode) @ khatri_rao(other factors)``.

    Quadratic in memory for large tensors — used by the dense baseline and
    as the ground truth in the sparse-kernel tests.
    """
    data = tensor.data if isinstance(tensor, DenseTensor) else np.asarray(tensor, dtype=np.float64)
    mode = check_axis(mode, data.ndim)
    check_factors(data.shape, factors, mode)
    others = [np.asarray(factors[m], dtype=np.float64) for m in range(data.ndim) if m != mode]
    return matricize(data, mode) @ khatri_rao(others)


def mttkrp(tensor, factors, mode: int) -> np.ndarray:
    """Dispatch MTTKRP to the kernel matching the tensor's storage format."""
    # Local imports avoid a cycle (format kernels import helpers from here).
    from repro.kernels.mttkrp_alto import mttkrp_alto
    from repro.kernels.mttkrp_blco import mttkrp_blco
    from repro.kernels.mttkrp_coo import mttkrp_coo
    from repro.kernels.mttkrp_csf import mttkrp_csf
    from repro.kernels.mttkrp_hicoo import mttkrp_hicoo

    if isinstance(tensor, SparseTensor):
        return mttkrp_coo(tensor, factors, mode)
    if isinstance(tensor, CsfTensor):
        return mttkrp_csf(tensor, factors, mode)
    if isinstance(tensor, AltoTensor):
        return mttkrp_alto(tensor, factors, mode)
    if isinstance(tensor, BlcoTensor):
        return mttkrp_blco(tensor, factors, mode)
    if isinstance(tensor, HicooTensor):
        return mttkrp_hicoo(tensor, factors, mode)
    if isinstance(tensor, (DenseTensor, np.ndarray)):
        return mttkrp_dense(tensor, factors, mode)
    raise TypeError(f"no MTTKRP kernel for {type(tensor).__name__}")
