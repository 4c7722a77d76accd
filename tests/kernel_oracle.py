"""The per-format kernel oracle as a cSTF-level MTTKRP reference.

Every concrete ``cstf`` MTTKRP goes through
:func:`repro.engine.driver.engine_mttkrp`. Inside :func:`kernel_oracle`
that name is routed to :func:`oracle_mttkrp`: the uncached
:mod:`repro.kernels` kernel of the run's format, over a format conversion
built afresh on every call. ``EngineMttkrp.compute`` still charges the
simulated cost, so a routed run is an engine-independent reference for
factors, fits and simulated timelines. Engine settings, faults and events
are ignored inside it.

Used by the ``kernel_oracle`` fixture (``tests/conftest.py``) and by the
engine-equivalence stage of ``scripts/run_fault_suite.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.kernels.mttkrp_alto import mttkrp_alto
from repro.kernels.mttkrp_blco import mttkrp_blco
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.kernels.mttkrp_csf import mttkrp_csf
from repro.tensor.alto import AltoTensor
from repro.tensor.blco import BlcoTensor
from repro.tensor.csf import CsfTensor

__all__ = ["kernel_oracle", "oracle_mttkrp"]


def oracle_mttkrp(tensor, factors, mode, fmt="coo", *_engine_args, **_engine_kwargs):
    """The :mod:`repro.kernels` MTTKRP for *fmt*, converted fresh per call;
    takes (and ignores) the rest of ``engine_mttkrp``'s signature."""
    if fmt == "coo":
        return mttkrp_coo(tensor, factors, mode)
    if fmt == "alto":
        return mttkrp_alto(AltoTensor.from_coo(tensor), factors, mode)
    if fmt == "blco":
        return mttkrp_blco(BlcoTensor.from_coo(tensor), factors, mode)
    if fmt == "csf":
        return mttkrp_csf(CsfTensor.from_coo(tensor, root_mode=mode), factors, mode)
    raise ValueError(f"no kernel oracle for format {fmt!r}")


@contextmanager
def kernel_oracle():
    """Route cstf's MTTKRP to :func:`oracle_mttkrp` for the block's duration."""
    with mock.patch("repro.engine.driver.engine_mttkrp", oracle_mttkrp):
        yield
