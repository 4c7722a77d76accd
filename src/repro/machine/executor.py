"""The typed-kernel executor: compute in NumPy, account in simulated time.

Every operation an update method performs on the "device" goes through one
of these ops. Each op

1. computes the real result with NumPy (skipped when any operand is a
   :class:`~repro.machine.symbolic.SymArray` — the analytic, paper-scale
   mode), and
2. emits one :class:`~repro.machine.counters.KernelRecord`, converted to
   simulated seconds by the roofline model and accumulated on the
   :class:`~repro.machine.counters.Timeline`.

Op granularity mirrors the cuBLAS/cuSOLVER calls the paper's baseline uses
(DGEAM, DGEMM, DSYRK, DPOTRF, DTRSM, reductions) plus the three custom fused
kernels of cuADMM (Section 4.3.1): ``fused_auxiliary``,
``fused_prox_primal``, and ``fused_dual_update``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from repro.linalg.proximal import ProximalOperator
from repro.machine.costmodel import kernel_seconds
from repro.machine.counters import WORD_BYTES, KernelRecord, Timeline
from repro.machine.spec import DeviceSpec, get_device
from repro.machine.symbolic import SymArray, is_symbolic

__all__ = ["Executor"]


def _shape(x) -> tuple[int, ...]:
    return tuple(x.shape)


def _size(x) -> int:
    return math.prod(_shape(x))


class Executor:
    """Executes device kernels and accounts their simulated cost.

    Parameters
    ----------
    device:
        A :class:`DeviceSpec` or preset name (``"a100"``, ``"h100"``,
        ``"cpu"``).
    keep_records:
        Retain every :class:`KernelRecord` on the timeline (for tests and
        detailed traces); off by default to bound memory.
    """

    def __init__(self, device="a100", keep_records: bool = False):
        self.device: DeviceSpec = get_device(device)
        self.timeline = Timeline(keep_records=keep_records)
        self._phase = "UNPHASED"
        self.on_kernel = None
        """Optional ``(KernelRecord, seconds) -> None`` observer invoked for
        every charged kernel — the bridge an active telemetry session (see
        :mod:`repro.obs`) uses to mirror the simulated-device stream. None
        (the default) costs nothing."""

    # ------------------------------------------------------------------ #
    # Phase management and raw accounting
    # ------------------------------------------------------------------ #
    @contextmanager
    def phase(self, name: str):
        """Tag all kernels issued inside the block with phase *name*."""
        prev = self._phase
        self._phase = name
        try:
            yield self
        finally:
            self._phase = prev

    @property
    def current_phase(self) -> str:
        return self._phase

    def record(
        self,
        name: str,
        *,
        flops: float = 0.0,
        reads: float = 0.0,
        writes: float = 0.0,
        parallel_work: float = 1.0,
        unique_words: float | None = None,
        working_set_words: float | None = None,
        launches: int = 1,
        serial_steps: int = 0,
        compute_efficiency: float = 1.0,
        traffic_kind: str = "stream",
        utilization_exempt: bool = False,
    ) -> float:
        """Charge a kernel given word counts; returns its simulated seconds.

        ``reads``/``writes``/``unique_words``/``working_set_words`` are in
        *words* (float64); conversion to bytes happens here so call sites
        read like the paper's word-count analysis (Eq. 4).
        """
        rec = KernelRecord(
            name=name,
            phase=self._phase,
            flops=float(flops),
            bytes_read=float(reads) * WORD_BYTES,
            bytes_written=float(writes) * WORD_BYTES,
            parallel_work=float(parallel_work),
            unique_bytes=None if unique_words is None else float(unique_words) * WORD_BYTES,
            working_set=None
            if working_set_words is None
            else float(working_set_words) * WORD_BYTES,
            launches=launches,
            serial_steps=serial_steps,
            compute_efficiency=compute_efficiency,
            traffic_kind=traffic_kind,
            utilization_exempt=utilization_exempt,
        )
        seconds = kernel_seconds(self.device, rec)
        self.timeline.add(rec, seconds)
        if self.on_kernel is not None:
            self.on_kernel(rec, seconds)
        return seconds

    def charge_fixed(self, name: str, seconds: float) -> float:
        """Charge a fixed simulated duration (e.g. host-link streaming that
        the device's own bandwidth model must not re-price)."""
        rec = KernelRecord(
            name=name, phase=self._phase, flops=0.0, bytes_read=0.0,
            bytes_written=0.0, parallel_work=1.0, launches=0,
        )
        self.timeline.add(rec, float(seconds))
        if self.on_kernel is not None:
            self.on_kernel(rec, float(seconds))
        return float(seconds)

    def _out(self, template, shape):
        """Symbolic or concrete result placeholder."""
        return SymArray(shape) if is_symbolic(template) else None

    # ------------------------------------------------------------------ #
    # BLAS-1 style elementwise kernels (DGEAM / custom)
    # ------------------------------------------------------------------ #
    def copy(self, a, name: str = "dcopy"):
        """``out = a`` (DCOPY): reads n, writes n."""
        n = _size(a)
        self.record(name, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else np.array(a, copy=True)

    def geam(self, alpha: float, a, beta: float, b, name: str = "dgeam"):
        """``alpha·A + beta·B`` (cuBLAS DGEAM): reads 2n, writes n."""
        n = _size(a)
        self.record(name, flops=3 * n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return alpha * np.asarray(a) + beta * np.asarray(b)

    def add(self, a, b, name: str = "dgeam_add"):
        return self.geam(1.0, a, 1.0, b, name=name)

    def sub(self, a, b, name: str = "dgeam_sub"):
        return self.geam(1.0, a, -1.0, b, name=name)

    def hadamard(self, a, b, name: str = "hadamard"):
        """Element-wise product: reads 2n, writes n."""
        n = _size(a)
        self.record(name, flops=n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return np.asarray(a) * np.asarray(b)

    def elementwise_div(self, a, b, eps: float = 0.0, name: str = "elementwise_div"):
        """``a / (b + eps)``: reads 2n, writes n (MU's core kernel)."""
        n = _size(a)
        self.record(name, flops=2 * n, reads=2 * n, writes=n, parallel_work=n)
        if is_symbolic(a, b):
            return SymArray(_shape(a))
        return np.asarray(a) / (np.asarray(b) + eps)

    def scale(self, alpha: float, a, name: str = "dscal"):
        n = _size(a)
        self.record(name, flops=n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else alpha * np.asarray(a)

    def clip_min(self, a, lo: float = 0.0, name: str = "clip_min"):
        """Elementwise ``max(a, lo)`` (HALS's projection)."""
        n = _size(a)
        self.record(name, flops=n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(a)) if is_symbolic(a) else np.maximum(np.asarray(a), lo)

    def col_scale(self, a, scale, name: str = "col_scale"):
        """``A · diag(scale)`` — re-applies λ to a normalized factor."""
        n = _size(a)
        self.record(name, flops=n, reads=n + _shape(a)[1], writes=n, parallel_work=n)
        if is_symbolic(a, scale):
            return SymArray(_shape(a))
        return np.asarray(a) * np.asarray(scale)[None, :]

    def normalize_columns(self, a, kind: str = "max", name: str = "normalize_columns"):
        """Column normalization + λ extraction (line 11 of Algorithm 1).

        One reduction pass (column norms) plus one scaling pass: reads 2n,
        writes n + R.
        """
        n = _size(a)
        rank = _shape(a)[1]
        self.record(name, flops=3 * n, reads=2 * n, writes=n + rank, parallel_work=n)
        if is_symbolic(a):
            return SymArray(_shape(a)), SymArray((rank,))
        from repro.kernels.normalize import normalize_factor

        return normalize_factor(np.asarray(a), kind=kind)

    def norm_sq(self, a, name: str = "norm_sq") -> float:
        """Squared Frobenius norm reduction; NaN in symbolic mode."""
        n = _size(a)
        self.record(name, flops=2 * n, reads=n, writes=1, parallel_work=n)
        if is_symbolic(a):
            return float("nan")
        flat = np.asarray(a, dtype=np.float64).ravel()
        return float(np.dot(flat, flat))

    def prox(self, op: ProximalOperator, x, rho: float, name: str | None = None):
        """Apply a proximity operator as a standalone elementwise kernel."""
        n = _size(x)
        self.record(name or f"prox_{op.name}", flops=2 * n, reads=n, writes=n, parallel_work=n)
        return SymArray(_shape(x)) if is_symbolic(x) else op(x, rho)

    # ------------------------------------------------------------------ #
    # BLAS-2/3 kernels
    # ------------------------------------------------------------------ #
    def gemm(self, a, b, name: str = "dgemm", out=None):
        """``A @ B``: flops 2·m·k·n, streaming traffic, GEMM efficiency.

        A concrete product is written into *out* when given (C-contiguous,
        float64, m×n, sharing no memory with *a* or *b*).
        """
        m, k = _shape(a)
        k2, n = _shape(b)
        if k != k2:
            raise ValueError(f"gemm shape mismatch: {(m, k)} @ {(k2, n)}")
        self.record(
            name,
            flops=2.0 * m * k * n,
            reads=m * k + k * n,
            writes=m * n,
            parallel_work=m * n,
            compute_efficiency=self.device.gemm_efficiency,
        )
        if is_symbolic(a, b):
            return SymArray((m, n))
        return np.matmul(np.asarray(a), np.asarray(b), out=out)

    def gemv(self, a, x, name: str = "dgemv"):
        """``A @ x``: flops 2·m·n (HALS's per-rank kernel)."""
        m, n = _shape(a)
        self.record(
            name,
            flops=2.0 * m * n,
            reads=m * n + n,
            writes=m,
            # Every product in the m×n sweep is independent work before the
            # row reductions, so occupancy scales with m·n, not m.
            parallel_work=float(m) * n,
            compute_efficiency=self.device.gemm_efficiency,
        )
        if is_symbolic(a, x):
            return SymArray((m,))
        return np.asarray(a) @ np.asarray(x)

    def gram(self, h, name: str = "dsyrk_gram"):
        """``HᵀH`` (DSYRK): flops I·R², reads I·R, writes R²."""
        i, r = _shape(h)
        self.record(
            name,
            flops=float(i) * r * r,
            reads=float(i) * r,
            writes=r * r,
            parallel_work=float(i) * r,
            compute_efficiency=self.device.gemm_efficiency,
        )
        if is_symbolic(h):
            return SymArray((r, r))
        h = np.asarray(h)
        return h.T @ h

    # ------------------------------------------------------------------ #
    # Factorization / solve kernels
    # ------------------------------------------------------------------ #
    def cholesky(self, s, name: str = "dpotrf"):
        """Cholesky of an R×R SPD matrix: R³/3 flops, R serialized steps.

        Charged with a substantial fixed library-call cost (``launches=40``):
        a cuSOLVER DPOTRF involves a workspace query, allocation, and a
        multi-kernel panel factorization — on small factor matrices this
        setup dominates a whole ADMM iteration, which is what flattens the
        Figure 4 speedups for NIPS/Enron-class tensors.
        """
        r, r2 = _shape(s)
        if r != r2:
            raise ValueError("cholesky needs a square matrix")
        self.record(
            name,
            flops=r**3 / 3.0,
            reads=r * r,
            writes=r * r,
            parallel_work=r * r,
            launches=40,
            serial_steps=r,
            compute_efficiency=self.device.trsm_efficiency,
            utilization_exempt=True,
        )
        if is_symbolic(s):
            return SymArray((r, r))
        return np.linalg.cholesky(np.asarray(s, dtype=np.float64))

    def trsm(self, l_factor, b, lower: bool = True, transpose: bool = False,
             name: str = "dtrsm", *, check_finite: bool = True,
             overwrite_b: bool = False):
        """Triangular solve ``op(L) X = B`` with ``B`` R×n.

        Serialized over R dependent substitution steps — the GPU pathology
        pre-inversion eliminates (Section 4.3.2). ``check_finite`` and
        ``overwrite_b`` are SciPy's: the first scans both operands for
        NaN/Inf and raises ``ValueError``; the second lets the solve write
        into *b*, in place when *b* is float64 and F-contiguous.
        """
        r, r2 = _shape(l_factor)
        rb, nrhs = _shape(b)
        if r != r2 or rb != r:
            raise ValueError(f"trsm shape mismatch: L {(r, r2)}, B {(rb, nrhs)}")
        self.record(
            name,
            flops=float(r) * r * nrhs,
            reads=r * r / 2.0 + float(r) * nrhs,
            writes=float(r) * nrhs,
            parallel_work=float(nrhs) * r,
            launches=6,  # blocked multi-kernel solve (cuBLAS DTRSM internals)
            serial_steps=r,
            compute_efficiency=self.device.trsm_efficiency,
            utilization_exempt=True,
        )
        if is_symbolic(l_factor, b):
            return SymArray((r, nrhs))
        mat = np.asarray(l_factor, dtype=np.float64)
        return scipy.linalg.solve_triangular(
            mat.T if transpose else mat, np.asarray(b, dtype=np.float64),
            lower=lower != transpose, check_finite=check_finite,
            overwrite_b=overwrite_b,
        )

    def cholesky_solve(self, l_factor, b, *, check_finite: bool = True,
                       overwrite_b: bool = False):
        """``(LLᵀ)⁻¹ B`` via forward+backward substitution (two DTRSM).

        The flags are :meth:`trsm`'s for the first solve; the second always
        overwrites the intermediate, which no caller sees. An F-contiguous
        *b* (the transpose of a C-contiguous I×R array) with
        ``overwrite_b=True`` is solved in place and returned.
        """
        y = self.trsm(l_factor, b, lower=True, transpose=False, name="dtrsm_fwd",
                      check_finite=check_finite, overwrite_b=overwrite_b)
        return self.trsm(l_factor, y, lower=True, transpose=True, name="dtrsm_bwd",
                         check_finite=check_finite, overwrite_b=True)

    def spd_inverse(self, l_factor, name: str = "dpotri"):
        """Explicit ``(LLᵀ)⁻¹`` — cuADMM's one-off pre-inversion."""
        r, _ = _shape(l_factor)
        if is_symbolic(l_factor):
            self.cholesky_solve(l_factor, SymArray((r, r)))
            return SymArray((r, r))
        inv = self.cholesky_solve(l_factor, np.eye(r))
        return 0.5 * (inv + inv.T)

    # ------------------------------------------------------------------ #
    # cuADMM fused kernels (Section 4.3.1)
    # ------------------------------------------------------------------ #
    def fused_auxiliary(self, m, h, u, rho: float, name: str = "fused_auxiliary",
                        out=None):
        """``H̃ = M + ρ(H + U)`` in one kernel: 3n reads, n writes.

        The unfused equivalent is two DGEAM calls (4n reads, 2n writes) —
        the ~33 % traffic saving the paper quotes. A concrete result is
        written into *out* when given (float64, M's shape, sharing no memory
        with the operands).
        """
        n = _size(m)
        self.record(name, flops=3 * n, reads=3 * n, writes=n, parallel_work=n)
        if is_symbolic(m, h, u):
            return SymArray(_shape(m))
        out = np.add(h, u, out=out)
        np.multiply(rho, out, out=out)
        return np.add(m, out, out=out)

    def fused_prox_primal(self, op: ProximalOperator, h_aux, u, rho: float,
                          name: str = "fused_prox_primal", work=None):
        """``H = prox_r(H̃ - U)`` in one kernel.

        No intermediate global store of ``H̃ - U`` as a *separate kernel's*
        output; the kernel reads H̃ and U (2n) and writes the new primal H
        plus the difference tile the dual kernel consumes (2n). This is the
        conservative traffic accounting: fusion removes kernel round-trips,
        not the fundamental stores.

        A concrete ``H̃ - U`` is formed in *work* when given (float64, H̃'s
        shape, sharing no memory with *h_aux* or *u*). The returned H is
        never *work*: an operator that answers in place is copied out.
        """
        n = _size(h_aux)
        self.record(name, flops=3 * n, reads=2 * n, writes=2 * n, parallel_work=n)
        if is_symbolic(h_aux, u):
            return SymArray(_shape(h_aux))
        arg = np.subtract(h_aux, u, out=work)
        h_new = op(arg, rho)
        if work is not None and np.may_share_memory(h_new, work):
            h_new = np.array(h_new, copy=True)
        return h_new

    def fused_dual_update(self, u, h, h_aux, h_prev, name: str = "fused_dual_update",
                          work=None):
        """Dual update and all four convergence reductions in one kernel.

        Computes ``ΔH = H - H̃``, ``U += ΔH``, and co-computes
        ``‖ΔH‖², ‖H‖², ‖H - H_prev‖², ‖U‖²`` while the operands are in
        registers: 5n reads (U, H, H̃, H_prev, plus the prox kernel's
        difference tile), 2n writes (U and the materialized ΔH), versus the
        unfused path's three DGEAMs plus four separate reduction kernels.

        A concrete ΔH and ``H - H_prev`` are formed, one after the other, in
        *work* when given (float64, U's shape). *work* may be *h_aux* itself,
        which is dead once ΔH is formed; it shares no memory with the other
        operands. The new U is always a fresh array.
        """
        n = _size(u)
        self.record(name, flops=10 * n, reads=5 * n, writes=2 * n, parallel_work=n)
        if is_symbolic(u, h, h_aux, h_prev):
            nan = float("nan")
            return SymArray(_shape(u)), nan, nan, nan, nan
        u = np.asarray(u)
        h = np.asarray(h)
        dh = np.subtract(h, h_aux, out=work)
        u_new = u + dh
        dh_sq = float(np.vdot(dh, dh).real)
        d_prev = np.subtract(h, h_prev, out=work)
        return (
            u_new,
            dh_sq,
            float(np.vdot(h, h).real),
            float(np.vdot(d_prev, d_prev).real),
            float(np.vdot(u_new, u_new).real),
        )
