"""Incremental (streaming) constrained CP factorization.

Model: the tensor is ``X ∈ R^{I₁×…×I_{N-1}×T}`` with time as the last mode;
slice ``X_t`` (an ``(N-1)``-mode sparse tensor) arrives at step *t*. We
maintain nonnegative factors ``H⁽¹⁾…H⁽ᴺ⁻¹⁾`` and grow the temporal factor
one row per step.

Per step (cf. Soh et al., IPDPS '21):

1. **Temporal row** — solve the rank-R nonnegative least-squares problem
   for the new time row against the fixed spatial factors (closed-form
   ridge solve + projection; a single R×R system).
2. **History accumulation** — exponentially decay the running per-mode
   MTTKRP accumulators and temporal Gram by the forgetting factor γ, then
   add the new slice's contributions (one slice-MTTKRP per mode, weighted
   by the new temporal row).
3. **Factor refresh** — one warm-started constraint update (ADMM/cuADMM/
   MU/HALS) per spatial mode against the accumulated history.

All device work flows through an :class:`~repro.machine.Executor`, so the
streaming path reports the same simulated per-phase costs as the batch
driver, and the speed advantage of streaming over refitting is measurable
in simulated device time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.kruskal import KruskalTensor
from repro.core.trace import PHASE_GRAM, PHASE_MTTKRP, PHASE_NORMALIZE, PHASE_UPDATE
from repro.engine.batched import all_mode_krp_rows
from repro.kernels.mttkrp_coo import segment_accumulate
from repro.machine.executor import Executor
from repro.obs import resolve_telemetry
from repro.resilience.events import SLICE_SKIPPED, EventLog
from repro.tensor.coo import SparseTensor
from repro.updates.base import get_update
from repro.utils.npzio import write_npz_atomic
from repro.utils.rng import as_generator
from repro.utils.validation import check_rank, check_shape, require

__all__ = ["StreamingCstf", "StreamStep"]


@dataclass(frozen=True)
class StreamStep:
    """Outcome of ingesting one time slice."""

    step: int
    slice_fit: float
    """Fit of the model's new temporal row against the ingested slice."""

    seconds: float
    """Simulated device seconds spent on this step."""

    skipped: bool = False
    """True when the slice was rejected (all-zero or non-finite) and the
    history accumulators were left untouched; a zero temporal row keeps the
    time axis aligned."""


class StreamingCstf:
    """Streaming nonnegative CP over a time-sliced sparse tensor.

    Parameters
    ----------
    spatial_shape:
        Dimensions of the non-temporal modes.
    rank:
        CP rank.
    update:
        Constraint update for the spatial factors (default cuADMM with few
        inner iterations — warm starts converge fast).
    forgetting:
        γ ∈ (0, 1]: weight decay of history per step (1.0 = never forget).
    refresh_every:
        Refresh spatial factors every k-th step (1 = every step).
    telemetry:
        ``"auto"`` (join an ambient :func:`~repro.obs.telemetry_session`,
        else off), ``"off"``/``"on"``, or a ``Telemetry`` instance.
    """

    def __init__(
        self,
        spatial_shape,
        rank: int,
        update="cuadmm",
        device="a100",
        forgetting: float = 0.98,
        inner_iters: int = 3,
        refresh_every: int = 1,
        seed=0,
        telemetry="auto",
    ):
        self.spatial_shape = check_shape(spatial_shape, min_modes=2)
        self.rank = check_rank(rank)
        require(0.0 < forgetting <= 1.0, "forgetting must be in (0, 1]")
        require(refresh_every >= 1, "refresh_every must be >= 1")
        self.forgetting = float(forgetting)
        self.refresh_every = int(refresh_every)
        # Remember how the stream was configured so save()/load() can
        # round-trip it; non-string update/device objects can't be named in
        # a checkpoint, so they persist as None (load falls back to its
        # explicit arguments or the historical defaults).
        self._ctor_meta = {
            "update": update if isinstance(update, str) else None,
            "device": device if isinstance(device, str) else None,
            "inner_iters": int(inner_iters),
        }
        self.executor = Executor(device)
        self.update = get_update(
            update,
            **({"inner_iters": inner_iters} if update in ("admm", "cuadmm") else {}),
        )
        rng = as_generator(seed)
        # Spatial factors stay column-normalized throughout (the CP-stream
        # convention): all scale lives in the temporal rows, which keeps the
        # history accumulators and the current Gram matrices on the same
        # scale — without this, alternating refreshes diverge.
        self.factors = []
        for dim in self.spatial_shape:
            f = np.asarray(rng.random((dim, self.rank)), dtype=np.float64)
            self.factors.append(f / np.linalg.norm(f, axis=0))
        self.temporal_rows: list[np.ndarray] = []
        self._state = self.update.init_state(tuple(self.spatial_shape), self.rank)
        # Exponentially weighted history.
        self._hist_mttkrp = [np.zeros((dim, self.rank)) for dim in self.spatial_shape]
        self._hist_temporal_gram = np.zeros((self.rank, self.rank))
        self._grams = [f.T @ f for f in self.factors]
        self._step = 0
        self.events = EventLog()
        """Resilience log: one :class:`ResilienceEvent` per skipped slice."""
        self.telemetry = resolve_telemetry(telemetry)
        self.telemetry.attach_executor(self.executor)
        self.telemetry.attach_events(self.events)

    # ------------------------------------------------------------------ #
    @property
    def steps_ingested(self) -> int:
        return self._step

    def temporal_factor(self) -> np.ndarray:
        """The temporal factor accumulated so far, ``(steps, R)``."""
        if not self.temporal_rows:
            return np.zeros((0, self.rank))
        return np.vstack(self.temporal_rows)

    def model(self) -> KruskalTensor:
        """The current streaming model over all ingested steps."""
        require(self._step > 0, "no slices ingested yet")
        return KruskalTensor(self.factors + [self.temporal_factor()])

    # ------------------------------------------------------------------ #
    def ingest(self, slice_tensor: SparseTensor) -> StreamStep:
        """Ingest the next time slice and refresh the model."""
        tel = self.telemetry
        # Make the stream's own session ambient for the duration of the
        # step so the update methods' `current_telemetry()` lands here even
        # when the stream was built with an explicit Telemetry instance.
        token = tel.push()
        try:
            with tel.span("stream_step", step=self._step, nnz=int(slice_tensor.nnz)):
                out = self._ingest(slice_tensor)
        finally:
            tel.pop(token)
        tel.gauge("stream.slice_fit", out.slice_fit)
        tel.observe("stream.step_seconds", out.seconds)
        if out.skipped:
            tel.counter("stream.slices_skipped")
        return out

    def _ingest(self, slice_tensor: SparseTensor) -> StreamStep:
        require(
            slice_tensor.shape == self.spatial_shape,
            f"slice shape {slice_tensor.shape} != spatial shape {self.spatial_shape}",
        )
        # Robustness gate: an all-zero slice carries no information and a
        # non-finite one would poison every history accumulator (the γ-decay
        # never forgets a NaN). Skip-and-log instead of ingesting; a zero
        # temporal row keeps the time axis aligned with the slice sequence.
        values = np.asarray(slice_tensor.values)
        finite = bool(np.isfinite(values).all())
        if slice_tensor.nnz == 0 or not values.any() or not finite:
            reason = "non-finite values" if not finite else "all-zero slice"
            self.events.record(
                SLICE_SKIPPED, "STREAM", iteration=self._step,
                detail=f"skipped incoming slice at step {self._step}: {reason}",
                nnz=int(slice_tensor.nnz),
            )
            self._step += 1
            self.temporal_rows.append(np.zeros(self.rank, dtype=np.float64))
            return StreamStep(
                step=self._step,
                slice_fit=1.0 if finite else 0.0,
                seconds=0.0,
                skipped=True,
            )
        ex = self.executor
        start = ex.timeline.total_seconds()

        # 1. Temporal row: solve min_{s>=0} ||X_t - sum_r s_r (⊗ factors)||.
        # The batched driver shares one set of factor-row gathers between
        # this full product and the per-mode partials of step 2 (the
        # factors are fixed across all of them — the Jacobi-style pattern),
        # bit-identical to per-mode partial_khatri_rao_rows calls.
        with ex.phase(PHASE_MTTKRP):
            per_mode_rows, rows = all_mode_krp_rows(
                slice_tensor.indices, slice_tensor.values, self.factors,
                include_full=True,
            )
            m_t = rows.sum(axis=0)
            ex.record(
                "stream_temporal_mttkrp",
                flops=slice_tensor.nnz * self.rank * (len(self.spatial_shape) + 1),
                reads=slice_tensor.nnz * (len(self.spatial_shape) + 1 + self.rank),
                writes=self.rank,
                parallel_work=slice_tensor.nnz * self.rank,
                traffic_kind="gather",
            )
        with ex.phase(PHASE_UPDATE):
            s_all = self._grams[0].copy()
            for g in self._grams[1:]:
                s_all = ex.hadamard(s_all, g, name="hadamard_gram")
            ridge = 1e-10 * max(np.trace(s_all), 1.0)
            temporal_row = np.maximum(
                np.linalg.solve(s_all + ridge * np.eye(self.rank), m_t), 0.0
            )
            ex.record(
                "stream_temporal_solve",
                flops=self.rank**3 / 3 + 2.0 * self.rank**2,
                reads=self.rank * self.rank,
                writes=self.rank,
                parallel_work=self.rank * self.rank,
                serial_steps=self.rank,
                compute_efficiency=ex.device.trsm_efficiency,
                utilization_exempt=True,
            )
        self.temporal_rows.append(temporal_row)

        # 2. History accumulation with forgetting.
        gamma = self.forgetting
        with ex.phase(PHASE_MTTKRP):
            for mode, dim in enumerate(self.spatial_shape):
                contrib = per_mode_rows[mode] * temporal_row[None, :]
                acc = segment_accumulate(
                    contrib, slice_tensor.indices[:, mode], dim
                )
                self._hist_mttkrp[mode] = gamma * self._hist_mttkrp[mode] + acc
                ex.record(
                    "stream_slice_mttkrp",
                    flops=slice_tensor.nnz * self.rank * (len(self.spatial_shape) + 1),
                    reads=slice_tensor.nnz * (len(self.spatial_shape) + 1 + self.rank)
                    + dim * self.rank,
                    writes=dim * self.rank,
                    parallel_work=slice_tensor.nnz * self.rank,
                    traffic_kind="gather",
                )
        self._hist_temporal_gram = gamma * self._hist_temporal_gram + np.outer(
            temporal_row, temporal_row
        )

        # 3. Warm-started spatial factor refresh.
        self._step += 1
        if self._step % self.refresh_every == 0:
            for mode in range(len(self.spatial_shape)):
                others = [g for m, g in enumerate(self._grams) if m != mode]
                with ex.phase(PHASE_GRAM):
                    s_mat = self._hist_temporal_gram.copy()
                    for g in others:
                        s_mat = ex.hadamard(s_mat, g, name="hadamard_gram")
                with ex.phase(PHASE_UPDATE):
                    new_h = self.update.update(
                        ex, mode, self._hist_mttkrp[mode], s_mat, self.factors[mode],
                        self._state,
                    )
                with ex.phase(PHASE_NORMALIZE):
                    # Re-normalize columns; the discarded norms are re-absorbed
                    # by the next temporal-row solves, which carry all scale.
                    new_h = np.maximum(new_h, 0.0)
                    new_h, _ = ex.normalize_columns(new_h, kind="2")
                    # Revive any dead column so the Gram stays full-rank.
                    dead = ~new_h.any(axis=0)
                    if dead.any():
                        new_h[:, dead] = 1.0 / np.sqrt(new_h.shape[0])
                self.factors[mode] = new_h
                with ex.phase(PHASE_GRAM):
                    self._grams[mode] = ex.gram(new_h)

        fit = self._slice_fit(slice_tensor, temporal_row)
        return StreamStep(
            step=self._step,
            slice_fit=fit,
            seconds=ex.timeline.total_seconds() - start,
        )

    # ------------------------------------------------------------------ #
    def _slice_fit(self, slice_tensor: SparseTensor, temporal_row: np.ndarray) -> float:
        """Fit of ``Σ_r s_r · (⊗ factors_r)`` against the ingested slice."""
        norm = slice_tensor.norm()
        if norm == 0.0:
            return 1.0
        model = KruskalTensor(self.factors, temporal_row)
        residual = model.residual_norm_sq(slice_tensor, tensor_norm=norm)
        return 1.0 - float(np.sqrt(residual)) / norm

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save(self, target) -> None:
        """Checkpoint the stream state to an ``.npz`` archive.

        Captures the spatial factors, temporal rows, history accumulators
        and step counter — everything needed to resume ingestion after a
        restart. The executor's timeline is *not* persisted (it describes
        the past process, not the model). A path *target* is written
        atomically (:func:`~repro.utils.npzio.write_npz_atomic`), so a
        failed save leaves the previous checkpoint intact; a file object is
        written directly.
        """
        import json

        arrays = {
            "meta_json": np.array(
                json.dumps(
                    {
                        "format_version": 1,
                        "spatial_shape": list(self.spatial_shape),
                        "rank": self.rank,
                        "forgetting": self.forgetting,
                        "refresh_every": self.refresh_every,
                        "step": self._step,
                        # Run configuration, so load() resumes with the
                        # same update rule / device / inner iterations
                        # instead of silently reverting to defaults.
                        "update": self._ctor_meta["update"],
                        "device": self._ctor_meta["device"],
                        "inner_iters": self._ctor_meta["inner_iters"],
                    }
                )
            ),
            "temporal": self.temporal_factor(),
            "hist_temporal_gram": self._hist_temporal_gram,
        }
        for n, f in enumerate(self.factors):
            arrays[f"factor_{n}"] = f
            arrays[f"hist_mttkrp_{n}"] = self._hist_mttkrp[n]
        if isinstance(target, (str, os.PathLike)):
            write_npz_atomic(target, arrays)
        else:
            np.savez_compressed(target, **arrays)

    @classmethod
    def load(cls, source, update=None, device=None,
             inner_iters: int | None = None) -> "StreamingCstf":
        """Restore a checkpointed stream (fresh executor and update state).

        The saved run's configuration — update rule, device, and inner
        iterations — is restored from the checkpoint; pass an explicit
        argument only to deliberately override it. Checkpoints written
        before these fields existed (or saved from streams configured with
        non-string update/device objects) fall back to the historical
        defaults (``"cuadmm"``, ``"a100"``, 3). An ``engine`` key left by
        older versions is ignored.
        """
        import json

        with np.load(source, allow_pickle=False) as data:
            require("meta_json" in data, "not a StreamingCstf checkpoint")
            meta = json.loads(str(data["meta_json"]))
            require(meta.get("format_version") == 1, "unsupported checkpoint version")
            if update is None:
                update = meta.get("update") or "cuadmm"
            if device is None:
                device = meta.get("device") or "a100"
            if inner_iters is None:
                inner_iters = int(meta.get("inner_iters") or 3)
            stream = cls(
                tuple(meta["spatial_shape"]),
                rank=int(meta["rank"]),
                update=update,
                device=device,
                forgetting=float(meta["forgetting"]),
                inner_iters=inner_iters,
                refresh_every=int(meta["refresh_every"]),
            )
            stream.factors = [
                np.array(data[f"factor_{n}"]) for n in range(len(meta["spatial_shape"]))
            ]
            stream._grams = [f.T @ f for f in stream.factors]
            stream._hist_mttkrp = [
                np.array(data[f"hist_mttkrp_{n}"])
                for n in range(len(meta["spatial_shape"]))
            ]
            stream._hist_temporal_gram = np.array(data["hist_temporal_gram"])
            temporal = np.array(data["temporal"])
            stream.temporal_rows = [temporal[t] for t in range(temporal.shape[0])]
            stream._step = int(meta["step"])
        return stream
