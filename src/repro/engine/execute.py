"""Plan execution: chunked segment reduction, serial or sharded.

The hot loop is the same fused gather→multiply→reduceat the per-format
kernels of :mod:`repro.kernels` perform, restructured around a cached :class:`~repro.engine.plan.MttkrpPlan`
in two ways:

- **No per-call sort or gather.** The plan's stream is already presorted
  by target row, so the per-call ``argsort`` and the full ``rows[order]``
  materialized gather of ``segment_accumulate`` disappear.
- **Cache blocking.** The per-nonzero Khatri-Rao accumulator is built and
  reduced chunk by chunk (``EngineConfig.chunk`` nonzeros, aligned to
  segment starts), so the working set stays inside the cache hierarchy
  instead of streaming an ``(nnz, R)`` matrix through memory three times.

Because chunk and shard boundaries never split a segment, and the factor
multiplies happen in the kernels' ascending-mode order, every path here is
bitwise identical to the uncached kernels (IEEE multiplication and
``np.add.reduceat`` see the same operands in the same order; sharded
private accumulators cover disjoint rows, so the tree reduce adds exact
zeros).

*Where* shards run is the :mod:`repro.engine.backends` seam:
``EngineConfig.backend`` selects inline execution (``serial``), the shared
thread pool (``threads``, the default), or isolated worker processes with
real crash recovery (``processes``). One shard loop,
:meth:`~repro.engine.backends.base.ExecutionBackend.run_shards`, serves
all three and owns the recovery contract (see
:mod:`repro.engine.backends.base`). The chaos harness drives its recovery
paths on purpose through :class:`~repro.resilience.faults.FaultInjector`'s
``EXECUTE`` fault kinds, drawn from its seeded RNG in the dispatching
thread so campaigns replay exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "run_stream",
    "run_plan",
    "run_shards",
    "sharded_segment_accumulate",
]


def run_stream(stream, fmats, mode: int, out: np.ndarray, chunk: int) -> np.ndarray:
    """Accumulate one presorted segment stream into *out*, chunk by chunk."""
    if stream.nnz == 0:
        return out
    others = [m for m in range(len(stream.cols)) if m != mode]
    cols, values = stream.cols, stream.values
    starts, bounds, out_index = stream.starts, stream.bounds, stream.out_index
    edges = stream.chunk_edges(chunk)
    for i in range(edges.shape[0] - 1):
        a, b = int(edges[i]), int(edges[i + 1])
        lo, hi = int(bounds[a]), int(bounds[b])
        if others:
            m0 = others[0]
            acc = values[lo:hi, None] * fmats[m0][cols[m0][lo:hi]]
            for m in others[1:]:
                acc *= fmats[m][cols[m][lo:hi]]
        else:  # single-mode tensor: the Khatri-Rao product is empty
            acc = np.broadcast_to(
                values[lo:hi, None], (hi - lo, out.shape[1])
            ).copy()
        sums = np.add.reduceat(acc, starts[a:b] - lo, axis=0)
        out[out_index[a:b]] = sums
    return out


def run_shards(
    streams,
    fmats,
    mode: int,
    out_rows: int,
    rank: int,
    cfg,
    *,
    faults=None,
    events=None,
    plan_ref=None,
) -> np.ndarray:
    """Execute per-worker shard streams with crash/straggler recovery.

    Thin dispatcher over the backend selected by ``cfg.backend`` (see
    :mod:`repro.engine.backends`).
    """
    from repro.engine.backends import get_backend

    backend = get_backend(cfg.backend)
    return backend.run_shards(
        streams, fmats, mode, out_rows, rank, cfg,
        faults=faults, events=events, plan_ref=plan_ref,
    )


def run_plan(
    plan, fmats, mode: int, out_rows: int, rank: int, cfg, *,
    faults=None, events=None,
) -> np.ndarray:
    """Execute a cached plan: serial chunked, or sharded with a tree reduce."""
    if cfg.shards > 1 and plan.stream.n_segments > 1:
        streams = plan.shard_streams(cfg.shards)
        if len(streams) > 1:
            plan_ref = None
            if cfg.plan_store is not None and plan.store_key is not None:
                plan_ref = (cfg.plan_store, plan.store_key)
            return run_shards(
                streams, fmats, mode, out_rows, rank, cfg,
                faults=faults, events=events, plan_ref=plan_ref,
            )
    out = np.zeros((out_rows, rank), dtype=np.float64)
    return run_stream(plan.stream, fmats, mode, out, cfg.chunk)


def sharded_segment_accumulate(
    rows: np.ndarray,
    targets: np.ndarray,
    out_rows: int,
    cfg,
    *,
    faults=None,
    events=None,
) -> np.ndarray:
    """Sharded drop-in for :func:`repro.kernels.mttkrp_coo.segment_accumulate`.

    Sorts *rows* by target (stable, like the seed), splits whole segments
    across ``cfg.shards`` workers, and reduces with the fault-tolerant
    shard path — bitwise identical to the serial seed accumulate, because
    no segment is ever split and intra-segment order is preserved. Used by
    the streaming driver's history accumulation.
    """
    from repro.engine.plan import MttkrpPlan, SegmentStream, stable_target_order

    rank = int(rows.shape[1])
    if rows.shape[0] == 0 or cfg.shards <= 1:
        from repro.kernels.mttkrp_coo import segment_accumulate

        return segment_accumulate(rows, targets, out_rows)

    order = stable_target_order(targets, out_rows)
    sorted_targets = targets[order]
    sorted_rows = np.ascontiguousarray(rows[order])
    n = sorted_rows.shape[0]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_targets[1:] != sorted_targets[:-1]))
    )
    # A pre-scaled stream: values of one and a single positional "factor"
    # holding the already-formed Khatri-Rao rows, so run_stream reduces
    # exactly the rows the seed accumulate would (1.0 * rows == rows,
    # bitwise). The coordinate column carries global positions, which stay
    # valid inside per-shard gathered sub-streams.
    stream = SegmentStream(
        (np.arange(n, dtype=np.int64),),
        np.ones(n, dtype=np.float64),
        starts, sorted_targets[starts],
    )
    plan = MttkrpPlan(0, out_rows, stream)
    streams = plan.shard_streams(cfg.shards)
    if len(streams) <= 1:
        out = np.zeros((out_rows, rank), dtype=np.float64)
        return run_stream(stream, [sorted_rows], None, out, cfg.chunk)
    # mode=None: the single positional column counts as an "other" mode.
    return run_shards(
        streams, [sorted_rows], None, out_rows, rank, cfg,
        faults=faults, events=events,
    )
