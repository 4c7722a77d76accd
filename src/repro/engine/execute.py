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
:mod:`repro.engine.backends.base`); :func:`run_plan` is its only caller,
always with a plan's shard streams and an integer mode. The chaos harness
drives its recovery paths on purpose through
:class:`~repro.resilience.faults.FaultInjector`'s ``EXECUTE`` fault kinds,
drawn from its seeded RNG in the dispatching thread so campaigns replay
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import get_backend

__all__ = ["run_stream", "run_plan"]


def run_stream(stream, fmats, mode: int, out: np.ndarray, chunk: int) -> np.ndarray:
    """Accumulate one presorted segment stream into *out*, chunk by chunk.

    The stream has at least two modes (:func:`~repro.engine.driver
    .engine_mttkrp` rejects fewer), so the Khatri-Rao product over the
    modes other than *mode* is never empty.
    """
    if stream.nnz == 0:
        return out
    others = [m for m in range(len(stream.cols)) if m != mode]
    m0 = others[0]
    cols, values, base = stream.cols, stream.values, stream.base
    starts, bounds, out_index = stream.starts, stream.bounds, stream.out_index
    edges = stream.chunk_edges(chunk)
    for i in range(edges.shape[0] - 1):
        a, b = int(edges[i]), int(edges[i + 1])
        first = int(bounds[a])
        lo, hi = first - base, int(bounds[b]) - base
        acc = values[lo:hi, None] * np.take(fmats[m0], cols[m0][lo:hi], axis=0)
        for m in others[1:]:
            acc *= np.take(fmats[m], cols[m][lo:hi], axis=0)
        sums = np.add.reduceat(acc, starts[a:b] - first, axis=0)
        out[out_index[a:b]] = sums
    return out


def run_plan(
    plan, fmats, mode: int, out_rows: int, rank: int, cfg, *,
    faults=None, events=None,
) -> np.ndarray:
    """Execute a cached plan: serial chunked, or sharded with a tree reduce.

    The plan's stream is probed first (:meth:`~repro.engine.plan
    .SegmentStream.integrity_ok`); a corrupt one raises before any shard is
    dispatched or any fault drawn, and the driver's replan-once recovery
    rebuilds it.
    """
    if not plan.stream.integrity_ok():
        raise RuntimeError(f"cached mode-{mode} plan failed its integrity probe")
    if cfg.shards > 1 and plan.stream.n_segments > 1:
        streams = plan.shard_streams(cfg.shards)
        if len(streams) > 1:
            return get_backend(cfg.backend).run_shards(
                streams, fmats, mode, out_rows, rank, cfg,
                faults=faults, events=events,
            )
    out = np.zeros((out_rows, rank), dtype=np.float64)
    return run_stream(plan.stream, fmats, mode, out, cfg.chunk)
