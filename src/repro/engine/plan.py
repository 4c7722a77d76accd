"""Per-tensor MTTKRP execution plans and the plan cache.

Every segment-based MTTKRP call in :mod:`repro.kernels` recomputes the same
preprocessing per call: the stable sort permutation of the nonzeros by the
target mode, the segment start offsets, the target rows, and (for the
linearized formats) the format conversion itself. All of that depends only
on the tensor's sparsity pattern — not on the factors — so it is computed
once per ``(tensor, format, mode)`` here and reused across every AO
iteration.

A :class:`MttkrpPlan` stores the nonzero stream *presorted* by the target
mode: per-mode coordinate columns, values, segment starts, and the output
row of each segment. Executing a plan (:mod:`repro.engine.execute`) then
needs no argsort and no ``rows[order]`` gather — the two biggest per-call
costs of :func:`repro.kernels.mttkrp_coo.segment_accumulate` — and chunked
execution falls out naturally from the segment starts.

A plan holds one stream. Sharded execution splits it into contiguous
segment ranges (:meth:`MttkrpPlan.shard_streams`) whose arrays are views
of that stream, so shards copy no nonzero, cost no plan memory, and share
whatever happens to the stream (a corruption included).

:class:`PlanCache` keys entries by tensor identity and guards against
in-place mutation with a sampled fingerprint per lookup (shape, nnz and 16
sampled coordinates/values); a tensor whose fingerprint changed gets a
fresh entry. The sampled probe can miss an in-place edit of
``tensor.values`` or ``tensor.indices``; call
``get_plan_cache().invalidate(tensor)`` after one. A corrupted cached
stream is caught by :meth:`SegmentStream.integrity_ok` when
:func:`~repro.engine.execute.run_plan` executes it, and repaired by the
driver's replan-once recovery. Hits and misses are counted through the
ambient telemetry session as ``engine.plan.hits`` /
``engine.plan.misses`` and ``engine.format.hits`` /
``engine.format.misses``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

import numpy as np

from repro.obs import current_telemetry

__all__ = ["SegmentStream", "MttkrpPlan", "PlanCache", "get_plan_cache"]


def stable_target_order(targets: np.ndarray, size: int) -> np.ndarray:
    """Stable argsort of *targets*, whose values all lie in ``[0, size)``.

    NumPy radix-sorts 16-bit keys but timsorts int64 ones, so targets of a
    mode of length ``size <= 65536`` are sorted as ``uint16``. A stable
    sort's permutation is unique, so the order is the int64 one.
    """
    if size <= 1 << 16:
        targets = targets.astype(np.uint16)
    return np.argsort(targets, kind="stable")


class SegmentStream:
    """A run of nonzeros presorted by target row, with segment boundaries.

    ``cols[m]`` are the mode-*m* coordinates in target-major order,
    ``values`` the matching nonzero values. ``starts`` marks the first
    position of each equal-target segment; ``bounds`` is ``starts`` with
    the end appended, so segment *s* spans
    ``values[bounds[s] - base:bounds[s+1] - base]`` and accumulates into
    output row ``out_index[s]``.

    ``base`` is the stream's offset into the nonzero stream its
    ``starts``/``bounds`` count in: 0 for a plan's whole stream, and the
    first nonzero of the range for a shard (:meth:`MttkrpPlan.shard_streams`),
    whose arrays are all views of the plan's. ``key`` names the stream's
    segment range ``[a, c)`` within its plan: ``(plan token, a, c)``.
    """

    __slots__ = (
        "cols", "values", "starts", "bounds", "out_index", "base", "key",
        "_edges",
    )

    def __init__(self, cols, values, starts, out_index, *, bounds=None,
                 base: int = 0, key=None):
        self.cols = tuple(cols)
        self.values = values
        self.starts = starts
        if bounds is None:
            bounds = np.append(starts, base + values.shape[0])
        self.bounds = bounds
        self.out_index = out_index
        self.base = int(base)
        self.key = key
        self._edges: dict[int, np.ndarray] = {}

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_segments(self) -> int:
        return int(self.starts.shape[0])

    def chunk_edges(self, chunk: int) -> np.ndarray:
        """Segment positions cutting the stream into ≈*chunk*-nonzero chunks.

        Chunk *i* covers segments ``[edges[i], edges[i+1])``. Boundaries
        always land on segment starts, so no output row is ever split
        across chunks — chunked accumulation reduces exactly the same runs
        as a flat ``np.add.reduceat`` and is therefore bitwise identical.
        A segment larger than *chunk* becomes its own oversized chunk.
        """
        edges = self._edges.get(chunk)
        if edges is None:
            edges = _chunk_edges(self.bounds, chunk)
            self._edges[chunk] = edges
        return edges

    def integrity_ok(self) -> bool:
        """Cheap structural self-check of the cached stream.

        Verifies the invariants execution relies on: one coordinate entry
        per nonzero, segment bounds that start at ``base``, end at
        ``base + nnz``, and never decrease, and one output row per
        segment. A cached stream that fails this probe is corrupt (bit
        flip, buggy in-place mutation, injected ``corrupt_plan`` fault)
        and must be replanned, not executed:
        :func:`~repro.engine.execute.run_plan` raises on it.
        """
        nnz = self.values.shape[0]
        if any(c.shape[0] != nnz for c in self.cols):
            return False
        if self.bounds.shape[0] != self.starts.shape[0] + 1:
            return False
        if self.out_index.shape[0] != self.starts.shape[0]:
            return False
        if nnz == 0:
            return True
        return bool(
            self.bounds[0] == self.base
            and self.bounds[-1] == self.base + nnz
            and np.all(np.diff(self.bounds) > 0)
        )

    @property
    def nbytes(self) -> int:
        return int(
            sum(c.nbytes for c in self.cols)
            + self.values.nbytes
            + self.starts.nbytes
            + self.bounds.nbytes
            + self.out_index.nbytes
        )


def _chunk_edges(bounds: np.ndarray, chunk: int) -> np.ndarray:
    n_seg = bounds.shape[0] - 1
    if n_seg == 0:
        return np.zeros(1, dtype=np.int64)
    if chunk <= 0:
        return np.array([0, n_seg], dtype=np.int64)
    edges = [0]
    pos = 0
    while pos < n_seg:
        # Largest e with bounds[e] - bounds[pos] <= chunk, but at least one
        # segment so oversized segments still make progress.
        nxt = int(np.searchsorted(bounds, bounds[pos] + chunk, side="right")) - 1
        nxt = min(max(nxt, pos + 1), n_seg)
        edges.append(nxt)
        pos = nxt
    return np.asarray(edges, dtype=np.int64)


class MttkrpPlan:
    """The cached preprocessing for one ``(tensor, format, mode)`` MTTKRP.

    ``token`` is unique among every plan this process builds, across all
    caches, because one process-wide worker pool serves them all. It is a
    counter, never ``id()``: a replan may reuse a freed plan's address. So
    a shard key ``(token, a, c)`` names one segment range of one plan for
    good.
    """

    __slots__ = ("mode", "out_rows", "stream", "token", "_shards")

    def __init__(self, mode: int, out_rows: int, stream: SegmentStream):
        self.mode = mode
        self.out_rows = out_rows
        self.stream = stream
        self.token = next(_PLAN_TOKENS)
        stream.key = (self.token, 0, stream.n_segments)
        self._shards: dict[int, list[SegmentStream]] = {}

    @classmethod
    def from_arrays(cls, indices, values, shape, mode: int) -> "MttkrpPlan":
        """Build a plan from a COO-like ``(nnz, ndim)`` index array.

        The stable argsort matches :func:`segment_accumulate` exactly, so
        executing the plan reproduces the seed kernel's summation order —
        and with it, its bits.
        """
        indices = np.asarray(indices)
        values = np.asarray(values, dtype=np.float64)
        ndim = int(indices.shape[1]) if indices.ndim == 2 else len(shape)
        targets = indices[:, mode] if values.shape[0] else np.zeros(0, dtype=np.int64)
        order = stable_target_order(targets, int(shape[mode]))
        cols = tuple(
            np.ascontiguousarray(indices[order, m], dtype=np.int64)
            for m in range(ndim)
        )
        values_sorted = np.ascontiguousarray(values[order])
        st = cols[mode]
        if st.shape[0]:
            starts = np.flatnonzero(np.concatenate(([True], st[1:] != st[:-1])))
        else:
            starts = np.zeros(0, dtype=np.int64)
        stream = SegmentStream(cols, values_sorted, starts, st[starts])
        return cls(mode, int(shape[mode]), stream)

    def shard_streams(self, n_shards: int) -> list[SegmentStream]:
        """Split the stream into at most *n_shards* contiguous segment ranges.

        Shard *k* is the segment range ``(a, c)`` of the plan's one stream
        cut at the segment boundaries nearest ``k·nnz/n_shards``, so no
        segment is split and shards own disjoint output rows. Every array
        of a shard is a view of the plan's (no nonzero is copied, and
        sharding adds nothing to :attr:`nbytes`), and its ``key`` is
        ``(token, a, c)``. Fewer segments than shards give fewer shards.
        The view lists are memoized per shard count, which keeps their
        chunk edges.
        """
        streams = self._shards.get(n_shards)
        if streams is not None:
            return streams
        stream = self.stream
        if n_shards <= 1 or stream.n_segments <= 1:
            streams = [stream]
        else:
            cuts = _segment_cuts(stream.bounds, n_shards)
            streams = []
            for a, c in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                lo, hi = int(stream.bounds[a]), int(stream.bounds[c])
                streams.append(
                    SegmentStream(
                        tuple(col[lo:hi] for col in stream.cols),
                        stream.values[lo:hi],
                        stream.starts[a:c],
                        stream.out_index[a:c],
                        bounds=stream.bounds[a:c + 1],
                        base=lo,
                        key=(self.token, a, c),
                    )
                )
        self._shards[n_shards] = streams
        return streams

    @property
    def nbytes(self) -> int:
        return self.stream.nbytes


_PLAN_TOKENS = itertools.count(1)


def _segment_cuts(bounds: np.ndarray, n_shards: int) -> np.ndarray:
    """Segment positions ``[0, ..., n_seg]`` cutting *bounds* into shards.

    Cut *k* is the segment boundary nearest ``k·nnz/n_shards`` (the lower
    one on a tie), clipped so every shard keeps at least one segment;
    cuts that coincide merge their shards.
    """
    n_seg = bounds.shape[0] - 1
    targets = np.arange(1, n_shards) * bounds[-1] / n_shards
    above = np.searchsorted(bounds, targets)
    below = above - 1
    nearest = np.where(
        targets - bounds[below] <= bounds[above] - targets, below, above
    )
    inner = np.unique(np.clip(nearest, 1, n_seg - 1))
    return np.concatenate(([0], inner, [n_seg])).astype(np.int64)


# --------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("tensor", "probe", "plans", "formats")

    def __init__(self, tensor, probe):
        self.tensor = tensor
        self.probe = probe
        self.plans = {}
        self.formats = {}


def _probe(tensor) -> tuple:
    """Cheap mutation fingerprint: shape, nnz, 16 sampled coordinates/values."""
    nnz = tensor.nnz
    if nnz == 0:
        return (tuple(tensor.shape), 0)
    sample = np.linspace(0, nnz - 1, num=min(nnz, 16)).astype(np.int64)
    return (
        tuple(tensor.shape),
        nnz,
        tensor.indices[sample].tobytes(),
        tensor.values[sample].tobytes(),
    )


class PlanCache:
    """LRU cache of per-tensor plans and format conversions.

    Entries are keyed by ``id(tensor)`` and hold a strong reference to
    their tensor, so the id stays unique while the entry lives; the cache
    pins at most ``max_tensors`` tensors plus their plans, and evicted or
    invalidated entries release everything. An equal copy of a cached
    tensor is a different object and gets its own entry.
    """

    def __init__(self, max_tensors: int = 16):
        self.max_tensors = int(max_tensors)
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.format_hits = 0
        self.format_misses = 0
        self.repairs = 0
        """Self-heal count: executions over corrupted cached plans that
        were evicted and replanned instead of raising (mirrored to the
        ``engine.plan.repairs`` telemetry counter)."""

    def record_repair(self, detail: str) -> None:
        self.repairs += 1
        current_telemetry().counter("engine.plan.repairs", detail=detail)

    # ------------------------------------------------------------------ #
    def plan(
        self,
        tensor,
        mode: int,
        *,
        fmt: str = "coo",
        indices=None,
        values=None,
    ) -> MttkrpPlan:
        """The cached plan for ``(tensor, fmt, mode)``; built on first use.

        ``indices``/``values`` override the arrays the plan is built from
        (used by the ALTO path, which plans over the decoded linearized
        order rather than the canonical COO order).
        """
        return self._lookup(
            tensor,
            (fmt, int(mode)),
            lambda: MttkrpPlan.from_arrays(
                tensor.indices if indices is None else indices,
                tensor.values if values is None else values,
                tensor.shape,
                mode,
            ),
        )

    def block_plans(
        self, tensor, blocked, mode: int, *, fmt: str = "blco"
    ) -> list:
        """Per-block segment streams for a blocked format, cached per mode.

        ``blocked`` is the cached BLCO or HiCOO conversion; plans are keyed
        ``(f"{fmt}_blocks", mode)`` and built in the format's block order,
        which the serial per-block execution preserves bit for bit.
        """
        return self._lookup(
            tensor,
            (f"{fmt}_blocks", int(mode)),
            lambda: self._build_block_plans(blocked, mode, fmt),
        )

    def _lookup(self, tensor, key, build):
        """The plan memo behind :meth:`plan` and :meth:`block_plans`."""
        entry = self._entry(tensor)
        plan = entry.plans.get(key)
        if plan is None:
            self.misses += 1
            current_telemetry().counter("engine.plan.misses")
            plan = entry.plans[key] = build()
        else:
            self.hits += 1
            current_telemetry().counter("engine.plan.hits")
        return plan

    @staticmethod
    def _build_block_plans(blocked, mode: int, fmt: str) -> list:
        plans = []
        if fmt == "blco":
            for block in blocked.blocks:
                idx = np.stack(
                    [blocked.block_mode_indices(block, m) for m in range(blocked.ndim)],
                    axis=1,
                )
                plans.append(
                    MttkrpPlan.from_arrays(idx, block.values, blocked.shape, mode)
                )
        elif fmt == "hicoo":
            for b in range(blocked.num_blocks):
                _, _, values = blocked.block_slice(b)
                idx = np.stack(
                    [blocked.mode_indices_of_block(b, m) for m in range(blocked.ndim)],
                    axis=1,
                )
                plans.append(
                    MttkrpPlan.from_arrays(idx, values, blocked.shape, mode)
                )
        else:  # pragma: no cover - callers pass known formats
            raise ValueError(f"unknown blocked format {fmt!r}")
        return plans

    def format(self, tensor, fmt: str, build):
        """The cached format conversion for *tensor*; ``build(tensor)`` on miss.

        Used for ALTO/BLCO linearizations, CSF mode trees, and the decoded
        ALTO coordinate matrix — every once-per-tensor derivation, kept
        across ``cstf`` calls over the same tensor.
        """
        entry = self._entry(tensor)
        tel = current_telemetry()
        converted = entry.formats.get(fmt)
        if converted is None:
            self.format_misses += 1
            tel.counter("engine.format.misses")
            converted = build(tensor)
            entry.formats[fmt] = converted
        else:
            self.format_hits += 1
            tel.counter("engine.format.hits")
        return converted

    # ------------------------------------------------------------------ #
    def _entry(self, tensor) -> _Entry:
        key = id(tensor)
        probe = _probe(tensor)
        entry = self._entries.get(key)
        if entry is not None and entry.probe == probe:
            self._entries.move_to_end(key)
            return entry
        # A new tensor, or one edited in place since its plans were built:
        # either way its plans are built afresh.
        self._entries.pop(key, None)
        entry = self._entries[key] = _Entry(tensor, probe)
        if len(self._entries) > self.max_tensors:
            self._entries.popitem(last=False)
        current_telemetry().gauge("engine.plan.tensors", float(len(self._entries)))
        return entry

    # ------------------------------------------------------------------ #
    def invalidate(self, tensor) -> None:
        """Drop every cached plan/format of *tensor* (after mutating it)."""
        self._entries.pop(id(tensor), None)

    def corrupt(self, tensor, how: str = "bounds") -> int:
        """Deliberately corrupt *tensor*'s cached plans (chaos testing).

        ``how="bounds"`` breaks each stream's segment-bound invariant, which
        the integrity probe in :func:`~repro.engine.execute.run_plan`
        catches before execution. ``how="cols"`` poisons a coordinate with
        an out-of-range index, which the probe misses and execution raises
        on. Either way the driver's replan-once recovery repairs the entry.
        Shard streams are views of the plan's stream, so they carry the
        damage too. On the ``processes`` backend a worker runs its
        resident copy of its shard stream, so a ``cols`` corruption made
        after the first send is executed, and repaired, only if a serial
        redo in the parent runs the damaged shard; a ``bounds`` corruption
        is caught by the parent's probe before any dispatch. Returns the
        number of plans corrupted (0 when the tensor has no cached entry).
        """
        entry = self._entries.get(id(tensor))
        if entry is None:
            return 0
        corrupted = 0
        for plan in entry.plans.values():
            for p in plan if isinstance(plan, list) else [plan]:
                stream = p.stream
                if stream.nnz == 0:
                    continue
                if how == "bounds":
                    stream.bounds[-1] = stream.nnz + 7
                else:
                    stream.cols[0][stream.nnz // 2] = 2**31
                corrupted += 1
        return corrupted

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        """Plan-lookup hit fraction over this cache's lifetime (0.0 if unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def nbytes(self) -> int:
        total = 0
        for entry in self._entries.values():
            for plan in entry.plans.values():
                plans = plan if isinstance(plan, list) else [plan]
                total += sum(p.nbytes for p in plans)
        return total


#: Process-wide default cache, shared by every concrete cstf run so
#: plans survive across calls on the same tensor (the AUNTF/streaming
#: pattern: many factorizations of one tensor).
_DEFAULT_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _DEFAULT_CACHE
