"""Shared-memory shard transport: the zero-copy tier of the process pool.

The process backend's baseline transport pickles every factor matrix into
every worker's task pipe and pickles each ``(out_rows, rank)`` accumulator
back — per shard, per MTTKRP dispatch. This module provides the zero-copy
alternative: the parent publishes each factor matrix **once** into a
POSIX shared-memory segment (one write, N readers) and pre-allocates one
shm accumulator per shard that the worker fills in place, so the pipes
carry only small dicts of segment names/shapes and replies shrink to a
status tuple.

Ownership is strictly parent-side. The :class:`SegmentPool` lives in the
dispatching process; workers only ever *attach* by name (read/write map,
no create, no unlink) and detach in a ``finally``. Segments are reused
across dispatches via a free list sized by capacity, stamped with a
monotonically increasing **generation** per dispatch so a respawned or
lagging worker can refuse a descriptor from an older dispatch instead of
scribbling on recycled memory. Unlinking happens in exactly three places —
:meth:`SegmentPool.flush_free` on worker respawn, :meth:`SegmentPool.close`
on backend shutdown (wired into ``shutdown_backends`` and its ``atexit``
hook), and :meth:`SegmentPool.discard` when a fault path abandons a
shard's accumulator — so a clean run leaks nothing and a crashed worker
cannot take a segment down with it.

CPython quirk this module hides: ``SharedMemory(name=...)`` *attaches*
also register with the ``resource_tracker`` (bpo-39959), so a worker that
exits — or is SIGKILLed by the chaos harness — would cause the tracker to
unlink segments the parent still owns. :func:`attach_segment` therefore
unregisters every attach immediately.
"""

from __future__ import annotations

import numpy as np

from repro.obs import current_telemetry

__all__ = [
    "SegmentLease",
    "SegmentPool",
    "ShmAttachError",
    "ShmExhausted",
    "attach_segment",
    "segment_view",
    "shm_available",
]

_PROBE: bool | None = None


class ShmAttachError(RuntimeError):
    """A worker could not (or must not) map a parent-published segment.

    Raised on a failed ``SharedMemory(name=...)`` attach and on a stale
    generation tag. The worker reports it over the reply pipe like any
    in-worker exception; the parent counts ``engine.shm.attach_failures``
    and redoes the shard serially into a private buffer — bit-identical,
    because the shm accumulator was never read.
    """


class ShmExhausted(RuntimeError):
    """A segment lease could not be satisfied under /dev/shm pressure.

    Raised by :meth:`SegmentPool.lease` when the kernel refuses the
    allocation (a genuinely full /dev/shm). The process backend catches
    it per dispatch — an injected ``shm_exhausted`` fault raises it there
    too — and downgrades to the pipe transport (``transport_downgraded``)
    instead of failing the run.
    """


def shm_available() -> bool:
    """Whether POSIX shared memory actually works on this host (cached).

    Probes by round-tripping a tiny real segment rather than trusting the
    import: containers without a usable ``/dev/shm`` fail here, and the
    ``shm="auto"`` default then falls back to the pipe transport.
    """
    global _PROBE
    if _PROBE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
            _PROBE = True
        except Exception:  # pragma: no cover - host without /dev/shm
            _PROBE = False
    return _PROBE


def attach_segment(name: str):
    """Worker-side: map an existing segment by name, tracker-safe.

    Never creates: a worker that attaches a name the parent did not
    publish (or already unlinked) gets :class:`ShmAttachError`, not a
    fresh orphan segment.
    """
    from multiprocessing import resource_tracker, shared_memory

    # bpo-39959: attaching registers with the resource tracker, which
    # would unlink this (parent-owned, still live) segment when the worker
    # dies — and N workers attaching the same factor segment would send
    # duplicate unregisters the tracker chokes on. The parent is the sole
    # owner: suppress registration for the attach instead.
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    except Exception as exc:
        raise ShmAttachError(
            f"cannot attach shm segment {name!r}: {exc}"
        ) from exc
    finally:
        resource_tracker.register = original_register


def segment_view(seg, shape) -> np.ndarray:
    """A float64 ndarray view of the leading bytes of a segment.

    Segments are reused by capacity, so ``seg.buf`` may be larger than the
    array; the view covers exactly ``prod(shape)`` elements from offset 0.
    """
    shape = tuple(int(d) for d in shape)
    count = 1
    for dim in shape:
        count *= dim
    return np.frombuffer(seg.buf, dtype=np.float64, count=count).reshape(shape)


def _destroy(seg) -> None:
    """Unlink + unmap one segment, tolerating both late and double frees."""
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass
    try:
        seg.close()
    except BufferError:
        # A view still maps the buffer. The name is already unlinked, so
        # nothing leaks past process exit; neuter the handle so __del__
        # does not retry (and noisily fail) when the handle is collected
        # before the last view is.
        seg._buf = None
        seg._mmap = None


class SegmentLease(object):
    """One pooled segment checked out for a single dispatch."""

    __slots__ = ("seg", "capacity")

    def __init__(self, seg, capacity: int):
        self.seg = seg
        self.capacity = int(capacity)

    @property
    def name(self) -> str:
        return self.seg.name

    def view(self, shape) -> np.ndarray:
        return segment_view(self.seg, shape)


class SegmentPool:
    """Parent-owned pool of reusable shared-memory segments.

    ``lease(nbytes)`` returns the smallest free segment that fits (or
    creates one, bumping ``engine.shm.segments`` / ``engine.shm.bytes``);
    ``release`` returns it to the free list for the next dispatch. The
    pool is single-threaded by construction — one dispatcher leases and
    releases around each ``run_shards`` call — so there is no locking.
    A kernel-level allocation failure (a full /dev/shm) surfaces as
    :class:`ShmExhausted`, the one pressure signal callers handle.
    """

    def __init__(self):
        self._free: list[SegmentLease] = []
        self._leased: list[SegmentLease] = []
        self._generation = 0

    # ------------------------------------------------------------------ #
    def next_generation(self) -> int:
        """A fresh dispatch tag; workers refuse anything older than seen."""
        self._generation += 1
        return self._generation

    def lease(self, nbytes: int) -> SegmentLease:
        nbytes = max(int(nbytes), 1)
        best = None
        for lease in self._free:
            if lease.capacity >= nbytes and (
                best is None or lease.capacity < best.capacity
            ):
                best = lease
        if best is not None:
            self._free.remove(best)
        else:
            from multiprocessing import shared_memory

            try:
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
            except OSError as exc:  # pragma: no cover - host /dev/shm full
                raise ShmExhausted(
                    f"/dev/shm allocation of {nbytes} bytes failed: {exc}"
                ) from exc
            best = SegmentLease(seg, seg.size)
            tel = current_telemetry()
            tel.counter("engine.shm.segments")
            tel.counter("engine.shm.bytes", float(seg.size))
        self._leased.append(best)
        return best

    def release(self, lease: SegmentLease) -> None:
        """Return a lease to the free list (segment kept for reuse)."""
        if lease in self._leased:
            self._leased.remove(lease)
            self._free.append(lease)

    def discard(self, lease: SegmentLease) -> None:
        """Destroy a leased segment outright (fault hygiene).

        A SIGKILLed or timed-out worker may have been mid-write into its
        shm accumulator; that memory is never read and never recycled —
        the serial redo gets a fresh private buffer and the next dispatch
        gets a fresh segment.
        """
        if lease in self._leased:
            self._leased.remove(lease)
        _destroy(lease.seg)

    def flush_free(self) -> None:
        """Unlink every idle segment (respawn hygiene).

        Called when a worker is respawned: the replacement must never be
        able to attach a recycled name from a dispatch it did not see.
        In-flight leases of the current dispatch are untouched.
        """
        free, self._free = self._free, []
        for lease in free:
            _destroy(lease.seg)

    def close(self) -> None:
        """Unlink everything — free *and* leased. Idempotent."""
        self.flush_free()
        leased, self._leased = self._leased, []
        for lease in leased:
            _destroy(lease.seg)

    def segment_names(self) -> list[str]:
        """Names of every segment the pool currently owns (tests/leak checks)."""
        return [lease.name for lease in self._free + self._leased]
