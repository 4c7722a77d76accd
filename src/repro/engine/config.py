"""Configuration of the host execution engine (plan cache + sharding).

The engine runs every concrete MTTKRP of a cSTF run; it never changes
what the simulated machine model charges, so its knobs alter host
wall-clock only, not the reported device timelines. Every engine path is
bit-identical to the per-format kernels of :mod:`repro.kernels` (same
summation order, same multiply order), which stay in the library as the
reference oracle. There is no memory knob: a full ``/dev/shm`` downgrades
a dispatch to the pipe transport, and an OOM-killed worker is respawned
and its shard redone (see :mod:`repro.engine.backends.processes`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.utils.validation import check_positive_int, require

__all__ = ["EngineConfig", "resolve_engine"]

_BACKENDS = ("serial", "threads", "processes")
_SHM = ("auto", "on", "off")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the cached/sharded MTTKRP execution path.

    Attributes
    ----------
    chunk:
        Target nonzeros per execution chunk. Chunks are always aligned to
        segment (output-row) boundaries, so chunked execution is bitwise
        identical to one flat pass; small chunks keep the per-nonzero
        Khatri-Rao accumulator inside the cache hierarchy, which is where
        the engine's wall-clock win comes from. ``0`` disables chunking
        (one chunk spanning all nonzeros).
    shards:
        Worker shards for the parallel execution path (``1`` = serial).
        A shard is a contiguous range of whole segments of the plan's one
        stream, cut at the segment boundaries nearest ``k·nnz/shards``
        (:meth:`~repro.engine.plan.MttkrpPlan.shard_streams`; views, no
        copy). Shards accumulate into private outputs that are
        tree-reduced — the CPU analogue of the paper's privatized GPU
        reductions. Because segment row sets are disjoint, sharded
        results equal serial results bitwise.
    shard_timeout:
        Per-shard wall-clock budget in seconds for the sharded path
        (``0.0`` disables timeout detection). Each shard's deadline is
        anchored when the dispatcher begins collecting *that* shard —
        never at batch launch, so time spent collecting (or serially
        redoing) earlier shards cannot erode a later shard's budget. A
        shard that has not delivered within the budget is declared a
        straggler: its in-flight result is abandoned (the ``processes``
        backend kills the worker outright) and the shard is re-executed
        serially on the dispatching thread — bit-identical, since each
        shard's summation order is private. Timeouts are counted
        (``engine.shard.timeouts``) and logged as ``shard_timeout``
        events.
    backend:
        Shard dispatch strategy (see :mod:`repro.engine.backends`):
        ``"threads"`` (default; shared in-process pool), ``"serial"``
        (inline, no workers), or ``"processes"`` (isolated worker
        processes with heartbeat/watchdog crash recovery — a SIGKILLed
        or aborted worker is detected, respawned, and its shard redone
        serially). All backends are bitwise identical to serial
        execution; only failure isolation and wall-clock differ.
    shm:
        Shard transport of the ``processes`` backend: ``"auto"`` (default;
        zero-copy ``multiprocessing.shared_memory`` transport where POSIX
        shared memory works, pipe pickling otherwise), ``"on"`` (require
        shared memory; raise where unavailable), or ``"off"`` (always
        pickle over the task pipes). With shm, factor matrices are
        published once per MTTKRP dispatch (one write, N readers) and
        each shard's accumulator is a parent-allocated segment the worker
        fills in place — bit-identical to the pipe transport and to
        serial execution across every fault-recovery path. Ignored by
        the ``serial``/``threads`` backends (shared address space
        already). Booleans are accepted and normalized to on/off.
    """

    chunk: int = 4096
    shards: int = 1
    shard_timeout: float = 0.0
    backend: str = "threads"
    shm: str = "auto"

    def __post_init__(self):
        require(int(self.chunk) >= 0, "chunk must be >= 0")
        object.__setattr__(self, "chunk", int(self.chunk))
        object.__setattr__(self, "shards", check_positive_int(self.shards, "shards"))
        require(float(self.shard_timeout) >= 0.0, "shard_timeout must be >= 0")
        object.__setattr__(self, "shard_timeout", float(self.shard_timeout))
        require(
            self.backend in _BACKENDS,
            f"backend must be one of {_BACKENDS}, got {self.backend!r}",
        )
        shm = self.shm
        if shm is True:
            shm = "on"
        elif shm is False:
            shm = "off"
        require(
            shm in _SHM, f"shm must be one of {_SHM}, got {self.shm!r}"
        )
        object.__setattr__(self, "shm", shm)


def default_shards() -> int:
    """Worker count for ``engine="sharded"``: the host's cores, capped."""
    return max(2, min(8, os.cpu_count() or 2))


def resolve_engine(setting) -> EngineConfig:
    """Normalize a ``CstfConfig.engine`` setting to an EngineConfig.

    Accepted: ``None``/``True``/``"on"``/``"cached"`` (cached serial
    execution, the default), ``"sharded"`` (cached + sharded across
    :func:`default_shards` workers), ``"processes"`` (sharded across
    isolated worker processes with crash recovery), a dict of
    :class:`EngineConfig` fields, or an :class:`EngineConfig` instance.
    ``False``/``"off"`` are rejected: the engine is the only concrete
    MTTKRP path, the uncached seed path was removed.
    """
    if setting is None or setting is True:
        return EngineConfig()
    if isinstance(setting, EngineConfig):
        return setting
    if isinstance(setting, dict):
        return EngineConfig(**setting)
    if setting is False or (isinstance(setting, str) and setting.lower() == "off"):
        raise ValueError(
            f"engine={setting!r} is no longer accepted: the seed-kernel MTTKRP "
            f"path was removed and the engine is always on; use None or 'on' "
            f"for cached serial execution"
        )
    if isinstance(setting, str):
        low = setting.lower()
        if low in ("on", "cached"):
            return EngineConfig()
        if low == "sharded":
            return EngineConfig(shards=default_shards())
        if low == "processes":
            return EngineConfig(shards=default_shards(), backend="processes")
    raise ValueError(
        f"engine must be None/'on'/'cached', 'sharded', 'processes', "
        f"a dict of EngineConfig fields, or an EngineConfig, got {setting!r}"
    )
