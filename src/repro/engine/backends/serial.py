"""Serial backend: shard streams executed inline, one after another.

The degenerate rung of the backend ladder: it adds nothing to the inline
primitives of :class:`~repro.engine.backends.base.ExecutionBackend`, and
draws no worker faults (no worker can crash or straggle; see the base
module for the shared loop and recovery contract). Exists so
``EngineConfig.backend`` is total: ``backend="serial"`` with
``shards > 1`` still partitions and tree-reduces — bit-identical to every
parallel backend — which is what the equivalence suite leans on.
"""

from __future__ import annotations

from repro.engine.backends.base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    name = "serial"
    draws_faults = False
