"""Host execution engine: plan cache, batched MTTKRP, sharded execution.

The engine is the MTTKRP path of every concrete cSTF run, fast without
touching the simulated machine model: per-tensor execution plans cache
everything the per-format kernels of :mod:`repro.kernels` recompute per
call (sort permutations, segment offsets, format conversions), execution is cache-blocked and optionally sharded
across threads, and the all-mode batched driver shares factor-row gathers
when one set of factors serves every mode. See docs/PERFORMANCE.md.
The streaming driver uses only the batched driver from here; its
per-slice history accumulate is the kernels' ``segment_accumulate``.

Tune it per run via ``CstfConfig(engine="on" | "sharded" | "processes" |
EngineConfig(...))`` (default ``"on"``: cached serial execution) or on the
CLI with ``repro factorize --engine sharded``.
"""

from repro.engine.backends import (
    ExecutionBackend,
    get_backend,
    shutdown_backends,
)
from repro.engine.batched import all_mode_krp_rows
from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.driver import (
    EngineMttkrp,
    PlanBuildError,
    engine_mttkrp,
)
from repro.engine.execute import run_plan, run_stream
from repro.engine.plan import MttkrpPlan, PlanCache, SegmentStream, get_plan_cache

__all__ = [
    "EngineConfig",
    "resolve_engine",
    "ExecutionBackend",
    "get_backend",
    "shutdown_backends",
    "MttkrpPlan",
    "SegmentStream",
    "PlanCache",
    "get_plan_cache",
    "engine_mttkrp",
    "EngineMttkrp",
    "PlanBuildError",
    "all_mode_krp_rows",
    "run_plan",
    "run_stream",
]
