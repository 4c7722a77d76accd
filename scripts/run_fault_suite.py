#!/usr/bin/env python
"""Run the fault-injection test suite under pinned, deterministic seeds.

The ``faults``-marked tests corrupt intermediates at every cSTF phase and
assert that each recovery path in :mod:`repro.resilience` actually fires;
the ``chaos``-marked tests inject *execution* faults (worker crashes,
stragglers, corrupted cached plans) and assert the engine and supervisor
recover bit-identically.
All randomness is seeded, so the suite is bitwise repeatable; this runner
pins the remaining environmental sources (hash seed, test order) so a CI
failure reproduces locally from the same command:

    python scripts/run_fault_suite.py            (exit code 0 iff all pass)

``--backend processes`` adds the process-isolation stage: the
``procfaults``-marked tests (real worker SIGKILLs; excluded from tier-1)
plus a supervised chaos run on the ``processes`` execution backend that
SIGKILLs a worker mid-MTTKRP *and* corrupts the cached plans, asserting
bit-identical convergence with ``worker_lost`` events, a nonzero
``engine.plan.repairs`` count matched by as many ``plan_repaired`` events,
more ``engine.proc.streams_shipped`` than the ``ndim x shards`` of a clean
run (respawned workers were sent their shard streams again), and a
schema-valid trace. The chaos run
executes **twice** — once per shard transport (``shm="on"`` zero-copy shared
memory, ``shm="off"`` pipe pickling) — and each trace is checked with
``--require-worker-spans`` (trace completeness: every executed shard must
carry at least one worker-attributed kernel span, even across kills and
respawns) and ``--require-transport-attr`` (transport provenance: every
shard span proves which transport actually ran).

``--backend processes`` also runs the **resource-pressure stage**: the
``pressure``-marked tests (real worker processes under OOM kills and
shm exhaustion; excluded from tier-1) plus a supervised chaos run that
injects ``oom_worker`` (real SIGKILL dressed as the kernel OOM killer),
``disk_full`` (synthetic ENOSPC on checkpoint/sink writes) and
``shm_exhausted`` (refused /dev/shm leases), asserting bit-identical
convergence, pressure-degradation events, shard streams shipped again to
respawned workers, a clean run with zero pressure events, and no leaked
/dev/shm segments; each trace is checked with
``--require-pressure-events``. The
stage runs twice, once per shard transport (``shm on``/``off``).
``--stage resource`` runs only that stage.

Extra arguments are forwarded to pytest, e.g.::

    python scripts/run_fault_suite.py -k checkpoint -x
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline fault run with JSONL telemetry: injects faults at a high rate so
# recovery events land in the stream, which check_trace.py then validates
# against the published schema (resilience events must round-trip).
_FAULT_TRACE_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.obs import Telemetry
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.tensor.coo import SparseTensor

rng = np.random.default_rng(0)
idx = rng.integers(0, [14, 12, 10], size=(300, 3))
vals = rng.random(300)
X = SparseTensor(idx, vals, (14, 12, 10))
injector = FaultInjector(
    [FaultSpec(phase="UPDATE", kind="nan", probability=0.5),
     FaultSpec(phase="MTTKRP", kind="perturb", probability=0.5)],
    seed=7,
)
cstf(X, CstfConfig(
    rank=4, max_iters=4, update="admm", device="cpu", mttkrp_format="coo",
    seed=3, fault_injector=injector,
    telemetry=Telemetry(jsonl_path=SYS_ARGV_PATH),
))
"""


# Engine equivalence gate: every engine configuration must reproduce the
# per-format kernel oracle bit for bit (all four formats serial; coo and
# alto sharded on threads; coo on worker processes) and hit its plan cache
# on every lookup after the first AO iteration.
_ENGINE_EQUIV_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import get_plan_cache, shutdown_backends
from repro.tensor.coo import SparseTensor
from tests.kernel_oracle import kernel_oracle

rng = np.random.default_rng(0)
idx = rng.integers(0, [60, 45, 30], size=(5000, 3))
vals = rng.random(5000)
X = SparseTensor(idx, vals, (60, 45, 30))

def run(engine, fmt="coo", telemetry="off"):
    return cstf(X, CstfConfig(
        rank=8, max_iters=11, update="cuadmm", device="a100",
        mttkrp_format=fmt, compute_fit=False, seed=1,
        telemetry=telemetry, engine=engine,
    ))

def same(res, ref, label):
    assert np.array_equal(res.kruskal.weights, ref.kruskal.weights), (
        label + " weights differ"
    )
    for mode, (fa, fb) in enumerate(zip(res.kruskal.factors, ref.kruskal.factors)):
        assert np.array_equal(fa, fb), label + f" factor {mode} differs"

for fmt in ("coo", "alto", "blco", "csf"):
    with kernel_oracle():
        ref = run("on", fmt)
    same(run("on", fmt), ref, fmt + " engine-serial")
    if fmt in ("coo", "alto"):
        same(run({"shards": 3}, fmt), ref, fmt + " engine-sharded")
    if fmt == "coo":
        try:
            procs = run({"shards": 2, "backend": "processes"}, fmt)
        finally:
            shutdown_backends()
        same(procs, ref, fmt + " engine-processes")

get_plan_cache().clear()  # count the first iteration's plan builds
on_res = run("on", telemetry="on")
counters = on_res.telemetry.metrics_summary.get("counters", {})
hits = counters.get("engine.plan.hits", 0)
misses = counters.get("engine.plan.misses", 0)
rate = hits / max(1, hits + misses)
assert rate >= 0.9, f"plan-cache hit rate {rate:.3f} < 0.9"
print(f"engine equivalence OK: serial/sharded/processes bitwise vs the "
      f"kernel oracle, hit rate {rate:.3f}")
"""


# Chaos gate: a *supervised* run with execution faults injected (worker
# crashes, stragglers, plan corruption) must complete bit-identical to a
# fault-free kernel-oracle run, and its telemetry stream must stay schema-valid; a
# supervised run with no faults must add zero retries/degradations.
_CHAOS_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf

from repro.tensor.coo import SparseTensor
from tests.kernel_oracle import kernel_oracle

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=4, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

# The fault-free reference: the same run on the per-format kernel oracle.
with kernel_oracle():
    plain = cstf(X, CstfConfig(**base))

# 1. Supervised, no faults: pure pass-through.
sup = supervised_cstf(X, CstfConfig(**base))
for a, b in zip(plain.kruskal.factors, sup.kruskal.factors):
    assert np.array_equal(a, b), "supervised no-fault run is not bit-identical"
assert not [e for e in sup.events if e.phase == "SUPERVISE"], (
    "no-fault supervised run produced supervisor events"
)

# 2. Supervised chaos: every execution fault kind, sharded engine, traced.
injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="worker_crash", probability=0.5),
     FaultSpec(phase="EXECUTE", kind="slow_shard", probability=0.5, magnitude=0.2),
     FaultSpec(phase="EXECUTE", kind="corrupt_plan", probability=0.3)],
    seed=23,
)
chaos = supervised_cstf(X, CstfConfig(
    **base, engine={"shards": 3, "shard_timeout": 0.05},
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=SYS_ARGV_PATH),
))
assert injector.injected > 0, "chaos run injected no execution faults"
for a, b in zip(plain.kruskal.factors, chaos.kruskal.factors):
    assert np.array_equal(a, b), "chaos run is not bit-identical to fault-free"
kinds = {e.kind for e in chaos.events}
recoveries = kinds & {"shard_retry", "shard_timeout", "plan_repaired"}
assert recoveries, f"no recovery events on the chaos run (saw {sorted(kinds)})"
print("chaos OK: faults=%d, recoveries=%s" % (
    injector.injected, ",".join(sorted(recoveries))))
"""


# Process-backend chaos gate: a supervised run on isolated worker
# processes, with a real SIGKILL landing mid-MTTKRP and the cached plans
# corrupted under the run. The watchdog must detect the dead worker
# (worker_lost), the driver must evict and replan the damaged plans with
# every repair both counted (engine.plan.repairs) and logged
# (plan_repaired), and the factors must still match the
# serial-backend run bit for bit. Trace stays schema-valid and complete —
# every shard span keeps a worker-attributed kernel span (checked by the
# caller).
_PROCESS_CHAOS_SNIPPET = """
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import shutdown_backends
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf
from repro.tensor.coo import SparseTensor

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=3, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

serial = cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "serial"},
))

injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="kill_worker", probability=0.4),
     FaultSpec(phase="EXECUTE", kind="corrupt_plan", probability=0.2)],
    seed=29,
)
chaos = supervised_cstf(X, CstfConfig(
    **base,
    engine={"shards": 3, "backend": "processes", "shm": SHM_MODE},
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=TRACE_PATH),
))
assert injector.injected > 0, "process chaos run injected no faults"
counters = chaos.telemetry.metrics_summary.get("counters", {})
if SHM_MODE == "on":
    assert counters.get("engine.shm.segments", 0) > 0, (
        "shm transport enabled but no shared-memory segment was published"
    )
else:
    assert "engine.shm.segments" not in counters, (
        "shm segments created despite shm='off'"
    )
for mode, (a, b) in enumerate(zip(serial.kruskal.factors, chaos.kruskal.factors)):
    assert np.array_equal(a, b), (
        f"processes backend factor {mode} differs from serial under chaos"
    )
kinds = {e.kind for e in chaos.events}
assert "worker_lost" in kinds, (
    f"no worker_lost event despite kill_worker faults (saw {sorted(kinds)})"
)
repairs = counters.get("engine.plan.repairs", 0)
assert repairs > 0, (
    f"no engine.plan.repairs despite corrupt_plan faults (saw {sorted(kinds)})"
)
logged = sum(e.kind == "plan_repaired" for e in chaos.events)
assert logged == repairs, (
    f"{repairs} engine.plan.repairs but {logged} plan_repaired events"
)
# Shard streams stay resident in the workers: a clean run ships each one
# once (ndim x shards); a respawned worker starts empty and is sent its
# streams again.
shipped = counters.get("engine.proc.streams_shipped", 0)
assert shipped > X.ndim * 3, (
    f"workers were lost but only {shipped} shard streams were shipped"
)
shutdown_backends()
print("process chaos OK (shm=%s): faults=%d, plan repairs=%d, kinds=%s" % (
    SHM_MODE, injector.injected, repairs,
    ",".join(sorted(kinds & {"worker_lost", "plan_repaired"}))))
"""


# Resource-pressure chaos gate: a supervised processes-backend run with
# every resource fault kind injected — workers OOM-SIGKILLed mid-shard,
# checkpoint/sink writes hitting synthetic ENOSPC, shm leases refused. The
# run must complete bit-identical to an uninjected serial run, its events
# must prove the degraded paths fired (checkpoint skips, transport
# downgrades on the shm transport), a clean run must show zero pressure
# events, and the
# shared-memory pool must leak nothing into /dev/shm.
_RESOURCE_CHAOS_SNIPPET = """
import glob
import numpy as np
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import shutdown_backends
from repro.obs import Telemetry
from repro.resilience import FaultInjector, FaultSpec, supervised_cstf
from repro.resilience.checkpoint import load_checkpoint
from repro.tensor.coo import SparseTensor

shm_before = set(glob.glob("/dev/shm/*"))

rng = np.random.default_rng(0)
idx = rng.integers(0, [40, 30, 20], size=(2500, 3))
vals = rng.random(2500)
X = SparseTensor(idx, vals, (40, 30, 20))
base = dict(rank=5, max_iters=3, update="admm", device="cpu",
            mttkrp_format="coo", seed=11)

serial = cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "serial"},
))

injector = FaultInjector(
    [FaultSpec(phase="EXECUTE", kind="oom_worker", probability=0.4),
     FaultSpec(phase="EXECUTE", kind="disk_full", probability=0.5),
     FaultSpec(phase="EXECUTE", kind="shm_exhausted", probability=0.5)],
    seed=31,
)
chaos = supervised_cstf(X, CstfConfig(
    **base,
    engine={"shards": 3, "backend": "processes", "shm": SHM_MODE},
    checkpoint_every=1, checkpoint_path=CK_PATH,
    fault_injector=injector,
    telemetry=Telemetry(jsonl_path=TRACE_PATH),
))
assert injector.injected > 0, "resource chaos run injected no faults"
for mode, (a, b) in enumerate(zip(serial.kruskal.factors, chaos.kruskal.factors)):
    assert np.array_equal(a, b), (
        f"factor {mode} differs from serial under resource pressure"
    )
assert np.array_equal(serial.kruskal.weights, chaos.kruskal.weights), (
    "weights differ from serial under resource pressure"
)
kinds = {e.kind for e in chaos.events}
# An OOM-killed worker is respawned empty and is sent its shard streams
# again.
counters = chaos.telemetry.metrics_summary.get("counters", {})
shipped = counters.get("engine.proc.streams_shipped", 0)
assert shipped > X.ndim * 3, (
    f"workers were OOM-killed but only {shipped} shard streams were shipped"
)
assert "checkpoint_skipped" in kinds, (
    f"no persistence skips despite disk_full faults (saw {sorted(kinds)})"
)
if SHM_MODE == "on":
    assert "transport_downgraded" in kinds, (
        f"no transport_downgraded despite shm_exhausted faults "
        f"(saw {sorted(kinds)})"
    )
ck = load_checkpoint(CK_PATH)
assert ck.iteration >= 1, "no checkpoint generation survived the skips"

# A clean supervised run (no faults) must pay nothing.
clean = supervised_cstf(X, CstfConfig(
    **base, engine={"shards": 3, "backend": "processes", "shm": SHM_MODE},
))
for a, b in zip(serial.kruskal.factors, clean.kruskal.factors):
    assert np.array_equal(a, b), "clean processes run is not bit-identical"
clean_kinds = {e.kind for e in clean.events}
pressure = {"transport_downgraded", "checkpoint_skipped"}
assert not (clean_kinds & pressure), (
    f"clean run shows pressure events: {sorted(clean_kinds & pressure)}"
)

shutdown_backends()
leaked = set(glob.glob("/dev/shm/*")) - shm_before
assert not leaked, f"/dev/shm leaked segments: {sorted(leaked)}"
lost = sum(e.kind == "worker_lost" for e in chaos.events)
print("resource chaos OK (shm=%s): faults=%d, workers lost=%d, "
      "streams shipped=%d, kinds=%s" % (
    SHM_MODE, injector.injected, lost, shipped,
    ",".join(sorted(kinds & pressure))))
"""


def _check_resource_chaos(env, shm_mode: str) -> int:
    """Resource-pressure chaos: OOM + ENOSPC + shm exhaustion, degraded
    but bit-identical; the trace must prove the pressure paths fired."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "resource_chaos.jsonl"
        ck = Path(tmp) / "resource_chaos.npz"
        snippet = (
            _RESOURCE_CHAOS_SNIPPET
            .replace("TRACE_PATH", repr(str(trace)))
            .replace("CK_PATH", repr(str(ck)))
            .replace("SHM_MODE", repr(shm_mode))
        )
        code = subprocess.call(
            [sys.executable, "-c", snippet], cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print(f"resource chaos run failed (shm={shm_mode})")
            return code
        # No worker-span/transport gates here: a run whose sink degrades
        # under an injected sink fault legitimately truncates its stream.
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", "--require-pressure-events", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_process_chaos(env, shm_mode: str) -> int:
    """Process-backend chaos: SIGKILL + plan corruption, bit-identical.

    Runs on one shard transport (*shm_mode* ``"on"`` or ``"off"``); the
    caller invokes it for both so recovery is proven with and without the
    zero-copy path.
    """
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "process_chaos.jsonl"
        snippet = (
            _PROCESS_CHAOS_SNIPPET
            .replace("TRACE_PATH", repr(str(trace)))
            .replace("SHM_MODE", repr(shm_mode))
        )
        code = subprocess.call(
            [sys.executable, "-c", snippet], cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print(f"process chaos run failed (shm={shm_mode})")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", "--require-worker-spans", "--require-transport-attr",
             str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_chaos(env) -> int:
    """Supervised chaos run: bit-identical recovery + schema-valid trace."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "chaos_run.jsonl"
        code = subprocess.call(
            [sys.executable, "-c",
             _CHAOS_SNIPPET.replace("SYS_ARGV_PATH", repr(str(trace)))],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("chaos run failed")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_engine_equivalence(env) -> int:
    """Kernel oracle vs engine serial/sharded/processes: bit-identical."""
    return subprocess.call(
        [sys.executable, "-c", _ENGINE_EQUIV_SNIPPET], cwd=REPO_ROOT, env=env,
    )


def _check_fault_trace(env) -> int:
    """Run a faulty factorization with telemetry and validate the stream."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "fault_run.jsonl"
        code = subprocess.call(
            [sys.executable, "-c",
             _FAULT_TRACE_SNIPPET.replace("SYS_ARGV_PATH", repr(str(trace)))],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("fault-trace generation failed")
            return code
        return subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_trace.py"),
             "--quiet", str(trace)],
            cwd=REPO_ROOT, env=env,
        )


def _check_perf_baselines(env) -> int:
    """Run the bench suite and gate it against the committed baselines.

    The simulated groups are seeded, so any drift caught by ``repro diff``
    is a genuine behavior change, not noise. The ``--shm-bench`` group
    (processes-backend dispatch overhead, pipe vs shared-memory transport)
    rides along and is diffed against its blessed baseline; its speedup is
    reported informationally. Host wall-clock of whole runs is gated by
    the ``bench/`` harness (``BENCHMARK.json``), not here.
    """
    import json

    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "BENCH_ci.json"
        code = subprocess.call(
            [sys.executable, str(REPO_ROOT / "scripts" / "run_bench_suite.py"),
             "--quiet", "--shm-bench", "--out", str(bench)],
            cwd=REPO_ROOT, env=env,
        )
        if code != 0:
            print("bench-suite generation failed")
            return code
        doc = json.loads(bench.read_text(encoding="utf-8"))
        for group in doc["groups"]:
            if group["figure"] == "shmdispatch":
                m = group["metrics"]
                print(f"shm dispatch overhead: pipe {m['pipe.dispatch_s']*1e3:.1f}ms "
                      f"vs shm {m['shm.dispatch_s']*1e3:.1f}ms "
                      f"({m['shm_speedup']:.2f}x)")
        return subprocess.call(
            [sys.executable, "-m", "repro", "diff", str(bench),
             "--baselines", str(REPO_ROOT / "benchmarks" / "baselines")],
            cwd=REPO_ROOT, env=env,
        )


def main(extra_args: list[str]) -> int:
    extra_args = list(extra_args)
    backend = "threads"
    if "--backend" in extra_args:
        at = extra_args.index("--backend")
        try:
            backend = extra_args[at + 1]
        except IndexError:
            print("--backend requires a value (threads or processes)")
            return 2
        del extra_args[at:at + 2]
        if backend not in ("threads", "processes"):
            print(f"unknown --backend {backend!r} (expected threads or processes)")
            return 2
    stage = None
    if "--stage" in extra_args:
        at = extra_args.index("--stage")
        try:
            stage = extra_args[at + 1]
        except IndexError:
            print("--stage requires a value (resource)")
            return 2
        del extra_args[at:at + 2]
        if stage != "resource":
            print(f"unknown --stage {stage!r} (expected resource)")
            return 2

    env = dict(os.environ)
    # Pin every environmental source of nondeterminism: fixed hash seed,
    # and src/ on the path so the checkout (not an installed wheel) is
    # what gets exercised.
    env["PYTHONHASHSEED"] = "0"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    markers = ["faults", "chaos"]
    if backend == "processes":
        markers.extend(["procfaults", "pressure"])
    if stage == "resource":
        markers = ["pressure"]
    for marker in markers:
        cmd = [
            sys.executable, "-m", "pytest",
            "-m", marker,
            "-p", "no:randomly",  # fixed collection order even if the plugin exists
            "-p", "no:cacheprovider",
            "-q",
            *extra_args,
        ]
        print("$", " ".join(cmd))
        code = subprocess.call(cmd, cwd=REPO_ROOT, env=env)
        if code != 0:
            return code
    if stage == "resource":
        for shm_mode in ("on", "off"):
            print(f"\nrunning the resource-pressure chaos gate "
                  f"(OOM + ENOSPC + shm exhaustion, traced, shm={shm_mode})")
            code = _check_resource_chaos(env, shm_mode)
            if code != 0:
                return code
        return 0
    print("\nrunning the supervised chaos gate (execution faults, traced)")
    code = _check_chaos(env)
    if code != 0:
        return code
    if backend == "processes":
        for shm_mode in ("on", "off"):
            print(f"\nrunning the process-backend chaos gate "
                  f"(real SIGKILL + plan corruption, traced, shm={shm_mode})")
            code = _check_process_chaos(env, shm_mode)
            if code != 0:
                return code
        for shm_mode in ("on", "off"):
            print(f"\nrunning the resource-pressure chaos gate "
                  f"(OOM + ENOSPC + shm exhaustion, traced, shm={shm_mode})")
            code = _check_resource_chaos(env, shm_mode)
            if code != 0:
                return code
    print("\nvalidating fault-run telemetry against the schema")
    code = _check_fault_trace(env)
    if code != 0:
        return code
    print("\nchecking engine (serial, sharded, processes) against the kernel oracle")
    code = _check_engine_equivalence(env)
    if code != 0:
        return code
    print("\ngating the bench suite against committed baselines")
    return _check_perf_baselines(env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
