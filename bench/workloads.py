"""The benchmark's workloads, each measured in its own process.

``bench/run.py`` starts ``python -m bench.workloads <workload> ...`` once per
workload, with the checkout's ``src`` on ``PYTHONPATH`` and BLAS pinned to
one thread through the environment (set before numpy is imported). The
process prints one JSON object on stdout: the metric values, the number of
``cstf`` calls attempted and failed, and the host description.

Every public call (``cstf`` or ``supervised_cstf``) counts as one
operation. A call fails when it raises, reports a recovery event, or its
factors, weights or fits differ (at ``rtol=0``) from a serial reference
run of the same tensor and seed (``mttkrp_format="coo"``, ``engine="on"``,
telemetry off).

Timing is a closed loop: one call after another, each stamping its outer
iterations through ``CstfConfig.on_iteration``. The first interval of a
call (from the call to its first stamp) holds the call's own set-up and is
not an iteration sample.

Timings are host-normalised: before every call the ``bench.hostspeed``
probe process times a fixed kernel, and every timing is scaled by
``HOST_REF_S / min(kernel time)``. The gated timings are fast-tail
statistics, which skip the host's bursts of interference; the kernel's
fastest time moves with a slowdown that lasts the whole run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.engine import get_plan_cache, shutdown_backends
from repro.obs import Telemetry
from repro.resilience import supervised_cstf

from bench.trace import ROOT as ROOT_SPAN
from bench.trace import Tracer, find_patched, layer_metrics, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
RANK = 32


@dataclass(frozen=True)
class Workload:
    """One benchmark input and configuration (see bench/README.md for why)."""

    name: str
    dataset: str
    load: dict
    """``FrosttDataset.load_scaled`` keywords at full scale."""
    update: str
    inner_iters: int
    fmt: str
    engine: object
    compute_fit: bool = True
    normalize: str = "max"
    durable: bool = False
    """Run through ``supervised_cstf`` with a checkpoint every iteration and
    a JSONL telemetry sink."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-nips", "nips", {"target_nnz": 80_000},
                 "cuadmm", 10, "blco", "on"),
        Workload("mttkrp-delicious", "delicious", {"target_nnz": 200_000},
                 "cuadmm", 1, "coo", {"shards": 2, "backend": "threads"},
                 compute_fit=False),
        Workload("update-nell2", "nell2", {"max_dim": 6000, "target_nnz": 60_000},
                 "admm_of", 10, "coo", "on", normalize="2"),
        Workload("durable-nips", "nips", {"target_nnz": 80_000},
                 "cuadmm", 10, "coo",
                 {"shards": 2, "backend": "processes", "shm": "auto"},
                 durable=True),
    )
}


@dataclass(frozen=True)
class Scale:
    max_iters: int
    inner_iters: int | None
    """``None`` keeps the workload's own inner-iteration count."""
    load: dict | None
    """``None`` keeps the workload's own tensor size."""


SCALES = {
    "full": Scale(10, None, None),
    "smoke": Scale(3, 2, {"max_dim": 60, "target_nnz": 2000}),
}
SETUP_SAMPLES = 15
MIN_TIMED_CALLS = 3
MIN_TRACED_PAIRS = 3

#: Fastest time of one ``bench.hostspeed`` kernel pass on the reference
#: host (the 2-vCPU Xeon of bench/README.md's baseline, BLAS on one thread).
#: Changing it rescales every normalised timing, so it is fixed with the
#: benchmark.
HOST_REF_S = 0.021


class HostSpeed:
    """Client of the ``bench.hostspeed`` probe process (see its doc)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.hostspeed"], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once; the caller waits, so the probe has a CPU."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed probe exited with {self._proc.poll()}")
        self.samples.append(float(line))

    def scale(self) -> float:
        """Factor that turns seconds on this host into reference seconds.

        The fastest sample, like the gated fast-tail timings, skips bursts
        of interference and still moves with a run-long slowdown.
        """
        return HOST_REF_S / min(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=10)


def _diffs(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live worker processes."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    return sum(_vm_hwm_mb(pid) for pid in pids)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next(
            (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
            "unknown",
        )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Bench:
    """Calls, checks and times one workload on one seeded tensor."""

    def __init__(self, workload: Workload, scale: Scale, seed: int, workdir: Path):
        self.w = workload
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        load = scale.load if scale.load is not None else workload.load
        self.tensor = repro.get_dataset(workload.dataset).load_scaled(seed=seed, **load)
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.ref = None
        self.tracer: Tracer | None = None
        """Set during a traced call: the call then runs inside a root span."""

    # ------------------------------------------------------------------ #
    def _config(self, *, reference: bool, max_iters: int | None, on_iteration):
        w, scale = self.w, self.scale
        params = dict(
            rank=RANK,
            max_iters=max_iters or scale.max_iters,
            update=w.update,
            update_params={"inner_iters": scale.inner_iters or w.inner_iters},
            normalize=w.normalize,
            compute_fit=w.compute_fit,
            seed=self.seed,
            telemetry="off",
            on_iteration=on_iteration,
        )
        if reference:
            params.update(mttkrp_format="coo", engine="on")
        else:
            params.update(mttkrp_format=w.fmt, engine=w.engine)
            if w.durable:
                params.update(
                    checkpoint_every=1,
                    checkpoint_path=str(self.workdir / "run.ckpt.npz"),
                    telemetry=Telemetry(jsonl_path=self.workdir / "run.jsonl"),
                )
        return repro.CstfConfig(**params)

    def _call(self, *, reference: bool = False, max_iters: int | None = None):
        """One timed public call: ``(result, start, end, iteration stamps)``."""
        clock = time.perf_counter
        stamps: list[float] = []

        def call():
            t0 = clock()
            cfg = self._config(
                reference=reference, max_iters=max_iters,
                on_iteration=lambda _it: stamps.append(clock()),
            )
            try:
                if self.w.durable and not reference:
                    result = supervised_cstf(self.tensor, cfg)
                else:
                    result = repro.cstf(self.tensor, cfg)
            finally:
                if isinstance(cfg.telemetry, Telemetry):
                    cfg.telemetry.close()
            return result, t0, clock(), stamps

        if self.tracer is not None:
            call = self.tracer.wrap(ROOT_SPAN, call)
        return call()

    def _mismatch(self, result, iterations: int) -> str | None:
        if result.recoveries:
            return f"{result.recoveries} recovery events"
        if iterations < self.scale.max_iters:
            if self.w.compute_fit and result.fits != self.ref.fits[:iterations]:
                return "early fits differ from the serial reference"
            return None
        got, want = result.kruskal, self.ref.kruskal
        if not all(np.array_equal(a, b) for a, b in zip(got.factors, want.factors)):
            return "factors differ from the serial reference"
        if not np.array_equal(got.weights, want.weights):
            return "weights differ from the serial reference"
        if result.fits != self.ref.fits:
            return "fits differ from the serial reference"
        if self.w.compute_fit and not result.fits[-1] > 0.0:
            return f"fit {result.fits[-1]} is not positive"
        return None

    def _fail(self, problem: str) -> None:
        self.failed += 1
        print(f"bench: {self.w.name}: call {self.attempted} failed: {problem}",
              file=sys.stderr)

    def attempt(self, *, max_iters: int | None = None):
        """One checked call; ``None`` when it failed (counted and logged).

        The host-speed kernel runs just before the call, outside its timing.
        """
        self.host.sample()
        self.attempted += 1
        try:
            out = self._call(max_iters=max_iters)
            problem = self._mismatch(out[0], max_iters or self.scale.max_iters)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            return out
        self._fail(problem)
        return None

    def reference(self) -> None:
        """The serial reference call; without it nothing can be checked."""
        self.attempted += 1
        try:
            self.ref = self._call(reference=True)[0]
        except Exception as exc:
            self._fail(f"reference: {type(exc).__name__}: {exc}")
            raise

    @staticmethod
    def cold() -> None:
        """Drop cached plans and stop backend workers: the next call starts cold."""
        get_plan_cache().clear()
        shutdown_backends()

    # ------------------------------------------------------------------ #
    def setup_samples(self) -> list[float]:
        """Set-up times of cold two-iteration calls.

        A sample is the time from the call to its first stamp minus the
        second iteration of the same call: the iteration subtracted ran
        next to the one it stands for, so a slower or faster host over
        the run cancels out.
        """
        samples = []
        for _ in range(SETUP_SAMPLES):
            self.cold()
            out = self.attempt(max_iters=2)
            if out is not None:
                _, t0, _, (s1, s2) = out
                samples.append((s1 - t0) - (s2 - s1))
        return samples

    def window(self, seconds: float) -> dict:
        """Closed-loop calls for *seconds* (and at least ``MIN_TIMED_CALLS``)."""
        runs, iters, last = [], [], None
        calls = 0
        cpu0 = time.process_time()
        end = time.perf_counter() + seconds
        while True:
            calls += 1
            out = self.attempt()
            if out is not None:
                last, t0, t1, stamps = out
                runs.append(t1 - t0)
                iters.extend(_diffs(stamps))
            if time.perf_counter() >= end and (
                len(runs) >= MIN_TIMED_CALLS or self.failed
            ):
                break
        if last is None:
            raise RuntimeError("no timed call succeeded")
        return {
            "runs": runs,
            "iters": iters,
            "last": last,
            "cpu_per_call": (time.process_time() - cpu0) / calls,
        }

    def _traced_call(self, tracer: Tracer, main: int) -> dict | None:
        """One cold traced call: its layer metrics, or ``None`` if it failed."""
        cache = get_plan_cache()
        self.cold()
        first = len(tracer.spans)
        hits, misses = cache.hits, cache.misses
        self.tracer = tracer.install()
        try:
            out = self.attempt()
        finally:
            tracer.uninstall()
            self.tracer = None
            leftover = find_patched()
            if leftover:
                raise RuntimeError(f"tracer left patched objects: {leftover}")
        if out is None:
            return None
        hits, misses = cache.hits - hits, cache.misses - misses
        spans = tracer.spans[first:]
        m = layer_metrics(spans, main)
        if m["core.residual_s"] < 0.0:
            raise RuntimeError("a main-thread span escaped the call span")
        m["engine.run_shards.wait_s"] = m["engine.run_shards.self_s"]
        m["engine.plan.calls"] = hits + misses
        m["engine.plan.builds"] = misses
        m["engine.plan.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        tl = out[0].timeline
        m["machine.sim.mttkrp.flops"] = tl.phase_flops.get("MTTKRP", 0.0)
        m["machine.sim.mttkrp.bytes"] = tl.phase_bytes.get("MTTKRP", 0.0)
        m["machine.sim.update.flops"] = tl.phase_flops.get("UPDATE", 0.0)
        m["machine.sim.update.bytes"] = tl.phase_bytes.get("UPDATE", 0.0)
        m["machine.sim.launches"] = tl.launch_count
        m["trace.spans"] = len(spans)
        m["iter_s"] = min(_diffs(out[3]))
        return m

    def _plain_cold_call(self) -> float | None:
        self.cold()
        out = self.attempt()
        return None if out is None else min(_diffs(out[3]))

    def traced(self, seconds: float, out_dir: Path) -> tuple[list[dict], float]:
        """Pairs of cold calls, one traced and one not, for *seconds*.

        Returns the traced calls' layer metrics and the tracing overhead:
        the median over pairs of traced / untraced fastest iteration, minus
        1. The order within a pair alternates, and the two calls of a pair
        run side by side, so host drift cancels in each ratio; the fastest
        iteration skips bursts, like the gated timings.
        """
        tracer = Tracer()
        main = threading.get_ident()
        per_call, ratios = [], []
        end = time.perf_counter() + seconds
        pair = 0
        while pair < MIN_TRACED_PAIRS or time.perf_counter() < end:
            if pair % 2 == 0:
                plain = self._plain_cold_call()
                m = self._traced_call(tracer, main)
            else:
                m = self._traced_call(tracer, main)
                plain = self._plain_cold_call()
            pair += 1
            if m is not None:
                per_call.append(m)
                if plain is not None:
                    ratios.append(m["iter_s"] / plain)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"trace-{self.w.name}.json",
                    workload=self.w.name, seed=self.seed)
        if not ratios:
            raise RuntimeError("no pair of traced and untraced calls succeeded")
        return per_call, statistics.median(ratios) - 1.0


def measure(w: Workload, scale: Scale, seed: int, seconds: float,
            passes: str, out_dir: Path) -> dict:
    """Run one workload; a crash is reported as a failed result, not raised."""
    metrics: dict[str, float] = {}
    work_parent = out_dir / "tmp"
    work_parent.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_parent))
    bench = None
    try:
        bench = Bench(w, scale, seed, workdir)
        bench.reference()
        setup = bench.setup_samples() if passes in ("e2e", "both") else []
        bench.attempt()  # warm-up: plans, pools, workers and BLAS
        timed = bench.window(seconds)
        rss = peak_rss_mb()
        if passes in ("layers", "both"):
            # A traced-only run has the time for twice the pairs, which
            # halves the noise of trace.overhead; the all-workloads run
            # must stay under four minutes.
            pairs_s = 2 * seconds if passes == "layers" else seconds
            per_call, overhead = bench.traced(pairs_s, out_dir)
        ref_s = bench.host.scale()
        iters = sorted(t * ref_s for t in timed["iters"])
        deciles = statistics.quantiles(iters, n=10)
        last = timed["last"]
        metrics.update({
            "run_s.p50": statistics.median(timed["runs"]) * ref_s,
            "iter_s.p50": statistics.median(iters),
            "peak_rss_mb": rss,
            "iter_s.p10": deciles[0],
            "run_s.min": min(timed["runs"]) * ref_s,
            "core.iter_s.p90": deciles[-1],
            "core.iter_s.samples": len(iters),
            "host.kernel_s": HOST_REF_S / ref_s,
            "fit": last.fit if w.compute_fit else last.kruskal.fit(bench.tensor),
            "sim_iter_s": last.per_iteration_seconds(),
            "process.cpu_s": timed["cpu_per_call"],
        })
        if setup:
            metrics["setup_s"] = statistics.median(setup) * ref_s
        if passes in ("layers", "both"):
            # All layer numbers come from the call with the median wall time,
            # so that they still add up to its wall time.
            per_call.sort(key=lambda m: m["core.wall_s"])
            metrics.update(per_call[len(per_call) // 2])
            del metrics["iter_s"]
            metrics["trace.overhead"] = overhead
            metrics["trace.span_us"] = span_cost_s() * 1e6
        metrics["error_rate"] = bench.failed / bench.attempted
        return {
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
            "env": environment(),
        }
    except Exception as exc:  # noqa: BLE001 - reported as a failed result
        print(f"bench: {w.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed = max(bench.failed if bench else 0, 1)
        return {
            "attempted": max(bench.attempted if bench else 0, failed),
            "failed": failed,
            "metrics": {},
            "env": environment(),
        }
    finally:
        shutdown_backends()
        _stop_resource_tracker()
        if bench is not None:
            bench.host.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _stop_resource_tracker() -> None:
    """Stop (and reap) the shared-memory resource tracker, if one started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--passes", choices=("e2e", "layers", "both"), default="both")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parents[1] != src:
        print(f"bench: repro was imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], SCALES[args.scale], args.seed,
                     args.seconds, args.passes, args.out)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
