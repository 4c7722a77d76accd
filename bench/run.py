"""Host-time benchmark of ``cstf``: each workload in a fresh subprocess.

Run from the root of a checkout::

    python3 bench/run.py --seed 0 [--out DIR]
    python3 bench/run.py --workload paper-nips --seed 0 --seconds 20 --trace 0

Without ``--workload`` every workload runs, with both the untraced
end-to-end pass and the traced per-layer pass. With ``--workload`` one
workload runs; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` and ``--trace 1`` its per-layer metrics.

Every metric is printed as ``workload metric value unit``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is non-zero when a call failed, an output differed from the serial
reference, or a metric is missing. A workload process that crashes or runs
out of time without a result counts as one failed call; the remaining
workloads still run and the last line is still printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

#: Per-workload limit: a ``--workload`` run must end within 180 s.
CHILD_TIMEOUT = 170.0


def _reap_group(pgid: int, grace: float = 5.0) -> None:
    """Wait until every process of the workload's session has ended.

    Stragglers get SIGKILL after *grace* seconds; the wait gives up after
    another *grace*, since an orphan's zombie is its new parent's to reap.
    """
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + grace
        time.sleep(0.05)


def run_workload(name: str, args, passes: str) -> dict:
    """The workload process's result; a crash counts as one failed call."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, "-m", "bench.workloads", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--passes", passes, "--out", str(args.out),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(f"bench: {name}: no result within {CHILD_TIMEOUT:g} s", file=sys.stderr)
    finally:
        _reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"bench: {name}: workload process exited with {proc.returncode} "
              "and no result", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "metrics": {}, "env": {}}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload is None:
        names, passes = workloads, "both"
        wanted = list(units)
    else:
        names, passes = [args.workload], ("layers" if args.trace else "e2e")
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    attempted = failed = 0
    missing: list[str] = []
    metrics: dict[str, dict] = {}
    for name in names:
        result = run_workload(name, args, passes)
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["env"].items():
            print(f"{name} env.{key} {value}")
        got = result["metrics"]
        for metric in units:
            if metric in got:
                print(f"{name} {metric} {got[metric]!r} {units[metric]}")
        for metric in wanted:
            value = got.get(metric)
            if value is None or not math.isfinite(value):
                missing.append(f"{name}/{metric}")
                continue
            key = metric if args.workload else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}

    if missing:
        print(f"bench: metrics missing or not finite: {missing}", file=sys.stderr)
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
