"""Every workload runs end to end at smoke scale and prints every metric;
a workload that crashes is counted as failed, not dropped.

The workload process checks after its traced pass that no tracing shim is
left on any ``repro`` module or class and exits non-zero otherwise, so a
zero exit code also means the tracer left nothing patched.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_run_prints_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--scale", "smoke", "--seconds", "0.3",
         "--seed", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]

    printed = {}
    for line in proc.stdout.splitlines()[:-1]:
        workload, metric, rest = line.split(" ", 2)
        if not metric.startswith("env."):
            _value, unit = rest.split(" ")
            printed[(workload, metric)] = unit
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert printed.get((w["name"], m["name"])) == m["unit"], (w["name"], m)
        assert (tmp_path / f"trace-{w['name']}.json").is_file()

    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_crashes_are_counted_as_failed_calls(tmp_path):
    from bench import run
    from bench.workloads import SCALES, Workload, measure

    broken = Workload("broken", "no-such-dataset", {}, "cuadmm", 1, "coo", "on")
    result = measure(broken, SCALES["smoke"], 0, 0.1, "e2e", tmp_path)
    assert (result["attempted"], result["failed"], result["metrics"]) == (1, 1, {})

    # A workload process that dies without printing a result.
    args = argparse.Namespace(seed=0, seconds=0.1, scale="no-such-scale", out=tmp_path)
    result = run.run_workload("paper-nips", args, "e2e")
    assert (result["attempted"], result["failed"], result["metrics"]) == (1, 1, {})
