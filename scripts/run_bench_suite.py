#!/usr/bin/env python
"""Run the Figure 4/5/7 bench suite and write a timestamped BENCH JSON.

The suite (:func:`repro.obs.analysis.bench.run_bench_suite`) replays the
paper's headline evaluations through the simulated machine model, so the
output is deterministic for a given configuration. The document layout is
:data:`repro.obs.analysis.bench.BENCH_SCHEMA`, documented in
docs/OBSERVABILITY.md.

Run:
    python scripts/run_bench_suite.py                       # BENCH_<ts>.json
    python scripts/run_bench_suite.py --out results.json    # fixed name
    python scripts/run_bench_suite.py --write-baselines     # (re)seed
                                                            # benchmarks/baselines/

Gate a fresh run against the committed baselines with::

    python -m repro diff BENCH_<ts>.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.analysis.baseline import BaselineStore  # noqa: E402
from repro.obs.analysis.bench import (  # noqa: E402
    DEFAULT_DATASETS,
    bench_to_baselines,
    run_bench_suite,
    validate_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--device", default="a100", help="fig5/fig7 device")
    parser.add_argument("--rank", type=int, default=32)
    parser.add_argument("--inner-iters", type=int, default=10)
    parser.add_argument("--datasets", nargs="+", default=list(DEFAULT_DATASETS),
                        help="Table 2 dataset names for fig5/fig7")
    parser.add_argument("--fig4-names", nargs="+", default=["nips", "flickr"],
                        help="dataset names for the fig4 per-mode sweep")
    parser.add_argument("--fig4-device", default="h100")
    parser.add_argument("--shm-bench", action="store_true",
                        help="also measure the shmdispatch group: processes-"
                             "backend dispatch overhead, pipe vs shared-"
                             "memory transport (spawns a worker pool)")
    parser.add_argument("--shm-shards", type=int, default=4,
                        help="worker shards for the shmdispatch group")
    parser.add_argument("--shm-nnz", type=int, default=50_000,
                        help="nonzeros of the shmdispatch synthetic tensor")
    parser.add_argument("--shm-repeats", type=int, default=3,
                        help="shmdispatch repeats per transport (min is kept)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: BENCH_<timestamp>.json in cwd)")
    parser.add_argument("--write-baselines", action="store_true",
                        help="also (re)write benchmarks/baselines/ from this run")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    args = parser.parse_args(argv)

    doc = run_bench_suite(
        device=args.device,
        rank=args.rank,
        inner_iters=args.inner_iters,
        datasets=tuple(args.datasets),
        fig4_names=tuple(args.fig4_names),
        fig4_device=args.fig4_device,
        shm_bench=args.shm_bench,
        shm_shards=args.shm_shards,
        shm_nnz=args.shm_nnz,
        shm_repeats=args.shm_repeats,
    )
    errors = validate_bench(doc)
    if errors:  # defensive: run_bench_suite validates its own output
        for err in errors[:10]:
            print(f"invalid bench document: {err}", file=sys.stderr)
        return 1

    out = args.out or f"BENCH_{time.strftime('%Y%m%dT%H%M%S')}.json"
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    if not args.quiet:
        for group in doc["groups"]:
            print(f"[{group['key']}] {len(group['metrics'])} metrics")
        print(f"bench document written to {out}")

    if args.write_baselines:
        store = BaselineStore(REPO_ROOT / "benchmarks" / "baselines")
        for base in bench_to_baselines(doc):
            path = store.save(base)
            if not args.quiet:
                print(f"baseline written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
