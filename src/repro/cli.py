"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the Table 2 registry.
``devices``
    Print the modeled hardware roster (Table 1).
``factorize``
    Factorize a ``.tns`` file or a scaled analogue of a registered dataset
    and report the fit plus the simulated phase breakdown.
``plan``
    Run the CPU/GPU/heterogeneous decision model for a registered dataset
    at paper scale.
``report``
    Regenerate the paper's headline speedup figures (5/6) for one device.
``analyze``
    Structural report of a registered dataset: size group, balance,
    contention risk, and the update-vs-MTTKRP-bound prediction.
``trace``
    Convert a telemetry JSONL stream (``--trace-out`` of ``factorize`` or
    the scripts) into a Chrome/Perfetto trace JSON.
``perf``
    Trace analysis: phase/kernel attribution, hotspots, critical path, and
    the fusion/pre-inversion traffic accounting, from a telemetry JSONL
    file or a fresh in-process run.
``doctor``
    Diagnose a run: ranked findings (ADMM stalls, ρ thrash, fit
    oscillation, BLCO imbalance, checkpoint gaps) with evidence span IDs.
``diff``
    Compare a BENCH result (``scripts/run_bench_suite.py``) against the
    committed baselines in ``benchmarks/baselines/``; exits non-zero on
    regression, making it the CI performance gate.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.breakdown import phase_fractions
from repro.analysis.reporting import format_table
from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.data.frostt import FROSTT_TABLE2, get_dataset
from repro.data.tns import read_tns
from repro.machine.spec import A100, H100, ICELAKE_XEON

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="cSTF-Py: constrained sparse tensor factorization (ICPP '24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table 2 dataset registry")
    sub.add_parser("devices", help="print the modeled hardware roster")

    fac = sub.add_parser("factorize", help="factorize a .tns file or dataset analogue")
    fac.add_argument("input", help="path to a .tns file, or a dataset name (e.g. 'uber')")
    fac.add_argument("--rank", type=int, default=32)
    fac.add_argument("--update", default="cuadmm",
                     help="admm | cuadmm | admm_of | admm_pi | hals | mu | als | apg")
    fac.add_argument("--device", default="a100", help="a100 | h100 | cpu")
    fac.add_argument("--format", dest="mttkrp_format", default="blco",
                     help="blco | csf | alto | coo")
    fac.add_argument("--iters", type=int, default=10)
    fac.add_argument("--tol", type=float, default=0.0)
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--nnz", type=int, default=50_000,
                     help="target nonzeros for dataset analogues")
    fac.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace of the run: host spans, "
                          "simulated kernels and resilience events")
    fac.add_argument("--telemetry", action="store_true",
                     help="collect run telemetry (spans + metrics) and print a summary")
    fac.add_argument("--max-retries", type=int, default=None, metavar="N",
                     help="supervise the run: retry up to N times per "
                          "degradation tier on a crash (enables the "
                          "processes->sharded->serial ladder)")
    fac.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="supervised wall-clock budget across all attempts "
                          "(0 or unset = no deadline; implies supervision)")
    fac.add_argument("--trace-out", default=None, metavar="PATH",
                     help="stream telemetry to a JSONL file (implies --telemetry); "
                          "convert with 'repro trace'")
    _add_engine_args(fac)

    plan = sub.add_parser("plan", help="choose CPU/GPU/heterogeneous execution")
    plan.add_argument("dataset", help="registered dataset name")
    plan.add_argument("--rank", type=int, default=32)
    plan.add_argument("--gpu", default="a100")
    plan.add_argument("--host-shards", type=int, default=1,
                      help="engine worker shards assumed for the CPU MTTKRP "
                           "estimate (default: 1 = serial execution)")

    rep = sub.add_parser("report", help="regenerate the Figure 5/6 speedup table")
    rep.add_argument("--device", default="a100")
    rep.add_argument("--rank", type=int, default=32)

    ana = sub.add_parser("analyze", help="structural report of a dataset")
    ana.add_argument("dataset", help="registered dataset name")
    ana.add_argument("--rank", type=int, default=32)

    trc = sub.add_parser("trace", help="convert telemetry JSONL to a Chrome trace")
    trc.add_argument("jsonl", help="telemetry JSONL file (from --trace-out)")
    trc.add_argument("--out", default="trace.json", metavar="PATH",
                     help="output Chrome-trace path (default: trace.json)")

    wat = sub.add_parser("watch", help="live run monitor: tail a run's "
                                       "telemetry JSONL and refresh in place")
    wat.add_argument("jsonl", help="telemetry JSONL file another process is "
                                   "writing (from --trace-out); opened "
                                   "read-only, never modified")
    wat.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                     help="poll/redraw interval (default: 0.5)")
    wat.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                     help="stop after this many seconds (default: until the "
                          "run's summary line or Ctrl-C)")
    wat.add_argument("--once", action="store_true",
                     help="render one frame from the current file contents "
                          "and exit")
    wat.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen "
                          "(log-friendly)")

    def add_run_source(p):
        p.add_argument("source",
                       help="telemetry JSONL file (*.jsonl), or a .tns file / "
                            "dataset name to factorize in-process with telemetry on")
        p.add_argument("--rank", type=int, default=32)
        p.add_argument("--update", default="cuadmm")
        p.add_argument("--device", default="a100")
        p.add_argument("--format", dest="mttkrp_format", default="blco")
        p.add_argument("--iters", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--nnz", type=int, default=50_000,
                       help="target nonzeros for dataset analogues")
        _add_engine_args(p)

    perf = sub.add_parser("perf", help="trace analysis: attribution, hotspots, "
                                       "critical path, traffic claims")
    add_run_source(perf)
    perf.add_argument("--top", type=int, default=10,
                      help="number of kernel hotspots to show (default: 10)")

    doc = sub.add_parser("doctor", help="diagnose a run: ranked findings with "
                                        "evidence span IDs")
    add_run_source(doc)

    dif = sub.add_parser("diff", help="compare a BENCH result against committed "
                                      "baselines; non-zero exit on regression")
    dif.add_argument("bench", help="BENCH_*.json from scripts/run_bench_suite.py")
    dif.add_argument("--baselines", default="benchmarks/baselines", metavar="DIR",
                     help="baseline store directory (default: benchmarks/baselines)")
    dif.add_argument("--tolerance", type=float, default=None,
                     help="override the relative tolerance band for every metric")
    return parser


def _add_engine_args(p) -> None:
    p.add_argument("--engine", default="on",
                   choices=["on", "sharded", "processes"],
                   help="host MTTKRP execution: on (default; plan cache + "
                        "chunked serial execution), sharded (+ threads), "
                        "processes (+ isolated crash-tolerant worker "
                        "processes)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="engine worker shards (overrides --engine)")
    p.add_argument("--backend", default=None,
                   choices=["serial", "threads", "processes"],
                   help="shard dispatch backend (overrides --engine; "
                        "default: threads)")
    p.add_argument("--shm", default=None, choices=["auto", "on", "off"],
                   help="processes-backend shard transport (overrides "
                        "--engine): auto (default; zero-copy shared-memory "
                        "segments where available, pipe fallback), on "
                        "(require shared memory), off (pickle over pipes)")


def _engine_setting(args):
    """Map the engine flags to the ``CstfConfig.engine`` setting."""
    from repro.engine.config import default_shards

    overrides = {}
    if getattr(args, "shards", None) is not None:
        overrides["shards"] = args.shards
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
        if args.backend != "serial" and "shards" not in overrides:
            overrides["shards"] = default_shards()
    if getattr(args, "shm", None) is not None:
        overrides["shm"] = args.shm
    if overrides:
        return overrides
    return getattr(args, "engine", "on")


def _cmd_datasets(out) -> int:
    rows = [
        [d.name, " x ".join(f"{x:,}" for x in d.dims), f"{d.nnz:,}", f"{d.density:.1e}", d.group]
        for d in FROSTT_TABLE2
    ]
    print(format_table(["name", "dims", "nnz", "density", "group"], rows,
                       title="Table 2 datasets"), file=out)
    return 0


def _cmd_devices(out) -> int:
    rows = [
        [d.name, d.kind, f"{d.peak_flops / 1e12:.1f} TF/s",
         f"{d.mem_bandwidth / 1e9:.0f} GB/s", f"{d.cache_bytes / 1e6:.1f} MB"]
        for d in (A100, H100, ICELAKE_XEON)
    ]
    print(format_table(["device", "kind", "fp64 peak", "bandwidth", "cache"], rows,
                       title="Modeled hardware (Table 1)"), file=out)
    return 0


def _cmd_factorize(args, out) -> int:
    if args.input.endswith(".tns"):
        tensor = read_tns(args.input)
        label = args.input
    else:
        dataset = get_dataset(args.input)
        tensor = dataset.load_scaled(seed=args.seed, target_nnz=args.nnz)
        label = f"{dataset.name} (scaled analogue)"
    print(f"factorizing {label}: {tensor}", file=out)

    telemetry = "auto"
    if args.telemetry or args.trace_out or args.trace:
        from repro.obs import Telemetry

        telemetry = Telemetry(jsonl_path=args.trace_out)
    config = CstfConfig(
        rank=args.rank, max_iters=args.iters, tol=args.tol, update=args.update,
        device=args.device, mttkrp_format=args.mttkrp_format, seed=args.seed,
        telemetry=telemetry, engine=_engine_setting(args),
    )
    supervised = args.max_retries is not None or args.deadline is not None
    if supervised:
        from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

        sup = RunSupervisor(
            config,
            SupervisorConfig(
                max_retries=args.max_retries if args.max_retries is not None else 3,
                deadline=args.deadline if args.deadline is not None else 0.0,
            ),
        )
        result = sup.run(tensor)
        if sup.retries or sup.degradations:
            print(f"supervisor: {sup.retries} retries, "
                  f"{sup.degradations} degradations "
                  f"({'; '.join(e.kind for e in sup.events)})", file=out)
    else:
        result = cstf(tensor, config)
    print(f"fit: {result.fit:.4f} after {result.iterations} iterations "
          f"(converged={result.converged})", file=out)
    fractions = phase_fractions(result.timeline)
    rows = [
        [p, f"{result.timeline.seconds(p) * 1e3:.3f} ms", f"{100 * fractions[p]:.1f}%"]
        for p in PHASES
    ]
    print(format_table(["phase", "simulated time", "share"], rows,
                       title=f"simulated {result.executor.device.name} breakdown"), file=out)
    if result.telemetry is not None:
        rec = result.telemetry
        if telemetry != "auto":
            # Close the session so the JSONL stream ends with its summary
            # line (the metrics snapshot `repro doctor` replays) and the
            # file handle is released.
            telemetry.close()
        print(f"telemetry: {len(rec.spans)} spans, {len(rec.kernels)} kernels, "
              f"{len(rec.events)} events", file=out)
        if args.trace:
            from repro.obs import write_telemetry_chrome_trace

            write_telemetry_chrome_trace(rec, args.trace)
            print(f"chrome trace written to {args.trace}", file=out)
        if args.trace_out:
            print(f"telemetry JSONL written to {args.trace_out} "
                  f"(convert with: repro trace {args.trace_out})", file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    from repro.analysis.dataset_report import analyze

    ds = get_dataset(args.dataset)
    report = analyze(ds.stats(), rank=args.rank)
    rows = [
        ["dims", " x ".join(f"{d:,}" for d in report.shape)],
        ["nnz", f"{report.nnz:,}"],
        ["factor rows (ΣIₙ)", f"{report.factor_rows:,}"],
        ["nnz per factor row", f"{report.nnz_per_factor_row:.2f}"],
        ["size group (Fig 4)", report.size_group()],
        ["mode imbalance", f"{report.mode_imbalance:.1f}x"],
        ["contention risk", f"{report.contention_risk:.1f}"],
        ["factor working set", f"{report.factor_working_set_mb:.1f} MB (R={args.rank})"],
        ["predicted bottleneck", "UPDATE" if report.update_bound() else "MTTKRP"],
    ]
    print(format_table(["property", "value"], rows,
                       title=f"structural report: {ds.name}"), file=out)
    return 0


def _cmd_plan(args, out) -> int:
    from repro.scheduler.decision import plan_execution

    stats = get_dataset(args.dataset).stats()
    plan = plan_execution(stats, rank=args.rank, gpu=args.gpu,
                          host_shards=args.host_shards)
    rows = [[k, f"{v * 1e3:.2f} ms"] for k, v in sorted(plan.alternatives.items())]
    title = f"execution plan for {args.dataset} (R={args.rank})"
    if plan.host_shards > 1:
        title += f", {plan.host_shards} host shards"
    print(format_table(["strategy", "predicted s/iter"], rows, title=title), file=out)
    print(f"chosen: {plan.strategy} "
          f"({plan.advantage():.2f}x vs best pure strategy)", file=out)
    for phase, device in plan.placement.items():
        print(f"  {phase:10s} -> {device}", file=out)
    return 0


def _cmd_report(args, out) -> int:
    from repro.experiments.figures import fig5_6_end_to_end_speedup

    series = fig5_6_end_to_end_speedup(device=args.device, rank=args.rank)
    print(
        format_table(
            ["tensor", "CPU s/iter", "GPU s/iter", "speedup"],
            series.as_rows(),
            title=f"end-to-end speedup vs SPLATT ({args.device}, R={args.rank})",
        ),
        file=out,
    )
    return 0


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_trace(args, out) -> int:
    from pathlib import Path

    from repro.obs import validate_jsonl, write_telemetry_chrome_trace

    if not Path(args.jsonl).exists():
        _err(f"repro trace: file not found: {args.jsonl}")
        return 2
    errors = validate_jsonl(args.jsonl)
    if errors:
        for err in errors[:20]:
            _err(f"invalid telemetry: {err}")
        return 1
    trace = write_telemetry_chrome_trace(args.jsonl, args.out)
    print(f"chrome trace written to {args.out} "
          f"({len(trace['traceEvents'])} events) — open in ui.perfetto.dev "
          f"or chrome://tracing", file=out)
    return 0


# --------------------------------------------------------------------- #
# perf / doctor / diff — the consumer-side analysis verbs
# --------------------------------------------------------------------- #
def _load_analysis_record(args, out):
    """Resolve the shared ``source`` argument of perf/doctor to a RunRecord.

    ``*.jsonl`` sources are loaded and schema-validated; anything else is a
    ``.tns`` file or registered dataset name, factorized in-process with
    telemetry forced on (no files involved). Returns None after printing to
    stderr when the source cannot be resolved.
    """
    from pathlib import Path

    from repro.obs.analysis import load_run

    if args.source.endswith(".jsonl"):
        if not Path(args.source).exists():
            _err(f"repro: trace file not found: {args.source}")
            return None
        try:
            return load_run(args.source, validate=True)
        except ValueError as exc:
            _err(f"repro: invalid telemetry stream: {exc}")
            return None

    if args.source.endswith(".tns"):
        if not Path(args.source).exists():
            _err(f"repro: tensor file not found: {args.source}")
            return None
        tensor = read_tns(args.source)
        label = args.source
    else:
        try:
            dataset = get_dataset(args.source)
        except (KeyError, ValueError) as exc:
            _err(f"repro: unknown dataset {args.source!r}: {exc}")
            return None
        tensor = dataset.load_scaled(seed=args.seed, target_nnz=args.nnz)
        label = f"{dataset.name} (scaled analogue)"

    from repro.obs import Telemetry

    config = CstfConfig(
        rank=args.rank, max_iters=args.iters, update=args.update,
        device=args.device, mttkrp_format=args.mttkrp_format, seed=args.seed,
        telemetry=Telemetry(), engine=_engine_setting(args),
    )
    print(f"analyzing in-process run of {label}", file=out)
    return cstf(tensor, config).telemetry


def _cmd_watch(args, out) -> int:
    import os as _os

    from repro.obs.watch import watch_run

    if not _os.path.exists(args.jsonl):
        _err(f"repro watch: no such file: {args.jsonl}")
        return 2
    watch_run(
        args.jsonl,
        interval=args.interval,
        duration=args.duration,
        once=args.once,
        clear=not args.no_clear,
        out=out,
    )
    return 0


def _cmd_perf(args, out) -> int:
    from repro.obs.analysis import analyze_trace, fusion_report, preinversion_report

    record = _load_analysis_record(args, out)
    if record is None:
        return 2
    ta = analyze_trace(record)

    rows = [
        [r["phase"], f"{r['seconds'] * 1e3:.3f} ms", f"{100 * r['share']:.1f}%"]
        for r in ta.phase_table()
    ]
    print(format_table(["phase", "simulated time", "share"], rows,
                       title="phase attribution"), file=out)

    rows = []
    for stat in ta.kernel_hotspots(args.top):
        bound = "memory" if ta.memory_bound(stat) else "compute"
        rows.append(
            [stat.name, str(stat.calls), f"{stat.seconds * 1e3:.3f} ms",
             f"{stat.bytes / 1e6:.1f} MB", f"{stat.arithmetic_intensity:.2f}", bound]
        )
    print(format_table(
        ["kernel", "calls", "time", "bytes", "flop/byte", "bound"],
        rows, title=f"top {len(rows)} kernel hotspots"), file=out)

    path = ta.critical_path()
    if path:
        print("critical path (inclusive host time):", file=out)
        for depth, node in enumerate(path):
            print(f"  {'  ' * depth}{node.label()}  "
                  f"{node.inclusive * 1e3:.3f} ms", file=out)

    try:
        full = fusion_report(record)
        formation = fusion_report(record, formation_only=True)
    except ValueError as exc:
        print(f"fusion accounting: n/a ({exc})", file=out)
    else:
        plan = "fused" if full.fused else "unfused"
        print(f"fusion traffic ({plan} run, modeled counterfactual):", file=out)
        print(f"  auxiliary formation: fused/unfused bytes = "
              f"{formation.ratio:.3f} (paper claim ~2/3)", file=out)
        print(f"  full auxiliary step: fused/unfused bytes = "
              f"{full.ratio:.3f}", file=out)

    try:
        pre = preinversion_report(record)
    except ValueError:
        pass
    else:
        state = "on" if pre.preinverted else "off"
        print(f"pre-inversion {state}: {pre.triangular_solves} triangular solves, "
              f"{pre.apply_inverse_gemms} apply-inverse GEMMs "
              f"({pre.solves_per_update:.1f} solves per update call)", file=out)

    summary = record.metrics_summary or {}
    counters = summary.get("counters", {})
    hits = counters.get("engine.plan.hits", 0)
    misses = counters.get("engine.plan.misses", 0)
    if hits or misses:
        rate = hits / (hits + misses)
        print(f"engine plan cache: {int(hits)} hits, {int(misses)} misses "
              f"({100 * rate:.1f}% hit rate)", file=out)
        gauges = summary.get("gauges", {})
        workers = gauges.get("engine.shard.workers")
        if workers:
            imbalance = gauges.get("engine.shard.imbalance", 0.0)
            print(f"engine sharding: {int(workers)} workers, "
                  f"{imbalance:.3f} load imbalance (max/mean; 1.0 = balanced)", file=out)
    batches = counters.get("obs.overhead.batches", 0)
    if batches:
        ship = counters.get("obs.overhead.worker_s", 0.0)
        merge = counters.get("obs.overhead.merge_s", 0.0)
        print(f"telemetry shipping: {int(batches)} worker batches, "
              f"{int(counters.get('obs.overhead.spans', 0))} spans, "
              f"self-cost {1e3 * (ship + merge):.2f} ms "
              f"(worker {1e3 * ship:.2f} ms + merge {1e3 * merge:.2f} ms)",
              file=out)
    return 0


def _cmd_doctor(args, out) -> int:
    from repro.obs.analysis import diagnose

    record = _load_analysis_record(args, out)
    if record is None:
        return 2
    findings = diagnose(record)
    if not findings:
        print("no findings: run looks healthy", file=out)
        return 0
    for f in findings:
        print(f"[{f.severity}] {f.code}: {f.summary}", file=out)
        span_ids = f.evidence.get("span_ids")
        if span_ids:
            shown = ", ".join(f"#{i}" for i in span_ids[:8])
            more = f" (+{len(span_ids) - 8} more)" if len(span_ids) > 8 else ""
            print(f"    evidence spans: {shown}{more}", file=out)
    errors = sum(1 for f in findings if f.severity == "error")
    print(f"{len(findings)} finding(s), {errors} error(s)", file=out)
    return 1 if errors else 0


def _cmd_diff(args, out) -> int:
    import json
    from pathlib import Path

    from repro.obs.analysis import BaselineStore, diff_against_store, validate_bench

    path = Path(args.bench)
    if not path.exists():
        _err(f"repro diff: bench file not found: {args.bench}")
        return 2
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _err(f"repro diff: {args.bench} is not valid JSON: {exc}")
        return 2
    errors = validate_bench(doc)
    if errors:
        for err in errors[:10]:
            _err(f"repro diff: invalid bench document: {err}")
        return 2

    store = BaselineStore(args.baselines)
    report = diff_against_store(doc["groups"], store, tolerance=args.tolerance)

    rows = []
    for d in report.deltas:
        rows.append([
            d.status,
            d.name,
            "-" if d.baseline is None else f"{d.baseline:.4f}",
            "-" if d.current is None else f"{d.current:.4f}",
            "-" if d.ratio is None else f"{d.ratio:.3f}x",
        ])
    if rows:
        print(format_table(["status", "metric", "baseline", "current", "ratio"],
                           rows, title=f"diff vs {args.baselines}"), file=out)
    for key in report.new_groups:
        print(f"new group (no baseline yet): {key}", file=out)
    counts = report.counts()
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "no metrics"
    print(f"result: {summary}", file=out)
    if report.regressions:
        _err(f"repro diff: {len(report.regressions)} regression(s) beyond tolerance")
    return report.exit_code


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets(out)
    if args.command == "devices":
        return _cmd_devices(out)
    if args.command == "factorize":
        return _cmd_factorize(args, out)
    if args.command == "plan":
        return _cmd_plan(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "watch":
        return _cmd_watch(args, out)
    if args.command == "perf":
        return _cmd_perf(args, out)
    if args.command == "doctor":
        return _cmd_doctor(args, out)
    if args.command == "diff":
        return _cmd_diff(args, out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
