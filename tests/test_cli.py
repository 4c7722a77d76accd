"""The command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.data.tns import write_tns
from repro.tensor.synthetic import planted_sparse_cp


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["meditate"])


class TestDatasets:
    def test_lists_all_ten(self):
        code, text = _run(["datasets"])
        assert code == 0
        for name in ("nips", "uber", "amazon", "delicious"):
            assert name in text

    def test_devices(self):
        code, text = _run(["devices"])
        assert code == 0
        assert "A100" in text and "H100" in text
        assert "2039" in text


class TestFactorize:
    def test_tns_file(self, tmp_path):
        tensor, _ = planted_sparse_cp((12, 10, 8), rank=2, seed=0)
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        code, text = _run(
            ["factorize", str(path), "--rank", "2", "--iters", "15", "--update", "cuadmm"]
        )
        assert code == 0
        assert "fit:" in text
        assert "UPDATE" in text

    def test_dataset_analogue(self):
        code, text = _run(
            ["factorize", "uber", "--rank", "4", "--iters", "2", "--nnz", "2000"]
        )
        assert code == 0
        assert "scaled analogue" in text

    def test_other_update_and_device(self, tmp_path):
        tensor, _ = planted_sparse_cp((10, 9, 8), rank=2, seed=1)
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        code, text = _run(
            ["factorize", str(path), "--rank", "2", "--iters", "3",
             "--update", "mu", "--device", "cpu", "--format", "alto"]
        )
        assert code == 0
        assert "IceLake" in text

    def test_unknown_dataset_errors(self):
        with pytest.raises(KeyError):
            _run(["factorize", "netflix"])

    def test_engine_flag_matches_seed_run(self, tmp_path, kernel_oracle):
        tensor, _ = planted_sparse_cp((14, 11, 9), rank=2, seed=4)
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        base = ["factorize", str(path), "--rank", "2", "--iters", "4",
                "--format", "coo"]
        with kernel_oracle():
            code_seed, text_seed = _run(base)
        code_eng, text_eng = _run(base + ["--engine", "on"])
        code_sh, text_sh = _run(base + ["--shards", "2"])
        assert code_seed == code_eng == code_sh == 0
        # Same fit line as the kernel-oracle run: the engine settings change
        # host execution only.
        fit = next(l for l in text_seed.splitlines() if l.startswith("fit:"))
        assert fit in text_eng and fit in text_sh


class TestPlanAndReport:
    def test_plan_vast_is_heterogeneous(self):
        code, text = _run(["plan", "vast"])
        assert code == 0
        assert "het:mttkrp=cpu" in text
        assert "chosen:" in text

    def test_plan_large_is_gpu(self):
        code, text = _run(["plan", "amazon"])
        assert code == 0
        assert "chosen: gpu" in text

    def test_report(self):
        code, text = _run(["report", "--device", "a100"])
        assert code == 0
        assert "GMean" in text
        assert "delicious" in text


class TestAnalyze:
    def test_analyze_vast(self):
        code, text = _run(["analyze", "vast"])
        assert code == 0
        assert "contention risk" in text
        assert "MTTKRP" in text

    def test_analyze_delicious_update_bound(self):
        code, text = _run(["analyze", "delicious"])
        assert code == 0
        assert "UPDATE" in text
        assert "large" in text


class TestTraceErrors:
    """`repro trace` error paths: exit codes and stderr messages."""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, text = _run(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "repro trace: file not found:" in err and "nope.jsonl" in err

    def test_schema_invalid_line_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "id": "not-an-int"}\n', encoding="utf-8")
        code, _ = _run(["trace", str(bad), "--out", str(tmp_path / "t.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid telemetry:" in err and "line 1" in err
        assert not (tmp_path / "t.json").exists()  # nothing written on failure

    def test_empty_stream_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _ = _run(["trace", str(empty)])
        assert code == 1
        assert "no telemetry records" in capsys.readouterr().err

    def test_valid_stream_still_converts(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        code, _ = _run(["factorize", "uber", "--rank", "2", "--iters", "2",
                        "--nnz", "1000", "--trace-out", str(jsonl)])
        assert code == 0
        code, text = _run(["trace", str(jsonl), "--out", str(tmp_path / "t.json")])
        assert code == 0
        assert "chrome trace written" in text


class TestPerfVerb:
    def test_perf_on_dataset_analogue(self):
        code, text = _run(["perf", "uber", "--rank", "2", "--iters", "2",
                           "--nnz", "1000"])
        assert code == 0
        assert "phase attribution" in text
        assert "kernel hotspots" in text
        assert "critical path" in text
        assert "paper claim ~2/3" in text
        assert "pre-inversion on" in text

    def test_perf_missing_jsonl_exits_2(self, tmp_path, capsys):
        code, _ = _run(["perf", str(tmp_path / "gone.jsonl")])
        assert code == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_perf_invalid_jsonl_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "id": "x"}\n', encoding="utf-8")
        code, _ = _run(["perf", str(bad)])
        assert code == 2
        assert "invalid telemetry stream" in capsys.readouterr().err

    def test_perf_from_jsonl_file(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        _run(["factorize", "uber", "--rank", "2", "--iters", "2",
              "--nnz", "1000", "--trace-out", str(jsonl)])
        code, text = _run(["perf", str(jsonl)])
        assert code == 0
        assert "phase attribution" in text

    def test_perf_reports_engine_counters(self):
        code, text = _run(["perf", "uber", "--rank", "2", "--iters", "3",
                           "--nnz", "1000", "--format", "coo",
                           "--engine", "sharded"])
        assert code == 0
        assert "engine plan cache:" in text
        assert "hit rate" in text
        assert "engine sharding:" in text

    def test_perf_default_run_reports_plan_cache(self):
        code, text = _run(["perf", "uber", "--rank", "2", "--iters", "2",
                           "--nnz", "1000"])
        assert code == 0
        assert "engine plan cache:" in text
        assert "engine sharding" not in text


class TestDoctorVerb:
    def test_healthy_run_no_findings(self):
        code, text = _run(["doctor", "uber", "--rank", "2", "--iters", "2",
                           "--nnz", "1000"])
        assert code == 0
        assert "no findings: run looks healthy" in text

    def test_unknown_dataset_exits_2(self, capsys):
        code, _ = _run(["doctor", "netflix"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestDiffVerb:
    def test_missing_bench_file_exits_2(self, tmp_path, capsys):
        code, _ = _run(["diff", str(tmp_path / "BENCH_none.json")])
        assert code == 2
        assert "bench file not found" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = _run(["diff", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_invalid_doc_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_wrong.json"
        path.write_text(json.dumps({"type": "bench"}), encoding="utf-8")
        code, _ = _run(["diff", str(path)])
        assert code == 2
        assert "invalid bench document" in capsys.readouterr().err


class TestWatchVerb:
    def _write_stream(self, path):
        import json

        lines = [
            {"type": "meta", "version": 2, "run": {}},
            {"type": "span", "id": 0, "parent": None, "name": "shard",
             "ts": 0.0, "dur": 0.01, "attrs": {"shard": 0, "nnz": 9},
             "sim": None},
            {"type": "span", "id": 1, "parent": 0, "name": "shard_kernel",
             "ts": 0.0, "dur": 0.008, "attrs": {"shard": 0}, "sim": None,
             "worker": {"pid": 404, "id": 0}},
            {"type": "summary", "metrics": {}},
        ]
        path.write_text(
            "\n".join(json.dumps(x) for x in lines) + "\n", encoding="utf-8"
        )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _ = _run(["watch", str(tmp_path / "gone.jsonl")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_once_renders_panel(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        self._write_stream(jsonl)
        code, text = _run(["watch", str(jsonl), "--once"])
        assert code == 0
        assert "schema v2" in text
        assert "shard 0" in text
        assert "pids=[404]" in text

    def test_watch_does_not_modify_stream(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        self._write_stream(jsonl)
        before = jsonl.read_bytes()
        code, _ = _run(["watch", str(jsonl), "--once"])
        assert code == 0
        assert jsonl.read_bytes() == before

    def test_live_mode_exits_on_summary(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        self._write_stream(jsonl)
        code, text = _run(["watch", str(jsonl), "--interval", "0.01",
                           "--no-clear"])
        assert code == 0
        assert "finished" in text


class TestTrace:
    def test_factorize_with_trace(self, tmp_path):
        import json

        tensor, _ = planted_sparse_cp((10, 9, 8), rank=2, seed=2)
        tns_path = tmp_path / "t.tns"
        write_tns(tensor, tns_path)
        trace_path = tmp_path / "trace.json"
        code, text = _run(
            ["factorize", str(tns_path), "--rank", "2", "--iters", "2",
             "--trace", str(trace_path)]
        )
        assert code == 0
        assert "chrome trace written" in text
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "mttkrp_blco" in names
        assert "fused_auxiliary" in names
