"""The bench harness and the regression gate.

Acceptance (perf-lab issue):

- ``run_bench_suite`` produces a document validating against its published
  BENCH schema;
- ``repro diff`` exits 0 against the baselines committed on main;
- perturbing a metric beyond tolerance makes ``repro diff`` exit non-zero.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.analysis import BaselineStore, bench_to_baselines, validate_bench
from repro.obs.analysis.bench import DEFAULT_DATASETS, run_bench_suite

pytestmark = [pytest.mark.telemetry, pytest.mark.bench]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
COMMITTED_BASELINES = REPO_ROOT / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def bench_doc():
    return run_bench_suite()


def _run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestBenchDocument:
    def test_validates_against_published_schema(self, bench_doc):
        assert validate_bench(bench_doc) == []

    def test_covers_the_three_figures(self, bench_doc):
        assert [g["figure"] for g in bench_doc["groups"]] == [
            "fig4", "fig5", "fig7"
        ]

    def test_default_datasets_present(self, bench_doc):
        fig5 = next(g for g in bench_doc["groups"] if g["figure"] == "fig5")
        for name in DEFAULT_DATASETS:
            assert f"{name}.speedup" in fig5["metrics"]
        assert "geomean.speedup" in fig5["metrics"]

    def test_deterministic(self, bench_doc):
        # Every default group is simulated, so the document is bit-stable.
        assert run_bench_suite() == bench_doc

    def test_invalid_document_caught(self, bench_doc):
        broken = json.loads(json.dumps(bench_doc))
        broken["groups"][0]["metrics"]["bad"] = "text"
        errors = validate_bench(broken)
        assert errors and "not numeric" in errors[0]


class TestCommittedBaselines:
    """The repo ships baselines generated from this very suite on main."""

    def test_store_is_seeded_and_valid(self):
        store = BaselineStore(COMMITTED_BASELINES)
        keys = store.keys()
        assert len(keys) >= 3
        for key in keys:
            assert store.load(key) is not None  # load() validates

    def test_acceptance_diff_exits_zero_on_main(self, bench_doc, tmp_path):
        bench_path = tmp_path / "BENCH_main.json"
        bench_path.write_text(json.dumps(bench_doc), encoding="utf-8")
        code, text = _run_cli(["diff", str(bench_path),
                               "--baselines", str(COMMITTED_BASELINES)])
        assert code == 0, text
        assert "flat" in text

    def test_acceptance_perturbed_metric_exits_nonzero(self, bench_doc, tmp_path,
                                                       capsys):
        perturbed = json.loads(json.dumps(bench_doc))
        # Perturb a deterministic tight-tolerance group.
        group = next(g for g in perturbed["groups"] if g["figure"] == "fig5")
        name, value = next(iter(group["metrics"].items()))
        group["metrics"][name] = value * 0.5  # far past 5%
        bench_path = tmp_path / "BENCH_perturbed.json"
        bench_path.write_text(json.dumps(perturbed), encoding="utf-8")
        code, text = _run_cli(["diff", str(bench_path),
                               "--baselines", str(COMMITTED_BASELINES)])
        assert code == 1
        assert "regressed" in text
        assert "regression(s) beyond tolerance" in capsys.readouterr().err


class TestBaselineConversion:
    def test_groups_convert_to_valid_baselines(self, bench_doc, tmp_path):
        store = BaselineStore(tmp_path)
        for base in bench_to_baselines(bench_doc, tolerance=0.1):
            store.save(base)
        assert store.keys() == sorted(g["key"] for g in bench_doc["groups"])
        doc = store.load(bench_doc["groups"][0]["key"])
        assert doc["tolerance"] == 0.1
        assert doc["meta"]["figure"] == "fig4"

    def test_group_tolerance_beats_blanket_override(self, bench_doc, tmp_path):
        # Measured groups (shmdispatch) carry their own wide tolerance;
        # stamp one on a simulated group and check it beats the override.
        doc = json.loads(json.dumps(bench_doc))
        measured = doc["groups"][0]
        measured["tolerance"] = 0.5
        store = BaselineStore(tmp_path)
        for base in bench_to_baselines(doc, tolerance=0.1):
            store.save(base)
        assert store.load(measured["key"])["tolerance"] == 0.5
        assert store.load(doc["groups"][1]["key"])["tolerance"] == 0.1


class TestBenchScript:
    def test_writes_schema_valid_bench_json(self, tmp_path, monkeypatch):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            import run_bench_suite as script
        finally:
            sys.path.pop(0)
        out = tmp_path / "BENCH_test.json"
        code = script.main(["--out", str(out), "--quiet",
                            "--datasets", "nips", "--fig4-names", "nips"])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert validate_bench(doc) == []
        assert doc["config"]["datasets"] == ["nips"]
        assert doc["config"]["fig4_names"] == ["nips"]
