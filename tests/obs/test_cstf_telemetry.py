"""End-to-end telemetry acceptance: the driver, the device bridge, numerics.

The acceptance contract from the observability issue:

- per-phase simulated seconds in the RunRecord agree with
  ``Timeline.seconds(phase)`` within float tolerance;
- the JSONL stream round-trips to a schema-valid, Perfetto-loadable
  Chrome trace;
- the ``admm.inner_iters`` histogram matches the ground-truth inner
  iteration count;
- telemetry never changes numerics: ``"off"`` is bit-identical to the
  seed behaviour and ``"on"`` matches with rtol=0.
"""

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.engine import EngineConfig
from repro.obs import Telemetry, telemetry_session, validate_jsonl
from repro.obs.analysis import diagnose
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import planted_sparse_cp

pytestmark = pytest.mark.telemetry

INNER_ITERS = 5
MAX_ITERS = 3


@pytest.fixture(scope="module")
def tensor():
    t, _ = planted_sparse_cp((14, 12, 10), rank=3, factor_sparsity=0.4, seed=5)
    return t


def _config(telemetry):
    return CstfConfig(
        rank=3, max_iters=MAX_ITERS, tol=0.0, update="admm", device="cpu",
        mttkrp_format="coo", seed=0, telemetry=telemetry,
        update_params={"inner_iters": INNER_ITERS},
    )


@pytest.fixture(scope="module")
def traced(tensor):
    return cstf(tensor, _config("on"))


class TestAcceptance:
    def test_phase_seconds_agree_with_timeline(self, traced):
        rec = traced.telemetry
        assert rec is not None
        for phase in PHASES:
            assert rec.phase_seconds(phase) == pytest.approx(
                traced.timeline.seconds(phase), rel=1e-12
            )
        assert rec.sim_total_seconds() == pytest.approx(
            traced.timeline.total_seconds(), rel=1e-12
        )

    def test_admm_inner_iters_histogram_matches_ground_truth(self, traced):
        hist = traced.telemetry.metrics_summary["histograms"]["admm.inner_iters"]
        ndim = 3
        assert hist["count"] == MAX_ITERS * ndim  # one update per mode per iter
        # tol=0.0 disables the inner stopping test, so every update runs the
        # full fixed count — the ground truth is exact.
        assert hist["min"] == INNER_ITERS
        assert hist["max"] == INNER_ITERS
        assert hist["mean"] == INNER_ITERS

    def test_span_tree_covers_the_algorithm(self, traced):
        rec = traced.telemetry
        assert len(rec.spans_named("outer_iter")) == MAX_ITERS
        run = rec.spans_named("run")[0]
        names = {s.name for s in rec.spans}
        assert {"gram", "mttkrp", "update", "normalize", "fit",
                "mttkrp_kernel"} <= names
        assert run.parent is None
        # Device attribution is inclusive: the run span carries the whole
        # simulated total.
        assert run.sim["seconds"] == pytest.approx(rec.sim_total_seconds(), rel=1e-12)

    def test_convergence_metrics_present(self, traced):
        summary = traced.telemetry.metrics_summary
        assert summary["counters"]["cstf.outer_iterations"] == MAX_ITERS
        assert summary["counters"]["mttkrp.calls.coo"] >= MAX_ITERS * 3
        for name in ("cstf.fit", "admm.r_primal", "admm.r_dual", "admm.rho"):
            assert summary["histograms"][name]["count"] > 0
        assert summary["gauges"]["cstf.last_fit"] == traced.fits[-1]


class TestNumericsUnchanged:
    def test_off_and_on_bit_identical(self, tensor):
        off = cstf(tensor, _config("off"))
        on = cstf(tensor, _config("on"))
        assert off.telemetry is None
        assert on.telemetry is not None
        for f_off, f_on in zip(off.kruskal.factors, on.kruskal.factors):
            np.testing.assert_allclose(f_on, f_off, rtol=0, atol=0)
        np.testing.assert_allclose(on.kruskal.weights, off.kruskal.weights,
                                   rtol=0, atol=0)
        assert on.fits == off.fits

    def test_auto_without_session_is_off(self, tensor):
        res = cstf(tensor, _config("auto"))
        assert res.telemetry is None

    def test_auto_joins_ambient_session(self, tensor):
        with telemetry_session() as tel:
            res = cstf(tensor, _config("auto"))
        assert res.telemetry is tel.record
        assert tel.metrics.counters["cstf.outer_iterations"] == MAX_ITERS

    def test_jsonl_stream_is_schema_valid(self, tensor, tmp_path):
        path = tmp_path / "run.jsonl"
        cstf(tensor, _config(Telemetry(jsonl_path=path)))
        assert validate_jsonl(path) == []

    def test_capture_kernels_off_keeps_aggregates(self, tensor):
        tel = Telemetry(capture_kernels=False)
        res = cstf(tensor, _config(tel))
        rec = res.telemetry
        assert rec.kernels == []
        for phase in PHASES:
            assert rec.phase_seconds(phase) == pytest.approx(
                res.timeline.seconds(phase), rel=1e-12
            )


class TestEngineKernelTelemetry:
    """The engine MTTKRP emits the per-format kernels' telemetry."""

    @pytest.mark.parametrize("fmt", ["coo", "alto", "blco", "csf"])
    def test_one_kernel_span_and_count_per_call(self, tensor, fmt):
        config = _config("on")
        config.mttkrp_format, config.engine = fmt, EngineConfig()
        res = cstf(tensor, config)
        rec = res.telemetry
        calls = MAX_ITERS * tensor.ndim
        kernels = rec.spans_named("mttkrp_kernel")
        assert len(kernels) == calls
        assert {s.attrs["format"] for s in kernels} == {fmt}
        assert rec.metrics_summary["counters"][f"mttkrp.calls.{fmt}"] == calls

    def test_skewed_blco_blocks_reach_the_doctor(self):
        """A BLCO run whose blocks are badly skewed is diagnosed
        ``blco_load_imbalance``, with the kernel spans as evidence."""
        rng = np.random.default_rng(0)
        big = 2**17  # 3 x 17 index bits overflow the 48-bit block budget
        idx = np.vstack([rng.integers(0, 64, size=(400, 3)),
                         rng.integers(0, big, size=(12, 3))])
        skewed = SparseTensor(idx, rng.random(len(idx)) + 0.5, (big, big, big))
        res = cstf(skewed, CstfConfig(
            rank=2, max_iters=2, update="admm", device="cpu",
            mttkrp_format="blco", engine="on", seed=0, telemetry="on",
            update_params={"inner_iters": 2},
        ))
        gauges = res.telemetry.metrics_summary["gauges"]
        assert gauges["mttkrp.blco.blocks"] > 1
        assert gauges["mttkrp.blco.block_imbalance"] > 2.0
        (finding,) = [f for f in diagnose(res.telemetry)
                      if f.code == "blco_load_imbalance"]
        assert finding.evidence["span_ids"]
