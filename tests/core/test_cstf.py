"""The AO driver (Algorithm 1): fit progress, phases, formats, analytic mode."""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASES
from repro.machine.analytic import TensorStats
from repro.resilience import supervised_cstf
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import planted_sparse_cp, random_sparse
from repro.updates import UPDATE_REGISTRY


@pytest.fixture(scope="module")
def tensor():
    t, _ = planted_sparse_cp((20, 16, 12), rank=3, factor_sparsity=0.4, seed=9)
    return t


class TestConfig:
    def test_defaults_are_paper_values(self):
        c = CstfConfig()
        assert c.rank == 32
        assert c.update == "cuadmm"
        assert c.mttkrp_format == "blco"

    def test_invalid_format(self):
        with pytest.raises(ValueError, match="mttkrp_format"):
            CstfConfig(mttkrp_format="hicoo")

    def test_invalid_normalize(self):
        with pytest.raises(ValueError, match="normalize"):
            CstfConfig(normalize="1")

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            CstfConfig(rank=0)

    def test_config_and_overrides_mutually_exclusive(self, tensor):
        with pytest.raises(TypeError):
            cstf(tensor, CstfConfig(), rank=4)


class TestDriver:
    def test_fit_improves(self, tensor):
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=15, seed=0)
        assert res.fits[-1] > res.fits[0]
        assert res.fits[-1] > 0.8

    def test_all_phases_charged(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2, seed=0)
        for phase in PHASES:
            assert res.timeline.seconds(phase) > 0.0

    def test_nonneg_factors_with_nonneg_updates(self, tensor):
        for update in ("cuadmm", "mu", "hals"):
            res = cstf(tensor, rank=3, update=update, max_iters=3, seed=0)
            for f in res.kruskal.factors:
                assert (f >= 0).all(), update

    def test_deterministic_given_seed(self, tensor):
        a = cstf(tensor, rank=3, max_iters=3, seed=5)
        b = cstf(tensor, rank=3, max_iters=3, seed=5)
        assert a.fits == b.fits

    def test_seeds_change_init(self, tensor):
        a = cstf(tensor, rank=3, max_iters=1, seed=1)
        b = cstf(tensor, rank=3, max_iters=1, seed=2)
        assert a.fits != b.fits

    @pytest.mark.parametrize("fmt", ["coo", "csf", "alto", "blco"])
    def test_formats_numerically_identical(self, tensor, fmt):
        """The storage format must never change the math."""
        ref = cstf(tensor, rank=3, max_iters=3, seed=3, mttkrp_format="coo")
        res = cstf(tensor, rank=3, max_iters=3, seed=3, mttkrp_format=fmt)
        assert res.fits == pytest.approx(ref.fits, rel=1e-9)

    def test_convergence_tolerance_stops(self, tensor):
        res = cstf(tensor, rank=3, max_iters=200, tol=1e-4, seed=0)
        assert res.converged
        assert res.iterations < 200

    def test_fit_disabled(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2, compute_fit=False)
        assert res.fits == []
        assert res.fit is None

    def test_4mode_tensor(self):
        t = random_sparse((10, 8, 6, 5), nnz=300, seed=1)
        res = cstf(t, rank=2, max_iters=3, seed=0)
        assert len(res.kruskal.factors) == 4
        assert res.fits[-1] >= res.fits[0] - 0.05

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="SparseTensor or TensorStats"):
            cstf(np.zeros((3, 3)), rank=2)

    def test_rejects_single_mode_tensor(self):
        """A 1-mode tensor used to die deep in the Gram chain with a bare
        IndexError; cstf and the supervisor now reject it up front."""
        vector = SparseTensor(np.array([[0], [2], [4]]), np.ones(3), (5,))
        for run in (cstf, supervised_cstf):
            with pytest.raises(ValueError, match=r"at least 2 mode.*\(5,\)"):
                run(vector, rank=2)

    def test_per_iteration_seconds_positive(self, tensor):
        res = cstf(tensor, rank=3, max_iters=2)
        assert res.per_iteration_seconds() > 0


class TestAnalyticMode:
    def test_runs_at_paper_scale(self):
        stats = TensorStats.from_dims((532_924, 17_262_471, 2_480_308, 1443), 140_126_181)
        res = cstf(stats, rank=32, update="cuadmm", device="h100", max_iters=1, compute_fit=False)
        assert res.kruskal is None
        assert res.fits == []
        assert res.per_iteration_seconds() > 0

    def test_update_dominates_on_long_mode_tensors(self):
        """The paper's central observation (Figs 1/3): for hypersparse
        tensors with long modes on the CPU, UPDATE dwarfs MTTKRP."""
        stats = TensorStats.from_dims((532_924, 17_262_471, 2_480_308, 1443), 140_126_181)
        res = cstf(
            stats, rank=32, update="admm", device="cpu", mttkrp_format="alto", max_iters=1
        )
        assert res.timeline.seconds("UPDATE") > res.timeline.seconds("MTTKRP")

    def test_concrete_and_analytic_agree(self):
        """Same tensor statistics → identical simulated timeline, whether
        the numerics actually ran or not."""
        t = random_sparse((40, 30, 20), nnz=600, seed=4)
        concrete = cstf(t, rank=4, update="cuadmm", max_iters=2, compute_fit=False)
        analytic = cstf(
            TensorStats.from_coo(t), rank=4, update="cuadmm", max_iters=2, compute_fit=False
        )
        for phase in PHASES:
            assert analytic.timeline.seconds(phase) == pytest.approx(
                concrete.timeline.seconds(phase), rel=1e-12
            ), phase

    def test_gpu_faster_than_cpu_at_scale(self):
        stats = TensorStats.from_dims((319_686, 28_153_045, 1_607_191, 731), 112_890_310)
        gpu = cstf(stats, rank=32, update="cuadmm", device="a100", max_iters=1)
        cpu = cstf(stats, rank=32, update="admm", device="cpu", mttkrp_format="csf", max_iters=1)
        assert gpu.per_iteration_seconds() < cpu.per_iteration_seconds()


class TestWarmStart:
    def test_warm_start_from_model(self, tensor):
        cold = cstf(tensor, rank=3, update="cuadmm", max_iters=10, seed=0)
        warm = cstf(tensor, rank=3, update="cuadmm", max_iters=3,
                    init_factors=cold.kruskal)
        assert warm.fits[0] >= cold.fits[-1] - 1e-6

    def test_warm_start_from_factor_list(self, tensor):
        import numpy as np

        rng = np.random.default_rng(0)
        init = [rng.random((d, 3)) for d in tensor.shape]
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=2, init_factors=init)
        assert np.isfinite(res.fits).all()

    def test_shape_mismatch_rejected(self, tensor):
        import numpy as np

        bad = [np.ones((99, 3)) for _ in tensor.shape]
        with pytest.raises(ValueError, match="warm-start factor"):
            cstf(tensor, rank=3, init_factors=bad)

    def test_model_rank_mismatch_rejected(self, tensor):
        cold = cstf(tensor, rank=3, max_iters=2)
        with pytest.raises(ValueError, match="warm-start model"):
            cstf(tensor, rank=4, init_factors=cold.kruskal)

    def test_negative_init_clipped_for_nonneg_updates(self, tensor):
        import numpy as np

        init = [np.full((d, 3), -1.0) + np.eye(d, 3) * 3 for d in tensor.shape]
        res = cstf(tensor, rank=3, update="cuadmm", max_iters=2, init_factors=init)
        for f in res.kruskal.factors:
            assert (f >= 0).all()


class TestFitFromLastMttkrp:
    """The driver's fit (last mode's MTTKRP + cached Grams) agrees with the
    nonzero-pass oracle ``KruskalTensor.fit(tensor)``."""

    SHAPES = {"3way": (14, 11, 9), "4way": (9, 8, 7, 6)}

    @staticmethod
    def _agrees(tensor, res):
        assert res.fits[-1] == pytest.approx(res.kruskal.fit(tensor), rel=1e-12)

    @pytest.fixture(scope="class", params=sorted(SHAPES))
    def sparse(self, request):
        return random_sparse(self.SHAPES[request.param], nnz=300, seed=11)

    @pytest.mark.parametrize("update", sorted(UPDATE_REGISTRY))
    def test_every_update(self, sparse, update):
        self._agrees(sparse, cstf(sparse, rank=3, max_iters=3, update=update, seed=2))

    @pytest.mark.parametrize("fmt", ["coo", "blco", "csf"])
    @pytest.mark.parametrize(
        "engine", [None, "on", {"shards": 2, "backend": "threads"}],
        ids=["seed", "engine", "threads2"],
    )
    def test_formats_and_backends(self, sparse, fmt, engine):
        res = cstf(sparse, rank=3, max_iters=3, mttkrp_format=fmt, engine=engine, seed=2)
        self._agrees(sparse, res)

    def test_mttkrp_fault_does_not_reach_the_fit(self, sparse):
        """An MTTKRP perturbed on every call still leaves the fit exact: the
        fit uses the MTTKRP as computed, not the corrupted copy."""
        injector = FaultInjector(
            FaultSpec("MTTKRP", kind="perturb", probability=1.0, magnitude=10.0), seed=0
        )
        res = cstf(sparse, rank=3, max_iters=3, fault_injector=injector, seed=2)
        assert injector.injected == 3 * sparse.ndim
        self._agrees(sparse, res)


def _traced_peak(tensor, **kwargs) -> int:
    tracemalloc.start()
    try:
        cstf(tensor, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_allocates_no_nonzero_sized_buffers():
    """The fit must not gather factor rows per nonzero: its extra peak stays
    well below one ``(nnz, R)`` float64 buffer."""
    rank = 16
    t = random_sparse((300, 250, 200), nnz=20_000, seed=5)
    kwargs = dict(rank=rank, max_iters=2, engine="on", seed=0)
    cstf(t, compute_fit=False, **kwargs)  # warm the plan cache for both runs
    without = _traced_peak(t, compute_fit=False, **kwargs)
    with_fit = _traced_peak(t, compute_fit=True, **kwargs)
    assert with_fit - without < t.nnz * rank * 8 / 4
