"""Streaming cSTF: incremental tracking of time-sliced sparse tensors."""

import json

import numpy as np
import pytest

import repro.utils.npzio as npzio
from repro.core.kruskal import KruskalTensor, factor_match_score
from repro.streaming import StreamingCstf
from repro.tensor.coo import SparseTensor


def _make_stream(spatial, rank, steps, seed=0, drift=0.0):
    """Yield (slice, truth_factors) from a (possibly drifting) CP model."""
    rng = np.random.default_rng(seed)
    factors = [rng.exponential(size=(d, rank)) for d in spatial]
    for _ in range(steps):
        if drift > 0.0:
            for f in factors:
                f += drift * rng.normal(size=f.shape)
                np.maximum(f, 1e-6, out=f)
        weights = np.abs(rng.normal(size=rank)) + 0.1
        slab = np.einsum("ir,jr,r->ij", factors[0], factors[1], weights)
        yield SparseTensor.from_dense(slab), [f.copy() for f in factors]


class TestBasics:
    def test_shape_validation(self):
        stream = StreamingCstf((10, 8), rank=2)
        wrong = SparseTensor.from_dense(np.ones((9, 8)))
        with pytest.raises(ValueError, match="slice shape"):
            stream.ingest(wrong)

    def test_bad_forgetting_rejected(self):
        with pytest.raises(ValueError, match="forgetting"):
            StreamingCstf((10, 8), rank=2, forgetting=0.0)

    def test_model_before_ingest_rejected(self):
        with pytest.raises(ValueError, match="no slices"):
            StreamingCstf((10, 8), rank=2).model()

    def test_temporal_factor_grows(self):
        stream = StreamingCstf((10, 8), rank=2, seed=0)
        for slab, _ in _make_stream((10, 8), 2, steps=5, seed=1):
            stream.ingest(slab)
        assert stream.temporal_factor().shape == (5, 2)
        assert stream.steps_ingested == 5
        assert stream.model().shape == (10, 8, 5)

    def test_factors_stay_normalized_and_nonneg(self):
        stream = StreamingCstf((12, 9), rank=3, seed=0)
        for slab, _ in _make_stream((12, 9), 3, steps=10, seed=2):
            stream.ingest(slab)
        for f in stream.factors:
            assert (f >= 0).all()
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_simulated_time_charged(self):
        stream = StreamingCstf((12, 9), rank=3, seed=0)
        steps = [stream.ingest(s) for s, _ in _make_stream((12, 9), 3, steps=3, seed=3)]
        assert all(st.seconds > 0 for st in steps)
        assert stream.executor.timeline.total_seconds() == pytest.approx(
            sum(st.seconds for st in steps)
        )


class TestTracking:
    @pytest.mark.parametrize("update", ["cuadmm", "hals", "mu"])
    def test_converges_to_static_truth(self, update):
        spatial, rank = (25, 20), 3
        stream = StreamingCstf(spatial, rank=rank, update=update, seed=1,
                               inner_iters=8, forgetting=0.95)
        truth = None
        fits = []
        for slab, factors in _make_stream(spatial, rank, steps=90, seed=4):
            fits.append(stream.ingest(slab).slice_fit)
            truth = factors
        late = float(np.mean(fits[-10:]))
        early = float(np.mean(fits[:10]))
        assert late > early + 0.05, f"{update}: no improvement ({early:.2f}->{late:.2f})"
        assert late > 0.8, update
        fms = factor_match_score(
            KruskalTensor(list(stream.factors)), KruskalTensor(truth)
        )
        # HALS does a single rank sweep per step and converges more slowly.
        assert fms > (0.85 if update == "hals" else 0.9), update

    def test_tracks_drifting_model(self):
        """With forgetting, the stream keeps fitting a slowly drifting
        ground truth rather than being anchored to the past."""
        spatial, rank = (20, 16), 2
        stream = StreamingCstf(spatial, rank=rank, seed=1, inner_iters=8,
                               forgetting=0.9)
        fits = []
        for slab, _ in _make_stream(spatial, rank, steps=120, seed=5, drift=0.01):
            fits.append(stream.ingest(slab).slice_fit)
        assert float(np.mean(fits[-15:])) > 0.75

    def test_refresh_every_reduces_cost(self):
        spatial, rank = (20, 16), 2
        every = StreamingCstf(spatial, rank=rank, seed=1, refresh_every=1)
        lazy = StreamingCstf(spatial, rank=rank, seed=1, refresh_every=4)
        for slab, _ in _make_stream(spatial, rank, steps=12, seed=6):
            every.ingest(slab)
        for slab, _ in _make_stream(spatial, rank, steps=12, seed=6):
            lazy.ingest(slab)
        assert (
            lazy.executor.timeline.total_seconds()
            < every.executor.timeline.total_seconds()
        )

    def test_streaming_cheaper_than_refit(self):
        """The point of streaming: an ingest step costs far less simulated
        time than refitting the accumulated tensor from scratch."""
        from repro.core import cstf

        spatial, rank = (25, 20), 3
        stream = StreamingCstf(spatial, rank=rank, seed=1)
        slabs = [s for s, _ in _make_stream(spatial, rank, steps=30, seed=7)]
        last_step = None
        for slab in slabs:
            last_step = stream.ingest(slab)

        # Refit the full 30-slice tensor from scratch with the batch driver.
        idx = []
        vals = []
        for t, slab in enumerate(slabs):
            coords = np.column_stack(
                [slab.indices, np.full(slab.nnz, t, dtype=np.int64)]
            )
            idx.append(coords)
            vals.append(slab.values)
        full = SparseTensor(np.vstack(idx), np.concatenate(vals), spatial + (30,))
        refit = cstf(full, rank=rank, update="cuadmm", max_iters=10, compute_fit=False)

        assert last_step.seconds < 0.2 * refit.timeline.total_seconds()


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        stream = StreamingCstf((14, 11), rank=2, seed=3)
        slabs = list(_make_stream((14, 11), 2, steps=8, seed=8))
        for slab, _ in slabs[:5]:
            stream.ingest(slab)
        path = tmp_path / "ckpt.npz"
        stream.save(path)

        resumed = StreamingCstf.load(path)
        assert resumed.steps_ingested == 5
        for a, b in zip(resumed.factors, stream.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(resumed.temporal_factor(), stream.temporal_factor())

        # Resumed stream continues deterministically like the original.
        for slab, _ in slabs[5:]:
            s_orig = stream.ingest(slab)
            s_res = resumed.ingest(slab)
            assert s_res.slice_fit == pytest.approx(s_orig.slice_fit, rel=1e-10)

    def test_load_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ValueError, match="checkpoint"):
            StreamingCstf.load(path)

    def test_load_restores_configuration(self, tmp_path):
        """Regression: load() used to rebuild the stream with the default
        update/device/inner_iters, so a HALS-on-CPU stream silently resumed
        as cuADMM-on-A100 and tracked differently from the original."""
        stream = StreamingCstf((12, 9), rank=2, seed=2, update="hals", device="cpu")
        slabs = list(_make_stream((12, 9), 2, steps=6, seed=9))
        for slab, _ in slabs[:3]:
            stream.ingest(slab)
        path = tmp_path / "ckpt.npz"
        stream.save(path)

        resumed = StreamingCstf.load(path)
        assert resumed.update.name == "hals"
        assert resumed.executor.device.name == stream.executor.device.name
        for slab, _ in slabs[3:]:
            s_orig = stream.ingest(slab)
            s_res = resumed.ingest(slab)
            assert s_res.slice_fit == pytest.approx(s_orig.slice_fit, rel=1e-12)

    def test_load_restores_inner_iters_and_honors_overrides(self, tmp_path):
        stream = StreamingCstf((10, 8), rank=2, seed=1, inner_iters=7)
        for slab, _ in _make_stream((10, 8), 2, steps=2, seed=10):
            stream.ingest(slab)
        path = tmp_path / "ckpt.npz"
        stream.save(path)

        assert StreamingCstf.load(path).update.inner_iters == 7
        # Explicit arguments still beat the persisted configuration.
        overridden = StreamingCstf.load(path, update="mu", device="cpu")
        assert overridden.update.name == "mu"
        assert overridden.executor.device.name != stream.executor.device.name


    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A path save is atomic: a writer that fails mid-archive leaves the
        checkpoint already on disk loadable and unchanged."""
        stream = StreamingCstf((10, 8), rank=2, seed=1)
        slabs = list(_make_stream((10, 8), 2, steps=4, seed=11))
        for slab, _ in slabs[:2]:
            stream.ingest(slab)
        path = tmp_path / "ckpt.npz"
        stream.save(path)
        saved = [f.copy() for f in stream.factors]
        first = path.read_bytes()

        for slab, _ in slabs[2:]:
            stream.ingest(slab)

        def torn_write(fh, arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(npzio, "_write_payload", torn_write)
        with pytest.raises(OSError):
            stream.save(path)
        assert path.read_bytes() == first
        assert not (tmp_path / "ckpt.npz.tmp").exists()
        resumed = StreamingCstf.load(path)
        assert resumed.steps_ingested == 2
        for a, b in zip(resumed.factors, saved):
            assert np.array_equal(a, b)


class TestDegenerateSlices:
    def test_all_zero_slice_skipped_and_logged(self):
        stream = StreamingCstf((10, 8), rank=2, seed=0)
        factors_before = [f.copy() for f in stream.factors]
        step = stream.ingest(SparseTensor.from_dense(np.zeros((10, 8))))
        assert step.skipped
        assert step.seconds == 0.0
        assert step.slice_fit == 1.0  # trivially explained: nothing to model
        assert stream.steps_ingested == 1
        # The model is untouched; only a zero temporal row keeps the time
        # axis aligned with the slice sequence.
        for before, after in zip(factors_before, stream.factors):
            assert np.array_equal(before, after)
        assert np.array_equal(stream.temporal_factor(), np.zeros((1, 2)))
        (event,) = list(stream.events)
        assert event.kind == "slice_skipped"
        assert event.iteration == 0

    def test_nonfinite_slice_skipped_without_poisoning_history(self):
        stream = StreamingCstf((10, 8), rank=2, seed=0)
        healthy = list(_make_stream((10, 8), 2, steps=3, seed=4))
        stream.ingest(healthy[0][0])
        hist_before = [h.copy() for h in stream._hist_mttkrp]

        corrupt = healthy[1][0]
        corrupt._values = corrupt._values.copy()
        corrupt._values[0] = np.nan  # simulate in-flight corruption
        step = stream.ingest(corrupt)
        assert step.skipped
        assert step.slice_fit == 0.0
        for before, after in zip(hist_before, stream._hist_mttkrp):
            assert np.array_equal(before, after)
        assert np.isfinite(stream._hist_temporal_gram).all()

        # The stream keeps working on the next healthy slice.
        good = stream.ingest(healthy[2][0])
        assert not good.skipped
        assert np.isfinite(good.slice_fit)
        assert stream.temporal_factor().shape == (3, 2)
        assert np.array_equal(stream.temporal_factor()[1], np.zeros(2))
        assert len(stream.events.of_kind("slice_skipped")) == 1

    def test_skipped_steps_charge_no_simulated_time(self):
        stream = StreamingCstf((10, 8), rank=2, seed=0)
        stream.ingest(SparseTensor.from_dense(np.zeros((10, 8))))
        assert stream.executor.timeline.total_seconds() == 0.0


class TestLegacyCheckpoint:
    def test_engine_key_is_ignored_on_load(self, tmp_path):
        """Checkpoints from versions that took an ``engine`` argument carry
        an ``engine`` meta key; they still load, and the key is ignored."""
        stream = StreamingCstf((12, 9), rank=2, seed=2)
        for slab, _ in _make_stream((12, 9), 2, steps=3, seed=2):
            stream.ingest(slab)
        path = tmp_path / "stream.npz"
        stream.save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["meta_json"]))
        meta["engine"] = "sharded"
        arrays["meta_json"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)

        loaded = StreamingCstf.load(path)
        assert not hasattr(loaded, "engine")
        assert loaded.steps_ingested == 3
        for a, b in zip(loaded.factors, stream.factors):
            assert np.array_equal(a, b)
