"""Atomic checkpoint/resume: bit-identical continuation of a cSTF run."""

import os
import struct
import zipfile

import numpy as np
import pytest

from repro.core.cstf import cstf
from repro.resilience import (
    CheckpointCorrupt,
    ResilienceError,
    load_checkpoint,
    save_checkpoint,
)
from repro.tensor.synthetic import random_sparse


@pytest.fixture
def tensor():
    return random_sparse((14, 11, 9), nnz=260, seed=7)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.npz"
        rng = np.random.default_rng(0)
        factors = [rng.random((6, 3)), rng.random((5, 3))]
        save_checkpoint(
            path,
            iteration=4,
            factors=factors,
            weights=np.array([1.0, 2.0, 3.0]),
            grams=[f.T @ f for f in factors],
            fits=[0.1, 0.5],
            state_arrays={"dual": [np.zeros((6, 3)), np.zeros((5, 3))]},
            rng_state={"bit_generator": "PCG64"},
            meta={"shape": [6, 5], "rank": 3},
        )
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 4
        assert ckpt.shape == (6, 5)
        assert ckpt.rank == 3
        for a, b in zip(ckpt.factors, factors):
            assert np.array_equal(a, b)
        assert np.array_equal(ckpt.weights, [1.0, 2.0, 3.0])
        assert ckpt.fits == [0.1, 0.5]
        assert ckpt.rng_state == {"bit_generator": "PCG64"}
        dual = ckpt.state_arrays["dual"]
        assert isinstance(dual, list) and len(dual) == 2

    def test_write_is_atomic(self, tmp_path):
        """No ``.tmp`` debris after a successful save — the temp file is
        renamed over the destination, never left behind."""
        path = tmp_path / "run.npz"
        save_checkpoint(
            path, iteration=1, factors=[np.ones((2, 2))], weights=np.ones(2),
            grams=[np.eye(2)], fits=[], state_arrays={}, rng_state=None,
            meta={"shape": [2], "rank": 2},
        )
        assert path.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_overwrite_keeps_last_complete_checkpoint(self, tmp_path):
        path = tmp_path / "run.npz"
        for it in (1, 2):
            save_checkpoint(
                path, iteration=it, factors=[np.full((2, 2), float(it))],
                weights=np.ones(2), grams=[np.eye(2)], fits=[],
                state_arrays={}, rng_state=None, meta={"shape": [2], "rank": 2},
            )
        assert load_checkpoint(path).iteration == 2


class TestDriverCheckpointing:
    def test_checkpoint_written_every_k_iterations(self, tensor, tmp_path):
        path = tmp_path / "cp.npz"
        result = cstf(
            tensor, rank=3, max_iters=6, seed=0,
            checkpoint_every=2, checkpoint_path=path,
        )
        assert path.exists()
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 6
        saves = [e for e in result.events if e.kind == "checkpoint_saved"]
        assert len(saves) == 3  # iterations 2, 4, 6

    def test_checkpoint_every_requires_path(self, tensor):
        with pytest.raises(ValueError, match="checkpoint_path"):
            cstf(tensor, rank=3, max_iters=2, checkpoint_every=1)

    def test_resume_is_bit_identical(self, tensor, tmp_path):
        """Satellite: 10 outer iterations straight vs. 5 + resume + 5 must
        produce identical factors, weights, and fit trajectories."""
        straight = cstf(tensor, rank=3, max_iters=10, seed=3, tol=0.0)

        path = tmp_path / "half.npz"
        first = cstf(
            tensor, rank=3, max_iters=5, seed=3, tol=0.0,
            checkpoint_every=5, checkpoint_path=path,
        )
        assert first.iterations == 5
        second = cstf(
            tensor, rank=3, max_iters=10, seed=3, tol=0.0, resume_from=path
        )
        assert second.start_iteration == 5
        assert second.iterations == 10
        for a, b in zip(straight.kruskal.factors, second.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(straight.kruskal.weights, second.kruskal.weights)
        assert straight.fits == second.fits
        resumed = [e for e in second.events if e.kind == "checkpoint_resumed"]
        assert len(resumed) == 1

    def test_resume_validates_shape_and_rank(self, tensor, tmp_path):
        path = tmp_path / "cp.npz"
        cstf(tensor, rank=3, max_iters=2, seed=0,
             checkpoint_every=2, checkpoint_path=path)
        other = random_sparse((8, 8, 8), nnz=64, seed=1)
        with pytest.raises(ValueError, match="shape"):
            cstf(other, rank=3, max_iters=4, resume_from=path)
        with pytest.raises(ValueError, match="rank"):
            cstf(tensor, rank=4, max_iters=4, resume_from=path)

    def test_resume_after_convergence_checkpoint(self, tensor, tmp_path):
        """A checkpoint taken on the converged iteration resumes cleanly:
        the continuation re-checks convergence and stops immediately."""
        path = tmp_path / "cp.npz"
        first = cstf(tensor, rank=3, max_iters=30, seed=2, tol=1e-6,
                     checkpoint_every=1, checkpoint_path=path)
        second = cstf(tensor, rank=3, max_iters=30, seed=2, tol=1e-6,
                      resume_from=path)
        assert second.iterations >= first.iterations
        for b in second.kruskal.factors:
            assert np.isfinite(b).all()


def _save(path, iteration=1, value=1.0):
    save_checkpoint(
        path, iteration=iteration, factors=[np.full((3, 2), value)],
        weights=np.ones(2), grams=[np.eye(2)], fits=[0.5],
        state_arrays={}, rng_state=None, meta={"shape": [3], "rank": 2},
    )


class TestTornWriteProtection:
    """The two extra layers beyond atomic rename: generation rotation and
    payload checksums, with transparent ``.prev`` fallback."""

    def test_save_rotates_previous_generation(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1)
        assert not (tmp_path / "cp.npz.prev").exists()
        _save(path, iteration=2)
        prev = tmp_path / "cp.npz.prev"
        assert prev.exists()
        assert load_checkpoint(path).iteration == 2
        assert load_checkpoint(prev).iteration == 1

    def test_torn_primary_falls_back_to_prev(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1)
        _save(path, iteration=2)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(CheckpointCorrupt, match="previous generation"):
            ckpt = load_checkpoint(path)
        assert ckpt.iteration == 1

    def test_garbage_primary_falls_back_to_prev(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1)
        _save(path, iteration=2)
        path.write_bytes(b"not an npz archive at all")
        with pytest.warns(CheckpointCorrupt):
            assert load_checkpoint(path).iteration == 1

    def test_missing_primary_with_prev_warns_and_loads(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1)
        _save(path, iteration=2)
        path.unlink()
        with pytest.warns(CheckpointCorrupt, match="missing"):
            assert load_checkpoint(path).iteration == 1

    def test_both_generations_corrupt_raises(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1)
        _save(path, iteration=2)
        path.write_bytes(b"garbage")
        (tmp_path / "cp.npz.prev").write_bytes(b"also garbage")
        with pytest.warns(CheckpointCorrupt):
            with pytest.raises(ResilienceError, match="previous generation"):
                load_checkpoint(path)

    def test_corrupt_without_prev_raises(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path)
        path.write_bytes(b"garbage")
        with pytest.raises(ResilienceError, match="no previous generation"):
            load_checkpoint(path)

    def test_missing_both_is_plain_error(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_checkpoint(tmp_path / "never.npz")

    def test_checksum_detects_flipped_payload_bytes(self, tmp_path):
        """A rewritten payload array with plausible structure still fails
        the checksum — bit rot is caught, not just truncation."""
        path = tmp_path / "cp.npz"
        _save(path, iteration=3, value=1.0)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["factor_0"] = arrays["factor_0"] + 1.0
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ResilienceError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_legacy_checkpoint_without_checksum_loads(self, tmp_path):
        """Checkpoints from before checksums existed stay readable."""
        path = tmp_path / "cp.npz"
        _save(path, iteration=5)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        import json as _json
        meta = _json.loads(str(arrays["meta_json"]))
        del meta["checksum"]
        arrays["meta_json"] = np.array(_json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        assert load_checkpoint(path).iteration == 5

    def test_driver_run_survives_torn_checkpoint(self, tensor, tmp_path):
        """End to end: a resume pointed at a torn file transparently uses
        the rotated generation and stays bit-identical from there. The
        driver surfaces the fallback as a ``checkpoint_corrupt`` event on
        the run (the warning stays at the file-layer API)."""
        straight = cstf(tensor, rank=3, max_iters=6, seed=3, tol=0.0)
        path = tmp_path / "cp.npz"
        cstf(tensor, rank=3, max_iters=4, seed=3, tol=0.0,
             checkpoint_every=2, checkpoint_path=path)
        # The primary holds iteration 4, the rotation iteration 2. Tear
        # the primary: the resume must fall back to iteration 2.
        path.write_bytes(path.read_bytes()[:100])
        resumed = cstf(tensor, rank=3, max_iters=6, seed=3, tol=0.0,
                       resume_from=path)
        assert resumed.start_iteration == 2
        assert any(e.kind == "checkpoint_corrupt" for e in resumed.events)
        for a, b in zip(straight.kruskal.factors, resumed.kruskal.factors):
            assert np.array_equal(a, b)


def _rewrite_deflated(path):
    """Re-encode an archive the way checkpoints were written before they
    switched to stored members: the same arrays through ``savez_compressed``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: np.array(data[name]) for name in data.files}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _flip_member_byte(path, member):
    """Flip the last data byte of a stored ``<member>.npy`` in place.

    The local file header is parsed for the data offset, so the flipped
    byte is array payload — the archive stays structurally valid.
    """
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{member}.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
        pos = info.header_offset + 30 + name_len + extra_len + info.file_size - 1
        fh.seek(pos)
        byte = fh.read(1)
        fh.seek(pos)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestStoredLayout:
    """Checkpoints are written as stored (not deflated) zip members;
    deflated archives from older versions still load."""

    def test_checkpoint_members_are_stored(self, tensor, tmp_path):
        path = tmp_path / "cp.npz"
        cstf(tensor, rank=3, max_iters=2, seed=3, tol=0.0, update="cuadmm",
             checkpoint_every=2, checkpoint_path=path)
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
        names = {info.filename for info in infos}
        assert {"meta_json.npy", "factor_0.npy", "weights.npy"} <= names
        assert any(name.startswith("state__") for name in names)
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)

    @pytest.mark.parametrize("layout", ["stored", "deflated"])
    def test_resume_is_bit_identical_for_either_layout(
        self, tensor, tmp_path, layout
    ):
        """10 iterations straight equal 5 + resume + 5, whether the
        checkpoint holds stored members or the older deflated ones."""
        kw = dict(rank=3, seed=3, tol=0.0, update="cuadmm")
        straight = cstf(tensor, max_iters=10, **kw)
        path = tmp_path / "half.npz"
        cstf(tensor, max_iters=5, checkpoint_every=5, checkpoint_path=path, **kw)
        if layout == "deflated":
            _rewrite_deflated(path)
            with zipfile.ZipFile(path) as zf:
                assert all(
                    i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist()
                )
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 5 and ckpt.state_arrays
        resumed = cstf(tensor, max_iters=10, resume_from=path, **kw)
        assert resumed.start_iteration == 5
        for a, b in zip(straight.kruskal.factors, resumed.kruskal.factors):
            np.testing.assert_allclose(b, a, rtol=0, atol=0)
        np.testing.assert_allclose(
            resumed.kruskal.weights, straight.kruskal.weights, rtol=0, atol=0
        )
        np.testing.assert_allclose(resumed.fits, straight.fits, rtol=0, atol=0)

    def test_flipped_byte_in_stored_factor_falls_back_to_prev(self, tmp_path):
        path = tmp_path / "cp.npz"
        _save(path, iteration=1, value=1.0)
        _save(path, iteration=2, value=2.0)
        _flip_member_byte(path, "factor_0")
        with pytest.warns(CheckpointCorrupt, match="checksum|CRC"):
            ckpt = load_checkpoint(path)
        assert ckpt.iteration == 1
        assert np.array_equal(ckpt.factors[0], np.full((3, 2), 1.0))
