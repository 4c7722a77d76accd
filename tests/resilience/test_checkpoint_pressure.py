"""ENOSPC-safe persistence: checkpoints and resume.

Persistence failures must never fail a run that can still compute — the
checkpoint layer keeps its last completed generation (and its ``.prev``)
and records ``checkpoint_skipped``; resume after the failure is
bit-identical.
"""

import errno
import warnings

import numpy as np
import pytest

import sys

from repro.core.cstf import cstf

# The package re-exports the `cstf` function under the same dotted name, so
# fetch the module object itself for monkeypatching.
cstf_mod = sys.modules["repro.core.cstf"]
from repro.resilience import FaultInjector, FaultSpec, load_checkpoint
from repro.resilience.checkpoint import save_checkpoint
from repro.resilience.events import CHECKPOINT_SKIPPED
from repro.tensor.synthetic import random_sparse
from repro.utils import npzio

pytestmark = pytest.mark.faults


@pytest.fixture
def tensor():
    return random_sparse((14, 11, 9), nnz=260, seed=7)


def _enospc(*_a, **_k):
    raise OSError(errno.ENOSPC, "No space left on device")


def _fail_payload_writes(monkeypatch) -> dict:
    """Make the shared ``.npz`` writer's write step raise ENOSPC.

    Returns a call counter, so a test can assert the injection actually
    fired rather than passing on a write path that bypasses it.
    """
    calls = {"n": 0}

    def failing_write(*args, **kwargs):
        calls["n"] += 1
        _enospc()

    monkeypatch.setattr(npzio, "_write_payload", failing_write)
    return calls


class TestCheckpointEnospc:
    def test_failed_write_preserves_both_generations(self, tmp_path, monkeypatch):
        path = tmp_path / "run.npz"

        def write(it):
            save_checkpoint(
                path, iteration=it, factors=[np.full((2, 2), float(it))],
                weights=np.ones(2), grams=[np.eye(2)], fits=[],
                state_arrays={}, rng_state=None, meta={"shape": [2], "rank": 2},
            )

        write(2)
        write(4)  # rotates iter-2 to .prev
        injected = _fail_payload_writes(monkeypatch)
        with pytest.raises(OSError):
            write(6)
        assert injected["n"] == 1
        # No temp debris, and both generations survived untouched.
        assert not list(tmp_path.glob("*.tmp"))
        assert load_checkpoint(path).iteration == 4
        prev = path.with_name(path.name + ".prev")
        assert load_checkpoint(prev).iteration == 2

    def test_run_survives_enospc_and_records_skip(self, tmp_path, monkeypatch):
        tensor = random_sparse((14, 11, 9), nnz=260, seed=7)
        path = tmp_path / "ck.npz"
        calls = {"n": 0}
        real = cstf_mod.save_checkpoint

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:  # iterations 2 and 4 persist, 6+ hit ENOSPC
                _enospc()
            return real(*args, **kwargs)

        monkeypatch.setattr(cstf_mod, "save_checkpoint", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning leak fails the test
            result = cstf(
                tensor, rank=4, max_iters=8, seed=0, tol=0.0,
                checkpoint_every=2, checkpoint_path=str(path),
            )
        assert result.iterations == 8
        skips = [e for e in result.events if e.kind == CHECKPOINT_SKIPPED]
        assert [e.iteration for e in skips] == [6, 8]
        assert load_checkpoint(path).iteration == 4
        prev = path.with_name(path.name + ".prev")
        assert load_checkpoint(prev).iteration == 2

    def test_resume_after_enospc_is_bit_identical(self, tmp_path, monkeypatch):
        tensor = random_sparse((14, 11, 9), nnz=260, seed=7)
        baseline = cstf(tensor, rank=4, max_iters=8, seed=0, tol=0.0)

        path = tmp_path / "ck.npz"
        calls = {"n": 0}
        real = cstf_mod.save_checkpoint

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                _enospc()
            return real(*args, **kwargs)

        monkeypatch.setattr(cstf_mod, "save_checkpoint", flaky)
        cstf(
            tensor, rank=4, max_iters=8, seed=0, tol=0.0,
            checkpoint_every=2, checkpoint_path=str(path),
        )
        monkeypatch.setattr(cstf_mod, "save_checkpoint", real)
        # The last completed checkpoint is iteration 4; resuming from it
        # must land bit-identically on the uninterrupted trajectory.
        resumed = cstf(
            tensor, rank=4, max_iters=8, seed=0, tol=0.0, resume_from=str(path),
        )
        assert resumed.iterations == 8
        for a, b in zip(resumed.kruskal.factors, baseline.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(resumed.kruskal.weights, baseline.kruskal.weights)

    def test_injected_disk_full_skips_checkpoints(self, tmp_path):
        tensor = random_sparse((14, 11, 9), nnz=260, seed=7)
        path = tmp_path / "ck.npz"
        injector = FaultInjector(
            FaultSpec(phase="EXECUTE", kind="disk_full", probability=1.0), seed=3
        )
        result = cstf(
            tensor, rank=4, max_iters=6, seed=0, tol=0.0,
            checkpoint_every=2, checkpoint_path=str(path),
            fault_injector=injector,
        )
        assert result.iterations == 6
        assert not path.exists()  # every write drew the fault
        assert [e.iteration for e in result.events
                if e.kind == CHECKPOINT_SKIPPED] == [2, 4, 6]
        # The injected fault itself is on the audit trail.
        assert any(
            e.kind == "fault_injected" and e.data.get("target") == "checkpoint"
            for e in result.events
        )
