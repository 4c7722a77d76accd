"""Shard streams stay resident in process workers.

A ``processes`` task carries its shard's key ``(plan token, a, c)`` and
ships the stream only to a worker that does not hold that key for the
mode yet (``engine.proc.streams_shipped`` counts the ships). Every path
that replaces a worker — a kill or a straggler timeout — or leaves its
state unknown — an in-worker raise — must make
the next dispatch ship that worker's stream again, and every one must
stay bitwise identical to serial execution.
"""

import glob
import multiprocessing

import numpy as np
import pytest

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    get_backend,
    get_plan_cache,
    shutdown_backends,
)
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.tensor.synthetic import random_sparse

pytestmark = pytest.mark.procfaults

SHARDS = 2


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((40, 30, 20), nnz=2500, seed=3)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(1)
    return [rng.random((d, 6)) for d in tensor.shape]


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts from an empty pool and leaves nothing behind."""
    shm_before = set(glob.glob("/dev/shm/*"))
    shutdown_backends()
    yield
    shutdown_backends()
    stray = [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard")
    ]
    assert stray == []
    assert set(glob.glob("/dev/shm/*")) - shm_before == set()


def _cfg(**overrides):
    kw = dict(shards=SHARDS, chunk=256, backend="processes")
    kw.update(overrides)
    return EngineConfig(**kw)


def _dispatch(tensor, factors, cache, cfg=None, mode=0, **kw):
    """One MTTKRP dispatch: (result, streams shipped, events)."""
    events = EventLog()
    with telemetry_session() as tel:
        got = engine_mttkrp(
            tensor, factors, mode, "coo", cfg or _cfg(), cache,
            events=events, **kw,
        )
    shipped = tel.metrics.summary()["counters"].get(
        "engine.proc.streams_shipped", 0
    )
    assert np.array_equal(got, mttkrp_coo(tensor, factors, mode))
    return got, shipped, events


class TestResidency:
    def test_second_dispatch_ships_nothing(self, tensor, factors):
        cache = PlanCache()
        assert _dispatch(tensor, factors, cache)[1] == SHARDS
        assert _dispatch(tensor, factors, cache)[1] == 0

    def test_one_stream_per_mode(self, tensor, factors):
        cache = PlanCache()
        for mode in range(tensor.ndim):
            assert _dispatch(tensor, factors, cache, mode=mode)[1] == SHARDS
        for mode in range(tensor.ndim):
            assert _dispatch(tensor, factors, cache, mode=mode)[1] == 0

    def test_replan_ships_the_new_plan(self, tensor, factors):
        cache = PlanCache()
        _dispatch(tensor, factors, cache)
        cache.invalidate(tensor)
        assert _dispatch(tensor, factors, cache)[1] == SHARDS

    @pytest.mark.parametrize("shm", ["on", "off"])
    def test_ten_iteration_run_ships_each_stream_once(self, tensor, shm):
        get_plan_cache().clear()
        base = dict(rank=5, max_iters=10, update="admm", device="cpu",
                    mttkrp_format="coo", seed=11)
        serial = cstf(tensor, CstfConfig(
            **base, engine={"shards": SHARDS, "backend": "serial"},
        ))
        runs = []
        for _ in range(2):
            runs.append(cstf(tensor, CstfConfig(
                **base, telemetry="on",
                engine={"shards": SHARDS, "backend": "processes", "shm": shm},
            )))
        first, again = (
            r.telemetry.metrics_summary["counters"] for r in runs
        )
        assert first["engine.backend.dispatches"] == 10 * tensor.ndim
        assert first["engine.proc.streams_shipped"] == tensor.ndim * SHARDS
        # The same tensor's cached plans are still resident in the pool.
        assert "engine.proc.streams_shipped" not in again
        for res in runs:
            for a, b in zip(serial.kruskal.factors, res.kruskal.factors):
                assert np.array_equal(a, b)
            assert np.array_equal(serial.kruskal.weights, res.kruskal.weights)
            assert serial.fits == res.fits


class TestReshipAfterFaults:
    """The dispatch after a fault ships exactly the affected workers'
    streams; the faulted dispatch itself ships none (all were resident)."""

    def _warm(self, tensor, factors):
        cache = PlanCache()
        assert _dispatch(tensor, factors, cache)[1] == SHARDS
        return cache

    def test_killed_worker_is_sent_its_stream_again(self, tensor, factors):
        cache = self._warm(tensor, factors)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=1.0), seed=5
        )
        _, shipped, events = _dispatch(tensor, factors, cache, faults=inj)
        assert shipped == 0
        assert len(events.of_kind("worker_lost")) == 1
        assert _dispatch(tensor, factors, cache)[1] == 1

    def test_timed_out_worker_is_sent_its_stream_again(self, tensor, factors):
        cache = self._warm(tensor, factors)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "slow_shard", probability=1.0, magnitude=0.5),
            seed=2,
        )
        _, shipped, events = _dispatch(
            tensor, factors, cache, _cfg(shard_timeout=0.05), faults=inj
        )
        timeouts = len(events.of_kind("shard_timeout"))
        assert shipped == 0 and timeouts >= 1
        # A loaded host may time out a healthy shard too; every timed-out
        # worker was killed and respawned empty.
        assert _dispatch(tensor, factors, cache)[1] == timeouts

    def test_raising_worker_is_sent_its_stream_again(self, tensor, factors):
        cache = self._warm(tensor, factors)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "worker_crash", probability=1.0), seed=4
        )
        _, shipped, events = _dispatch(tensor, factors, cache, faults=inj)
        assert shipped == 0
        assert len(events.of_kind("shard_retry")) == 1
        assert _dispatch(tensor, factors, cache)[1] == 1

    def test_unknown_key_raises_and_is_redone(self, tensor, factors):
        """A worker sent a key it does not hold raises; the serial redo
        covers the shard and the next dispatch ships the stream."""
        cache = self._warm(tensor, factors)
        cache.invalidate(tensor)
        replan = cache.plan(tensor, 0).shard_streams(SHARDS)
        # The parent wrongly believes worker 0 holds the new plan's shard;
        # the worker still holds the old one.
        get_backend("processes")._workers[0].held[0] = replan[0].key
        _, shipped, events = _dispatch(tensor, factors, cache)
        assert shipped == 1  # worker 1's new stream only
        (retry,) = events.of_kind("shard_retry")
        assert retry.data["shard"] == 0 and "LookupError" in retry.detail
        assert _dispatch(tensor, factors, cache)[1] == 1

    def test_kill_campaign_matches_serial(self, tensor):
        get_plan_cache().clear()
        base = dict(rank=5, max_iters=10, update="admm", device="cpu",
                    mttkrp_format="coo", seed=11)
        serial = cstf(tensor, CstfConfig(
            **base, engine={"shards": SHARDS, "backend": "serial"},
        ))
        injector = FaultInjector(
            FaultSpec("EXECUTE", "kill_worker", probability=0.3), seed=29
        )
        chaos = cstf(tensor, CstfConfig(
            **base, telemetry="on", fault_injector=injector,
            engine={"shards": SHARDS, "backend": "processes"},
        ))
        lost = [e for e in chaos.events if e.kind == "worker_lost"]
        assert lost
        counters = chaos.telemetry.metrics_summary["counters"]
        assert counters["engine.proc.streams_shipped"] > tensor.ndim * SHARDS
        for a, b in zip(serial.kruskal.factors, chaos.kruskal.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(serial.kruskal.weights, chaos.kruskal.weights)
        assert serial.fits == chaos.fits
