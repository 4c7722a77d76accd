"""The zero-copy shared-memory shard transport, end to end.

Contract under test (the PR-9 tentpole): with ``EngineConfig.shm`` on, the
processes backend publishes factor matrices once per dispatch into pooled
shared-memory segments and collects each shard from a parent-allocated shm
accumulator — bitwise identical to the pipe transport, the threads
backend, and serial execution; span-shape identical to every other
backend (with a truthful ``transport`` attr); and leak-free: zero shm
segments survive ``shutdown_backends()``, worker respawn flushes idle
segments, and every fault path discards (never recycles) the abandoned
accumulator.

Spawns real worker processes, so the module is marked ``procfaults`` and
excluded from tier-1; it runs via ``scripts/run_fault_suite.py``.
"""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    PlanCache,
    engine_mttkrp,
    get_backend,
    shutdown_backends,
)
from repro.engine.backends.processes import _attach_shm_task
from repro.engine.backends.shm import (
    SegmentPool,
    ShmAttachError,
    attach_segment,
    shm_available,
)
from repro.kernels.mttkrp_coo import mttkrp_coo
from repro.obs import telemetry_session
from repro.resilience import EventLog, FaultInjector, FaultSpec
from repro.tensor.synthetic import random_sparse
from tests.engine.test_shard_faults import _assert_timeouts_recovered

pytestmark = [
    pytest.mark.procfaults,
    pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    ),
]

SHARDS = 3
RANK = 5


@pytest.fixture(scope="module")
def tensor():
    return random_sparse((36, 28, 20), nnz=2200, seed=7)


@pytest.fixture(scope="module")
def factors(tensor):
    rng = np.random.default_rng(6)
    return [rng.random((d, RANK)) for d in tensor.shape]


@pytest.fixture(scope="module", autouse=True)
def _reap_workers():
    yield
    shutdown_backends()


def _cfg(shm="on", **overrides):
    kw = dict(shards=SHARDS, chunk=256, backend="processes", shm=shm)
    kw.update(overrides)
    return EngineConfig(**kw)


class TestParity:
    def test_every_backend_and_transport_bitwise_identical(
        self, tensor, factors
    ):
        cache = PlanCache()
        for mode in range(tensor.ndim):
            ref = mttkrp_coo(tensor, factors, mode)
            for cfg in (
                EngineConfig(shards=SHARDS, chunk=256, backend="serial"),
                EngineConfig(shards=SHARDS, chunk=256, backend="threads"),
                _cfg(shm="off"),
                _cfg(shm="on"),
            ):
                got = engine_mttkrp(tensor, factors, mode, "coo", cfg, cache)
                assert np.array_equal(ref, got), (cfg.backend, cfg.shm, mode)

    def test_repeat_dispatches_reuse_segments(self, tensor, factors):
        """One write, N readers, pooled: the second and third dispatch
        lease the first dispatch's segments instead of creating more."""
        shutdown_backends()
        ref = mttkrp_coo(tensor, factors, 0)
        with telemetry_session() as tel:
            cache = PlanCache()
            for _ in range(3):
                got = engine_mttkrp(
                    tensor, factors, 0, "coo", _cfg(shm="on"), cache
                )
                assert np.array_equal(ref, got)
        counters = tel.metrics.summary()["counters"]
        # ndim factor segments + one accumulator per shard, created once.
        assert counters["engine.shm.segments"] == tensor.ndim + SHARDS
        backend = get_backend("processes")
        assert len(backend._shm_pool.segment_names()) == tensor.ndim + SHARDS


class TestSpanShapes:
    def _traced(self, tensor, factors, cfg):
        try:
            with telemetry_session() as tel:
                engine_mttkrp(tensor, factors, 0, "coo", cfg, PlanCache())
        finally:
            shutdown_backends()
        return tel

    def test_trace_shapes_match_across_transports(self, tensor, factors):
        """PR-7 contract, extended: the trace *shape* is transport-
        independent, and every shard span names the transport that ran."""
        shapes, transports = {}, {}
        for label, cfg in (
            ("serial", EngineConfig(shards=SHARDS, chunk=256, backend="serial")),
            ("threads", EngineConfig(shards=SHARDS, chunk=256, backend="threads")),
            ("pipe", _cfg(shm="off")),
            ("shm", _cfg(shm="on")),
        ):
            tel = self._traced(tensor, factors, cfg)
            shapes[label] = sorted(
                (s.name, s.attrs.get("shard"))
                for s in tel.record.spans
                if s.name in ("shard", "shard_kernel")
            )
            transports[label] = {
                s.attrs.get("transport")
                for s in tel.record.spans
                if s.name == "shard"
            }
        assert (
            shapes["serial"] == shapes["threads"]
            == shapes["pipe"] == shapes["shm"]
        )
        assert transports == {
            "serial": {"inline"},
            "threads": {"threads"},
            "pipe": {"pipe"},
            "shm": {"shm"},
        }

    def test_worker_attribution_survives_shm(self, tensor, factors):
        """Kernel spans still ship from the worker over the reply pipe;
        only the array payloads moved to shared memory."""
        tel = self._traced(tensor, factors, _cfg(shm="on"))
        shard_ids = {s.id for s in tel.record.spans if s.name == "shard"}
        kernels = [s for s in tel.record.spans if s.name == "shard_kernel"]
        assert len(kernels) == SHARDS
        assert {k.parent for k in kernels} == shard_ids
        for k in kernels:
            assert k.worker is not None
            assert set(k.worker) == {"pid", "id"}


class TestLeakHygiene:
    def test_shutdown_unlinks_every_segment(self, tensor, factors):
        backend = get_backend("processes")
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(shm="on"), PlanCache())
        names = backend._shm_pool.segment_names()
        assert names  # the shm transport actually ran
        shutdown_backends()
        for name in names:
            with pytest.raises(ShmAttachError):
                attach_segment(name)

    def test_respawn_flushes_idle_segments(self, tensor, factors):
        """A respawned worker must never be able to attach a recycled name
        from a dispatch it did not see: respawn unlinks the free list."""
        shutdown_backends()
        backend = get_backend("processes")
        engine_mttkrp(tensor, factors, 0, "coo", _cfg(shm="on"), PlanCache())
        names = backend._shm_pool.segment_names()
        assert len(names) == tensor.ndim + SHARDS
        backend._respawn(0)
        assert backend._shm_pool.segment_names() == []
        for name in names:
            with pytest.raises(ShmAttachError):
                attach_segment(name)
        # The next dispatch simply republishes into fresh segments.
        got = engine_mttkrp(
            tensor, factors, 0, "coo", _cfg(shm="on"), PlanCache()
        )
        assert np.array_equal(got, mttkrp_coo(tensor, factors, 0))


class TestFaultRecovery:
    @pytest.mark.parametrize(
        "kind,event",
        [("kill_worker", "worker_lost"), ("worker_crash", "shard_retry")],
    )
    def test_fault_paths_bitwise_identical_and_discard_the_accumulator(
        self, tensor, factors, kind, event
    ):
        shutdown_backends()
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", kind, probability=1.0), seed=5
        )
        events = EventLog()
        backend = get_backend("processes")
        with telemetry_session() as tel:
            got = engine_mttkrp(
                tensor, factors, 0, "coo", _cfg(shm="on"), PlanCache(),
                faults=inj, events=events,
            )
        assert np.array_equal(ref, got)
        assert len(events.of_kind(event)) == 1
        # Fault hygiene: the redone shard's shm accumulator was discarded
        # outright — the pool now owns the factor segments plus one
        # accumulator per *unaffected* shard.
        assert (
            len(backend._shm_pool.segment_names())
            == tensor.ndim + SHARDS - 1
        )
        # The redone shard's span tells the truth about how it ran.
        redone = [
            s for s in tel.record.spans
            if s.name == "shard" and s.attrs.get("redone")
        ]
        assert [s.attrs["transport"] for s in redone] == ["inline"]

    def test_corrupt_store_bitwise_identical_with_shm(
        self, tensor, factors, tmp_path
    ):
        """Store corruption under the shm transport: the entry is
        quarantined and replanned, workers re-derive their shard streams,
        and the shm-collected result still matches serial bitwise."""
        shutdown_backends()
        ref = mttkrp_coo(tensor, factors, 0)
        cfg = _cfg(shm="on", plan_store=tmp_path / "plans")
        cache = PlanCache()
        # Warm the store so the injected fault has an entry to damage.
        assert np.array_equal(
            ref, engine_mttkrp(tensor, factors, 0, "coo", cfg, cache)
        )
        inj = FaultInjector(
            FaultSpec("EXECUTE", "corrupt_store", probability=1.0), seed=9
        )
        events = EventLog()
        got = engine_mttkrp(
            tensor, factors, 0, "coo", cfg, cache,
            faults=inj, events=events,
        )
        assert np.array_equal(ref, got)
        assert len(events.of_kind("plan_repaired")) == 1

    def test_straggler_timeout_bitwise_identical_with_shm(
        self, tensor, factors
    ):
        shutdown_backends()
        ref = mttkrp_coo(tensor, factors, 0)
        inj = FaultInjector(
            FaultSpec("EXECUTE", "slow_shard", probability=1.0, magnitude=0.5),
            seed=2,
        )
        events = EventLog()
        backend = get_backend("processes")
        got = engine_mttkrp(
            tensor, factors, 0, "coo", _cfg(shm="on", shard_timeout=0.05),
            PlanCache(), faults=inj, events=events,
        )
        assert np.array_equal(ref, got)
        timed_out = _assert_timeouts_recovered(events)
        # Each timed-out shard's abandoned accumulator is discarded.
        assert (
            len(backend._shm_pool.segment_names())
            == tensor.ndim + SHARDS - len(timed_out)
        )


class TestAttachFailure:
    def test_attach_failure_counted_and_redone_serially(
        self, tensor, factors, monkeypatch
    ):
        """A worker that cannot map a segment reports ShmAttachError like
        any in-worker exception: the parent counts it, redoes the shard
        serially into a private buffer, and the result stays bitwise."""
        shutdown_backends()  # the fresh pool must fork with the patch below
        import repro.engine.backends.shm as shm_mod

        def refuse(name):
            raise ShmAttachError(f"injected attach failure for {name!r}")

        monkeypatch.setattr(shm_mod, "attach_segment", refuse)
        ref = mttkrp_coo(tensor, factors, 0)
        events = EventLog()
        try:
            with telemetry_session() as tel:
                got = engine_mttkrp(
                    tensor, factors, 0, "coo", _cfg(shm="on"), PlanCache(),
                    events=events,
                )
        finally:
            # Workers forked with the patched attach must not leak into
            # later tests.
            shutdown_backends()
        assert np.array_equal(ref, got)
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.shm.attach_failures"] == SHARDS
        assert counters["engine.shard.retries"] == SHARDS
        retries = events.of_kind("shard_retry")
        assert len(retries) == SHARDS
        assert all("ShmAttachError" in ev.detail for ev in retries)
        shard_spans = [s for s in tel.record.spans if s.name == "shard"]
        assert {s.attrs["transport"] for s in shard_spans} == {"inline"}

    def test_worker_refuses_stale_generation(self):
        """A descriptor from an older dispatch than the worker has already
        served is refused before any segment is touched."""
        desc = {
            "gen": 1,
            "fmats": [],
            "out": {"name": "never-attached", "shape": (1, 1)},
        }
        attached: list = []
        with pytest.raises(ShmAttachError, match="stale shm generation"):
            _attach_shm_task(desc, attached, 5)
        assert attached == []

    def test_current_generation_attaches_and_shares_both_ways(self):
        """Same-generation descriptors attach; the views are genuinely
        zero-copy: parent writes are visible to the attacher and vice
        versa."""
        pool = SegmentPool()
        fm = pool.lease(4 * 8)
        out = pool.lease(4 * 8)
        fm.view((2, 2))[...] = 7.0
        attached: list = []
        try:
            fmats, out_view, gen = _attach_shm_task(
                {
                    "gen": 3,
                    "fmats": [{"name": fm.name, "shape": (2, 2)}],
                    "out": {"name": out.name, "shape": (2, 2)},
                },
                attached, 3,
            )
            assert gen == 3
            assert np.array_equal(fmats[0], np.full((2, 2), 7.0))
            out_view[...] = 1.0
            assert np.array_equal(out.view((2, 2)), np.ones((2, 2)))
        finally:
            fmats = out_view = None
            for seg in attached:
                seg.close()
            pool.close()


class TestSegmentPool:
    def test_lease_reuses_by_capacity_and_counts_creations(self):
        with telemetry_session() as tel:
            pool = SegmentPool()
            a = pool.lease(1024)
            pool.release(a)
            b = pool.lease(512)  # fits inside the freed 1024-byte segment
            assert b is a
            c = pool.lease(2048)  # nothing free is big enough
            assert c is not a
            pool.close()
        counters = tel.metrics.summary()["counters"]
        assert counters["engine.shm.segments"] == 2
        assert counters["engine.shm.bytes"] >= 1024 + 2048

    def test_discard_destroys_and_never_recycles(self):
        pool = SegmentPool()
        lease = pool.lease(256)
        name = lease.name
        pool.discard(lease)
        assert pool.segment_names() == []
        with pytest.raises(ShmAttachError):
            attach_segment(name)
        pool.close()

    def test_close_unlinks_free_and_leased_and_is_idempotent(self):
        pool = SegmentPool()
        free = pool.lease(128)
        pool.release(free)
        leased = pool.lease(4096)
        names = [free.name, leased.name]
        pool.close()
        pool.close()
        assert pool.segment_names() == []
        for name in names:
            with pytest.raises(ShmAttachError):
                attach_segment(name)

    def test_generations_are_monotonic(self):
        pool = SegmentPool()
        try:
            assert pool.next_generation() == 1
            assert pool.next_generation() == 2
            assert pool.next_generation() == 3
        finally:
            pool.close()


class TestDispatchOverheadBench:
    def test_shm_dispatch_group_is_optional_and_well_formed(self):
        """The opt-in shmdispatch bench group measures both transports and
        validates against the BENCH schema; its baseline is marked
        optional so default suite runs do not regress on its absence."""
        from repro.obs.analysis.bench import run_bench_suite, validate_bench

        doc = run_bench_suite(
            shm_bench=True, shm_shards=2, shm_nnz=8_000, shm_repeats=1,
        )
        assert validate_bench(doc) == []
        (group,) = [
            g for g in doc["groups"] if g["figure"] == "shmdispatch"
        ]
        assert group["meta"]["optional"] is True
        assert group["meta"]["shm_available"] is True
        metrics = group["metrics"]
        assert metrics["pipe.dispatch_s"] > 0.0
        assert metrics["shm.dispatch_s"] > 0.0
        assert metrics["shm_speedup"] == pytest.approx(
            metrics["pipe.dispatch_s"] / metrics["shm.dispatch_s"]
        )
