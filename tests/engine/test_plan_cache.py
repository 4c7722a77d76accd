"""The per-tensor plan cache: identity keys, hits, invalidation, LRU."""

import dataclasses

import numpy as np
import pytest

from repro.engine import EngineConfig, MttkrpPlan, PlanCache, resolve_engine
from repro.engine.config import default_shards
from repro.tensor.coo import SparseTensor
from repro.tensor.synthetic import random_sparse


@pytest.fixture
def tensor():
    return random_sparse((17, 13, 9), nnz=300, seed=5)


class TestEngineConfig:
    def test_defaults(self):
        assert dataclasses.asdict(EngineConfig()) == {
            "chunk": 4096, "shards": 1, "shard_timeout": 0.0,
            "backend": "threads", "shm": "auto",
        }

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(chunk=-1)
        with pytest.raises(ValueError):
            EngineConfig(shards=0)

    def test_resolve_settings(self):
        assert resolve_engine(None) == EngineConfig()
        for removed in (False, "off", "OFF"):
            with pytest.raises(ValueError, match="seed-kernel MTTKRP path was removed"):
                resolve_engine(removed)
        assert resolve_engine(True) == EngineConfig()
        assert resolve_engine("on") == EngineConfig()
        assert resolve_engine("cached") == EngineConfig()
        assert resolve_engine("sharded").shards == default_shards()
        assert resolve_engine({"chunk": 512, "shards": 3}) == EngineConfig(
            chunk=512, shards=3
        )
        cfg = EngineConfig(shards=2)
        assert resolve_engine(cfg) is cfg
        with pytest.raises(ValueError):
            resolve_engine("turbo")


class TestPlanCacheLookups:
    def test_miss_then_hits(self, tensor):
        cache = PlanCache()
        first = cache.plan(tensor, 0)
        again = cache.plan(tensor, 0)
        assert first is again
        assert (cache.misses, cache.hits) == (1, 1)
        assert cache.hit_rate() == 0.5

    def test_modes_are_separate_plans(self, tensor):
        cache = PlanCache()
        plans = {cache.plan(tensor, m).mode for m in range(tensor.ndim)}
        assert plans == {0, 1, 2}
        assert cache.misses == tensor.ndim and len(cache) == 1

    def test_invalidate_drops_plans(self, tensor):
        cache = PlanCache()
        cache.plan(tensor, 0)
        cache.invalidate(tensor)
        assert len(cache) == 0
        cache.plan(tensor, 0)
        assert cache.misses == 2

    def test_cheap_probe_detects_mutation(self, tensor):
        cache = PlanCache()
        stale = cache.plan(tensor, 0)
        tensor._values = tensor.values.copy()
        tensor._values[0] += 1.0  # in-place mutation under the cache
        fresh = cache.plan(tensor, 0)
        assert fresh is not stale
        assert np.array_equal(np.sort(fresh.stream.values), np.sort(tensor.values))
        assert cache.repairs == 0  # a user edit is rebuilt, not repaired

    def test_equal_copy_gets_its_own_entry(self, tensor):
        cache = PlanCache()
        plan = cache.plan(tensor, 1)
        copy = SparseTensor(
            tensor.indices.copy(), tensor.values.copy(), tensor.shape
        )
        copy_plan = cache.plan(copy, 1)
        assert copy_plan is not plan
        assert len(cache) == 2 and cache.misses == 2
        for a, b in zip(plan.stream.cols, copy_plan.stream.cols):
            assert np.array_equal(a, b)
        assert np.array_equal(plan.stream.values, copy_plan.stream.values)
        assert np.array_equal(plan.stream.bounds, copy_plan.stream.bounds)

    def test_lru_evicts_oldest_tensor(self):
        cache = PlanCache(max_tensors=2)
        tensors = [random_sparse((11, 7, 5), nnz=60, seed=s) for s in range(3)]
        for t in tensors:
            cache.plan(t, 0)
        assert len(cache) == 2
        cache.plan(tensors[0], 0)  # evicted → rebuilt
        assert cache.misses == 4

    def test_format_cache_builds_once(self, tensor):
        cache = PlanCache()
        calls = []

        def build(t):
            calls.append(t)
            return "converted"

        assert cache.format(tensor, "alto", build) == "converted"
        assert cache.format(tensor, "alto", build) == "converted"
        assert len(calls) == 1
        assert (cache.format_misses, cache.format_hits) == (1, 1)

    def test_nbytes_accounts_plans(self, tensor):
        cache = PlanCache()
        assert cache.nbytes == 0
        cache.plan(tensor, 0)
        assert cache.nbytes > 0


class TestPlanStructure:
    def test_plan_matches_seed_sort(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 0
        )
        order = np.argsort(tensor.indices[:, 0], kind="stable")
        assert np.array_equal(plan.stream.values, tensor.values[order])
        assert np.array_equal(plan.stream.cols[0], tensor.indices[order, 0])
        # Segment out_index covers exactly the occupied rows, ascending.
        assert np.array_equal(
            plan.stream.out_index, np.unique(tensor.indices[:, 0])
        )

    @pytest.mark.parametrize("dim", [65536, 65537])
    def test_plan_equals_int64_stable_sort(self, dim):
        """Modes up to 65536 long sort 16-bit keys; the plan must still be
        the int64 stable sort's, tie order included."""
        rng = np.random.default_rng(dim)
        nnz = 4000
        targets = rng.choice([0, 1, 255, 256, 65535, dim - 1], size=nnz)
        indices = np.stack([np.arange(nnz), targets], axis=1)
        values = rng.random(nnz)
        plan = MttkrpPlan.from_arrays(indices, values, (nnz, dim), 1)
        order = np.argsort(targets.astype(np.int64), kind="stable")
        stream = plan.stream
        for m in range(2):
            assert np.array_equal(stream.cols[m], indices[order, m])
        assert np.array_equal(stream.values, values[order])
        sorted_targets = targets[order]
        assert np.array_equal(stream.out_index, np.unique(targets))
        assert np.array_equal(
            stream.starts, np.searchsorted(sorted_targets, stream.out_index)
        )

    def test_chunk_edges_align_to_segments(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 1
        )
        stream = plan.stream
        for chunk in (1, 7, 64, 0):
            edges = stream.chunk_edges(chunk)
            assert edges[0] == 0 and edges[-1] == stream.n_segments
            assert (np.diff(edges) >= 1).all()
            if chunk > 0:
                # Each chunk holds <= chunk nonzeros unless it is a single
                # oversized segment.
                spans = stream.bounds[edges[1:]] - stream.bounds[edges[:-1]]
                single = np.diff(edges) == 1
                assert ((spans <= chunk) | single).all()

    def test_shard_streams_partition_segments(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 2
        )
        streams = plan.shard_streams(3)
        assert sum(s.nnz for s in streams) == tensor.nnz
        rows = [set(s.out_index.tolist()) for s in streams]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert not rows[i] & rows[j], "shards must own disjoint rows"

    def test_shard_streams_memoized(self, tensor):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 0
        )
        assert plan.shard_streams(4) is plan.shard_streams(4)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_shards_are_contiguous_segment_ranges(self, tensor, n):
        plan = MttkrpPlan.from_arrays(
            tensor.indices, tensor.values, tensor.shape, 1
        )
        stream = plan.stream
        streams = plan.shard_streams(n)
        assert len(streams) == n
        ranges = [s.key[1:] for s in streams]
        assert ranges[0][0] == 0 and ranges[-1][1] == stream.n_segments
        assert all(c == a for (_, c), (a, _) in zip(ranges, ranges[1:]))
        for s, (a, c) in zip(streams, ranges):
            assert s.key[0] == plan.token
            assert s.integrity_ok()
            lo, hi = stream.bounds[a], stream.bounds[c]
            assert s.base == lo and s.nnz == hi - lo
            assert np.array_equal(s.values, stream.values[lo:hi])
            assert np.array_equal(s.out_index, stream.out_index[a:c])
        # Each cut is the segment boundary nearest k*nnz/n.
        for k, (a, _) in enumerate(ranges[1:], start=1):
            gaps = np.abs(stream.bounds[1:-1] - k * stream.nnz / n)
            assert gaps[a - 1] == gaps.min()

    def test_fewer_segments_than_shards(self):
        t = SparseTensor(
            np.array([[0, 0], [0, 1], [1, 0]]), np.ones(3), (2, 2)
        )
        plan = MttkrpPlan.from_arrays(t.indices, t.values, t.shape, 0)
        streams = plan.shard_streams(4)
        assert [s.nnz for s in streams] == [2, 1]

    def test_plan_tokens_are_unique(self, tensor):
        cache = PlanCache()
        first = cache.plan(tensor, 0)
        cache.invalidate(tensor)
        again = cache.plan(tensor, 0)
        assert first.token != again.token


class TestShardMemory:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sharding_adds_no_plan_bytes(self, tensor, n):
        cache = PlanCache()
        plan = cache.plan(tensor, 1)
        plan_bytes, cache_bytes = plan.nbytes, cache.nbytes
        streams = plan.shard_streams(n)
        assert len(streams) == n
        assert plan.nbytes == plan_bytes == plan.stream.nbytes
        assert cache.nbytes == cache_bytes

    @pytest.mark.parametrize("n", [2, 3])
    def test_shard_arrays_share_the_plan_stream(self, tensor, n):
        plan = PlanCache().plan(tensor, 2)
        stream = plan.stream
        for s in plan.shard_streams(n):
            for col, base_col in zip(s.cols, stream.cols):
                assert np.shares_memory(col, base_col)
            for name in ("values", "starts", "bounds", "out_index"):
                assert np.shares_memory(getattr(s, name), getattr(stream, name))
