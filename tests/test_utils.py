"""Validation, RNG and timing utilities."""

import hashlib
import time

import numpy as np
import pytest

from repro.utils.npzio import payload_digest
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_axis,
    check_positive_int,
    check_rank,
    check_same_length,
    check_shape,
    require,
)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_positive_int_accepts_numpy_scalars(self):
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True, None])
    def test_positive_int_rejects(self, bad):
        with pytest.raises((TypeError, ValueError)):
            check_positive_int(bad, "x")

    def test_positive_int_accepts_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_shape(self):
        assert check_shape([3, 4]) == (3, 4)
        with pytest.raises(ValueError):
            check_shape([3, 0])
        with pytest.raises(ValueError, match="at least"):
            check_shape([3], min_modes=2)

    def test_axis(self):
        assert check_axis(-1, 3) == 2
        assert check_axis(0, 3) == 0
        with pytest.raises(ValueError):
            check_axis(3, 3)
        with pytest.raises(TypeError):
            check_axis(True, 3)

    def test_rank(self):
        assert check_rank(8) == 8
        with pytest.raises(ValueError):
            check_rank(0)

    def test_same_length(self):
        check_same_length([1], [2], "pair")
        with pytest.raises(ValueError, match="pair"):
            check_same_length([1], [2, 3], "pair")


class TestRng:
    def test_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_reproducible(self):
        assert as_generator(7).random() == as_generator(7).random()

    def test_none_works(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independent(self):
        children = spawn_generators(3, count=4)
        draws = [g.random() for g in children]
        assert len(set(draws)) == 4

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_generators(3, count=2)]
        b = [g.random() for g in spawn_generators(3, count=2)]
        assert a == b

    def test_spawn_from_generator(self):
        children = spawn_generators(np.random.default_rng(1), count=2)
        assert len(children) == 2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, count=-1)


class TestStopwatch:
    def test_lap_accumulates(self):
        sw = Stopwatch()
        with sw.lap("a"):
            time.sleep(0.001)
        with sw.lap("a"):
            pass
        assert sw.total("a") > 0
        assert sw.counts["a"] == 2

    def test_breakdown_sums_to_one(self):
        sw = Stopwatch()
        sw.add("x", 1.0)
        sw.add("y", 3.0)
        assert sum(sw.breakdown().values()) == pytest.approx(1.0)
        assert sw.breakdown()["y"] == pytest.approx(0.75)

    def test_empty_breakdown(self):
        assert Stopwatch().breakdown() == {}

    def test_grand_total(self):
        sw = Stopwatch()
        sw.add("x", 1.5)
        sw.add("y", 0.5)
        assert sw.grand_total() == 2.0

    def test_mean_uses_counts(self):
        sw = Stopwatch()
        sw.add("x", 1.0)
        sw.add("x", 3.0)
        sw.add("y", 0.5)
        assert sw.mean("x") == pytest.approx(2.0)
        assert sw.mean("y") == pytest.approx(0.5)
        assert sw.mean("never") == 0.0

    def test_breakdown_ordered_by_descending_time(self):
        sw = Stopwatch()
        sw.add("small", 1.0)
        sw.add("big", 5.0)
        sw.add("mid", 2.0)
        assert list(sw.breakdown()) == ["big", "mid", "small"]
        # Ties break by name, so the order is deterministic.
        sw2 = Stopwatch()
        sw2.add("b", 1.0)
        sw2.add("a", 1.0)
        assert list(sw2.breakdown()) == ["a", "b"]

    def test_report_table(self):
        sw = Stopwatch()
        sw.add("alpha", 1.0)
        sw.add("alpha", 1.0)
        sw.add("beta", 6.0)
        report = sw.report()
        lines = report.splitlines()
        # Header, rule, beta (heavier) before alpha, then the TOTAL row.
        assert "lap" in lines[0] and "share" in lines[0]
        assert lines[2].startswith("beta")
        assert lines[3].startswith("alpha")
        assert lines[-1].startswith("TOTAL")
        assert "75.0%" in lines[2]
        assert "8.000000" in lines[-1]  # grand total
        assert Stopwatch().report() == "(no laps recorded)"


def _digest_payload():
    return {
        "meta_json": np.array("ignored"),
        "factor_0": np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0,
        "cols": np.arange(10, dtype=np.int64)[::2],
        "fortran": np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3)),
        "scalar": np.float64(2.5),
        "empty": np.zeros((0, 4)),
        "mask": np.array([True, False, True]),
    }


class TestPayloadDigest:
    def test_pinned_digest(self):
        """Checkpoints and plan-store entries already on disk carry this
        digest; a change to it would fail every one of them on load."""
        assert (
            payload_digest(_digest_payload())
            == "68dc7b2c4cb7a77a2f80c5bf83bc6d6594cb63cf"
        )

    def test_equals_hash_of_contiguous_bytes(self):
        arrays = _digest_payload()
        h = hashlib.sha1()
        for name in sorted(arrays):
            if name == "meta_json":
                continue
            arr = np.asarray(arrays[name])
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(repr(tuple(arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert payload_digest(arrays) == h.hexdigest()

    def test_metadata_member_is_not_hashed(self):
        arrays = _digest_payload()
        arrays["meta_json"] = np.array("something else")
        assert payload_digest(arrays) == payload_digest(_digest_payload())

    def test_one_flipped_value_changes_the_digest(self):
        arrays = _digest_payload()
        arrays["factor_0"] = arrays["factor_0"].copy()
        arrays["factor_0"][2, 1] = np.nextafter(arrays["factor_0"][2, 1], 0.0)
        assert payload_digest(arrays) != payload_digest(_digest_payload())
