"""The outside-in tracer changes no result and restores every object."""

import sys
import threading

import numpy as np

import repro
from bench.trace import Tracer, find_patched, layer_metrics
from bench.trace import ROOT as ROOT_SPAN


def _config():
    return repro.CstfConfig(
        rank=4, max_iters=3, update="cuadmm", update_params={"inner_iters": 3},
        mttkrp_format="coo", engine={"shards": 2, "backend": "threads"},
        telemetry="off", seed=3,
    )


def _snapshot() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            snap[(name, attr)] = value
            if isinstance(value, type):
                for key, raw in list(vars(value).items()):
                    snap[(name, attr, key)] = raw
    return snap


def test_traced_run_is_bit_identical_and_fully_restored():
    tensor = repro.get_dataset("nips").load_scaled(seed=1, max_dim=40, target_nnz=900)
    plain = repro.cstf(tensor, _config())
    Tracer().install().uninstall()  # load every module the tracer touches
    before = _snapshot()

    tracer = Tracer().install()
    try:
        traced = tracer.wrap(ROOT_SPAN, repro.cstf)(tensor, _config())
    finally:
        tracer.uninstall()

    after = _snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert find_patched() == []

    for a, b in zip(plain.kruskal.factors, traced.kruskal.factors):
        assert np.array_equal(a, b)
    assert np.array_equal(plain.kruskal.weights, traced.kruskal.weights)
    assert plain.fits == traced.fits

    m = layer_metrics(tracer.spans, threading.get_ident())
    # Subclass overrides and by-name imports were both patched.
    assert m["engine.run_shards.calls"] == 3 * tensor.ndim
    assert m["engine.tree_reduce.calls"] == 3 * tensor.ndim
    assert m["resilience.ensure_finite.calls"] > 0
    assert m["updates.update.calls"] == 3 * tensor.ndim
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(layers + m["core.residual_s"] - m["core.wall_s"]) < 1e-9
    assert m["core.residual_s"] >= 0.0
