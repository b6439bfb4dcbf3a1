"""Self-tests of the benchmark: span arithmetic, the percentile rule, the
per-input median at the reference pace, metric names against BENCHMARK.json, a negative
control, and a missing counter.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import harness
from cpwlrelu import compiler
from cpwlrelu.relu_net import ReluNetwork
from spans import self_times
from workloads import Workload, _pieces_item, _state_item


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 7]; b has child c [5.5, 6.5]
    spans = [
        ("root", 0.0, 10.0, -1, "x"),
        ("a", 1.0, 4.0, 0, "x"),
        ("b", 5.0, 7.0, 0, "x"),
        ("c", 5.5, 6.5, 2, "x"),
    ]
    assert self_times(spans).tolist() == [5.0, 3.0, 1.0, 1.0]
    # overlapping children are subtracted once
    spans = [("p", 0.0, 4.0, -1, ""), ("q", 1.0, 3.0, 0, ""), ("r", 2.0, 3.5, 0, "")]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert harness.percentile(xs, 90) == 90
    assert harness.percentile(xs, 50) == 50
    with pytest.raises(ValueError):
        harness.percentile(xs[:99], 90)
    assert harness.percentile(xs[:20], 50) == 10
    with pytest.raises(ValueError):
        harness.percentile(xs[:19], 50)
    # a low percentile needs its 10 samples below it
    assert harness.percentile(list(range(1, 111)), 10) == 11
    with pytest.raises(ValueError):
        harness.percentile(xs, 10)


def test_typical_sums_each_inputs_median_at_reference_pace():
    ref = harness.pace.REFERENCE_S
    passes = [{"compile": {"a": 3.0, "b": 1.0}, "pace": {"a": ref, "b": ref}},
              {"compile": {"a": 2.0, "b": 4.0}, "pace": {"a": ref, "b": ref}},
              # a slow spell halves the pace of step a
              {"compile": {"a": 5.0}, "pace": {"a": 2 * ref}}]
    assert harness.typical(passes, "compile") == pytest.approx(2.5 + 2.5)
    assert harness.typical(passes, "compile", harness.unit_scale) == pytest.approx(3.0 + 2.5)


def _tiny():
    item = _pieces_item("zigzag-m5", "zigzag", (5,), 31, "order")
    return Workload("tiny", [item], batch=8, batches_per_pass=40)


def test_metric_names_match_benchmark_json():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = harness.run(_tiny(), seed=3, seconds=0.0, trace=trace)["result"]
        assert res["correct"] and res["failed"] == 0
        assert sorted(res["metrics"]) == sorted(m["name"] for m in spec[key])
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(v["unit"] == units[k] for k, v in res["metrics"].items())


def test_negative_control_flipped_hidden_weight(monkeypatch):
    clean = harness.run(_tiny(), seed=4, seconds=0.0, trace=False)["result"]
    assert clean["failed"] == 0
    assert clean["metrics"]["ok_frac"]["value"] == 1.0

    real = compiler.compile_cpwl_shallow

    def flipped(*args, **kwargs):
        net, bound = real(*args, **kwargs)
        layers = [(np.array(W, dtype=float), b.copy()) for W, b in net.layers]
        unit = int(np.argmax(np.abs(layers[1][0][0])))  # strongest hidden unit
        col = int(np.argmax(np.abs(layers[0][0][unit])))
        layers[0][0][unit, col] *= -1.0
        return ReluNetwork(net.input_dim, layers), bound

    monkeypatch.setattr(compiler, "compile_cpwl_shallow", flipped)
    bad = harness.run(_tiny(), seed=4, seconds=0.0, trace=False)
    res = bad["result"]
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["ok_frac"]["value"] < clean["metrics"]["ok_frac"]["value"]
    assert any(": verify: " in line for line in bad["failures"])


def test_missing_rewrite_counter_reads_absent(monkeypatch):
    # A free-knot state never reaches the rewrite, so the library does not
    # need the counter while it is gone.
    monkeypatch.delattr(compiler, "REWRITE_CHECKS_PASSED")
    wl = Workload("state", [_state_item(23)], batch=8, batches_per_pass=40)
    res = harness.run(wl, seed=5, seconds=0.0, trace=True)["result"]
    assert res["correct"]
    assert res["metrics"]["compiler.rewrite_audits"]["value"] is None
