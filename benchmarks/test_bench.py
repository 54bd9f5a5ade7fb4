"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
from mdalign.alignment import AlignConfig, AlignmentLayer  # noqa: E402
from mdalign.training import domain_discovery_metrics  # noqa: E402
from spans import Tracer, iteration_times, self_times  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 3.5, 4.0, 1],
        ["a", 6.0, 7.0, 0],
    ]
    got = self_times(spans)
    assert got["root"] == 10.0 - 4.0 - 1.0
    assert got["a"] == (4.0 - 1.5) + 1.0
    assert got["b"] == 1.5
    assert sum(got.values()) == 10.0


def test_tracer_nests_and_accounts_for_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def parent():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf", "leaf.calls")
    traced_parent = tracer.wrap(parent, "parent")
    with tracer.span("root"):
        traced_parent()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "parent", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    assert tracer.counts["leaf.calls"] == 2
    root = tracer.spans[0]
    assert abs(sum(self_times(tracer.spans).values()) - (root[2] - root[1])) < 1e-12


def test_patch_and_restore_a_module_global():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    tracer = Tracer()
    original = mod.f
    tracer.patch(mod, "f", "mod.f", "mod.rows", lambda args: args[0])
    assert mod.f(3) == 4 and mod.f is not original
    tracer.restore()
    assert mod.f is original
    assert tracer.counts["mod.rows"] == 3


def test_iteration_times_per_loop_leave_out_breaks():
    spans = [
        ["training.loop", 0.0, 10.0, -1],
        ["training.sgd_step", 0.5, 1.0, 0],
        ["training.sgd_step", 2.5, 3.0, 0],
        ["training.evaluate", 3.0, 4.0, 0],
        ["training.sgd_step", 5.5, 6.0, 0],
        ["training.sgd_step", 6.5, 7.5, 0],
        ["training.loop", 20.0, 30.0, -1],
        ["training.sgd_step", 21.0, 22.0, 6],
        ["training.sgd_step", 22.0, 24.0, 6],
        ["bench.setup", 24.0, 24.5, 6],
        ["training.sgd_step", 25.0, 25.5, 6],
        ["training.sgd_step", 26.0, 26.5, 6],
    ]
    got = iteration_times(spans, "training.loop", "training.sgd_step", ("training.evaluate", "bench.setup"))
    # the first step of each loop and the step after an evaluation or a set-up are left out
    assert got == [[2.0, 1.5], [2.0, 1.0]]


def test_end_to_end_metrics_pool_runs_by_their_place_in_the_round():
    # two rounds of two runs; run 0 iterates in ~1 s, run 1 in ~3 s
    loops = [[1.5, 1.0, 9.0], [3.0, 3.5], [1.2], [4.0, 3.0]]
    metrics = run.end_to_end_metrics([0.3, 0.4, 0.1, 0.2], loops, 2, 600, 100.0)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["setup_s"][0] == 0.1
    assert metrics["train_samples_per_s"][0] == 600 / 2.0


def test_per_layer_names_match_benchmark_json():
    names = [m for m, _ in run.SPAN_METRICS] + run.COUNT_METRICS
    names += ["trace.accounted_pct", "trace.overhead_pct"] + list(micro.run_timings(0))
    assert names == [m["name"] for m in BENCH["per_layer"]]


def test_reference_forward_agrees_with_the_layer_and_catches_a_fault():
    rng = np.random.default_rng(3)
    for shape, n_domains, n_target, n_known in [((24, 5), 3, 6, 4), ((10, 3, 2, 2), 4, 3, 3)]:
        layer = micro._layer(rng, shape[1], n_domains)
        x = micro._inputs(rng, shape)
        assignment = micro._assignment(rng, shape[0], n_domains, n_target, n_known)
        assert checks.check_forward_and_infer(layer, x, assignment) == []
        # an output off by one part in 1e7 is caught on each path
        layer.infer = lambda xv, a: AlignmentLayer.infer(layer, xv, a) * (1.0 + 1e-7)
        faulty = checks.check_forward_and_infer(layer, x, assignment)
        assert len(faulty) == 1 and faulty[0].startswith("infer")
        layer.forward = lambda xv, a, update_running: (
            AlignmentLayer.forward(layer, xv, a, update_running)[0] * (1.0 + 1e-7), None)
        faulty = checks.check_forward_and_infer(layer, x, assignment)
        assert [p.split()[0] for p in faulty] == ["forward", "infer"]


def test_moment_property_and_gradient_probes_hold_on_a_small_layer():
    rng = np.random.default_rng(4)
    layer = AlignmentLayer(4, 3, AlignConfig(affine=False))
    x = micro._inputs(rng, (18, 4))
    assert checks.check_moment_property(layer, x, np.arange(18) % 3) == []
    layer = micro._layer(rng, 4, 3)
    assert checks.check_gradient_probes(layer, x, micro._assignment(rng, 18, 3, 5, 3), rng) == []


def test_reference_nmi_matches_its_conventions_and_the_program():
    assert checks.reference_nmi([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert checks.reference_nmi([0, 0, 0, 0], [1, 1, 2, 2]) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(5):
        pred, true = rng.integers(0, 3, 200), rng.integers(0, 4, 200)
        nmi, _ = domain_discovery_metrics(pred, true)
        assert abs(checks.reference_nmi(pred, true) - nmi) <= 1e-12
