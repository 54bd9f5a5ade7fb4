"""Layer microbenchmarks at the shapes each workload sends, and the checks made at those shapes.

Every run checks the alignment layer against the plain-loop reference at
each shape below; only traced runs time the calls.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from mdalign.alignment import AlignConfig, AlignmentLayer
from mdalign.assignment import DomainTag, merge_assignments
from mdalign.primitives import dense_backward, dense_forward

from checks import check_forward_and_infer, check_gradient_probes, check_moment_property

# name: (training batch shape, domains, target rows, known-source rows, evaluation rows)
# Evaluation rows are the largest set forward_eval sends: the source training set.
ALIGN_SHAPES = {
    "pinned_grid": ((96, 64), 3, 48, 0, 480),
    "wide_domains": ((512, 256), 6, 256, 0, 3000),
    "digit_files": ((192, 64), 4, 96, 32, 21000),
    "spatial": ((32, 8, 4, 4), 3, 8, 4, None),
}
# name: (rows, k, target rows)
MERGE_SHAPES = {"pinned_grid": (96, 2, 48), "wide_domains": (512, 5, 256)}
# the digit model's first trunk layer: batch rows, 784 pixels, width 64
DENSE_SHAPES = {"digit_files": (192, 784, 64)}


def _tags(b: int, k: int, n_target: int, n_known: int) -> list:
    n_unknown = b - n_target - n_known
    return (
        [DomainTag.unknown_source()] * n_unknown
        + [DomainTag.known_source(i % k) for i in range(n_known)]
        + [DomainTag.target()] * n_target
    )


def _assignment(rng, b: int, n_domains: int, n_target: int, n_known: int):
    k = n_domains - 1
    logits = rng.normal(0.0, 1.0, (b, k))
    pred = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return merge_assignments(pred, _tags(b, k, n_target, n_known))


def _inputs(rng, shape):
    c = shape[1]
    spread = (-1, c) + (1,) * (len(shape) - 2)
    return rng.normal(0.0, 1.0, shape) * rng.uniform(0.5, 2.0, c).reshape(spread) + rng.uniform(
        -3.0, 3.0, c
    ).reshape(spread)


def _layer(rng, channels: int, n_domains: int, affine: bool = True) -> AlignmentLayer:
    layer = AlignmentLayer(channels, n_domains, AlignConfig(affine=affine))
    if affine:
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, channels)
        layer.beta.value[...] = rng.normal(0.0, 0.5, channels)
    layer.running.mean[...] = rng.normal(0.0, 1.0, (n_domains, channels))
    layer.running.var[...] = rng.uniform(0.5, 2.0, (n_domains, channels))
    layer.running.count[...] = 1
    return layer


def _case(rng, name):
    shape, n_domains, n_target, n_known, eval_rows = ALIGN_SHAPES[name]
    layer = _layer(rng, shape[1], n_domains)
    x = _inputs(rng, shape)
    assignment = _assignment(rng, shape[0], n_domains, n_target, n_known)
    evaluation = None
    if eval_rows is not None:
        evaluation = (
            _inputs(rng, (eval_rows,) + shape[1:]),
            _assignment(rng, eval_rows, n_domains, 0, n_known and eval_rows // 3),
        )
    return layer, x, assignment, evaluation


def run_checks(seed: int) -> list[str]:
    """Reference forward and infer at every shape, moment property and gradient probes on two."""
    rng = np.random.default_rng([seed, 77])
    problems = []
    for name in ALIGN_SHAPES:
        layer, x, assignment, evaluation = _case(rng, name)
        problems += check_forward_and_infer(layer, x, assignment)
        if evaluation is not None:
            problems += check_forward_and_infer(layer, *evaluation)
    for name in ("pinned_grid", "spatial"):
        shape, n_domains = ALIGN_SHAPES[name][:2]
        layer, x, assignment, _ = _case(rng, name)
        problems += check_gradient_probes(layer, x, assignment, rng)
        bare = _layer(rng, shape[1], n_domains, affine=False)
        problems += check_moment_property(bare, x, np.arange(shape[0]) % n_domains)
    return problems


def _time_us(fn, budget_s: float = 0.15, min_calls: int = 15) -> float:
    """Median wall time of one call in microseconds, over at least min_calls calls."""
    times = []
    start = perf_counter()
    while len(times) < min_calls or perf_counter() - start < budget_s:
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return median(times) * 1e6


def run_timings(seed: int) -> dict[str, float]:
    """Microbenchmark medians in microseconds, keyed by per-layer metric name."""
    rng = np.random.default_rng([seed, 78])
    out = {}
    for name in ALIGN_SHAPES:
        layer, x, assignment, evaluation = _case(rng, name)
        _, cache = layer.forward(x, assignment)
        grad = rng.normal(size=x.shape)
        out[f"alignment.forward_us.{name}"] = _time_us(lambda: layer.forward(x, assignment))
        out[f"alignment.backward_us.{name}"] = _time_us(lambda: layer.backward(cache, grad))
        if evaluation is not None:
            out[f"alignment.infer_us.{name}"] = _time_us(lambda: layer.infer(*evaluation))
    for name, (b, k, n_target) in MERGE_SHAPES.items():
        pred = _assignment(rng, b, k + 1, 0, 0).probs[:, :k]
        tags = _tags(b, k, n_target, 0)
        out[f"assignment.merge_us.{name}"] = _time_us(lambda: merge_assignments(pred, tags))
    for name, (b, n_in, n_out) in DENSE_SHAPES.items():
        x = rng.uniform(0.0, 1.0, (b, n_in))
        w = rng.normal(0.0, 0.05, (n_in, n_out))
        bias = np.zeros(n_out)
        g = rng.normal(size=(b, n_out))

        def forward_and_backward():
            dense_forward(x, w, bias)
            dense_backward(x, w, g)

        out[f"primitives.dense_us.{name}"] = _time_us(forward_and_backward)
    return out
