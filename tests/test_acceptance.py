"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion report.
Every tolerance is pinned here; the experiment criteria run on the pinned
synthetic benchmarks with seeds 0..4.
"""

import math
import struct
import time

import numpy as np
import pytest

from mdalign.alignment import AlignConfig, AlignmentLayer, compute_alpha, weighted_moments
from mdalign.assignment import Assignment, DomainTag
from mdalign.data import (
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    LabeledSample,
    idx_load,
    idx_write_labels,
    make_batch,
    synth_make,
)
from mdalign.experiments import (
    ExperimentConfig,
    default_experiment,
    run_baseline_grid,
    run_k_ablation,
    run_single,
    run_supervision_sweep,
    summarize,
    well_separated_benchmark,
)
from mdalign.losses import LossWeights, class_entropy, domain_entropy, total_loss
from mdalign.model import Model, ModelConfig, backward_train, forward_train
from mdalign.primitives import cross_entropy
from mdalign.training import metrics_csv_lines, train
from mdalign.verification import run_gradient_audit

SEEDS = [0, 1, 2, 3, 4]
EPS_OFF = 1e-300  # var + EPS_OFF is bit-identical to var


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {number:2d}] {status}  {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def raw_assignment(probs, fixed=None):
    probs = np.asarray(probs, dtype=np.float64)
    if fixed is None:
        fixed = np.zeros(probs.shape[0], dtype=bool)
    return Assignment.unchecked(probs, np.asarray(fixed, dtype=bool))


def test_criterion_1_gradient_oracle_suite():
    start = time.time()
    audit, ok = run_gradient_audit(seed=0)
    elapsed = time.time() - start
    layer = audit["layer"]
    model = audit["model"]
    passed = (
        ok
        and layer["configs"] >= 20
        and max(v for k, v in layer.items() if k != "configs") <= 1e-5
        and max(model.values()) <= 1e-4
        and elapsed <= 60.0
    )
    worst_layer = max(v for k, v in layer.items() if k != "configs")
    report(
        1,
        "gradient oracle: layer <= 1e-5 over >= 20 configs, model <= 1e-4, under 60 s",
        passed,
        f"layer {worst_layer:.1e}, model {max(model.values()):.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(0)
    eps = 1e-5

    # k=1, uniform unit weights: standard batch norm with biased variance
    x = rng.normal(size=(8, 3)) * 2.0 + 1.0
    layer = AlignmentLayer(3, 1, AlignConfig(eps=eps, affine=False))
    y, _ = layer.forward(x, raw_assignment(np.ones((8, 1))))
    bn = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + eps)
    err_bn = np.abs(y - bn).max()

    # one-hot assignment: per-partition batch norm
    x2 = rng.normal(size=(9, 2))
    w = np.zeros((9, 3))
    w[:3, 0] = w[3:6, 1] = w[6:, 2] = 1.0
    layer2 = AlignmentLayer(2, 3, AlignConfig(eps=eps, affine=False))
    y2, _ = layer2.forward(x2, raw_assignment(w))
    err_hard = 0.0
    for block in (slice(0, 3), slice(3, 6), slice(6, 9)):
        part = (x2[block] - x2[block].mean(axis=0)) / np.sqrt(x2[block].var(axis=0) + eps)
        err_hard = max(err_hard, np.abs(y2[block] - part).max())

    # constant input, affine off: exactly zero output
    x3 = np.full((6, 2), 4.5)
    layer3 = AlignmentLayer(2, 2, AlignConfig(eps=eps, affine=False))
    w3 = rng.dirichlet(np.ones(2), size=6)
    y3, _ = layer3.forward(x3, raw_assignment(w3))
    err_const = np.abs(y3).max()

    # end-to-end: k=1, every row hard-assigned, against a plain-BN network
    from mdalign.primitives import dense_forward, relu_forward, softmax

    samples = [
        LabeledSample(rng.normal(size=4), int(rng.integers(0, 3)), DomainTag.known_source(0))
        for _ in range(8)
    ]
    batch = make_batch(samples)
    net = Model(ModelConfig(in_dim=4, n_classes=3, k=1, trunk_widths=(6,), classifier_widths=(5,), seed=1))
    record = forward_train(net, batch)
    h = batch.features
    for lay in net.trunk:
        h = relu_forward(dense_forward(h, lay.weight.value, lay.bias.value))
    for j, lay in enumerate(net.classifier):
        z = dense_forward(h, lay.weight.value, lay.bias.value)
        al = net.align_layers[j]
        z = al.gamma.value * (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + al.cfg.eps) + al.beta.value
        h = relu_forward(z) if j < len(net.classifier) - 1 else z
    err_net = np.abs(record.class_probs - softmax(h)).max()

    passed = err_bn <= 1e-12 and err_hard <= 1e-12 and err_const <= 1e-12 and err_net <= 1e-9
    report(
        2,
        "reduction identities: plain BN, per-partition BN, constant input, BN network",
        passed,
        f"bn {err_bn:.1e}, hard {err_hard:.1e}, const {err_const:.1e}, net {err_net:.1e}",
    )


def test_criterion_3_hand_fixtures():
    # mixture normalization of [0,1,2,3] under the hard two-domain split
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
    y, _ = layer.forward(x, raw_assignment(w))
    err_forward = np.abs(y[:, 0] - [-1.0, 1.0, -1.0, 1.0]).max()

    aw = compute_alpha(np.array([[0.2, 0.8], [0.6, 0.4], [0.0, 1.0]]))
    err_alpha = np.abs(aw.alpha[:, 0] - [0.25, 0.75, 0.0]).max()

    x_bn = np.array([[1.0], [3.0]])
    layer_bn = AlignmentLayer(1, 1, AlignConfig(eps=EPS_OFF, affine=False))
    _, cache = layer_bn.forward(x_bn, raw_assignment(np.ones((2, 1))))
    grad_x, _, _, _ = layer_bn.backward(cache, np.array([[1.0], [0.0]]))
    err_backward = np.abs(grad_x).max()

    h10, _ = class_entropy(np.full((3, 10), 0.1))
    hl2 = -math.log(0.5)
    l2 = cross_entropy(np.array([[0.5, 0.5]]), [0])
    h3, _ = domain_entropy(np.full((2, 3), 1.0 / 3.0))
    err_entropy = max(abs(h10 - math.log(10)), abs(l2 - math.log(2)), abs(h3 - math.log(3)))
    assert abs(hl2 - math.log(2)) == 0.0

    passed = max(err_forward, err_alpha, err_backward, err_entropy) <= 1e-12
    report(
        3,
        "hand fixtures exact: forward, alpha, two-sample backward, entropy values",
        passed,
        f"max err {max(err_forward, err_alpha, err_backward, err_entropy):.1e}",
    )


def test_criterion_4_per_domain_moment_property():
    rng = np.random.default_rng(7)
    worst_mean = worst_second = 0.0
    for trial in range(10):
        rank4 = trial % 2 == 0
        b, c = 10, 3
        shape = (b, c, 2, 2) if rank4 else (b, c)
        eps = 10.0 ** rng.uniform(-6, -2)
        x = rng.normal(size=shape) * rng.uniform(0.5, 3.0)
        w = rng.dirichlet(np.ones(3), size=b)
        aw = compute_alpha(w)
        stats = weighted_moments(x, aw)
        xr = x.reshape(b, c, -1)
        m = xr.shape[2]
        for d in range(3):
            xhat = (xr - stats.mean[d][None, :, None]) / np.sqrt(stats.var[d][None, :, None] + eps)
            weighted = aw.alpha[:, d][:, None, None] / m
            worst_mean = max(worst_mean, np.abs((weighted * xhat).sum(axis=(0, 2))).max())
            expected_second = stats.var[d] / (stats.var[d] + eps)
            worst_second = max(
                worst_second, np.abs((weighted * xhat**2).sum(axis=(0, 2)) - expected_second).max()
            )
    passed = worst_mean <= 1e-9 and worst_second <= 1e-9
    report(
        4,
        "per-domain moments: weighted mean 0, second moment var/(var+eps), within 1e-9",
        passed,
        f"mean {worst_mean:.1e}, second {worst_second:.1e}",
    )


def test_criterion_5_ordering_experiment():
    start = time.time()
    rows = run_baseline_grid(default_experiment(), SEEDS)
    elapsed = time.time() - start
    med = {s["config"]: s["median"] for s in summarize(rows, "config")}
    a, b, c, d = med["source_only"], med["unified"], med["discovery"], med["multi_source"]
    ordered = a < b < c <= d
    margins = (c - a >= 0.02) and (d - c <= 0.02)
    passed = ordered and margins and elapsed <= 300.0
    report(
        5,
        "ordering: source-only < unified < discovery <= multi-source with stated margins",
        passed,
        f"a={a:.3f} b={b:.3f} c={c:.3f} d={d:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_k_robustness():
    rows = run_k_ablation(default_experiment(), [2, 3, 4, 5], SEEDS)
    med = [s["median"] for s in summarize(rows, "k")]
    spread = max(med) - min(med)
    report(
        6,
        "k-robustness: median accuracy spread over k in {2,3,4,5} at most 2 points",
        spread <= 0.02,
        f"spread {100 * spread:.2f} points",
    )


def test_criterion_7_domain_discovery():
    base = ExperimentConfig(data=well_separated_benchmark())
    data = synth_make(base.data)
    nmis = [
        run_single(data, base.resolved_model(), base.resolved_train(), seed).nmi for seed in SEEDS
    ]
    median_nmi = float(np.median(nmis))
    report(
        7,
        "discovery: median NMI vs true latent domains at least 0.8 on the separated task",
        median_nmi >= 0.8,
        f"median NMI {median_nmi:.3f}",
    )


def test_criterion_8_semi_supervised_sweep():
    fractions = [0.0, 0.05, 0.25, 0.5, 1.0]
    rows = run_supervision_sweep(default_experiment(), fractions, SEEDS)
    med = summarize(rows, "fraction")
    by_fraction = {s["fraction"]: s["median"] for s in med}
    gap = abs(by_fraction[1.0] - by_fraction[0.05])
    curve = [by_fraction[f] for f in fractions]
    monotone = all(curve[i + 1] >= curve[i] - 0.01 for i in range(len(curve) - 1))
    passed = gap <= 0.01 and monotone
    report(
        8,
        "semi-supervised: 5% labels within 1 point of fully-known, curve monotone within 1 point",
        passed,
        f"gap {100 * gap:.2f} points, curve {[round(v, 3) for v in curve]}",
    )


def test_criterion_9_loss_and_structure_invariants():
    rng = np.random.default_rng(11)

    # exact recomposition and entropy bounds on random inputs
    worst_recompose = 0.0
    bounds_ok = True
    for _ in range(50):
        n_classes = int(rng.integers(2, 11))
        k = int(rng.integers(1, 5))
        h_c, _ = class_entropy(rng.dirichlet(np.ones(n_classes), size=6))
        h_d, _ = domain_entropy(rng.dirichlet(np.ones(k), size=5)) if k > 1 else (0.0, None)
        weights = LossWeights(*rng.uniform(0, 1, size=3))
        out = total_loss(
            float(rng.uniform(0, 3)), float(rng.uniform(0, 3)), h_c, h_d, weights,
            n_source=6, n_known=2, n_target=6, n_unknown=4,
        )
        recomposed = (
            out.class_ce
            + weights.domain_ce * out.domain_ce
            + weights.class_entropy * out.class_entropy
            + weights.domain_entropy * out.domain_entropy
        )
        worst_recompose = max(worst_recompose, abs(out.total - recomposed))
        bounds_ok = bounds_ok and 0.0 <= h_c <= math.log(n_classes) + 1e-12
        bounds_ok = bounds_ok and 0.0 <= h_d <= (math.log(k) if k > 1 else 0.0) + 1e-12

    # all weights zero: plain cross-entropy
    zeroed = total_loss(1.7, 9.9, 9.9, 9.9, LossWeights(0, 0, 0), n_source=4, n_known=1, n_target=2, n_unknown=3)
    reduction_ok = zeroed.total == 1.7

    # fixed assignment rows never receive gradient
    model = Model(ModelConfig(in_dim=4, n_classes=3, k=2, trunk_widths=(6,), classifier_widths=(5,), seed=2))
    samples = [
        LabeledSample(rng.normal(size=4), int(rng.integers(0, 3)), DomainTag.known_source(i % 2))
        for i in range(3)
    ]
    samples += [LabeledSample(rng.normal(size=4), int(rng.integers(0, 3)), DomainTag.unknown_source())]
    samples += [LabeledSample(rng.normal(size=4), None, DomainTag.target()) for _ in range(2)]
    batch = make_batch(samples)
    record = forward_train(model, batch)
    backward_train(model, record, batch, LossWeights(0.5, 0.2, 0.2))
    fixed_zero = not record.assignment.grad[record.assignment.fixed].any()
    free_nonzero = record.assignment.grad[~record.assignment.fixed].any()

    passed = worst_recompose <= 1e-12 and bounds_ok and reduction_ok and fixed_zero and free_nonzero
    report(
        9,
        "loss invariants: exact recomposition, entropy bounds, zero-weight reduction, fixed-row masking",
        passed,
        f"recompose {worst_recompose:.1e}",
    )


def test_criterion_10_determinism():
    base = default_experiment()
    from dataclasses import replace

    data_cfg = replace(base.data, train_per_domain=60, test_per_domain=60)
    data = synth_make(data_cfg)
    model_cfg = replace(base.resolved_model(), seed=3)
    train_cfg = replace(base.resolved_train(), iterations=80, eval_every=40, seed=3)
    _, rows_a = train(Model(model_cfg), data, train_cfg)
    _, rows_b = train(Model(model_cfg), data, train_cfg)
    lines_a = metrics_csv_lines(rows_a)
    lines_b = metrics_csv_lines(rows_b)
    report(
        10,
        "determinism: identical config and seed give byte-identical metrics CSVs",
        lines_a == lines_b,
        f"{len(lines_a)} lines",
    )


def test_criterion_11_idx_ingestion(tmp_path):
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        f.write(bytes(range(8)))
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 2))
        f.write(bytes([1, 2]))
    images, labels = idx_load(img_path, lbl_path)
    exact = (
        images.shape == (2, 1, 2, 2)
        and np.array_equal(images.reshape(-1), np.arange(8) / 255.0)
        and labels.tolist() == [1, 2]
    )

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x12345678, 1, 1, 1) + b"\x00")
    truncated = tmp_path / "short.idx"
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00")
    mismatched = tmp_path / "three.idx"
    idx_write_labels(mismatched, [0, 1, 2])

    errors_distinct = []
    with pytest.raises(IdxMagicError):
        idx_load(bad_magic, lbl_path)
    errors_distinct.append(True)
    with pytest.raises(IdxTruncatedError):
        idx_load(truncated, lbl_path)
    errors_distinct.append(True)
    with pytest.raises(IdxCountMismatchError):
        idx_load(img_path, mismatched)
    errors_distinct.append(True)

    report(
        11,
        "IDX ingestion: byte fixture parses exactly; magic/truncation/count errors distinct",
        exact and all(errors_distinct),
    )
