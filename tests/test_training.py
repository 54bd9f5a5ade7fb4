"""Optimizer recursions, the learning-rate rule, metrics, and the training loop contract."""

import copy
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from mdalign import training
from mdalign.alignment import AlignmentLayer
from mdalign.assignment import TARGET_CODE, UNKNOWN_CODE
from mdalign.data import (
    BatchSpec,
    Dataset,
    FeatureShift,
    Split,
    SynthConfig,
    make_batch,
    reveal_domain_labels,
    synth_make,
)
from mdalign.experiments import ExperimentConfig
from mdalign.losses import LossWeights
from mdalign.model import EVAL_BLOCK_ROWS, Model, ModelConfig, forward_eval
from mdalign.primitives import ParamBlock
from mdalign.training import (
    METRICS_HEADER,
    MOMENTUM,
    WEIGHT_DECAY,
    NumericalAbortError,
    TrainConfig,
    accuracy,
    domain_discovery_metrics,
    lr_at,
    metrics_csv_lines,
    sgd_step,
    train,
)


class TestSgdStep:
    # sgd_step always applies training.MOMENTUM and WEIGHT_DECAY; a first step from a zero buffer
    # does not depend on the momentum.
    def test_vanilla_step(self):
        p = ParamBlock(np.array([1.0]))
        p.grad[...] = 0.5
        sgd_step([p], lr=0.1)
        np.testing.assert_allclose(p.value, [1.0 - 0.1 * (0.5 + WEIGHT_DECAY)], rtol=0, atol=1e-15)

    def test_momentum_recursion(self):
        # constant gradient 1 from value 0: buffer 1, value -0.1, then buffer 1.9 less the decay of -0.1
        p = ParamBlock(np.array([0.0]))
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1)
        np.testing.assert_allclose(p.value, [-0.1], rtol=0, atol=1e-15)
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1)
        buffer = MOMENTUM * 1.0 + 1.0 + WEIGHT_DECAY * -0.1
        np.testing.assert_allclose(p.value, [-0.1 - 0.1 * buffer], rtol=0, atol=1e-15)

    def test_decay_only_step(self):
        p = ParamBlock(np.array([1.0]))
        sgd_step([p], lr=0.1)
        np.testing.assert_allclose(p.value, [1.0 - 0.1 * WEIGHT_DECAY], rtol=0, atol=1e-15)

    def test_matches_three_temporary_formula(self):
        """Five steps give the bytes of the formula as first written."""
        rng = np.random.default_rng(5)
        p = ParamBlock(rng.normal(size=(7, 3)))
        value, buffer = p.value.copy(), p.momentum.copy()
        for step in range(5):
            lr = 0.05 / (step + 1)
            p.grad[...] = rng.normal(size=(7, 3))
            sgd_step([p], lr)
            buffer = buffer * MOMENTUM + (p.grad + WEIGHT_DECAY * value)
            value = value - lr * buffer
            assert p.momentum.tobytes() == buffer.tobytes()
            assert p.value.tobytes() == value.tobytes()


class TestLrSchedules:
    def test_step_drop_at_three_quarters(self):
        cfg = TrainConfig(iterations=1200, base_lr=1.0)
        assert lr_at(cfg, 899) == 1.0
        assert lr_at(cfg, 900) == pytest.approx(0.1)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.eye(3), [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        assert accuracy(np.eye(3), [1, 2, 0]) == 0.0

    def test_counting(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        assert accuracy(probs, [0, 0, 1, 1]) == 0.75

    def test_ties_break_to_lowest_index(self):
        assert accuracy(np.array([[0.5, 0.5]]), [0]) == 1.0
        assert accuracy(np.array([[0.5, 0.5]]), [1]) == 0.0


def reference_nmi(predicted, true):
    """Independent NMI computation straight from the definition."""
    predicted, true = np.asarray(predicted), np.asarray(true)
    n = predicted.size
    p_vals, t_vals = np.unique(predicted), np.unique(true)
    h_p = h_t = 0.0
    for v in p_vals:
        q = np.mean(predicted == v)
        h_p -= q * math.log(q)
    for v in t_vals:
        q = np.mean(true == v)
        h_t -= q * math.log(q)
    mi = 0.0
    for pv in p_vals:
        for tv in t_vals:
            joint = np.mean((predicted == pv) & (true == tv))
            if joint > 0:
                mi += joint * math.log(joint / (np.mean(predicted == pv) * np.mean(true == tv)))
    if h_p == 0.0 or h_t == 0.0:
        return None
    return mi / math.sqrt(h_p * h_t)


class TestDomainDiscoveryMetrics:
    def test_identical_partitions(self):
        nmi, purity = domain_discovery_metrics([0, 0, 1, 1], [1, 1, 0, 0])
        assert nmi == 1.0 and purity == 1.0

    def test_single_predicted_cluster(self):
        nmi, purity = domain_discovery_metrics([0, 0, 0, 0], [0, 0, 1, 1])
        assert nmi == 0.0 and purity == 0.5

    def test_hand_contingency_value(self):
        # contingency [[2, 0], [1, 1]]: purity 3/4; NMI frozen from the
        # reference implementation below
        pred = [0, 0, 1, 1]
        true = [0, 0, 0, 1]
        nmi, purity = domain_discovery_metrics(pred, true)
        assert purity == 0.75
        assert nmi == pytest.approx(reference_nmi(pred, true), abs=1e-12)
        assert nmi == pytest.approx(0.3455920, abs=1e-6)

    def test_matches_reference_on_random_partitions(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            pred = rng.integers(0, 3, size=n)
            true = rng.integers(0, 3, size=n)
            nmi, _ = domain_discovery_metrics(pred, true)
            ref = reference_nmi(pred, true)
            if ref is None:
                continue
            same = len(set(zip(pred.tolist(), true.tolist()))) == len(set(pred)) == len(set(true))
            if not same:
                assert nmi == pytest.approx(min(max(ref, 0.0), 1.0), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 3, size=30)
        true = rng.integers(0, 3, size=30)
        nmi_a, pur_a = domain_discovery_metrics(pred, true)
        relabeled = np.array([2, 0, 1])[pred]
        nmi_b, pur_b = domain_discovery_metrics(relabeled, true)
        assert nmi_a == pytest.approx(nmi_b, abs=1e-12)
        assert pur_a == pytest.approx(pur_b, abs=1e-12)

    def test_cross_check_against_sklearn(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(2)
        for _ in range(10):
            pred = rng.integers(0, 3, size=50)
            true = rng.integers(0, 4, size=50)
            nmi, _ = domain_discovery_metrics(pred, true)
            ref = sklearn.normalized_mutual_info_score(true, pred, average_method="geometric")
            assert nmi == pytest.approx(ref, abs=1e-9)


def quick_task(seed=7):
    return SynthConfig(
        n_latent_domains=2,
        n_classes=3,
        feature_dim=4,
        train_per_domain=60,
        test_per_domain=60,
        class_separation=3.0,
        domain_shifts=(FeatureShift(offset=1.0), FeatureShift(offset=-1.0)),
        standardize=True,
        seed=seed,
    )


def quick_model(k=2, seed=0):
    return Model(
        ModelConfig(in_dim=4, n_classes=3, k=k, trunk_widths=(16,), classifier_widths=(16,), branch_hidden=8, seed=seed)
    )


def quick_train_cfg(**overrides):
    base = dict(
        iterations=60,
        base_lr=0.05,
        weights=LossWeights(0.0, 0.2, 0.2),
        batch=BatchSpec(source_quota=24, target_quota=24),
        seed=0,
        eval_every=30,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_supervised_loss_decreases(self):
        data = synth_make(quick_task())
        cfg = quick_train_cfg(weights=LossWeights(0.0, 0.0, 0.0), iterations=200, eval_every=20)
        _, rows = train(quick_model(), data, cfg)
        assert rows[-1].class_ce < rows[0].class_ce
        assert rows[-1].acc > 0.5

    def test_same_seed_identical_metrics(self):
        data = synth_make(quick_task())
        cfg = quick_train_cfg()
        _, rows_a = train(quick_model(seed=3), data, cfg)
        _, rows_b = train(quick_model(seed=3), data, cfg)
        assert metrics_csv_lines(rows_a) == metrics_csv_lines(rows_b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self):
        data = synth_make(quick_task())
        model = quick_model()
        model.trunk[0].weight.value[...] = 1e300  # force an overflow
        cfg = quick_train_cfg(iterations=5)
        with pytest.raises(NumericalAbortError) as info:
            train(model, data, cfg)
        assert info.value.iteration == 0
        assert "class_ce" in str(info.value)

    @pytest.mark.parametrize(
        "iterations, expected",
        [
            (5, "non-finite domain probabilities from the predictor branch at iteration 1"),
            (1, "non-finite class probabilities in the evaluation after the update at iteration 0"),
        ],
        ids=["next_forward", "last_evaluation"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_is_a_numerical_abort(self, iterations, expected):
        """A step so large that the model's outputs overflow aborts: no assignment ValueError, no metrics from NaN."""
        cfg = quick_train_cfg(iterations=iterations, eval_every=iterations, base_lr=1e308)
        with pytest.raises(NumericalAbortError) as info:
            train(quick_model(), synth_make(quick_task()), cfg)
        assert str(info.value) == expected
        assert info.value.breakdown is None

    def test_non_finite_parameter_aborts_before_the_next_forward(self, monkeypatch):
        """An update that leaves an infinite parameter aborts at its own iteration; no further forward pass runs."""
        calls = []
        forward_train, step = training.forward_train, training.sgd_step

        def poisoned(params, lr):
            step(params, lr)
            if len(calls) == 3:
                params[0].value[5] = np.inf

        monkeypatch.setattr(training, "forward_train", lambda *a: calls.append(1) or forward_train(*a))
        monkeypatch.setattr(training, "sgd_step", poisoned)
        message = r"^non-finite parameters after the update at iteration 2: total="
        with pytest.raises(NumericalAbortError, match=message):
            train(quick_model(), synth_make(quick_task()), quick_train_cfg(iterations=5))
        assert len(calls) == 3

    def test_metrics_header_fixed(self):
        assert METRICS_HEADER == "iteration,total,class_ce,domain_ce,h_C,h_D,acc,nmi,purity,lr"
        data = synth_make(quick_task())
        _, rows = train(quick_model(), data, quick_train_cfg())
        lines = metrics_csv_lines(rows)
        assert lines[0] == METRICS_HEADER
        assert len(lines) == len(rows) + 1
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_rows_logged_at_eval_every(self):
        data = synth_make(quick_task())
        _, rows = train(quick_model(), data, quick_train_cfg(iterations=65, eval_every=30))
        assert [r.iteration for r in rows] == [30, 60, 65]

    def test_arena_step_matches_per_block_steps(self, monkeypatch):
        """train's one sgd_step over model.flat gives the bytes of stepping every block on its own."""
        data = synth_make(quick_task())
        cfg = quick_train_cfg(iterations=5, eval_every=5)
        model = quick_model(seed=2)
        per_block = copy.deepcopy(model)
        train(model, data, cfg)

        def step_each_block(params, *args):
            assert params == [per_block.flat]
            sgd_step(per_block.parameters(), *args)

        monkeypatch.setattr(training, "sgd_step", step_each_block)
        train(per_block, data, cfg)
        for (name, p), (_, q) in zip(model.named_params(), per_block.named_params()):
            for attr in ("value", "grad", "momentum"):
                assert getattr(p, attr).tobytes() == getattr(q, attr).tobytes(), f"{name}.{attr}"
        for j, layer in model.align_layers.items():
            assert layer.running.mean.tobytes() == per_block.align_layers[j].running.mean.tobytes()
            assert layer.running.var.tobytes() == per_block.align_layers[j].running.var.tobytes()

    def test_last_step_released_before_evaluation(self, monkeypatch):
        """No training step's activations are alive while train evaluates the whole splits."""
        records = []
        forward_train = training.forward_train

        def keep_weakref(*args):
            record = forward_train(*args)
            records.append(weakref.ref(record))
            return record

        evaluations = []
        evaluate_model = training.evaluate_model

        def check_released(*args):
            assert records and all(ref() is None for ref in records)
            evaluations.append(len(records))
            return evaluate_model(*args)

        monkeypatch.setattr(training, "forward_train", keep_weakref)
        monkeypatch.setattr(training, "evaluate_model", check_released)
        train(quick_model(), synth_make(quick_task()), quick_train_cfg(iterations=7, eval_every=3))
        assert evaluations == [3, 6, 7]

    def test_declared_domain_beyond_k_fails_before_iterating(self, monkeypatch):
        """A source row declaring domain k has no latent-domain column; train refuses it before the first step."""
        data = synth_make(quick_task())
        source = reveal_domain_labels(data.source_train, [0])
        source.known_domains[0] = 2
        calls = []
        forward_train = training.forward_train
        monkeypatch.setattr(training, "forward_train", lambda *a: calls.append(1) or forward_train(*a))
        with pytest.raises(ValueError, match=r"^model\.k: source row 0 declares domain 2, but model\.k is 2$"):
            train(quick_model(k=2), dataclasses.replace(data, source_train=source), quick_train_cfg(iterations=5))
        assert calls == []

    @pytest.mark.parametrize(
        "model_cfg, expected",
        [
            (dict(in_dim=5), r"^model\.in_dim: source_train rows have shape \(4,\), but model\.in_dim is 5$"),
            (dict(n_classes=2), r"^model\.n_classes: source row \d+ has class label 2, but model\.n_classes is 2$"),
        ],
        ids=["in_dim", "n_classes"],
    )
    def test_model_that_does_not_fit_the_data_fails_before_iterating(self, monkeypatch, model_cfg, expected):
        """A feature width other than in_dim, or a class label >= n_classes, is refused before the first step."""
        calls = []
        forward_train = training.forward_train
        monkeypatch.setattr(training, "forward_train", lambda *a: calls.append(1) or forward_train(*a))
        model = Model(dataclasses.replace(quick_model().cfg, **model_cfg))
        with pytest.raises(ValueError, match=expected):
            train(model, synth_make(quick_task()), quick_train_cfg(iterations=5))
        assert calls == []


class TestEvaluateModel:
    def test_source_split_skips_the_classifier(self, monkeypatch):
        """Discovery reads only the predictor, so the alignment layers see the target_test rows alone."""
        data = synth_make(quick_task())
        model, _ = train(quick_model(), data, quick_train_cfg(iterations=4, eval_every=4))
        seen = []
        infer = AlignmentLayer.infer

        def count_rows(layer, x, assignment):
            seen.append(len(x))
            return infer(layer, x, assignment)

        monkeypatch.setattr(AlignmentLayer, "infer", count_rows)
        _, nmi, purity = training.evaluate_model(model, data)
        assert seen == [len(data.target_test)] * len(model.align_layers)
        monkeypatch.undo()
        domain_probs = forward_eval(model, make_batch(data.source_train)).domain_probs
        expected = domain_discovery_metrics(np.argmax(domain_probs, axis=1), data.source_train.hidden_domains)
        assert (nmi, purity) == expected

    def test_pixel_split_peak_memory(self):
        """A pixel split is never scaled whole: the peak is set by two blocks of features, not by the split's.

        Besides the blocks, the trunk's output and the heads' activations over
        the split hold a few [n, width] arrays; one scaled copy of the
        16-block split alone is 2.7 times the bound.
        """
        n, in_dim, width = 16 * EVAL_BLOCK_ROWS, 256, 16
        rng = np.random.default_rng(19)
        model = Model(
            ModelConfig(in_dim=in_dim, n_classes=4, trunk_widths=(width,), classifier_widths=(width,), branch_hidden=width)
        )
        for layer in model.align_layers.values():
            layer.running.count[...] = 1  # mean 0, var 1 as initialized

        def codes():
            return rng.integers(0, 256, (n, in_dim), dtype=np.uint8)

        source = Split.of(codes(), kinds=np.full(n, UNKNOWN_CODE), hidden_domains=rng.integers(0, 2, n))
        target = Split.of(codes(), kinds=np.full(n, TARGET_CODE), hidden_labels=rng.integers(0, 4, n))
        tracemalloc.start()
        try:
            training.evaluate_model(model, Dataset(source, target, target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * EVAL_BLOCK_ROWS * in_dim * 8 + 4 * n * width * 8
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
