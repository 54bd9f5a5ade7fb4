"""Benchmark properties and experiment-runner contracts."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import nearest_centroid_accuracy

from mdalign import experiments
from mdalign.assignment import KNOWN_CODE, UNKNOWN_CODE
from mdalign.data import BatchSpec, synth_make
from mdalign.experiments import (
    ExperimentConfig,
    _reveal_fraction,
    default_experiment,
    no_shift_benchmark,
    pinned_benchmark,
    run_baseline_grid,
    run_k_ablation,
    run_supervision_sweep,
    summarize,
    well_separated_benchmark,
)
from mdalign.losses import LossWeights
from mdalign.model import ConfigError
from mdalign.training import TrainConfig


class TestPinnedBenchmark:
    def test_solvable_by_nearest_centroid(self):
        """The class structure is separable inside each domain and, thanks to
        the symmetric shifts, even for the pooled-centroid oracle."""
        data = synth_make(pinned_benchmark())
        assert nearest_centroid_accuracy(data.source_train, data.target_test) > 0.9
        source = data.source_train
        for domain in np.unique(source.hidden_domains):
            group = source[source.hidden_domains == domain]
            half = len(group) // 2
            acc = nearest_centroid_accuracy(group[:half], group[half:])
            assert acc > 0.85

    def test_shift_breaks_local_transfer(self):
        """Raw-space neighbors of target samples are systematically
        cross-class: the domain shift entangles the clusters."""
        data = synth_make(pinned_benchmark())
        train_x, train_y = data.source_train.features, data.source_train.class_labels
        test_x, test_y = data.target_test.features, data.target_test.hidden_labels
        d2 = ((test_x[:, None, :] - train_x[None]) ** 2).sum(axis=2)
        nn_acc = float(np.mean(train_y[np.argmin(d2, axis=1)] == test_y))
        assert nn_acc < 0.5

    def test_configs_are_distinct_and_deterministic(self):
        assert pinned_benchmark() == pinned_benchmark()
        assert pinned_benchmark() != well_separated_benchmark()
        assert no_shift_benchmark().domain_shifts[0].offset == 0.0


class TestRevealFraction:
    def make_samples(self):
        return synth_make(pinned_benchmark()).source_train[:40]

    def test_zero_reveals_none(self):
        samples = self.make_samples()
        out = _reveal_fraction(samples, 0.0, seed=0)
        assert (out.kinds == UNKNOWN_CODE).all()

    def test_one_reveals_all(self):
        out = _reveal_fraction(self.make_samples(), 1.0, seed=0)
        assert (out.kinds == KNOWN_CODE).all()
        np.testing.assert_array_equal(out.known_domains, out.hidden_domains)

    def test_subsets_are_nested(self):
        samples = self.make_samples()
        small = set(np.flatnonzero(_reveal_fraction(samples, 0.1, seed=3).kinds == KNOWN_CODE))
        large = set(np.flatnonzero(_reveal_fraction(samples, 0.5, seed=3).kinds == KNOWN_CODE))
        assert small <= large
        assert len(small) == 4 and len(large) == 20

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _reveal_fraction(self.make_samples(), 1.5, seed=0)


def quick_experiment():
    from dataclasses import replace

    data = replace(
        pinned_benchmark(), train_per_domain=40, test_per_domain=40, class_separation=3.0
    )
    return ExperimentConfig(
        data=data,
        train=TrainConfig(
            iterations=30,
            base_lr=0.05,
            weights=LossWeights(0.0, 0.2, 0.2),
            batch=BatchSpec(source_quota=16, target_quota=16),
            eval_every=30,
        ),
    )


class TestRunnerContracts:
    def test_tables_are_pure_functions_of_config_and_seeds(self):
        base = quick_experiment()
        a = run_k_ablation(base, [2], [0, 1])
        b = run_k_ablation(base, [2], [0, 1])
        assert a == b

    def test_adding_a_seed_preserves_existing_rows(self):
        base = quick_experiment()
        two = run_k_ablation(base, [2], [0, 1])
        three = run_k_ablation(base, [2], [0, 1, 2])
        assert three[:2] == two

    def test_baseline_rows_cover_the_grid(self):
        base = quick_experiment()
        rows = run_baseline_grid(base, [0])
        assert [r["config"] for r in rows] == ["source_only", "unified", "discovery", "multi_source"]

    @pytest.mark.parametrize(
        "runner, expected",
        [
            (run_baseline_grid, "config=multi_source seed 0"),
            (lambda base, seeds: run_supervision_sweep(base, [0.0, 1.0], seeds), "fraction=1.0 seed 0"),
        ],
        ids=["baselines", "sweep"],
    )
    def test_grid_refuses_a_run_before_training_any(self, monkeypatch, runner, expected):
        """Every run's inputs are checked before the first run trains, and the error names the run."""
        calls = []
        inner = experiments.train
        monkeypatch.setattr(experiments, "train", lambda *a: calls.append(1) or inner(*a))
        base = ExperimentConfig(model=replace(default_experiment().resolved_model(), k=1))
        message = rf"^{expected}: model\.k: source row 240 declares domain 1, but model\.k is 1$"
        with pytest.raises(ConfigError, match=message):
            runner(base, [0])
        assert calls == []

    def test_skipped_assignment_gradient_changes_no_bit(self, monkeypatch):
        """All four baselines train to the same bytes when backward always builds the full assignment gradient.

        source_only and multi_source fix every assignment row, so their layers
        skip that gradient; the patched backward builds it over every row, then zeroes the fixed rows.
        """
        from dataclasses import replace

        from mdalign import experiments
        from mdalign.alignment import AlignmentLayer

        base = quick_experiment()
        base = replace(base, train=replace(base.train, iterations=20, eval_every=20))
        inner = experiments.train

        def trained_states():
            states = []

            def keep(model, data, cfg):
                out = inner(model, data, cfg)
                states.append([model.flat.value, model.flat.grad, model.flat.momentum] + [
                    a for layer in model.align_layers.values()
                    for a in (layer.running.mean, layer.running.var, layer.running.count)
                ])
                return out

            monkeypatch.setattr(experiments, "train", keep)
            run_baseline_grid(base, [0])
            return states

        skipping = trained_states()
        backward = AlignmentLayer.backward
        all_fixed = []

        def full_backward(layer, cache, grad_out):
            fixed = np.ones(len(cache.w), dtype=bool)
            fixed[cache.free] = False
            all_fixed.append(bool(fixed.all()))
            out = backward(layer, replace(cache, free=slice(None)), grad_out)
            out[1][fixed] = 0.0
            return out

        monkeypatch.setattr(AlignmentLayer, "backward", full_backward)
        building = trained_states()
        assert any(all_fixed) and not all(all_fixed)
        assert len(skipping) == len(building) == 4
        for label, a, b in zip(experiments.BASELINES, skipping, building):
            assert [x.tobytes() for x in a] == [y.tobytes() for y in b], label

    def test_summarize_reports_median_and_mean(self):
        rows = [
            {"k": 2, "acc": 0.5},
            {"k": 2, "acc": 0.7},
            {"k": 2, "acc": 0.9},
            {"k": 3, "acc": 1.0},
        ]
        out = summarize(rows, "k")
        assert out[0] == {"k": 2, "median": 0.7, "mean": pytest.approx(0.7), "n": 3}
        assert out[1]["n"] == 1

    def test_empty_k_values_rejected(self):
        with pytest.raises(ValueError):
            run_k_ablation(quick_experiment(), [], [0])

    def test_full_supervision_equals_known_domain_baseline(self):
        """The sweep at fraction 1.0 is the known-domain run, exactly."""
        from mdalign.experiments import run_supervision_sweep

        base = quick_experiment()
        sweep_row = run_supervision_sweep(base, [1.0], [0])[0]
        grid_row = [r for r in run_baseline_grid(base, [0]) if r["config"] == "multi_source"][0]
        assert [sweep_row[v] for v in ("acc", "nmi", "purity")] == [grid_row[v] for v in ("acc", "nmi", "purity")]

    def test_zero_supervision_equals_discovery_baseline(self):
        from mdalign.experiments import run_supervision_sweep

        base = quick_experiment()
        sweep_row = run_supervision_sweep(base, [0.0], [0])[0]
        grid_row = [r for r in run_baseline_grid(base, [0]) if r["config"] == "discovery"][0]
        assert [sweep_row[v] for v in ("acc", "nmi", "purity")] == [grid_row[v] for v in ("acc", "nmi", "purity")]


class TestNoShiftControl:
    def test_alignment_variants_indistinguishable_without_shift(self):
        """With identical domains, unified, discovery, and known-domain
        training land within two points of each other."""
        rows = run_baseline_grid(ExperimentConfig(data=no_shift_benchmark()), [0, 1, 2, 3, 4])
        med = {s["config"]: s["median"] for s in summarize(rows, "config")}
        spread = max(med["unified"], med["discovery"], med["multi_source"]) - min(
            med["unified"], med["discovery"], med["multi_source"]
        )
        assert spread <= 0.02
