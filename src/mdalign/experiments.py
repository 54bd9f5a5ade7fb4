"""Pinned synthetic benchmarks and the desk-scale experiment runners.

One grid runner trains a list of cases over a list of seeds.  Three case
lists mirror the headline experiments at desk scale: a baseline grid (no
alignment / unified-source alignment / latent-domain discovery / known
multi-source), an ablation over the number of latent domains k, and a sweep
over the fraction of domain-labeled source samples.  Every runner output is
a pure function of (benchmark config, seed list): datasets are built once
from the pinned config, and each run derives its model, its batch stream
and, in the sweep, its revealed labels from its own seed, so adding seeds
never changes existing rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import mean, median

import numpy as np

from .data import BatchSpec, Dataset, FeatureShift, Split, SynthConfig, reveal_domain_labels, synth_make
from .losses import LossWeights
from .model import ConfigError, Model, ModelConfig
from .training import MetricsRow, TrainConfig, run_sampler, train

__all__ = [
    "BASELINES",
    "ExperimentConfig",
    "default_experiment",
    "no_shift_benchmark",
    "pinned_benchmark",
    "run_baseline_grid",
    "run_grid",
    "run_k_ablation",
    "run_single",
    "run_supervision_sweep",
    "summarize",
    "well_separated_benchmark",
]

BASELINES = ("source_only", "unified", "discovery", "multi_source")


def pinned_benchmark() -> SynthConfig:
    """The fixed 2-source shifted task used by the ordering experiments.

    The two source domains sit at opposite offsets of the shared class
    structure: the first six feature dimensions carry the classes and a
    conflicting domain shift, the last two are class-free domain indicators.
    The target sits at the unshifted center.  Per-domain standardization
    realigns all three domains with the target frame; pooled standardization
    cannot.  Solvability and shift strength are verified by the
    nearest-centroid oracle in the test suite.
    """
    return SynthConfig(
        n_latent_domains=2,
        n_classes=4,
        feature_dim=8,
        train_per_domain=240,
        test_per_domain=240,
        class_separation=1.3,
        domain_shifts=(
            FeatureShift(offset=(3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0)),
            FeatureShift(offset=(-3.0, -3.0, -3.0, -3.0, -3.0, -3.0, -4.0, -4.0)),
        ),
        target_shift=FeatureShift(),
        standardize=True,
        seed=20240,
    )


def well_separated_benchmark() -> SynthConfig:
    """A variant with stronger domain separation for discovery scoring."""
    return replace(
        pinned_benchmark(),
        class_separation=2.0,
        domain_shifts=(
            FeatureShift(offset=(4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 6.0, 6.0)),
            FeatureShift(offset=(-4.0, -4.0, -4.0, -4.0, -4.0, -4.0, -6.0, -6.0)),
        ),
        seed=20241,
    )


def no_shift_benchmark() -> SynthConfig:
    """Identity transforms everywhere: all domains identically distributed."""
    return replace(
        pinned_benchmark(),
        domain_shifts=(FeatureShift(), FeatureShift()),
        target_shift=FeatureShift(),
        seed=20242,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of the pinned data recipe with model and training templates."""

    data: SynthConfig = field(default_factory=pinned_benchmark)
    model: ModelConfig | None = None
    train: TrainConfig | None = None

    def resolved_model(self) -> ModelConfig:
        if self.model is not None:
            return self.model
        return ModelConfig(
            in_dim=self.data.feature_dim,
            n_classes=self.data.n_classes,
            k=self.data.n_latent_domains,
        )

    def resolved_train(self) -> TrainConfig:
        if self.train is not None:
            return self.train
        return TrainConfig(
            iterations=600,
            base_lr=0.02,
            weights=LossWeights(domain_ce=0.0, class_entropy=0.2, domain_entropy=0.2),
            batch=BatchSpec(source_quota=48, target_quota=48),
            eval_every=150,
        )


def default_experiment() -> ExperimentConfig:
    return ExperimentConfig()


def run_single(data: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int) -> MetricsRow:
    """Train one model with everything derived from the given seed; returns its final metrics row."""
    model = Model(replace(model_cfg, seed=seed))
    _, rows = train(model, data, replace(train_cfg, seed=seed))
    return rows[-1]


def _reveal_fraction(samples: Split, fraction: float, seed: int) -> Split:
    """Mark a seeded random fraction of source samples as known-domain.

    Subsets are nested in the fraction: a larger fraction only adds labels.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_reveal = int(round(fraction * len(samples)))
    return reveal_domain_labels(samples, order[:n_reveal])


def run_grid(cases, seeds) -> list[dict]:
    """Train every case once per seed, case-major; one row per run.

    A case is (fields, data, model_cfg, train_cfg).  fields, such as
    {"k": 3}, lead each of the case's rows, followed by the seed and the
    final acc, nmi and purity.  data is a Dataset, or a function of the run
    seed that returns one.  Every run's inputs pass run_sampler before the
    first run trains; a ConfigError names the run, as in "k=3 seed 0: ...".
    """
    runs = [
        (fields, data(seed) if callable(data) else data, model_cfg, train_cfg, seed)
        for fields, data, model_cfg, train_cfg in cases
        for seed in seeds
    ]
    for fields, data, model_cfg, train_cfg, seed in runs:
        try:
            run_sampler(model_cfg, data, train_cfg)
        except ConfigError as err:
            run = " ".join(f"{key}={value}" for key, value in fields.items())
            raise ConfigError(f"{run} seed {seed}: {err}") from err
    rows = []
    for fields, data, model_cfg, train_cfg, seed in runs:
        result = run_single(data, model_cfg, train_cfg, seed)
        rows.append({**fields, "seed": seed, "acc": result.acc, "nmi": result.nmi, "purity": result.purity})
    return rows


def run_baseline_grid(base: ExperimentConfig, seeds) -> list[dict]:
    """Train the four reference configurations on the identical dataset.

    source_only: whole-batch normalization over source plus target, no
    adaptation losses.  unified: one source domain (k=1) aligned against the
    target.  discovery: k latent domains inferred by the predictor.
    multi_source: every source sample's domain revealed and fixed.
    """
    data = synth_make(base.data)
    model_cfg = base.resolved_model()
    train_cfg = base.resolved_train()
    w = train_cfg.weights
    revealed = replace(data, source_train=reveal_domain_labels(data.source_train))
    grid = {
        "source_only": (
            data,
            replace(model_cfg, whole_batch_norm=True),
            replace(train_cfg, weights=LossWeights(0.0, 0.0, 0.0)),
        ),
        "unified": (data, replace(model_cfg, k=1), train_cfg),
        "discovery": (data, model_cfg, train_cfg),
        "multi_source": (
            revealed,
            model_cfg,
            replace(train_cfg, weights=replace(w, domain_ce=0.5)),
        ),
    }
    return run_grid([({"config": label}, *grid[label]) for label in BASELINES], seeds)


def run_k_ablation(base: ExperimentConfig, k_values, seeds) -> list[dict]:
    """Train one discovery model per (k, seed) on the pinned benchmark."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    data = synth_make(base.data)
    model_cfg = base.resolved_model()
    train_cfg = base.resolved_train()
    return run_grid([({"k": int(k)}, data, replace(model_cfg, k=int(k)), train_cfg) for k in k_values], seeds)


def run_supervision_sweep(base: ExperimentConfig, fractions, seeds) -> list[dict]:
    """Reveal a seeded fraction of domain labels and train with the domain log-loss on."""
    data = synth_make(base.data)
    model_cfg = base.resolved_model()
    train_cfg = base.resolved_train()
    train_cfg = replace(train_cfg, weights=replace(train_cfg.weights, domain_ce=0.5))

    def revealed(fraction):
        return lambda seed: replace(data, source_train=_reveal_fraction(data.source_train, fraction, seed))

    cases = [({"fraction": float(f)}, revealed(f), model_cfg, train_cfg) for f in fractions]
    return run_grid(cases, seeds)


def summarize(rows: list[dict], group_key: str, value_key: str = "acc") -> list[dict]:
    """Median and mean of a value per group, in first-seen group order."""
    order = []
    buckets = {}
    for row in rows:
        key = row[group_key]
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(row[value_key])
    return [
        {
            group_key: key,
            "median": float(median(buckets[key])),
            "mean": float(mean(buckets[key])),
            "n": len(buckets[key]),
        }
        for key in order
    ]
