"""Optimization loop, the step learning-rate rule, and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import BatchSampler, BatchSpec, Dataset, make_batch
from .losses import LossBreakdown, LossWeights
from .model import (
    ConfigError,
    Model,
    ModelConfig,
    backward_train,
    calibrate_predictor,
    forward_eval,
    forward_train,
    split_trunk,
)

__all__ = [
    "MetricsRow",
    "NumericalAbortError",
    "TrainConfig",
    "accuracy",
    "domain_discovery_metrics",
    "evaluate_model",
    "lr_at",
    "metrics_csv_lines",
    "run_sampler",
    "sgd_step",
    "train",
]

METRICS_HEADER = "iteration,total,class_ce,domain_ce,h_C,h_D,acc,nmi,purity,lr"

# SGD settings of every training run
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-6


class NumericalAbortError(RuntimeError):
    """Training went non-finite; carries the iteration and, once its step's loss exists, the loss terms."""

    def __init__(self, iteration: int, reason: str, breakdown: LossBreakdown | None = None):
        terms = "" if breakdown is None else (
            f": total={breakdown.total}, class_ce={breakdown.class_ce}, domain_ce={breakdown.domain_ce}, "
            f"h_C={breakdown.class_entropy}, h_D={breakdown.domain_entropy}"
        )
        super().__init__(f"{reason} at iteration {iteration}{terms}")
        self.iteration = iteration
        self.breakdown = breakdown


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 400
    base_lr: float = 0.05
    weights: LossWeights = field(default_factory=LossWeights)
    batch: BatchSpec = field(default_factory=BatchSpec)
    seed: int = 0
    eval_every: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be > 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    total: float
    class_ce: float
    domain_ce: float
    h_class: float
    h_domain: float
    acc: float
    nmi: float
    purity: float
    lr: float


def sgd_step(params, lr: float) -> None:
    """One SGD step with momentum MOMENTUM and decoupled-into-gradient weight decay WEIGHT_DECAY.

    buffer <- MOMENTUM * buffer + grad + WEIGHT_DECAY * value
    value  <- value - lr * buffer

    Updates each block's arrays in place, element-wise: stepping a Model's arena
    [model.flat] gives the bits of stepping model.parameters() block by block.
    One scratch array per block holds WEIGHT_DECAY * value + grad, then
    lr * buffer; each element is rounded as in the two formulas above.
    """
    for p in params:
        step = WEIGHT_DECAY * p.value
        step += p.grad
        p.momentum *= MOMENTUM
        p.momentum += step
        np.multiply(p.momentum, lr, out=step)
        p.value -= step


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Learning rate at an iteration: base_lr, dropped tenfold from 75% of the iterations on."""
    return cfg.base_lr * (0.1 if iteration >= 0.75 * cfg.iterations else 1.0)


def accuracy(probs: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax matches the label (ties go to the lowest index)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("accuracy over an empty set")
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def domain_discovery_metrics(predicted, true) -> tuple[float, float]:
    """Agreement between a predicted and a reference partition: (NMI, purity).

    NMI uses the geometric normalization I(P;T) / sqrt(H(P) H(T)); identical
    partitions (up to relabeling) score exactly 1, and a partition carrying
    zero entropy against a differing reference scores 0.  Purity is the mean
    over samples of each predicted cluster's majority fraction.
    """
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.size == 0 or predicted.shape != true.shape:
        raise ValueError("need matching non-empty label vectors")
    n = predicted.size
    _, p_ids = np.unique(predicted, return_inverse=True)
    _, t_ids = np.unique(true, return_inverse=True)
    table = np.zeros((p_ids.max() + 1, t_ids.max() + 1))
    np.add.at(table, (p_ids, t_ids), 1.0)

    purity = float(table.max(axis=1).sum() / n)

    rows_single = np.all((table > 0).sum(axis=1) == 1)
    cols_single = np.all((table > 0).sum(axis=0) == 1)
    if rows_single and cols_single:
        return 1.0, purity

    p_marg = table.sum(axis=1) / n
    t_marg = table.sum(axis=0) / n
    h_p = float(-(p_marg[p_marg > 0] * np.log(p_marg[p_marg > 0])).sum())
    h_t = float(-(t_marg[t_marg > 0] * np.log(t_marg[t_marg > 0])).sum())
    if h_p == 0.0 or h_t == 0.0:
        return 0.0, purity
    joint = table / n
    mask = joint > 0
    outer = np.outer(p_marg, t_marg)
    mi = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    nmi = mi / math.sqrt(h_p * h_t)
    return float(min(max(nmi, 0.0), 1.0)), purity


def evaluate_model(model: Model, data: Dataset) -> tuple[float, float, float]:
    """Target accuracy plus discovery NMI/purity on the source training set.

    Hidden ground truth is read only here, from the splits' hidden columns.
    Each split's trunk output is computed in row blocks by split_trunk, so no
    split's features are scaled whole; the rest of the walk runs once over
    that output: target_test's through forward_eval, source_train's through
    the predictor branch only, since discovery reads nothing else.  Discovery
    metrics are NaN when the dataset carries no latent domain ids.
    Non-finite class or domain probabilities raise FloatingPointError: no
    metric is read from them.
    """
    target = data.target_test
    record = forward_eval(model, make_batch(target, split_trunk(model, target)), trunk_done=True)
    if not np.isfinite(record.class_probs).all():
        raise FloatingPointError("non-finite class probabilities")
    acc = accuracy(record.class_probs, target.hidden_labels)

    latent = data.source_train.hidden_domains
    if np.any(latent < 0) or model.cfg.whole_batch_norm:
        return acc, float("nan"), float("nan")
    domain_probs, _ = model.branch.forward(split_trunk(model, data.source_train))
    nmi, purity = domain_discovery_metrics(np.argmax(domain_probs, axis=1), latent)
    return acc, nmi, purity


def run_sampler(model_cfg: ModelConfig, data: Dataset, cfg: TrainConfig) -> BatchSampler:
    """Check the rules that tie model config, dataset and train config together; return the run's sampler.

    Every split's rows must be model.in_dim features wide.  A source class
    label indexes one of model.n_classes outputs, and a declared source
    domain pins its rows to one of model.k latent-domain columns, so each
    must be below its count.  The sampler then checks its quotas against the
    pools.  Each ConfigError starts with the config path at fault:
    model.in_dim, model.n_classes, model.k or train.batch...
    """
    for name in ("source_train", "target_train", "target_test"):
        shape = getattr(data, name).features.shape[1:]
        if shape != (model_cfg.in_dim,):
            raise ConfigError(f"model.in_dim: {name} rows have shape {shape}, but model.in_dim is {model_cfg.in_dim}")
    source = data.source_train
    for field_name, count, column, what in (
        ("n_classes", model_cfg.n_classes, source.class_labels, "has class label"),
        ("k", model_cfg.k, source.known_domains, "declares domain"),
    ):
        beyond = np.flatnonzero(column >= count)
        if beyond.size:
            row = beyond[0]
            who = f"dataset id {source.dataset_ids[row]}" if source.dataset_ids[row] >= 0 else f"source row {row}"
            raise ConfigError(f"model.{field_name}: {who} {what} {column[row]}, but model.{field_name} is {count}")
    try:
        return BatchSampler(source, data.target_train, cfg.batch, cfg.seed)
    except ValueError as err:
        raise ConfigError(f"train.batch.{err}") from err


def train(model: Model, data: Dataset, cfg: TrainConfig) -> tuple[Model, list[MetricsRow]]:
    """Run the optimization loop; returns the model and the metrics table.

    Fully deterministic for a given (model seed, config, data): cfg.seed
    seeds the batch sampler.  Divergence raises NumericalAbortError naming
    the iteration: non-finite predictor outputs, a non-finite loss, an update
    that leaves a non-finite parameter, caught before the next forward pass,
    or non-finite outputs in an evaluation.  run_sampler refuses a model,
    dataset and config that do not fit together before the first iteration.
    """
    sampler = run_sampler(model.cfg, data, cfg)
    rows: list[MetricsRow] = []
    for it in range(cfg.iterations):
        lr = lr_at(cfg, it)
        batch = sampler.next_batch()
        if it == 0:
            calibrate_predictor(model, batch)
        try:
            record = forward_train(model, batch)
        except FloatingPointError as err:
            raise NumericalAbortError(it, str(err)) from err
        breakdown = backward_train(model, record, batch, cfg.weights)
        if not math.isfinite(breakdown.total):
            raise NumericalAbortError(it, "non-finite loss", breakdown)
        sgd_step([model.flat], lr)
        if not np.isfinite(model.flat.value).all():
            raise NumericalAbortError(it, "non-finite parameters after the update", breakdown)
        if (it + 1) % cfg.eval_every == 0 or it == cfg.iterations - 1:
            # the step's activations must not live into a whole-split evaluation; between
            # steps they stay, since freeing them there lets the allocator hand their pages
            # back to the kernel and fault them in again at every next forward
            record = None
            try:
                acc, nmi, purity = evaluate_model(model, data)
            except FloatingPointError as err:
                raise NumericalAbortError(it, f"{err} in the evaluation after the update") from err
            rows.append(
                MetricsRow(
                    iteration=it + 1,
                    total=breakdown.total,
                    class_ce=breakdown.class_ce,
                    domain_ce=breakdown.domain_ce,
                    h_class=breakdown.class_entropy,
                    h_domain=breakdown.domain_entropy,
                    acc=acc,
                    nmi=nmi,
                    purity=purity,
                    lr=lr,
                )
            )
    return model, rows


def metrics_csv_lines(rows: list[MetricsRow]) -> list[str]:
    """Render a metrics table as CSV lines with the fixed header."""
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(
            f"{r.iteration},{r.total:.12g},{r.class_ce:.12g},{r.domain_ce:.12g},"
            f"{r.h_class:.12g},{r.h_domain:.12g},{r.acc:.12g},{r.nmi:.12g},"
            f"{r.purity:.12g},{r.lr:.12g}"
        )
    return lines
