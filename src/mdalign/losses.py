"""The four-term training objective and its per-term gradients.

total = class log-loss on labeled source samples
      + w_t * domain log-loss on domain-labeled source samples
      + w_C * class entropy on unlabeled target samples
      + w_D * domain entropy on source samples without domain labels

The two log-losses are primitives.cross_entropy.  The two entropy terms push
the network towards confident predictions on the unlabeled populations; both
use the 0 * log 0 := 0 convention, with probabilities clamped to 1e-12 inside
logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossBreakdown",
    "LossWeights",
    "class_entropy",
    "domain_entropy",
    "total_loss",
]

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the three optional loss terms."""

    domain_ce: float = 0.5
    class_entropy: float = 0.2
    domain_entropy: float = 0.2

    def __post_init__(self):
        if min(self.domain_ce, self.class_entropy, self.domain_entropy) < 0:
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    """The four loss terms, their weighted total, and the populations used."""

    class_ce: float
    domain_ce: float
    class_entropy: float
    domain_entropy: float
    total: float
    n_source: int
    n_known: int
    n_target: int
    n_unknown: int


def _entropy(probs: np.ndarray):
    logs = np.log(np.maximum(probs, _LOG_FLOOR))
    value = float(-(probs * logs).sum() / probs.shape[0])
    grad = -(logs + 1.0) / probs.shape[0]
    return value, grad


def class_entropy(probs: np.ndarray):
    """Mean class-prediction entropy over the target batch, with its probs gradient."""
    if probs.shape[0] == 0:
        raise ValueError("class entropy needs at least one target sample")
    return _entropy(probs)


def domain_entropy(probs: np.ndarray):
    """Mean domain-prediction entropy over unlabeled source rows.

    Vacuous cases return 0: no rows, or a single latent domain (the one-point
    simplex carries no uncertainty).
    """
    if probs.shape[0] == 0 or probs.shape[1] == 1:
        return 0.0, np.zeros_like(probs)
    return _entropy(probs)


def total_loss(
    class_ce: float,
    domain_ce: float,
    class_ent: float,
    domain_ent: float,
    weights: LossWeights,
    *,
    n_source: int,
    n_known: int,
    n_target: int,
    n_unknown: int,
) -> LossBreakdown:
    """Combine the four terms into the weighted training objective."""
    total = (
        class_ce
        + weights.domain_ce * domain_ce
        + weights.class_entropy * class_ent
        + weights.domain_entropy * domain_ent
    )
    return LossBreakdown(
        class_ce=class_ce,
        domain_ce=domain_ce,
        class_entropy=class_ent,
        domain_entropy=domain_ent,
        total=total,
        n_source=n_source,
        n_known=n_known,
        n_target=n_target,
        n_unknown=n_unknown,
    )
