"""Domain tags, the per-sample assignment matrix, and the domain predictor.

The assignment matrix is the single bridge between the domain predictor and
every alignment layer in a network: one probability row per sample over the
k latent source domains plus the target, with hard-labeled rows pinned and
excluded from gradient.  All layers consume the same instance (a shared
view), and their assignment gradients accumulate into one buffer that later
flows back through the predictor's softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .primitives import (
    ParamBlock,
    dense_backward,
    dense_forward,
    he_normal,
    relu_backward,
    relu_forward,
    softmax,
)

__all__ = [
    "Assignment",
    "DomainPredictor",
    "DomainTag",
    "KNOWN_CODE",
    "KNOWN_SOURCE",
    "TARGET",
    "TARGET_CODE",
    "UNKNOWN_CODE",
    "UNKNOWN_SOURCE",
    "merge_assignments",
    "tag_codes",
]

KNOWN_SOURCE = "known-source"
UNKNOWN_SOURCE = "unknown-source"
TARGET = "target"

# Columnar splits and batches store a tag as an int8 kind code, the kind's
# position in TAG_KINDS, next to a known-domain index that is -1 unless the
# row is known-source.
TAG_KINDS = (KNOWN_SOURCE, UNKNOWN_SOURCE, TARGET)
KNOWN_CODE, UNKNOWN_CODE, TARGET_CODE = range(len(TAG_KINDS))


@dataclass(frozen=True)
class DomainTag:
    """Provenance of one sample: a labeled source domain, an unlabeled source, or the target."""

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in (KNOWN_SOURCE, UNKNOWN_SOURCE, TARGET):
            raise ValueError(f"unknown tag kind {self.kind!r}")
        if self.kind == KNOWN_SOURCE:
            if self.index is None or self.index < 0:
                raise ValueError("known-source tag needs a domain index >= 0")
        elif self.index is not None:
            raise ValueError(f"{self.kind} tag carries no index")

    @classmethod
    def known_source(cls, index: int) -> "DomainTag":
        return cls(KNOWN_SOURCE, index)

    @classmethod
    def unknown_source(cls) -> "DomainTag":
        return cls(UNKNOWN_SOURCE)

    @classmethod
    def target(cls) -> "DomainTag":
        return cls(TARGET)

    @classmethod
    def from_code(cls, code: int, known_domain: int) -> "DomainTag":
        """The tag of one columnar row: its kind code and known-domain index."""
        return cls(TAG_KINDS[code], int(known_domain) if code == KNOWN_CODE else None)


def tag_codes(tags) -> tuple[np.ndarray, np.ndarray]:
    """Kind codes (int8) and known-domain indices (int64, -1 if not known-source) of a tag list."""
    kinds = np.array([TAG_KINDS.index(t.kind) for t in tags], dtype=np.int8)
    known = np.array([-1 if t.index is None else t.index for t in tags], dtype=np.int64)
    return kinds, known


class Assignment:
    """Per-sample probabilities over the k source domains plus the target.

    probs is [b, k+1] with columns ordered (source_1 .. source_k, target);
    fixed marks hard-assigned rows.  `grad` accumulates the assignment
    gradients of every alignment layer; fixed rows accumulate exactly zero.
    """

    def __init__(self, probs: np.ndarray, fixed: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        fixed = np.asarray(fixed, dtype=bool)
        if probs.ndim != 2:
            raise ValueError("assignment probabilities must be [batch, domains]")
        if fixed.shape != (probs.shape[0],):
            raise ValueError("fixed mask must have one entry per row")
        # written so that NaN, which fails every comparison, is rejected too
        if probs.size and not (probs.min() >= 0 and probs.max() <= 1):
            raise ValueError("assignment entries must be finite and lie in [0, 1]")
        if probs.size and np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("assignment rows must sum to 1")
        self.probs = probs
        self.fixed = fixed
        self.grad = np.zeros_like(probs)

    @classmethod
    def unchecked(cls, probs: np.ndarray, fixed: np.ndarray) -> "Assignment":
        """Bypass row validation; gradient probing perturbs rows off the simplex."""
        obj = cls.__new__(cls)
        obj.probs = np.asarray(probs, dtype=np.float64)
        obj.fixed = np.asarray(fixed, dtype=bool)
        obj.grad = np.zeros_like(obj.probs)
        return obj

    def add_grad(self, grad_w: np.ndarray) -> None:
        if grad_w.shape != self.probs.shape:
            raise ValueError(f"gradient shape {grad_w.shape} does not match {self.probs.shape}")
        np.add(self.grad, grad_w, out=self.grad, where=~self.fixed[:, None])

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def merge_assignments(pred: np.ndarray, tags, known_domains: np.ndarray | None = None) -> Assignment:
    """Combine predicted domain probabilities with hard domain knowledge.

    tags is either a list of DomainTag or an array of kind codes, in which
    case known_domains gives each row's known-domain index (see tag_codes).
    Target rows become one-hot on the target column and fixed; known-source
    rows one-hot on their labeled column and fixed; unknown-source rows carry
    the predicted probabilities with an exact zero in the target column and
    stay free to receive gradient.
    """
    if known_domains is None:
        tags, known_domains = tag_codes(tags)
    tags, known_domains = np.asarray(tags), np.asarray(known_domains)
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] != len(tags):
        raise ValueError(f"predictions {pred.shape} do not match {len(tags)} tags")
    b, k = pred.shape
    known = np.flatnonzero(tags == KNOWN_CODE)
    labels = known_domains[known]
    if labels.size and labels.max() >= k:
        raise ValueError(f"domain label {labels.max()} out of range for k={k}")
    free = tags == UNKNOWN_CODE
    probs = np.zeros((b, k + 1))
    probs[tags == TARGET_CODE, k] = 1.0
    probs[known, labels] = 1.0
    probs[free, :k] = pred[free]
    return Assignment(probs, ~free)


class DomainPredictor:
    """Two-layer head predicting a softmax over the k latent source domains.

    Attached to the shared trunk right after its first block, where features
    are still domain-sensitive.
    """

    def __init__(self, in_dim: int, k: int, hidden: int = 64, seed: int = 0):
        if k < 1:
            raise ValueError("need at least one latent source domain")
        rng = np.random.default_rng(seed)
        self.w1 = ParamBlock(he_normal(rng, in_dim, (in_dim, hidden)))
        self.b1 = ParamBlock(np.zeros(hidden))
        self.w2 = ParamBlock(he_normal(rng, hidden, (hidden, k)))
        self.b2 = ParamBlock(np.zeros(k))
        self.k = k

    def logits(self, features: np.ndarray):
        """Returns (logits, cache): unnormalized scores over the k domains."""
        z1 = dense_forward(features, self.w1.value, self.b1.value)
        a1 = relu_forward(z1)
        return dense_forward(a1, self.w2.value, self.b2.value), (features, z1, a1)

    def forward(self, features: np.ndarray):
        """Returns (probs, cache): probability rows over the k domains; FloatingPointError if one is not finite."""
        logits, cache = self.logits(features)
        probs = softmax(logits)
        if not np.isfinite(probs).all():
            raise FloatingPointError("non-finite domain probabilities from the predictor branch")
        return probs, cache

    def backward(self, cache, grad_logits: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; returns the gradient at the input features."""
        features, z1, a1 = cache
        g_a1, g_w2, g_b2 = dense_backward(a1, self.w2.value, grad_logits)
        self.w2.grad += g_w2
        self.b2.grad += g_b2
        g_z1 = relu_backward(z1, g_a1)  # g_a1 is dense_backward's own output
        g_in, g_w1, g_b1 = dense_backward(features, self.w1.value, g_z1)
        self.w1.grad += g_w1
        self.b1.grad += g_b1
        return g_in
