"""The gradient audit's inputs stay fixed, and it names where its worst error is."""

import hashlib

import numpy as np

from mdalign.alignment import AlignmentLayer
from mdalign.verification import LAYER_TOLERANCE, _audit_batch, audit_alignment_layer

# sha256 over (dtype, shape, bytes) of the features, class_labels, kinds and
# known_domains of _audit_batch(default_rng(0)), recorded from the per-sample
# builder that Split.of replaced.
AUDIT_BATCH_DIGEST = "6f7bab0d2858275027e44ec17e4525a900519f88f1781aaf6580a89247d8013a"


def test_audit_batch_matches_recorded_digest():
    batch = _audit_batch(np.random.default_rng(0))
    digest = hashlib.sha256()
    for array in (batch.features, batch.class_labels, batch.kinds, batch.known_domains):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == AUDIT_BATCH_DIGEST


def test_layer_audit_names_the_configuration_of_a_planted_fault(monkeypatch):
    """grad_x made 1% wrong at one grid configuration only: the audit reports that one as grad_x's worst."""
    original = AlignmentLayer.backward

    def planted(self, cache, grad_out):
        grad_x, grad_w, grad_gamma, grad_beta = original(self, cache, grad_out)
        if cache.x_shape == (8, 3, 2, 2) and self.n_domains == 3:
            grad_x = grad_x * 1.01
        return grad_x, grad_w, grad_gamma, grad_beta

    monkeypatch.setattr(AlignmentLayer, "backward", planted)
    errors, worst = audit_alignment_layer(0)
    assert errors["grad_x"] > LAYER_TOLERANCE
    assert errors["grad_w"] <= LAYER_TOLERANCE
    assert worst["grad_x"] == {"b": 8, "k": 2, "c": 3, "rank": 4, "mixed": False}
    assert set(worst) == {"grad_x", "grad_w", "grad_gamma", "grad_beta"}
