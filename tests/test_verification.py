"""The gradient audit's inputs stay fixed."""

import hashlib

import numpy as np

from mdalign.verification import _audit_batch

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
