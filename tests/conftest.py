"""Shared test helpers."""

import numpy as np


def nearest_centroid_accuracy(train, test):
    """Independent solvability oracle: classify a split's rows by nearest class centroid of another's."""
    feats = train.features.reshape(len(train), -1)
    centroids = np.stack([feats[train.class_labels == y].mean(axis=0) for y in np.unique(train.class_labels)])
    test_feats = test.features.reshape(len(test), -1)
    pred = np.argmin(((test_feats[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    return float(np.mean(pred == test.hidden_labels))


try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # every run draws the same examples: no randomness, no example database, no timing deadline,
    # and a fixed number of examples per test
    settings.register_profile("mdalign", derandomize=True, database=None, deadline=None, max_examples=25)
    settings.load_profile("mdalign")
