"""Domain tags, assignment merging, the shared-view contract, and the predictor."""

import numpy as np
import pytest

from mdalign.assignment import (
    KNOWN_CODE,
    TARGET_CODE,
    UNKNOWN_CODE,
    Assignment,
    DomainPredictor,
    DomainTag,
    merge_assignments,
    tag_codes,
)
from mdalign.data import Split, make_batch
from mdalign.model import Model, ModelConfig, forward_train
from mdalign.primitives import central_difference, max_relative_error, softmax_backward


class TestDomainTag:
    def test_known_source_needs_index(self):
        with pytest.raises(ValueError):
            DomainTag.known_source(-1)
        assert DomainTag.known_source(2).index == 2

    def test_target_and_unknown_carry_no_index(self):
        with pytest.raises(ValueError):
            DomainTag("target", 0)


class TestMergeAssignments:
    def test_target_row_is_forced(self):
        a = merge_assignments(np.array([[0.4, 0.6]]), [DomainTag.target()])
        np.testing.assert_array_equal(a.probs, [[0.0, 0.0, 1.0]])
        assert a.fixed[0]

    def test_known_source_row_is_onehot(self):
        a = merge_assignments(np.array([[0.4, 0.6]]), [DomainTag.known_source(1)])
        np.testing.assert_array_equal(a.probs, [[0.0, 1.0, 0.0]])
        assert a.fixed[0]

    def test_unknown_row_passes_prediction_through(self):
        a = merge_assignments(np.array([[0.3, 0.7]]), [DomainTag.unknown_source()])
        np.testing.assert_array_equal(a.probs, [[0.3, 0.7, 0.0]])
        assert not a.fixed[0]

    def test_out_of_range_domain_rejected(self):
        with pytest.raises(ValueError):
            merge_assignments(np.array([[1.0]]), [DomainTag.known_source(1)])

    def test_invariants_over_random_mixes(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            k = int(rng.integers(1, 5))
            b = int(rng.integers(1, 12))
            pred = rng.dirichlet(np.ones(k), size=b)
            tags = []
            for _ in range(b):
                kind = rng.integers(0, 3)
                if kind == 0:
                    tags.append(DomainTag.target())
                elif kind == 1:
                    tags.append(DomainTag.known_source(int(rng.integers(0, k))))
                else:
                    tags.append(DomainTag.unknown_source())
            a = merge_assignments(pred, tags)
            coded = merge_assignments(pred, *tag_codes(tags))
            np.testing.assert_array_equal(coded.probs, a.probs)
            np.testing.assert_array_equal(coded.fixed, a.fixed)
            np.testing.assert_allclose(a.probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(a.probs >= 0) and np.all(a.probs <= 1)
            for i, tag in enumerate(tags):
                if tag.kind == "target":
                    assert a.fixed[i] and a.probs[i, k] == 1.0
                elif tag.kind == "known-source":
                    assert a.fixed[i] and a.probs[i, tag.index] == 1.0
                else:
                    assert not a.fixed[i] and a.probs[i, k] == 0.0


class TestSharedView:
    def test_layers_see_the_same_rows(self):
        rng = np.random.default_rng(3)
        batch = make_batch(
            Split.of(
                rng.normal(size=(4, 4)),
                kinds=[KNOWN_CODE, UNKNOWN_CODE, UNKNOWN_CODE, TARGET_CODE],
                class_labels=np.zeros(4),
                known_domains=[0, -1, -1, -1],
            )
        )
        model = Model(ModelConfig(in_dim=4, n_classes=2, trunk_widths=(6,), classifier_widths=(5, 5)))
        record = forward_train(model, batch)
        align_caches = [cache for _, cache, _ in record.cls_caches if cache is not None]
        assert len(align_caches) == 3
        assert all(cache.w is record.assignment.probs for cache in align_caches)

    def test_gradients_accumulate_across_layers(self):
        a = merge_assignments(
            np.array([[0.5, 0.5], [0.2, 0.8]]),
            [DomainTag.unknown_source(), DomainTag.unknown_source()],
        )
        g1 = np.ones_like(a.probs)
        g2 = 2.0 * np.ones_like(a.probs)
        a.add_grad(g1)
        a.add_grad(g2)
        np.testing.assert_array_equal(a.grad, 3.0 * np.ones_like(a.probs))

    def test_fixed_rows_accumulate_zero(self):
        a = merge_assignments(
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            [DomainTag.target(), DomainTag.unknown_source()],
        )
        a.add_grad(np.ones_like(a.probs))
        assert not a.grad[0].any()
        assert a.grad[1].all()

    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            Assignment(np.array([[0.5, 0.4]]), np.array([False]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Assignment(np.array([[bad, bad], [0.5, 0.5]]), np.array([False, False]))
        with pytest.raises(ValueError, match="finite"):
            merge_assignments(np.array([[bad, 0.5]]), [DomainTag.unknown_source()])


class TestDomainPredictor:
    def test_single_domain_is_always_certain(self):
        head = DomainPredictor(4, k=1, hidden=8, seed=0)
        probs, _ = head.forward(np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(probs, np.ones((5, 1)))

    def test_zero_head_is_uniform(self):
        head = DomainPredictor(4, k=3, hidden=8, seed=0)
        head.w2.value[...] = 0.0
        head.b2.value[...] = 0.0
        probs, _ = head.forward(np.random.default_rng(1).normal(size=(6, 4)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        head = DomainPredictor(5, k=4, seed=2)
        probs, _ = head.forward(np.random.default_rng(2).normal(size=(9, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_feature_width_mismatch(self):
        head = DomainPredictor(5, k=2)
        with pytest.raises(ValueError):
            head.forward(np.zeros((2, 4)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        head = DomainPredictor(4, k=3, hidden=6, seed=3)
        x = rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 3))

        def loss():
            probs, _ = head.forward(x)
            return float((probs * probe).sum())

        probs, cache = head.forward(x)
        g_logits = softmax_backward(probs, probe)
        for p in (head.w1, head.b1, head.w2, head.b2):
            p.zero_grad()
        g_in = head.backward(cache, g_logits)

        assert max_relative_error(g_in, central_difference(loss, x)) <= 1e-6
        for p in (head.w1, head.b1, head.w2, head.b2):
            assert max_relative_error(p.grad, central_difference(loss, p.value)) <= 1e-6
