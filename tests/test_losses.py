"""Loss terms: fixture values, entropy bounds, recomposition, and gradients."""

import math

import numpy as np
import pytest

from mdalign.losses import LossWeights, class_entropy, domain_entropy, total_loss
from mdalign.primitives import central_difference, cross_entropy, max_relative_error, softmax, softmax_backward


class TestClassEntropy:
    def test_uniform_ten_classes_is_ln10(self):
        value, _ = class_entropy(np.full((3, 10), 0.1))
        assert abs(value - math.log(10)) < 1e-12

    def test_onehot_rows_are_zero(self):
        value, _ = class_entropy(np.eye(4))
        assert value == 0.0

    def test_hand_value(self):
        value, _ = class_entropy(np.array([[0.25, 0.75]]))
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.5623351446188083) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            class_entropy(np.zeros((0, 2)))

    def test_bounds_on_random_rows(self):
        rng = np.random.default_rng(1)
        for classes in (2, 5, 10):
            probs = rng.dirichlet(np.ones(classes), size=50)
            value, _ = class_entropy(probs)
            assert 0.0 <= value <= math.log(classes) + 1e-12

    def test_grad_matches_finite_differences_through_softmax(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        probs = softmax(logits)
        _, grad_probs = class_entropy(probs)
        analytic = softmax_backward(probs, grad_probs)
        fd = central_difference(lambda: class_entropy(softmax(logits))[0], logits)
        assert max_relative_error(analytic, fd) <= 1e-6

    def test_gradient_vanishes_at_uniform_rows_under_softmax(self):
        probs = softmax(np.zeros((3, 6)))
        _, grad_probs = class_entropy(probs)
        np.testing.assert_allclose(softmax_backward(probs, grad_probs), 0.0, atol=1e-12)


class TestDomainEntropy:
    def test_single_domain_is_always_zero(self):
        value, grad = domain_entropy(np.ones((7, 1)))
        assert value == 0.0 and not grad.any()

    def test_uniform_three_domains_is_ln3(self):
        value, _ = domain_entropy(np.full((2, 3), 1.0 / 3.0))
        assert abs(value - math.log(3)) < 1e-12

    def test_hand_value(self):
        value, _ = domain_entropy(np.array([[0.9, 0.1]]))
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.3250829733914482) < 1e-12

    def test_empty_population_is_zero(self):
        value, _ = domain_entropy(np.zeros((0, 4)))
        assert value == 0.0


class TestTotalLoss:
    def test_zero_weights_reduce_to_class_ce(self):
        weights = LossWeights(domain_ce=0.0, class_entropy=0.0, domain_entropy=0.0)
        out = total_loss(1.25, 9.0, 9.0, 9.0, weights, n_source=4, n_known=0, n_target=2, n_unknown=4)
        assert out.total == 1.25

    def test_recomposition_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            parts = rng.uniform(0.0, 3.0, size=4)
            w = LossWeights(*rng.uniform(0.0, 1.0, size=3))
            out = total_loss(*parts, w, n_source=8, n_known=2, n_target=4, n_unknown=6)
            recomposed = (
                out.class_ce
                + w.domain_ce * out.domain_ce
                + w.class_entropy * out.class_entropy
                + w.domain_entropy * out.domain_entropy
            )
            assert abs(out.total - recomposed) < 1e-12

    def test_paper_style_weight_settings_accepted(self):
        assert LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)
        with pytest.raises(ValueError):
            LossWeights(domain_ce=-0.1)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=6)
        labels = rng.integers(0, 3, size=6)
        perm = rng.permutation(6)
        assert cross_entropy(probs, labels) == pytest.approx(cross_entropy(probs[perm], labels[perm]), abs=1e-12)
        assert class_entropy(probs)[0] == pytest.approx(class_entropy(probs[perm])[0], abs=1e-12)
