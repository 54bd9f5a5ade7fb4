"""Forward fixtures and finite-difference gradient checks for the primitives."""

import numpy as np
import pytest

from mdalign.primitives import (
    ParamBlock,
    as_tensor,
    central_difference,
    cross_entropy,
    dense_backward,
    dense_forward,
    max_relative_error,
    relu_backward,
    relu_forward,
    softmax,
    softmax_backward,
    softmax_cross_entropy_backward,
)

FD_TOL = 1e-6


class TestTensorValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_tensor([[np.inf]])

    def test_rejects_rank_5(self):
        with pytest.raises(ValueError):
            as_tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_accepts_ranks_1_to_4(self):
        for rank in range(1, 5):
            arr = as_tensor(np.zeros((2,) * rank))
            assert arr.ndim == rank
            assert arr.dtype == np.float64


class TestParamBlock:
    def test_buffers_match_value_shape(self):
        p = ParamBlock(np.ones((3, 4)))
        assert p.grad.shape == p.value.shape == p.momentum.shape
        assert np.all(p.grad == 0) and np.all(p.momentum == 0)

    def test_zero_grad(self):
        p = ParamBlock(np.ones(2))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0)


class TestDense:
    def test_identity_weight_passes_input(self):
        y = dense_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_hand_matrix_product(self):
        y = dense_forward(np.array([[1.0, 2.0]]), np.ones((2, 2)), np.ones(2))
        np.testing.assert_array_equal(y, [[4.0, 4.0]])

    def test_zero_input_passes_bias(self):
        y = dense_forward(np.zeros((1, 2)), np.arange(4.0).reshape(2, 2), np.array([3.0, 5.0]))
        np.testing.assert_array_equal(y, [[3.0, 5.0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dense_forward(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            dense_forward(np.zeros((1, 2)), np.zeros((2, 2)), np.zeros(3))

    def test_zero_upstream_gives_zero_grads(self):
        gx, gw, gb = dense_backward(np.ones((2, 3)), np.ones((3, 2)), np.zeros((2, 2)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule(self):
        gx, gw, gb = dense_backward(np.array([[2.0]]), np.array([[3.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(gx, [[3.0]])
        np.testing.assert_array_equal(gw, [[2.0]])
        np.testing.assert_array_equal(gb, [1.0])

    def test_without_input_grad(self):
        rng = np.random.default_rng(4)
        x, w, g = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        _, gw, gb = dense_backward(x, w, g)
        gx_off, gw_off, gb_off = dense_backward(x, w, g, input_grad=False)
        assert gx_off is None
        assert np.array_equal(gw_off, gw) and np.array_equal(gb_off, gb)

    def test_additivity_in_x(self):
        rng = np.random.default_rng(7)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        x1, x2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        lhs = dense_forward(x1 + x2, w, b)
        rhs = dense_forward(x1, w, b) + dense_forward(x2, w, b) - b
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        probe = rng.normal(size=(3, 2))
        gx, gw, gb = dense_backward(x, w, probe)
        for arr, analytic in ((x, gx), (w, gw), (b, gb)):
            fd = central_difference(lambda: float((dense_forward(x, w, b) * probe).sum()), arr)
            assert max_relative_error(analytic, fd) <= FD_TOL


class TestRelu:
    def test_sign_cases(self):
        np.testing.assert_array_equal(relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_mask(self):
        g = relu_backward(np.array([-1.0, 2.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(g, [0.0, 5.0])

    def test_subgradient_at_zero_is_zero(self):
        assert relu_backward(np.array([0.0]), np.array([7.0]))[0] == 0.0

    def test_bitwise_equal_to_where(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 32))
        x[rng.random(x.shape) < 0.1] = 0.0
        g = rng.normal(size=x.shape)
        reference = np.where(x > 0, g, 0.0)
        assert np.array_equal(relu_backward(x, g).view(np.int64), reference.view(np.int64))

    def test_backward_from_the_output_equals_backward_from_the_input(self):
        """relu_forward(z) > 0 exactly where z > 0, so backward may read the ReLU output in place of its input."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
        z = np.concatenate([special, np.random.default_rng(4).normal(size=57)]).reshape(8, 8)
        g = np.random.default_rng(5).normal(size=z.shape)
        g[0, :4] = [-0.0, np.inf, -np.inf, np.nan]
        for grad in (g, g.T.copy()):
            got = relu_backward(relu_forward(z), grad.copy())
            assert np.array_equal(got.view(np.int64), relu_backward(z, grad).view(np.int64))

    def test_negative_gradient_at_dead_unit_is_positive_zero(self):
        g = relu_backward(np.array([-1.0, 0.0]), np.array([-3.0, -2.0]))
        assert not np.signbit(g).any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 0.05] = 0.1  # stay away from the kink
        probe = rng.normal(size=x.shape)
        analytic = relu_backward(x, probe)
        fd = central_difference(lambda: float((relu_forward(x) * probe).sum()), x)
        assert max_relative_error(analytic, fd) <= FD_TOL


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_single_class_is_certain(self):
        np.testing.assert_array_equal(softmax(np.array([[3.7], [-2.0]])), [[1.0], [1.0]])

    def test_log_ratio_fixture(self):
        p = softmax(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(p, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        p = softmax(rng.normal(size=(20, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 4))
        shifted = logits + rng.normal(size=(6, 1))
        np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(probs, [1]) == 0.0

    def test_hand_value(self):
        assert abs(cross_entropy(np.array([[0.8, 0.2]]), [0]) + np.log(0.8)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([[0.5, 0.5]]), [2])

    def test_fused_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        analytic = softmax_cross_entropy_backward(softmax(logits), labels)
        fd = central_difference(lambda: cross_entropy(softmax(logits), labels), logits)
        assert max_relative_error(analytic, fd) <= FD_TOL

    def test_softmax_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        probe = rng.normal(size=(4, 3))
        analytic = softmax_backward(softmax(logits), probe)
        fd = central_difference(lambda: float((softmax(logits) * probe).sum()), logits)
        assert max_relative_error(analytic, fd) <= FD_TOL
