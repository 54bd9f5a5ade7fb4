"""Alignment layer: hand fixtures, reduction identities, and gradient oracles.

The independent oracles here are (a) a brute-force per-domain loop over the
weighted-moment and mixing definitions, (b) a plain batch-norm reference for
the reduction identities, and (c) central finite differences for every
gradient path.
"""

import numpy as np
import pytest

from mdalign.alignment import (
    RUNNING_MOMENTUM,
    AlignConfig,
    AlignmentLayer,
    DomainStats,
    RunningStats,
    UninitializedStatsError,
    compute_alpha,
    weighted_moments,
)
from mdalign.assignment import Assignment
from mdalign.primitives import central_difference, max_relative_error

# 1e-300 leaves var + eps bit-identical to var, matching the zero-eps hand
# fixtures while satisfying the eps > 0 contract.
EPS_OFF = 1e-300


def raw_assignment(probs, fixed=None):
    probs = np.asarray(probs, dtype=np.float64)
    if fixed is None:
        fixed = np.zeros(probs.shape[0], dtype=bool)
    return Assignment.unchecked(probs, fixed)


def brute_force_forward(x, w, eps, threshold=1e-6):
    """Direct per-domain evaluation of the mixture normalization."""
    xr = x.reshape(x.shape[0], x.shape[1], -1).astype(float)
    m = xr.shape[2]
    y = np.zeros_like(xr)
    for d in range(w.shape[1]):
        total = w[:, d].sum()
        if total <= threshold:
            continue
        alpha = w[:, d] / total
        mu = np.zeros(xr.shape[1])
        for c in range(xr.shape[1]):
            mu[c] = sum(alpha[i] / m * xr[i, c, p] for i in range(xr.shape[0]) for p in range(m))
        var = np.zeros(xr.shape[1])
        for c in range(xr.shape[1]):
            var[c] = sum(
                alpha[i] / m * (xr[i, c, p] - mu[c]) ** 2
                for i in range(xr.shape[0])
                for p in range(m)
            )
        for i in range(xr.shape[0]):
            y[i] += w[i, d] * (xr[i] - mu[:, None]) / np.sqrt(var[:, None] + eps)
    return y.reshape(x.shape)


def reference_batchnorm(x, eps):
    """Plain batch normalization with biased variance, per channel."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


class TestAlignConfig:
    @pytest.mark.parametrize("eps", [0.0, -1e-5])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            AlignConfig(eps=eps)

    # a column holding one hard-assigned row has mass 1, so a threshold of 1 would call it absent
    @pytest.mark.parametrize("threshold", [1.0, 1e308, -1e-9])
    def test_zero_mass_threshold_must_lie_in_unit_interval(self, threshold):
        with pytest.raises(ValueError, match=r"zero_mass_threshold must lie in \[0, 1\)"):
            AlignConfig(zero_mass_threshold=threshold)

    def test_bounds_of_the_interval(self):
        assert AlignConfig(zero_mass_threshold=0.0).zero_mass_threshold == 0.0
        assert AlignConfig(zero_mass_threshold=np.nextafter(1.0, 0.0)).zero_mass_threshold < 1


class TestComputeAlpha:
    def test_column_normalization(self):
        w = np.array([[0.2, 0.8], [0.6, 0.4], [0.0, 1.0]])
        aw = compute_alpha(w)
        np.testing.assert_allclose(aw.alpha[:, 0], [0.25, 0.75, 0.0], atol=1e-12)

    def test_one_hot_column_kept(self):
        aw = compute_alpha(np.array([[0.0], [1.0], [0.0]]))
        np.testing.assert_array_equal(aw.alpha[:, 0], [0.0, 1.0, 0.0])

    def test_zero_column_flagged_dead(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        aw = compute_alpha(w)
        assert aw.live.tolist() == [True, False]
        assert not aw.alpha[:, 1].any()

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            compute_alpha(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN slips past a `w < 0` test and used to turn its column dead silently
        with pytest.raises(ValueError, match="finite and non-negative"):
            compute_alpha(np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_live_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=(10, 4))
        aw = compute_alpha(w)
        np.testing.assert_allclose(aw.alpha.sum(axis=0), 1.0, atol=1e-9)


class TestWeightedMoments:
    def test_hand_fixture(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        aw = compute_alpha(np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]]))
        stats = weighted_moments(x, aw)
        np.testing.assert_allclose(stats.mean[:, 0], [0.5, 2.5], atol=1e-12)
        np.testing.assert_allclose(stats.var[:, 0], [0.25, 0.25], atol=1e-12)

    def test_constant_input(self):
        x = np.full((5, 2), 3.25)
        aw = compute_alpha(np.ones((5, 1)))
        stats = weighted_moments(x, aw)
        np.testing.assert_allclose(stats.mean, 3.25, atol=1e-12)
        np.testing.assert_allclose(stats.var, 0.0, atol=1e-12)

    def test_uniform_weights_reduce_to_batch_statistics(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3))
        stats = weighted_moments(x, compute_alpha(np.ones((8, 1))))
        np.testing.assert_allclose(stats.mean[0], x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(stats.var[0], x.var(axis=0), atol=1e-12)

    def test_spatial_weight_spreading(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 2, 3, 3))
        aw = compute_alpha(rng.uniform(0.1, 1.0, size=(4, 2)))
        stats = weighted_moments(x, aw)
        # flattening spatial positions into extra samples with split weights
        # must give the same moments
        flat = x.transpose(0, 2, 3, 1).reshape(-1, 2)
        alpha_flat = np.repeat(aw.alpha / 9.0, 9, axis=0)
        mean = alpha_flat.T @ flat
        var = alpha_flat.T @ flat**2 - mean**2
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.var, var, atol=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            weighted_moments(np.zeros((3, 1)), compute_alpha(np.ones((4, 1))))


class TestForward:
    def test_hard_partition_hand_fixture(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        w = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
        y, _ = layer.forward(x, raw_assignment(w))
        np.testing.assert_allclose(y[:, 0], [-1.0, 1.0, -1.0, 1.0], atol=1e-12)

    def test_symmetric_soft_assignment(self):
        x = np.array([[0.0], [2.0]])
        w = np.full((2, 2), 0.5)
        layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
        y, _ = layer.forward(x, raw_assignment(w))
        np.testing.assert_allclose(y[:, 0], [-1.0, 1.0], atol=1e-12)

    def test_constant_input_gives_beta(self):
        x = np.full((6, 3), 2.0)
        w = np.column_stack([np.full(6, 0.3), np.full(6, 0.7)])
        layer = AlignmentLayer(3, 2, AlignConfig(affine=True))
        layer.beta.value[...] = [1.0, -1.0, 0.5]
        y, _ = layer.forward(x, raw_assignment(w))
        np.testing.assert_allclose(y, np.tile([1.0, -1.0, 0.5], (6, 1)), atol=1e-12)

    def test_constant_input_without_affine_gives_zero(self):
        x = np.full((4, 2), -3.0)
        layer = AlignmentLayer(2, 1, AlignConfig(affine=False))
        y, _ = layer.forward(x, raw_assignment(np.ones((4, 1))))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    @pytest.mark.parametrize("rank", [2, 4])
    def test_matches_brute_force_oracle(self, rank):
        rng = np.random.default_rng(3)
        shape = (6, 3) if rank == 2 else (6, 3, 2, 2)
        x = rng.normal(size=shape)
        w = rng.dirichlet(np.ones(3), size=6)
        layer = AlignmentLayer(3, 3, AlignConfig(eps=1e-5, affine=False))
        y, _ = layer.forward(x, raw_assignment(w))
        np.testing.assert_allclose(y, brute_force_forward(x, w, 1e-5), atol=1e-10)

    def test_reduction_to_batchnorm(self):
        rng = np.random.default_rng(4)
        for shape in ((8, 3), (8, 3, 2, 2)):
            x = rng.normal(size=shape) * 2 + 1
            layer = AlignmentLayer(3, 1, AlignConfig(eps=1e-5, affine=False))
            y, _ = layer.forward(x, raw_assignment(np.ones((8, 1))))
            np.testing.assert_allclose(y, reference_batchnorm(x, 1e-5), atol=1e-12)

    def test_hard_partition_equals_per_domain_batchnorm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 2))
        sizes = [2, 3, 4]
        w = np.zeros((9, 3))
        start = 0
        for d, size in enumerate(sizes):
            w[start : start + size, d] = 1.0
            start += size
        layer = AlignmentLayer(2, 3, AlignConfig(eps=1e-5, affine=False))
        y, _ = layer.forward(x, raw_assignment(w))
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            np.testing.assert_allclose(y[block], reference_batchnorm(x[block], 1e-5), atol=1e-12)
            start += size

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 2))
        w = rng.dirichlet(np.ones(3), size=7)
        perm = rng.permutation(7)
        layer = AlignmentLayer(2, 3, AlignConfig(affine=False))
        y, _ = layer.forward(x, raw_assignment(w), update_running=False)
        y_perm, _ = layer.forward(x[perm], raw_assignment(w[perm]), update_running=False)
        np.testing.assert_allclose(y_perm, y[perm], atol=1e-12)

    def test_scale_invariance_at_vanishing_eps(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 2))
        w = rng.dirichlet(np.ones(2), size=6)
        layer = AlignmentLayer(2, 2, AlignConfig(eps=EPS_OFF, affine=False))
        y1, _ = layer.forward(x, raw_assignment(w), update_running=False)
        y2, _ = layer.forward(3.7 * x, raw_assignment(w), update_running=False)
        np.testing.assert_allclose(y1, y2, atol=1e-9)

    def test_per_domain_moment_property(self):
        rng = np.random.default_rng(8)
        eps = 1e-3
        x = rng.normal(size=(10, 2, 2, 2)) * 1.5
        w = rng.dirichlet(np.ones(3), size=10)
        aw = compute_alpha(w)
        stats = weighted_moments(x, aw)
        xr = x.reshape(10, 2, -1)
        m = xr.shape[2]
        for d in range(3):
            xhat = (xr - stats.mean[d][None, :, None]) / np.sqrt(stats.var[d][None, :, None] + eps)
            weighted = aw.alpha[:, d][:, None, None] / m
            np.testing.assert_allclose((weighted * xhat).sum(axis=(0, 2)), 0.0, atol=1e-9)
            np.testing.assert_allclose(
                (weighted * xhat**2).sum(axis=(0, 2)),
                stats.var[d] / (stats.var[d] + eps),
                atol=1e-9,
            )

    def test_running_stats_update(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 2)) + 5.0
        layer = AlignmentLayer(2, 1)
        aw = compute_alpha(np.ones((8, 1)))
        stats = weighted_moments(x, aw)
        layer.forward(x, raw_assignment(np.ones((8, 1))))
        np.testing.assert_allclose(layer.running.mean[0], 0.9 * 0.0 + 0.1 * stats.mean[0], atol=1e-12)
        np.testing.assert_allclose(layer.running.var[0], 0.9 * 1.0 + 0.1 * stats.var[0], atol=1e-12)
        assert layer.running.count[0] == 1

    def test_forward_without_update_leaves_state(self):
        layer = AlignmentLayer(1, 1)
        x = np.random.default_rng(0).normal(size=(4, 1))
        layer.forward(x, raw_assignment(np.ones((4, 1))), update_running=False)
        assert layer.running.count[0] == 0

    def test_fallback_to_running_stats(self):
        layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
        layer.running.mean[1] = 10.0
        layer.running.var[1] = 4.0
        layer.running.count[1] = 1
        x = np.array([[12.0], [14.0]])
        # second column mass is below the threshold but not exactly zero
        w = np.array([[1.0 - 1e-9, 1e-9], [1.0, 0.0]])
        y, _ = layer.forward(x, raw_assignment(w))
        expected_d0 = reference_batchnorm(x, EPS_OFF)
        expected = w[:, [0]] * expected_d0 + w[:, [1]] * (x - 10.0) / 2.0
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_fallback_without_running_stats_raises(self):
        layer = AlignmentLayer(1, 2)
        x = np.array([[1.0], [2.0]])
        w = np.array([[1.0 - 1e-9, 1e-9], [1.0, 0.0]])
        with pytest.raises(UninitializedStatsError):
            layer.forward(x, raw_assignment(w))

    def test_shared_alpha_gives_the_layer_own_bytes_and_must_match(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        assignment = raw_assignment(rng.uniform(0.1, 1.0, size=(6, 2)))
        layer = AlignmentLayer(2, 2)
        y_own, _ = layer.forward(x, assignment, update_running=False)
        y_shared, _ = layer.forward(x, assignment, update_running=False, aw=layer.alpha(assignment))
        assert y_shared.tobytes() == y_own.tobytes()
        other = raw_assignment(rng.uniform(0.1, 1.0, size=(5, 2)))
        with pytest.raises(ValueError, match="alpha weights"):
            layer.forward(x, assignment, aw=layer.alpha(other))

    def test_wrong_domain_count_rejected(self):
        layer = AlignmentLayer(1, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 1)), raw_assignment(np.ones((3, 3)) / 3))


class TestRunningStats:
    @pytest.mark.parametrize("dead", [None, 1])
    def test_update_matches_masked_formula(self, dead):
        """Live domains get the bytes of the masked formula at RUNNING_MOMENTUM; dead ones keep theirs."""
        rng = np.random.default_rng(70)
        running = RunningStats(3, 5)
        mean, var = running.mean.copy(), running.var.copy()
        live = np.ones(3, dtype=bool)
        if dead is not None:
            live[dead] = False
        m = RUNNING_MOMENTUM
        for _ in range(3):
            stats = DomainStats(mean=rng.normal(size=(3, 5)), var=rng.uniform(0.1, 2.0, size=(3, 5)), live=live)
            np.copyto(mean, (1.0 - m) * mean + m * stats.mean, where=live[:, None])
            np.copyto(var, (1.0 - m) * var + m * stats.var, where=live[:, None])
            running.update(stats)
            assert running.mean.tobytes() == mean.tobytes()
            assert running.var.tobytes() == var.tobytes()
        assert running.count.tolist() == [3 if d else 0 for d in live]


def random_assignment(rng, b, k, mixed):
    """Rows over k source domains plus the target column.

    Always includes some fixed target rows so the target column is live; in
    mixed mode some source rows are fixed one-hot as well.  Free rows are
    strictly positive in every column so central differences never step
    outside the non-negative domain.
    """
    n_fixed_target = max(1, b // 4)
    probs = np.zeros((b, k + 1))
    fixed = np.zeros(b, dtype=bool)
    probs[:n_fixed_target, k] = 1.0
    fixed[:n_fixed_target] = True
    row = n_fixed_target
    if mixed:
        n_known = max(1, b // 4)
        for i in range(row, row + n_known):
            probs[i, rng.integers(0, k)] = 1.0
            fixed[i] = True
        row += n_known
    soft = rng.dirichlet(np.ones(k + 1) * 2.0, size=b - row)
    probs[row:] = (soft + 0.02) / (1.0 + 0.02 * (k + 1))
    return probs, fixed


class TestBackward:
    def test_batchnorm_two_sample_gradient_vanishes(self):
        # with b=2 the normalized output is the constant pair (-1, 1), so the
        # input gradient of plain batch norm is exactly zero
        x = np.array([[1.0], [3.0]])
        layer = AlignmentLayer(1, 1, AlignConfig(eps=EPS_OFF, affine=False))
        y, cache = layer.forward(x, raw_assignment(np.ones((2, 1))))
        np.testing.assert_allclose(y[:, 0], [-1.0, 1.0], atol=1e-12)
        grad_x, _, _, _ = layer.backward(cache, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(grad_x, 0.0, atol=1e-12)

    def test_zero_upstream_zeroes_everything(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 2))
        w = rng.dirichlet(np.ones(2), size=5)
        layer = AlignmentLayer(2, 2, AlignConfig(affine=True))
        _, cache = layer.forward(x, raw_assignment(w))
        grad_x, grad_w, grad_gamma, grad_beta = layer.backward(cache, np.zeros_like(x))
        assert not grad_x.any() and not grad_w.any()
        assert not grad_gamma.any() and not grad_beta.any()

    def test_symmetric_case_has_equal_weight_gradients(self):
        x = np.array([[0.0], [2.0]])
        w = np.full((2, 2), 0.5)
        layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
        _, cache = layer.forward(x, raw_assignment(w))
        _, grad_w, _, _ = layer.backward(cache, np.array([[1.0], [-0.5]]))
        np.testing.assert_allclose(grad_w[:, 0], grad_w[:, 1], atol=1e-12)

    def test_fixed_rows_receive_zero_gradient(self):
        rng = np.random.default_rng(11)
        probs, fixed = random_assignment(rng, 8, 2, mixed=True)
        x = rng.normal(size=(8, 3))
        layer = AlignmentLayer(3, 3)
        _, cache = layer.forward(x, raw_assignment(probs, fixed))
        _, grad_w, _, _ = layer.backward(cache, rng.normal(size=x.shape))
        assert not grad_w[fixed].any()
        assert grad_w[~fixed].any()

    @pytest.mark.parametrize("rank", [2, 4])
    def test_all_fixed_gradients_match_finite_differences(self, rank):
        """With every row fixed, grad_x, grad_gamma and grad_beta stay exact and grad_w is zero.

        The oracle grid always has free rows, so it never takes this path.
        """
        rng = np.random.default_rng(60 + rank)
        b, c, tol = 9, 3, 1e-5
        shape = (b, c) if rank == 2 else (b, c, 2, 2)
        probs = np.zeros((b, 3))
        probs[np.arange(5), [0, 1, 2, 0, 2]] = 1.0
        probs[5:] = rng.dirichlet(np.ones(3), size=b - 5)
        assignment = raw_assignment(probs, np.ones(b, dtype=bool))
        layer = AlignmentLayer(c, 3, AlignConfig(affine=True))
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
        layer.beta.value[...] = rng.normal(size=c) * 0.3
        x = rng.normal(size=shape)
        probe = rng.normal(size=shape)

        def loss():
            y, _ = layer.forward(x, assignment, update_running=False)
            return float((y * probe).sum())

        _, cache = layer.forward(x, assignment, update_running=False)
        grad_x, grad_w, grad_gamma, grad_beta = layer.backward(cache, probe)
        assert not grad_w.any()
        assert max_relative_error(grad_x, central_difference(loss, x)) <= tol
        assert max_relative_error(grad_gamma, central_difference(loss, layer.gamma.value)) <= tol
        assert max_relative_error(grad_beta, central_difference(loss, layer.beta.value)) <= tol

    def test_gradient_oracle_grid(self):
        """Analytic gradients vs central finite differences over >= 20 configs."""
        tol = 1e-5
        case = 0
        for b in (4, 8):
            for k in (1, 2, 3):
                for c in (1, 3):
                    for rank in (2, 4):
                        rng = np.random.default_rng(100 + case)
                        mixed = case % 2 == 0
                        case += 1
                        shape = (b, c) if rank == 2 else (b, c, 2, 2)
                        x = rng.normal(size=shape)
                        probs, fixed = random_assignment(rng, b, k, mixed)
                        layer = AlignmentLayer(c, k + 1, AlignConfig(affine=True))
                        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
                        layer.beta.value[...] = rng.normal(size=c) * 0.3
                        probe = rng.normal(size=shape)
                        free = ~fixed
                        free_probs = probs[free].copy()

                        def loss():
                            w_full = probs.copy()
                            w_full[free] = free_probs
                            y, _ = layer.forward(
                                x, raw_assignment(w_full, fixed), update_running=False
                            )
                            return float((y * probe).sum())

                        _, cache = layer.forward(
                            x, raw_assignment(probs, fixed), update_running=False
                        )
                        grad_x, grad_w, grad_gamma, grad_beta = layer.backward(cache, probe)

                        assert max_relative_error(grad_x, central_difference(loss, x)) <= tol
                        assert (
                            max_relative_error(grad_w[free], central_difference(loss, free_probs))
                            <= tol
                        )
                        assert (
                            max_relative_error(grad_gamma, central_difference(loss, layer.gamma.value))
                            <= tol
                        )
                        assert (
                            max_relative_error(grad_beta, central_difference(loss, layer.beta.value))
                            <= tol
                        )
        assert case >= 20


def first_reference_step(layer, x, assignment, grad_out):
    """forward() then backward() in the layer's first arithmetic, computed in x's dtype, every temporary unfused.

    The mix y_mix = sum_d w_d (x - mean_d) / sigma_d is formed, scaled by
    gamma and shifted by beta; backward reads gamma * grad_out and the mix
    (for grad_gamma) and takes three alpha products for grad_x.  Returns
    (y, grad_x, grad_w, grad_gamma, grad_beta).  Reads the layer's
    parameters and running statistics and changes neither.
    """
    w = assignment.probs.astype(x.dtype)
    xr = x.reshape(x.shape[0], x.shape[1], -1)
    total = w.sum(axis=0)
    live = total > layer.cfg.zero_mass_threshold
    alpha = np.where(live, w / np.where(live, total, 1.0), 0.0)
    mean = alpha.T @ xr.mean(axis=2)
    var = np.maximum(alpha.T @ (xr**2).mean(axis=2) - mean**2, 0.0)
    mean[~live] = 0.0
    var[~live] = 0.0
    fallback = ~live & (w.max(axis=0) > 0.0)
    mean[fallback] = layer.running.mean[fallback]
    var[fallback] = layer.running.var[fallback]
    used = live | fallback
    inv_std = np.zeros_like(mean)
    inv_std[used] = 1.0 / np.sqrt(var[used] + layer.cfg.eps)
    mix_scale = w @ inv_std
    y_mix = mix_scale[:, :, None] * xr - (w @ (mean * inv_std))[:, :, None]

    gr = grad_out.reshape(xr.shape).astype(x.dtype)
    if layer.cfg.affine:
        y = layer.gamma.value[None, :, None] * y_mix + layer.beta.value[None, :, None]
        grad_gamma = (gr * y_mix).sum(axis=(0, 2))
        grad_beta = gr.sum(axis=(0, 2))
        gy = gr * layer.gamma.value[None, :, None]
    else:
        y, grad_gamma, grad_beta, gy = y_mix, None, None, gr
    n_pos = xr.shape[2]
    gy_sum = gy.sum(axis=2)
    gyx_sum = (gy * xr).sum(axis=2)
    g1 = w.T @ gy_sum
    g2 = (w.T @ gyx_sum - mean * g1) * inv_std
    c1 = alpha[:, live] @ (g1 * inv_std)[live]
    c2 = alpha[:, live] @ (g2 * inv_std**2)[live]
    c3 = alpha[:, live] @ (mean * g2 * inv_std**2)[live]
    grad_x = gy * mix_scale[:, :, None] - (c1[:, :, None] + xr * c2[:, :, None] - c3[:, :, None]) / n_pos
    grad_w = gyx_sum @ inv_std.T - gy_sum @ (mean * inv_std).T
    if live.any():
        sample_mean = xr.mean(axis=2)
        sample_sq = (xr**2).mean(axis=2)
        h1 = (g1 * inv_std)[live]
        h2 = (g2 * inv_std**2 / 2.0)[live]
        mu = mean[live]
        g_alpha = -(
            sample_mean @ h1.T
            + sample_sq @ h2.T
            - 2.0 * sample_mean @ (mu * h2).T
            + (mu**2 * h2).sum(axis=1)[None, :]
        )
        colsum = (alpha[:, live] * g_alpha).sum(axis=0)
        grad_w[:, live] += (g_alpha - colsum[None, :]) / total[live][None, :]
    grad_w[assignment.fixed] = 0.0
    return y.reshape(x.shape), grad_x.reshape(x.shape), grad_w, grad_gamma, grad_beta


def reference_step(layer, x, assignment, grad_out):
    """forward() then backward() in the layer's arithmetic, every temporary unfused, moments recomputed.

    gamma is folded into 1/sigma, s = inv_std * gamma, and backward builds
    every path from the per-domain reductions P and Q of grad_out.  grad_w
    is built on the free rows only, with the closed-form column term
    mean . u + mean_sq . h of the projection through alpha.  Returns
    (y, grad_x, grad_w, grad_gamma, grad_beta).  Reads the layer's
    parameters and running statistics and changes neither.
    """
    w = assignment.probs
    xr = x.reshape(x.shape[0], x.shape[1], -1)
    aw = compute_alpha(w, layer.cfg.zero_mass_threshold)
    mean = aw.alpha.T @ xr.mean(axis=2)
    mean_sq = aw.alpha.T @ (xr**2).mean(axis=2)
    var = np.maximum(mean_sq - mean**2, 0.0)
    mean[~aw.live] = 0.0
    var[~aw.live] = 0.0
    fallback = ~aw.live & (w.max(axis=0) > 0.0)
    mean[fallback] = layer.running.mean[fallback]
    var[fallback] = layer.running.var[fallback]
    used = aw.live | fallback
    inv_std = np.zeros_like(mean)
    inv_std[used] = 1.0 / np.sqrt(var[used] + layer.cfg.eps)
    scale = inv_std * layer.gamma.value if layer.cfg.affine else inv_std
    y = xr * (w @ scale)[:, :, None] - (w @ (mean * scale))[:, :, None]
    if layer.cfg.affine:
        y = y + layer.beta.value[None, :, None]

    gr = grad_out.reshape(xr.shape)
    g_sum = gr.sum(axis=2)
    gx_sum = (gr * xr).sum(axis=2)
    p = w.T @ g_sum
    q = (w.T @ gx_sum - mean * p) * inv_std
    if layer.cfg.affine:
        grad_gamma = q.sum(axis=0)
        grad_beta = g_sum.sum(axis=0)
        g1 = p * layer.gamma.value
        g2 = q * layer.gamma.value
    else:
        grad_gamma, grad_beta, g1, g2 = None, None, p, q
    alpha, live, n_pos = aw.alpha, aw.live, xr.shape[2]
    v = (g2 * inv_std**2)[live]
    u = (g1 * inv_std)[live] - mean[live] * v
    paths = xr * (alpha[:, live] @ v)[:, :, None] + (alpha[:, live] @ u)[:, :, None]
    grad_x = gr * (w @ scale)[:, :, None] - paths / n_pos
    grad_w = np.zeros_like(w)
    free = ~assignment.fixed
    if free.any():
        grad_free = gx_sum[free] @ scale.T.copy() - g_sum[free] @ (mean * scale).T.copy()
        sample_mean = xr[free].mean(axis=2)
        sample_sq = (xr[free] ** 2).mean(axis=2)
        h = v / 2.0
        through = sample_mean @ u.T.copy() + sample_sq @ h.T.copy()
        column = (mean[live] * u + mean_sq[live] * h).sum(axis=1)
        grad_free[:, live] += (column - through) / aw.total_weight[live]
        grad_w[free] = grad_free
    return y.reshape(x.shape), grad_x.reshape(x.shape), grad_w, grad_gamma, grad_beta


def reference_infer(layer, x, w):
    """infer() in the layer's arithmetic: forward's gamma-folded mix over the running statistics, temporaries apart."""
    xr = x.reshape(x.shape[0], x.shape[1], -1)
    needed = w.max(axis=0) > 0.0
    inv_std = np.zeros_like(layer.running.mean)
    inv_std[needed] = 1.0 / np.sqrt(layer.running.var[needed] + layer.cfg.eps)
    scale = inv_std * layer.gamma.value if layer.cfg.affine else inv_std
    y = xr * (w @ scale)[:, :, None] - (w @ (layer.running.mean * scale))[:, :, None]
    if layer.cfg.affine:
        y = y + layer.beta.value[None, :, None]
    return y.reshape(x.shape)


class TestReferenceArithmetic:
    @pytest.mark.parametrize(
        "affine, rank, all_fixed",
        [
            pytest.param(affine, rank, all_fixed, id=f"{affine}-{rank}" + ("-all_fixed" if all_fixed else ""))
            for all_fixed in (False, True)
            for affine in (True, False)
            for rank in (2, 4)
        ],
    )
    def test_bit_identical_to_reference(self, affine, rank, all_fixed):
        """Columns: two live, one dead (no weight), one falling back to running statistics.

        Rows 0-3 are fixed, or every row when all_fixed; then backward
        returns zeros for grad_w without building it.
        """
        rng = np.random.default_rng(30 + rank + affine)
        b, c = 24, 7
        shape = (b, c) if rank == 2 else (b, c, 3, 2)
        layer = AlignmentLayer(c, 4, AlignConfig(affine=affine))
        if affine:
            layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
            layer.beta.value[...] = rng.normal(size=c)
        layer.forward(rng.normal(size=shape) * 2.0 + 1.0, raw_assignment(np.full((b, 4), 0.25)))

        probs = np.zeros((b, 4))
        probs[:, :2] = rng.dirichlet(np.ones(2), size=b)
        probs[:4] = [1.0, 0.0, 0.0, 0.0]
        probs[4:7, 3] = 1e-9
        fixed = np.zeros(b, dtype=bool)
        fixed[: b if all_fixed else 4] = True
        assignment = raw_assignment(probs, fixed)
        x = rng.normal(size=shape) * 3.0 - 0.5
        probe = rng.normal(size=shape)

        expected = reference_step(layer, x, assignment, probe)
        y, cache = layer.forward(x, assignment)
        got = (y,) + layer.backward(cache, probe)
        assert not cache.aw.live[2] and not cache.aw.live[3] and cache.inv_std[3].all()
        assert got[2].any() != all_fixed
        for name, e, g in zip(("y", "grad_x", "grad_w", "grad_gamma", "grad_beta"), expected, got):
            if e is None:
                assert g is None, name
            else:
                assert np.array_equal(e, g), name

    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
    @pytest.mark.parametrize("rank", [2, 4])
    def test_infer_bit_identical_to_reference(self, affine, rank):
        """Columns: three used with running statistics, one that no row uses and that was never estimated."""
        rng = np.random.default_rng(40 + rank + affine)
        b, c = 24, 7
        shape = (b, c) if rank == 2 else (b, c, 3, 2)
        layer = AlignmentLayer(c, 4, AlignConfig(affine=affine))
        if affine:
            layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
            layer.beta.value[...] = rng.normal(size=c)
        layer.running.mean[...] = rng.normal(size=(4, c))
        layer.running.var[...] = rng.uniform(0.2, 3.0, size=(4, c))
        layer.running.count[:3] = 1
        probs = np.zeros((b, 4))
        probs[:, :3] = rng.dirichlet(np.ones(3), size=b)
        probs[:4, :3] = np.eye(3)[[0, 1, 2, 0]]
        x = rng.normal(size=shape) * 3.0 - 0.5

        expected = reference_infer(layer, x, probs)
        got = layer.infer(x, raw_assignment(probs))
        assert got.shape == x.shape
        assert np.array_equal(expected, got)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble is float64 here, so it gives no reference more exact than either arithmetic",
    )
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e3])
    def test_no_less_accurate_than_the_first_arithmetic(self, offset):
        """At 512 x 256 with k = 5 plus the target, every output is within 2x of the first arithmetic's error.

        Errors are the largest deviation from first_reference_step run in
        np.longdouble, over the largest magnitude of that reference.
        """
        rng = np.random.default_rng(23)
        b, c, k = 512, 256, 5
        layer = AlignmentLayer(c, k + 1)
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
        layer.beta.value[...] = rng.normal(size=c)
        probs = np.zeros((b, k + 1))
        probs[: b // 2, :k] = rng.dirichlet(np.ones(k), size=b // 2)
        probs[b // 2 :, k] = 1.0
        assignment = Assignment(probs, np.arange(b) >= b // 2)
        x = rng.normal(size=(b, c)) + offset
        probe = rng.normal(size=(b, c))

        exact = first_reference_step(layer, x.astype(np.longdouble), assignment, probe)
        first = first_reference_step(layer, x, assignment, probe)
        y, cache = layer.forward(x, assignment, update_running=False)
        got = (y,) + layer.backward(cache, probe)
        for name, e, f, g in zip(("y", "grad_x", "grad_w", "grad_gamma", "grad_beta"), exact, first, got):
            scale = np.abs(e).max()
            first_err = float(np.abs(f - e).max() / scale)
            err = float(np.abs(g - e).max() / scale)
            assert err <= 2.0 * first_err, f"{name}: {err:.2e} against {first_err:.2e}"

    def test_backward_leaves_the_callers_gradient_alone(self):
        """backward(cache, g) only reads g: the gradient audit hands the same probe to its loss afterwards."""
        rng = np.random.default_rng(24)
        for shape in ((12, 5), (12, 5, 2, 3)):
            layer = AlignmentLayer(5, 3)
            probs = rng.dirichlet(np.ones(3), size=12)
            _, cache = layer.forward(rng.normal(size=shape), raw_assignment(probs))
            probe = rng.normal(size=shape)
            kept = probe.copy()
            layer.backward(cache, probe)
            assert np.array_equal(probe, kept)


class TestInfer:
    def test_standard_running_stats_give_identity(self):
        layer = AlignmentLayer(2, 1, AlignConfig(eps=EPS_OFF, affine=False))
        layer.running.count[0] = 1  # mean 0, var 1 as initialized
        x = np.random.default_rng(12).normal(size=(5, 2))
        np.testing.assert_allclose(layer.infer(x, raw_assignment(np.ones((5, 1)))), x, atol=1e-12)

    def test_single_target_sample(self):
        layer = AlignmentLayer(1, 2, AlignConfig(eps=EPS_OFF, affine=False))
        layer.running.mean[1] = 3.0
        layer.running.var[1] = 4.0
        layer.running.count[1] = 1
        w = np.array([[0.0, 1.0]])
        y = layer.infer(np.array([[7.0]]), raw_assignment(w, np.array([True])))
        np.testing.assert_allclose(y, [[2.0]], atol=1e-12)

    def test_substitution_identity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 2))
        w = rng.dirichlet(np.ones(2), size=6)
        layer = AlignmentLayer(2, 2, AlignConfig(affine=True))
        layer.gamma.value[...] = [1.3, 0.7]
        layer.beta.value[...] = [0.2, -0.1]
        stats = weighted_moments(x, compute_alpha(w))
        layer.running.mean[...] = stats.mean
        layer.running.var[...] = stats.var
        layer.running.count[...] = 1
        y_train, _ = layer.forward(x, raw_assignment(w), update_running=False)
        y_infer = layer.infer(x, raw_assignment(w))
        np.testing.assert_allclose(y_infer, y_train, atol=1e-12)

    def test_uninitialized_domain_raises(self):
        layer = AlignmentLayer(1, 2)
        with pytest.raises(UninitializedStatsError):
            layer.infer(np.zeros((2, 1)), raw_assignment(np.full((2, 2), 0.5)))

    def test_no_state_mutation(self):
        layer = AlignmentLayer(1, 1)
        layer.running.count[0] = 3
        before = layer.running.mean.copy()
        layer.infer(np.ones((2, 1)), raw_assignment(np.ones((2, 1))))
        np.testing.assert_array_equal(layer.running.mean, before)
        assert layer.running.count[0] == 3
