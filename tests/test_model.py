"""Network orchestration: reductions, coupling, end-to-end gradients, checkpoints."""

import copy
import dataclasses
import json
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mdalign.alignment import AlignConfig, weighted_moments
from mdalign.assignment import KNOWN_CODE, TARGET_CODE, UNKNOWN_CODE, Assignment
from mdalign.data import Batch, BatchSpec, Split, SynthConfig, make_batch, synth_make
from mdalign import model as mmodel
from mdalign import training as mtraining
from mdalign.losses import LossWeights
from mdalign.model import (
    EVAL_BLOCK_ROWS,
    CheckpointError,
    Model,
    ModelConfig,
    backward_train,
    calibrate_predictor,
    compute_loss,
    forward_eval,
    forward_train,
    load_checkpoint,
    row_blocks,
    save_checkpoint,
    split_trunk,
)
from mdalign.primitives import (
    central_difference,
    dense_backward,
    dense_forward,
    max_relative_error,
    relu_forward,
    softmax,
)
from mdalign.training import TrainConfig, metrics_csv_lines, train

E2E_TOL = 1e-4


def make_mixed_batch(rng, n_known=2, n_unknown=2, n_target=2, dim=4, classes=3, k=2):
    """Known-source rows (domain i % k), then unknown-source rows, then target rows.

    Each source row draws its features, then its label; target rows draw features only.
    """
    source = [(rng.normal(size=dim), rng.integers(0, classes)) for _ in range(n_known + n_unknown)]
    target = rng.normal(size=(n_target, dim))
    return make_batch(
        Split.of(
            np.vstack([x for x, _ in source] + [target]),
            kinds=[KNOWN_CODE] * n_known + [UNKNOWN_CODE] * n_unknown + [TARGET_CODE] * n_target,
            class_labels=[y for _, y in source] + [-1] * n_target,
            known_domains=[i % k for i in range(n_known)] + [-1] * (n_unknown + n_target),
        )
    )


def first_rows(batch, n):
    return Batch(batch.features[:n], batch.class_labels[:n], batch.kinds[:n], batch.known_domains[:n])


def tiny_config(**overrides):
    base = dict(
        in_dim=4,
        n_classes=3,
        k=2,
        trunk_widths=(6,),
        classifier_widths=(5,),
        branch_hidden=4,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_default_placement_covers_all_affines(self):
        model = Model(tiny_config())
        assert sorted(model.align_layers) == [0, 1]

    def test_param_groups_cover_everything(self):
        model = Model(tiny_config())
        groups = model.param_groups()
        assert set(groups) == {"trunk", "classifier", "mda_affine", "branch"}
        total = sum(len(v) for v in groups.values())
        assert total == len(model.parameters())


class TestForwardTrain:
    def test_class_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = Model(tiny_config())
        record = forward_train(model, make_mixed_batch(rng))
        np.testing.assert_allclose(record.class_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_needs_a_source_sample(self):
        rng = np.random.default_rng(1)
        batch = make_mixed_batch(rng, n_known=0, n_unknown=0, n_target=3)
        with pytest.raises(ValueError):
            forward_train(Model(tiny_config()), batch)

    def test_rank_4_features_rejected(self):
        batch = make_mixed_batch(np.random.default_rng(1))
        spatial = Batch(batch.features[:, :, None, None], batch.class_labels, batch.kinds, batch.known_domains)
        with pytest.raises(ValueError, match="dense shapes incompatible"):
            forward_train(Model(tiny_config()), spatial)

    def test_active_entropy_weight_needs_target_samples(self):
        rng = np.random.default_rng(1)
        batch = make_mixed_batch(rng, n_known=2, n_unknown=2, n_target=0)
        model = Model(tiny_config())
        record = forward_train(model, batch)
        with pytest.raises(ValueError):
            compute_loss(record, batch, LossWeights(class_entropy=0.2))
        quiet = compute_loss(record, batch, LossWeights(class_entropy=0.0))
        assert quiet.class_entropy == 0.0

    def test_known_rows_fixed_and_unknown_rows_free(self):
        rng = np.random.default_rng(2)
        batch = make_mixed_batch(rng)
        record = forward_train(Model(tiny_config()), batch)
        is_target = np.arange(batch.size) >= batch.n_source
        np.testing.assert_array_equal(record.assignment.fixed, batch.known_mask | is_target)

    def test_all_known_single_domain_equals_plain_batchnorm_network(self):
        """k=1 with every row hard-assigned reduces to a plain-BN network."""
        rng = np.random.default_rng(3)
        batch = make_mixed_batch(rng, n_known=8, n_unknown=0, n_target=0, k=1)
        model = Model(tiny_config(k=1))
        record = forward_train(model, batch)

        def reference_bn(z, eps):
            mu = z.mean(axis=0)
            var = z.var(axis=0)
            return (z - mu) / np.sqrt(var + eps)

        h = batch.features
        for layer in model.trunk:
            h = relu_forward(dense_forward(h, layer.weight.value, layer.bias.value))
        eps = AlignConfig().eps  # every model's alignment layers take the default
        for j, layer in enumerate(model.classifier):
            z = dense_forward(h, layer.weight.value, layer.bias.value)
            al = model.align_layers[j]
            z = al.gamma.value * reference_bn(z, eps) + al.beta.value
            h = relu_forward(z) if j < len(model.classifier) - 1 else z
        expected = softmax(h)
        np.testing.assert_allclose(record.class_probs, expected, atol=1e-9)

    def test_whole_batch_mode_couples_source_outputs_to_target_samples(self):
        """Unified normalization mixes target activations into source rows."""
        rng = np.random.default_rng(4)
        model = Model(tiny_config(whole_batch_norm=True))
        batch_with = make_mixed_batch(rng, n_known=0, n_unknown=4, n_target=4)
        shifted = batch_with.features.copy()
        shifted[4:] += 3.0  # push the target samples off-distribution
        batch_with = Batch(shifted, batch_with.class_labels, batch_with.kinds, batch_with.known_domains)
        batch_without = first_rows(batch_with, 4)
        with_targets = forward_train(model, batch_with, update_running=False)
        without_targets = forward_train(model, batch_without, update_running=False)
        gap = np.abs(with_targets.class_probs[:4] - without_targets.class_probs).max()
        assert gap > 1e-4

    def test_per_domain_mode_isolates_source_outputs_within_one_forward(self):
        # per-domain statistics give source rows no weight on the target
        # column, so coupling to target data happens through training, not
        # through a single forward pass
        rng = np.random.default_rng(5)
        model = Model(tiny_config())
        batch_with = make_mixed_batch(rng, n_known=2, n_unknown=2, n_target=3)
        source_only = first_rows(batch_with, 4)
        with_targets = forward_train(model, batch_with, update_running=False)
        without_targets = forward_train(model, source_only, update_running=False)
        np.testing.assert_allclose(
            with_targets.class_probs[:4], without_targets.class_probs, atol=1e-12
        )

    def test_target_samples_couple_through_training_dynamics(self):
        from mdalign.training import sgd_step

        rng = np.random.default_rng(6)
        batch = make_mixed_batch(rng, n_known=2, n_unknown=2, n_target=3)
        source_only = first_rows(batch, 4)
        weights = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)
        no_target_weights = LossWeights(domain_ce=0.5, class_entropy=0.0, domain_entropy=0.2)
        probs = []
        for train_batch, w in ((batch, weights), (source_only, no_target_weights)):
            model = Model(tiny_config())
            for _ in range(3):
                record = forward_train(model, train_batch)
                backward_train(model, record, train_batch, w)
                sgd_step(model.parameters(), lr=0.1)
            probs.append(forward_train(model, source_only, update_running=False).class_probs)
        assert np.abs(probs[0] - probs[1]).max() > 1e-6

    def test_record_keeps_what_backward_reads(self):
        """A training record's arrays take about 2 b c floats per aligned hidden layer.

        Allowed, in float64s: the features, b in_dim; the trunk's ReLU outputs,
        b sum(trunk); each hidden layer's dense and ReLU outputs, 2 b c; the
        branch's rows, b (trunk[-1] + 2 branch_hidden); and 16 b (k + 1 +
        n_classes) for the narrow per-row and per-domain arrays.  Keeping the
        pre-activations, the mix and the per-sample moments besides read 13.9 MiB
        against a bound of 6.4 MiB at this size.
        """
        b = 512
        cfg = ModelConfig(
            in_dim=32, n_classes=6, k=5, trunk_widths=(128,), classifier_widths=(256, 256), branch_hidden=64
        )
        rng = np.random.default_rng(19)
        batch = make_batch(
            Split.of(
                rng.normal(size=(b, cfg.in_dim)),
                kinds=[UNKNOWN_CODE] * (b // 2) + [TARGET_CODE] * (b // 2),
                class_labels=rng.integers(0, cfg.n_classes, b),
            )
        )
        record = forward_train(Model(cfg), batch)
        bases = {}

        def walk(obj, seen):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                bases[id(obj)] = obj.nbytes
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item, seen)
            elif hasattr(obj, "__dict__"):
                for item in vars(obj).values():
                    walk(item, seen)

        walk(record, set())
        floats = b * (
            cfg.in_dim
            + sum(cfg.trunk_widths)
            + 2 * sum(cfg.classifier_widths)
            + cfg.trunk_widths[-1]
            + 2 * cfg.branch_hidden
            + 16 * (cfg.k + 1 + cfg.n_classes)
        )
        assert sum(bases.values()) <= 8 * floats, sum(bases.values()) / 2**20


class TestBackwardTrain:
    def test_end_to_end_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        weights = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)

        record = forward_train(model, batch, update_running=False)
        backward_train(model, record, batch, weights)
        analytic = {name: p.grad.copy() for name, p in model.named_params()}

        def loss():
            rec = forward_train(model, batch, update_running=False)
            return compute_loss(rec, batch, weights).total

        for name, p in model.named_params():
            fd = central_difference(loss, p.value)
            err = max_relative_error(analytic[name], fd)
            assert err <= E2E_TOL, f"{name}: {err:.2e}"

    def test_assignment_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        weights = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)

        record = forward_train(model, batch, update_running=False)
        backward_train(model, record, batch, weights)
        probs = record.assignment.probs.copy()
        fixed = record.assignment.fixed.copy()
        free = ~fixed
        k = model.cfg.k
        free_cols = probs[free][:, :k].copy()

        def loss():
            w_full = probs.copy()
            w_full[np.ix_(free, np.arange(k))] = free_cols
            override = Assignment.unchecked(w_full, fixed)
            rec = forward_train(model, batch, assignment_override=override, update_running=False)
            return compute_loss(rec, batch, weights).total

        fd = central_difference(loss, free_cols)
        analytic = record.assignment.grad[free][:, :k]
        assert max_relative_error(analytic, fd) <= E2E_TOL

    def test_branch_gradients_vanish_when_all_domains_known(self):
        rng = np.random.default_rng(9)
        batch = make_mixed_batch(rng, n_known=6, n_unknown=0, n_target=0)
        model = Model(tiny_config())
        weights = LossWeights(domain_ce=0.0, class_entropy=0.0, domain_entropy=0.0)
        record = forward_train(model, batch)
        backward_train(model, record, batch, weights)
        for p in model.param_groups()["branch"]:
            assert not p.grad.any()

    def test_class_loss_ignores_branch_when_all_domains_known(self):
        rng = np.random.default_rng(10)
        batch = make_mixed_batch(rng, n_known=6, n_unknown=0, n_target=0)
        model = Model(tiny_config())
        weights = LossWeights(domain_ce=0.5, class_entropy=0.0, domain_entropy=0.0)
        before = compute_loss(forward_train(model, batch, update_running=False), batch, weights)
        model.branch.w1.value += 0.37
        model.branch.b2.value -= 1.1
        after = compute_loss(forward_train(model, batch, update_running=False), batch, weights)
        assert before.class_ce == pytest.approx(after.class_ce, abs=1e-12)
        assert before.domain_ce != pytest.approx(after.domain_ce, abs=1e-12)

    def test_compute_loss_matches_backward_train(self):
        rng = np.random.default_rng(15)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        weights = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)
        record = forward_train(model, batch, update_running=False)
        assert compute_loss(record, batch, weights) == backward_train(model, record, batch, weights)

    def test_trunk_gradients_are_produced(self):
        rng = np.random.default_rng(11)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        record = forward_train(model, batch)
        backward_train(model, record, batch, LossWeights())
        assert all(p.grad.any() for p in model.param_groups()["trunk"])


def assert_blocks_view_the_arena(model):
    for name, p in model.named_params():
        for attr in ("value", "grad", "momentum"):
            assert np.shares_memory(getattr(p, attr), getattr(model.flat, attr)), f"{name}.{attr}"


class TestWeightGradientWorker:
    """backward_train's dense weight gradients on the worker thread: the bits, the joins and the fork.

    No test model is wide enough to pass the offload rule's size threshold,
    so these tests lower the private threshold, and let the rule see two CPUs
    on any machine.
    """

    WEIGHTS = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)

    @staticmethod
    def gradients(model, batch):
        record = forward_train(model, batch, update_running=False)
        breakdown = backward_train(model, record, batch, TestWeightGradientWorker.WEIGHTS)
        return model.flat.grad.copy(), breakdown

    @pytest.fixture
    def jobs(self, monkeypatch):
        """Offload every product the rule allows; returns the list of (x, grad_out) shapes each job got.

        The serial path calls the same _weight_grads on the main thread; only
        the worker thread's calls are jobs.
        """
        monkeypatch.setattr(mmodel, "_OFFLOAD_MIN_MACS", 0)
        monkeypatch.setattr(mmodel, "_cpus", lambda: 2)
        shapes, real = [], mmodel._weight_grads

        def recording(x, grad_out, g_weight, g_bias):
            if threading.current_thread() is not threading.main_thread():
                shapes.append((x.shape, grad_out.shape))
            real(x, grad_out, g_weight, g_bias)

        monkeypatch.setattr(mmodel, "_weight_grads", recording)
        return shapes

    CASES = {
        "default model, mixed rows": (dict(in_dim=4, n_classes=3), dict(n_known=2, n_unknown=3, n_target=3)),
        "3-layer classifier, mixed rows": (
            dict(trunk_widths=(6, 5), classifier_widths=(5, 7)), dict(n_known=2, n_unknown=3, n_target=3),
        ),
        "default model, all rows fixed": (dict(in_dim=4, n_classes=3), dict(n_known=4, n_unknown=0, n_target=3)),
        "3-layer classifier, all rows fixed": (
            dict(trunk_widths=(6, 5), classifier_widths=(5, 7)), dict(n_known=4, n_unknown=0, n_target=3),
        ),
    }

    def test_weight_grads_give_the_bits_of_dense_backward_added_to_zeroed_views(self):
        rng = np.random.default_rng(30)
        x, grad_out, weight = np.abs(rng.normal(size=(9, 4))), rng.normal(size=(9, 3)), rng.normal(size=(4, 3))
        grad_out[:, 1] = -0.0
        expected_w, expected_b = np.zeros((4, 3)), np.zeros(3)
        _, g_w, g_b = dense_backward(x, weight, grad_out)
        expected_w += g_w
        expected_b += g_b
        g_weight, g_bias = np.zeros((4, 3)), np.zeros(3)
        mmodel._weight_grads(x, grad_out, g_weight, g_bias)
        assert g_weight.tobytes() == expected_w.tobytes() and g_bias.tobytes() == expected_b.tobytes()

    @pytest.mark.parametrize("case", list(CASES))
    def test_offloaded_products_give_the_bits_of_one_thread(self, monkeypatch, jobs, case):
        overrides, rows = self.CASES[case]
        cfg = ModelConfig(**overrides) if "in_dim" in overrides else tiny_config(**overrides)
        model = Model(cfg)
        batch = make_mixed_batch(np.random.default_rng(31), **rows)
        offloaded = self.gradients(model, batch)
        # every classifier layer and every trunk layer above the first: the first's input needs no gradient
        n_jobs = len(cfg.classifier_widths) + 1 + len(cfg.trunk_widths) - 1
        assert len(jobs) == n_jobs
        assert (batch.features.shape, (batch.size, cfg.trunk_widths[0])) not in jobs

        monkeypatch.setattr(mmodel, "_OFFLOAD_MIN_MACS", 1 << 62)
        serial = self.gradients(model, batch)
        monkeypatch.setattr(mmodel, "_OFFLOAD_MIN_MACS", 0)
        monkeypatch.setattr(mmodel, "_cpus", lambda: 1)
        one_cpu = self.gradients(model, batch)
        assert len(jobs) == n_jobs
        for grads, breakdown in (serial, one_cpu):
            assert grads.tobytes() == offloaded[0].tobytes()
            assert breakdown == offloaded[1]

    def test_a_layer_error_waits_for_the_queued_products(self, monkeypatch, jobs):
        model = Model(tiny_config(classifier_widths=(5, 7)))
        batch = make_mixed_batch(np.random.default_rng(32))
        finished, real = [], mmodel._weight_grads

        def slow(*args):
            time.sleep(0.2)
            real(*args)
            finished.append(True)

        def failing(cache, grad):
            raise RuntimeError("alignment layer 1 failed")

        monkeypatch.setattr(mmodel, "_weight_grads", slow)
        # layer 2's products are queued before layer 1's backward runs
        monkeypatch.setattr(model.align_layers[1], "backward", failing)
        with pytest.raises(RuntimeError, match="alignment layer 1 failed"):
            self.gradients(model, batch)
        assert finished == [True]
        after_return = model.flat.grad.copy()
        time.sleep(0.3)
        assert model.flat.grad.tobytes() == after_return.tobytes()

    def test_an_error_in_the_worker_surfaces(self, monkeypatch, jobs):
        model = Model(tiny_config())
        batch = make_mixed_batch(np.random.default_rng(33))
        real = mmodel._weight_grads

        def failing(*args):
            raise FloatingPointError("weight product failed")

        monkeypatch.setattr(mmodel, "_weight_grads", failing)
        with pytest.raises(FloatingPointError, match="weight product failed"):
            self.gradients(model, batch)
        # the worker survives its job's error
        monkeypatch.setattr(mmodel, "_weight_grads", real)
        offloaded = self.gradients(model, batch)
        monkeypatch.setattr(mmodel, "_OFFLOAD_MIN_MACS", 1 << 62)
        assert self.gradients(model, batch)[0].tobytes() == offloaded[0].tobytes()

    @staticmethod
    def in_forked_child(check) -> int:
        """Fork; the child exits 0 when check() is true, else 2 (1 when it raised); returns the child's exit code."""
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if check() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish within 30 s")
            time.sleep(0.01)
        return os.waitstatus_to_exitcode(reaped[1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, jobs):
        model = Model(tiny_config(classifier_widths=(5, 7)))
        batch = make_mixed_batch(np.random.default_rng(34))
        grads, _ = self.gradients(model, batch)
        assert jobs and mmodel._jobs is not None  # the parent's worker exists
        code = self.in_forked_child(lambda: self.gradients(model, batch)[0].tobytes() == grads.tobytes())
        assert code == 0, "the child's gradients differ from the parent's"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_trains_with_prefetch_on_its_own_worker(self, monkeypatch, jobs):
        """train's batch draws, like backward's products, go to the child's own worker, with the parent's bits."""
        monkeypatch.setattr(mtraining, "_PREFETCH_MIN_VALUES", 0)
        monkeypatch.setattr(mtraining, "_cpus", lambda: 2)
        data = synth_make(SynthConfig(n_latent_domains=2, n_classes=3, feature_dim=4, train_per_domain=30,
                                      test_per_domain=30, seed=35))
        cfg = TrainConfig(iterations=8, eval_every=4, batch=BatchSpec(source_quota=12, target_quota=12),
                          weights=self.WEIGHTS)

        def trained():
            model, rows = train(Model(tiny_config(classifier_widths=(5, 7))), data, cfg)
            return metrics_csv_lines(rows), model.flat.value.tobytes()

        parent = trained()
        assert jobs and mmodel._jobs is not None  # the parent's worker exists
        code = self.in_forked_child(lambda: trained() == parent)
        assert code == 0, "the child's training differs from the parent's"


class TestParameterArena:
    def test_blocks_view_the_arena_after_construction(self):
        model = Model(tiny_config())
        assert_blocks_view_the_arena(model)
        assert model.flat.value.size >= sum(p.value.size for p in model.parameters())

    def test_blocks_view_the_arena_after_load_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(Model(tiny_config(seed=4)), path)
        assert_blocks_view_the_arena(load_checkpoint(path))

    def test_blocks_view_the_arena_after_calibrate_predictor(self):
        model = Model(tiny_config())
        before = model.flat.value.copy()
        calibrate_predictor(model, make_mixed_batch(np.random.default_rng(16)))
        assert_blocks_view_the_arena(model)
        assert not np.array_equal(model.flat.value, before)

    def test_copy_gets_its_own_arena(self):
        model = Model(tiny_config())
        model.flat.momentum[...] = 0.5
        clone = copy.deepcopy(model)
        assert_blocks_view_the_arena(clone)
        assert not np.shares_memory(clone.flat.value, model.flat.value)
        for (_, p), (_, q) in zip(model.named_params(), clone.named_params()):
            np.testing.assert_array_equal(p.momentum, q.momentum)

    def test_zero_grads_clears_every_block(self):
        model = Model(tiny_config())
        rng = np.random.default_rng(17)
        batch = make_mixed_batch(rng)
        backward_train(model, forward_train(model, batch), batch, LossWeights())
        assert any(p.grad.any() for p in model.parameters())
        model.zero_grads()
        assert not model.flat.grad.any()


class TestForwardEval:
    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(12)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        forward_train(model, batch)  # populate running stats
        eval_batch = make_mixed_batch(rng)
        a = forward_eval(model, eval_batch)
        b = forward_eval(model, eval_batch)
        np.testing.assert_array_equal(a.class_probs, b.class_probs)

    def test_single_sample_batch_works(self):
        rng = np.random.default_rng(13)
        model = Model(tiny_config())
        forward_train(model, make_mixed_batch(rng))
        single = make_mixed_batch(rng, n_known=0, n_unknown=0, n_target=1)
        record = forward_eval(model, single)
        assert record.class_probs.shape == (1, 3)
        np.testing.assert_allclose(record.class_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_substitution_identity(self):
        # with the batch stats copied into the running stats, eval on the
        # same batch must reproduce the training outputs
        rng = np.random.default_rng(14)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        record = forward_train(model, batch, update_running=False)
        for layer, (_, cache, _) in zip(model.align_layers.values(), record.cls_caches):
            stats = weighted_moments(cache.xr[:, :, 0], cache.aw)
            assert stats.live.all()
            layer.running.mean[...] = stats.mean
            layer.running.var[...] = stats.var
            layer.running.count[...] = 1
        eval_record = forward_eval(model, batch)
        np.testing.assert_allclose(eval_record.class_probs, record.class_probs, atol=1e-9)

    @pytest.mark.parametrize("rows, widths", [(2000, (128, 128)), (1000, (64,)), (3000, (256, 256))])
    def test_whole_split_peak_memory(self, rows, widths):
        """A whole-split evaluation holds few activations at once: at most 3.5 arrays of the widest classifier layer.

        Its peak is the dense output, the alignment output and one [rows, width]
        mixing temporary; keeping the layer input and every partial result of
        the mix alive with them reads above 5.
        """
        rng = np.random.default_rng(18)
        cfg = ModelConfig(
            in_dim=8, n_classes=4, k=3, trunk_widths=(widths[0],), classifier_widths=widths, branch_hidden=16
        )
        model = Model(cfg)
        for layer in model.align_layers.values():
            layer.running.count[...] = 1  # mean 0, var 1 as initialized
        half = rows // 2
        batch = make_batch(
            Split.of(
                rng.normal(size=(rows, cfg.in_dim)),
                kinds=[UNKNOWN_CODE] * half + [TARGET_CODE] * (rows - half),
                class_labels=rng.integers(0, cfg.n_classes, rows),
            )
        )
        tracemalloc.start()
        try:
            forward_eval(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * rows * max(widths) * 8, peak / (rows * max(widths) * 8)

    def test_eval_without_stats_raises(self):
        rng = np.random.default_rng(15)
        model = Model(tiny_config())
        from mdalign.alignment import UninitializedStatsError

        with pytest.raises(UninitializedStatsError):
            forward_eval(model, make_mixed_batch(rng))


B = EVAL_BLOCK_ROWS


class TestBlockedTrunk:
    @pytest.mark.parametrize(
        "n", [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B - 1, 3 * B, 480, 3000, 7000, 21000]
    )
    def test_block_rule(self, n):
        """Blocks run in order over 0..n; from n = B on each holds B to 2B - 1 rows, below B all rows are one block."""
        blocks = row_blocks(n)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n
        if n < B:
            assert blocks == [slice(0, n)]
        else:
            assert all(B <= b.stop - b.start <= 2 * B - 1 for b in blocks), [b.stop - b.start for b in blocks]

    @pytest.mark.parametrize(
        "in_dim, width, rows, pixels",
        [
            (784, 64, 21000, True),  # digit_files source_train
            (784, 64, 7000, True),  # digit_files target_test
            (32, 128, 3000, False),  # wide_domains source_train
            (8, 64, 2 * B + 500, False),  # the pinned task, in use at 480 rows
            (25, 16, 2 * B + 500, True),  # demo 04, in use at 160 rows
        ],
        ids=["digit_files_source", "digit_files_target", "wide_domains", "pinned", "demo_04"],
    )
    def test_blocks_give_the_bits_of_one_call(self, in_dim, width, rows, pixels):
        """At every trunk layer shape in use, the blocked trunk equals one call over all rows bit for bit."""
        rng = np.random.default_rng(in_dim + rows)
        model = Model(ModelConfig(in_dim=in_dim, n_classes=3, trunk_widths=(width,), seed=1))
        kinds = np.full(rows, UNKNOWN_CODE)
        features = rng.integers(0, 256, (rows, in_dim), dtype=np.uint8) if pixels else rng.normal(size=(rows, in_dim))
        split = Split.of(features, kinds=kinds)
        blocked = split_trunk(model, split)
        layer = model.trunk[0]
        one_call = relu_forward(dense_forward(split._read(), layer.weight.value, layer.bias.value))
        sizes = [b.stop - b.start for b in row_blocks(rows)]
        assert np.array_equal(blocked, one_call), (
            f"trunk layer {in_dim}->{width}: {len(sizes)} blocks of {min(sizes)} to {max(sizes)} rows differ "
            f"from one call over {rows} rows in {int((blocked != one_call).any(axis=1).sum())} rows"
        )


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(16)
        model = Model(tiny_config())
        batch = make_mixed_batch(rng)
        forward_train(model, batch)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        expected = forward_eval(model, batch)
        actual = forward_eval(restored, batch)
        np.testing.assert_array_equal(actual.class_probs, expected.class_probs)
        np.testing.assert_array_equal(actual.domain_probs, expected.domain_probs)

    def test_config_survives(self, tmp_path):
        model = Model(tiny_config(k=3, whole_batch_norm=False))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        assert load_checkpoint(path).cfg == model.cfg

    @staticmethod
    def tampered(tmp_path, edit):
        """Save a fresh model, apply edit to the JSON document, and return the file's path."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(Model(tiny_config()), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_scalar_for_vector_rejected(self, tmp_path):
        # a scalar used to spread silently over the whole bias vector
        path = self.tampered(tmp_path, lambda doc: doc["params"].__setitem__("trunk.0.bias", 0.5))
        with pytest.raises(CheckpointError, match=r"trunk\.0\.bias: shape \(\)"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        # a missing name used to leave the parameter at its fresh initialization
        path = self.tampered(tmp_path, lambda doc: doc["params"].pop("branch.w2"))
        with pytest.raises(CheckpointError, match=r"missing \['branch\.w2'\]"):
            load_checkpoint(path)

    def test_extra_parameter_rejected(self, tmp_path):
        path = self.tampered(tmp_path, lambda doc: doc["params"].__setitem__("trunk.9.bias", [0.0]))
        with pytest.raises(CheckpointError, match=r"unexpected \['trunk\.9\.bias'\]"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        def transpose(doc):
            doc["params"]["trunk.0.weight"] = np.array(doc["params"]["trunk.0.weight"]).T.tolist()

        path = self.tampered(tmp_path, transpose)
        with pytest.raises(CheckpointError, match=r"trunk\.0\.weight: shape"):
            load_checkpoint(path)

    def test_missing_format_version_rejected(self, tmp_path):
        path = self.tampered(tmp_path, lambda doc: doc.pop("format"))
        with pytest.raises(CheckpointError, match="checkpoint format None, expected 4"):
            load_checkpoint(path)

        # older configs name removed fields; the version refuses them before the config is read
        align = {"eps": 1e-5, "affine": True, "zero_mass_threshold": 1e-6}

        def format_1(doc):
            doc["format"] = 1
            doc["config"]["align_after"] = None
            doc["config"]["align"] = align | {"running_momentum": 0.1}

        def format_2(doc):
            doc["format"] = 2
            doc["config"]["align"] = align | {"running_momentum": 0.1}

        def format_3(doc):
            doc["format"] = 3
            doc["config"]["align"] = align

        for version, edit in ((1, format_1), (2, format_2), (3, format_3)):
            path = self.tampered(tmp_path, edit)
            with pytest.raises(CheckpointError, match=f"checkpoint format {version}, expected 4"):
                load_checkpoint(path)

    # a missing field used to load with its default value
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig)])
    def test_missing_config_field_rejected(self, tmp_path, name):
        path = self.tampered(tmp_path, lambda doc: doc["config"].pop(name))
        with pytest.raises(CheckpointError, match=rf"config: missing \['{name}'\], unexpected \[\]"):
            load_checkpoint(path)

    # align: a format-4 file whose config still stores the alignment layers' settings
    @pytest.mark.parametrize("name, value", [("running_momentum", 0.1), ("align", {"eps": 1e-3})],
                             ids=["config", "align"])
    def test_extra_config_field_rejected(self, tmp_path, name, value):
        path = self.tampered(tmp_path, lambda doc: doc["config"].__setitem__(name, value))
        with pytest.raises(CheckpointError, match=rf"config: missing \[\], unexpected \['{name}'\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda doc: doc["config"].update(whole_batch_norm=1), r"config\.whole_batch_norm: expected bool, found 1"),
            (lambda doc: doc["config"].update(seed=True), r"config\.seed: expected int, found True"),
            (lambda doc: doc["config"].update(trunk_widths="6"), r"config\.trunk_widths: expected a list, found '6'"),
            (lambda doc: doc["params"]["trunk.0.bias"].__setitem__(0, np.nan), r"params\.trunk\.0\.bias: .*finite"),
            (lambda doc: doc["running"]["0"]["var"][0].__setitem__(0, -5.0), r"running\.0\.var: .*>= 0"),
            (lambda doc: doc["running"]["0"]["count"].__setitem__(0, -3), r"running\.0\.count: .*>= 0"),
            # JSON booleans used to load as counts of 1 and as zero biases
            (
                lambda doc: doc["running"]["0"].update(count=[True] * len(doc["running"]["0"]["count"])),
                r"running\.0\.count: bool values, expected int64",
            ),
            (
                lambda doc: doc["params"].update({"trunk.0.bias": [False] * len(doc["params"]["trunk.0.bias"])}),
                r"params\.trunk\.0\.bias: bool values, expected float64",
            ),
            (lambda doc: doc["running"]["0"]["count"].__setitem__(0, False), r"running\.0\.count: bool values"),
            (lambda doc: doc.update(format=4.0), r"checkpoint format 4\.0, expected 4"),
            # an integer beyond a float's range used to load, then overflow in the first forward pass
            (
                lambda doc: doc["params"]["trunk.0.bias"].__setitem__(0, 2**1100),
                r"params\.trunk\.0\.bias: object values, expected float64",
            ),
        ],
        ids=[
            "int_affine", "bool_seed", "string_widths", "nan_param", "negative_var", "negative_count",
            "bool_count", "bool_bias", "bool_among_counts", "float_format", "huge_int_eps",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, edit, expected):
        # each of these used to load into a model without complaint
        with pytest.raises(CheckpointError, match=expected):
            load_checkpoint(self.tampered(tmp_path, edit))

    def test_truncated_file_rejected(self, tmp_path):
        # a truncated file used to raise json.JSONDecodeError
        path = tmp_path / "ckpt.json"
        save_checkpoint(Model(tiny_config()), path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(CheckpointError, match=r"ckpt\.json: not valid JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "overrides",
        [{"classifier_widths": (5, 7)}, {"trunk_widths": (6, 3)}, {"whole_batch_norm": True}],
        ids=["two_classifier_blocks", "two_trunk_blocks", "whole_batch_norm"],
    )
    def test_other_architectures_round_trip(self, tmp_path, overrides):
        model = Model(tiny_config(**overrides))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.cfg == model.cfg
        assert restored.flat.value.tobytes() == model.flat.value.tobytes()

    @pytest.mark.parametrize(
        "field, param",
        [("in_dim", "trunk.0.weight"), ("n_classes", "classifier.1.weight"), ("k", "branch.w2"),
         ("branch_hidden", "branch.w1")],
    )
    def test_width_too_large_to_allocate_is_refused(self, tmp_path, field, param):
        # the model used to be built before any stored shape was compared: MemoryError, not CheckpointError
        path = self.tampered(tmp_path, lambda doc: doc["config"].update({field: 10**12}))
        with pytest.raises(CheckpointError, match=rf"params\.{re.escape(param)}: shape .*1000000000000"):
            load_checkpoint(path)

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        path = self.tampered(tmp_path, lambda doc: doc.__setitem__("config", 0.1))
        with pytest.raises(CheckpointError, match="config: expected an object, found float"):
            load_checkpoint(path)
