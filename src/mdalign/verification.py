"""Finite-difference audits of every gradient path.

Used by the command-line `gradcheck` command and the acceptance suite: the
alignment layer is probed across a grid of batch sizes, domain counts,
channel counts, ranks, and assignment styles; the assembled model is probed
per parameter group plus the assignment-matrix input.  Central differences
with step 1e-5 * max(1, |x|) are the oracle throughout.
"""

from __future__ import annotations

import numpy as np

from .alignment import AlignConfig, AlignmentLayer
from .assignment import Assignment, DomainTag
from .data import LabeledSample, make_batch
from .losses import LossWeights
from .model import Model, ModelConfig, backward_train, compute_loss, forward_train
from .primitives import central_difference, max_relative_error

__all__ = [
    "LAYER_TOLERANCE",
    "MODEL_TOLERANCE",
    "audit_alignment_layer",
    "audit_full_model",
    "run_gradient_audit",
]

LAYER_TOLERANCE = 1e-5
MODEL_TOLERANCE = 1e-4


def _grid_assignment(rng, b, k, mixed):
    """Assignment rows over k source domains plus a target column.

    Fixed target rows keep the target column live; mixed mode pins some
    source rows one-hot.  Free rows are strictly positive everywhere so the
    finite-difference probe stays inside the non-negative domain.
    """
    n_target = max(1, b // 4)
    probs = np.zeros((b, k + 1))
    fixed = np.zeros(b, dtype=bool)
    probs[:n_target, k] = 1.0
    fixed[:n_target] = True
    row = n_target
    if mixed:
        n_known = max(1, b // 4)
        for i in range(row, row + n_known):
            probs[i, int(rng.integers(0, k))] = 1.0
            fixed[i] = True
        row += n_known
    soft = rng.dirichlet(np.ones(k + 1) * 2.0, size=b - row)
    probs[row:] = (soft + 0.02) / (1.0 + 0.02 * (k + 1))
    return probs, fixed


def audit_alignment_layer(seed: int = 0) -> dict:
    """Probe layer gradients over the full configuration grid.

    Returns max relative errors per output across all configurations:
    {"grad_x", "grad_w", "grad_gamma", "grad_beta", "configs"}.
    """
    errors = {"grad_x": 0.0, "grad_w": 0.0, "grad_gamma": 0.0, "grad_beta": 0.0}
    case = 0
    for b in (4, 8):
        for k in (1, 2, 3):
            for c in (1, 3):
                for rank in (2, 4):
                    rng = np.random.default_rng(seed * 1000 + case)
                    mixed = case % 2 == 0
                    case += 1
                    shape = (b, c) if rank == 2 else (b, c, 2, 2)
                    x = rng.normal(size=shape)
                    probs, fixed = _grid_assignment(rng, b, k, mixed)
                    layer = AlignmentLayer(c, k + 1, AlignConfig(affine=True))
                    layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
                    layer.beta.value[...] = 0.3 * rng.normal(size=c)
                    probe = rng.normal(size=shape)
                    free = ~fixed
                    free_probs = probs[free].copy()

                    def loss():
                        w_full = probs.copy()
                        w_full[free] = free_probs
                        y, _ = layer.forward(
                            x, Assignment.unchecked(w_full, fixed), update_running=False
                        )
                        return float((y * probe).sum())

                    _, cache = layer.forward(
                        x, Assignment.unchecked(probs, fixed), update_running=False
                    )
                    grad_x, grad_w, grad_gamma, grad_beta = layer.backward(cache, probe)
                    errors["grad_x"] = max(
                        errors["grad_x"], max_relative_error(grad_x, central_difference(loss, x))
                    )
                    errors["grad_w"] = max(
                        errors["grad_w"],
                        max_relative_error(grad_w[free], central_difference(loss, free_probs)),
                    )
                    errors["grad_gamma"] = max(
                        errors["grad_gamma"],
                        max_relative_error(grad_gamma, central_difference(loss, layer.gamma.value)),
                    )
                    errors["grad_beta"] = max(
                        errors["grad_beta"],
                        max_relative_error(grad_beta, central_difference(loss, layer.beta.value)),
                    )
    errors["configs"] = case
    return errors


def _audit_batch(rng, in_dim=4, classes=3, k=2):
    samples = []
    for i in range(2):
        samples.append(
            LabeledSample(rng.normal(size=in_dim), int(rng.integers(0, classes)), DomainTag.known_source(i % k))
        )
    for _ in range(2):
        samples.append(
            LabeledSample(rng.normal(size=in_dim), int(rng.integers(0, classes)), DomainTag.unknown_source())
        )
    for _ in range(2):
        samples.append(LabeledSample(rng.normal(size=in_dim), None, DomainTag.target()))
    return make_batch(samples)


def _relu_margin(model: Model, batch) -> float:
    """Smallest |pre-activation| at any rectifier; the finite-difference
    probe is only valid away from the kinks."""
    record = forward_train(model, batch, update_running=False)
    pre_acts = [z for _, z in record.trunk_caches]
    pre_acts += [z for _, _, z in record.cls_caches[:-1]]
    _, branch_z1, _ = record.branch_cache
    pre_acts.append(branch_z1)
    return min(float(np.abs(z).min()) for z in pre_acts)


def audit_full_model(seed: int = 0) -> dict:
    """Probe the assembled network on a mixed batch with every loss term on.

    Returns max relative errors for the parameter groups {trunk, classifier,
    mda_affine, branch} plus the assignment input.  Configurations whose
    rectifier inputs sit too close to zero are skipped (central differences
    straddling a kink say nothing about the analytic gradient).
    """
    for attempt in range(16):
        probe_seed = seed + 1009 * attempt
        rng = np.random.default_rng(probe_seed)
        model = Model(
            ModelConfig(
                in_dim=4,
                n_classes=3,
                k=2,
                trunk_widths=(6,),
                classifier_widths=(5,),
                branch_hidden=4,
                seed=probe_seed,
            )
        )
        batch = _audit_batch(rng)
        if _relu_margin(model, batch) > 1e-3:
            break
    weights = LossWeights(domain_ce=0.5, class_entropy=0.2, domain_entropy=0.2)

    record = forward_train(model, batch, update_running=False)
    backward_train(model, record, batch, weights)
    analytic = {name: p.grad.copy() for name, p in model.named_params()}

    def loss():
        rec = forward_train(model, batch, update_running=False)
        return compute_loss(rec, batch, weights).total

    report = {}
    for group, params in model.param_groups().items():
        names = [name for name, p in model.named_params() if p in params]
        err = 0.0
        for name in names:
            block = dict(model.named_params())[name]
            err = max(err, max_relative_error(analytic[name], central_difference(loss, block.value)))
        report[group] = err

    probs = record.assignment.probs.copy()
    fixed = record.assignment.fixed.copy()
    free = ~fixed
    k = model.cfg.k
    free_cols = probs[free][:, :k].copy()

    def loss_w():
        w_full = probs.copy()
        w_full[np.ix_(free, np.arange(k))] = free_cols
        override = Assignment.unchecked(w_full, fixed)
        rec = forward_train(model, batch, assignment_override=override, update_running=False)
        return compute_loss(rec, batch, weights).total

    fd = central_difference(loss_w, free_cols)
    report["assignment"] = max_relative_error(record.assignment.grad[free][:, :k], fd)
    return report


def run_gradient_audit(seed: int = 0) -> tuple[dict, bool]:
    """Full audit; returns ({"layer": ..., "model": ...}, all_within_tolerance)."""
    layer = audit_alignment_layer(seed)
    model = audit_full_model(seed)
    ok = all(v <= LAYER_TOLERANCE for key, v in layer.items() if key != "configs")
    ok = ok and all(v <= MODEL_TOLERANCE for v in model.values())
    return {"layer": layer, "model": model}, ok
