"""Full model: shared trunk, aligned classifier, domain predictor.

The trunk is a stack of dense+ReLU blocks shared by both heads.  The
classifier interleaves alignment layers after its affine maps (before the
activations); the domain predictor hangs off the trunk output and produces
the assignment probabilities consumed, through one shared assignment matrix,
by every alignment layer.  Backward propagation is orchestrated manually so
the classification loss reaches the predictor through the alignment layers'
assignment gradients.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .alignment import AlignConfig, AlignmentLayer
from .assignment import Assignment, DomainPredictor, merge_assignments
from .data import Batch
from .losses import (
    LossBreakdown,
    LossWeights,
    class_entropy,
    domain_entropy,
    total_loss,
)
from .primitives import (
    ParamBlock,
    cross_entropy,
    dense_backward,
    dense_forward,
    he_normal,
    relu_backward,
    relu_forward,
    softmax,
    softmax_backward,
    softmax_cross_entropy_backward,
    spatial_mean,
)

__all__ = [
    "CheckpointError",
    "EvalRecord",
    "ForwardRecord",
    "Model",
    "ModelConfig",
    "backward_train",
    "calibrate_predictor",
    "compute_loss",
    "forward_eval",
    "forward_train",
    "load_checkpoint",
    "save_checkpoint",
]


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    n_classes: int
    k: int = 2
    trunk_widths: tuple[int, ...] = (64,)
    classifier_widths: tuple[int, ...] = (64,)
    branch_hidden: int = 64
    align: AlignConfig = field(default_factory=AlignConfig)
    align_after: tuple[int, ...] | None = None
    whole_batch_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.in_dim < 1 or self.n_classes < 2 or self.k < 1:
            raise ValueError("in_dim >= 1, n_classes >= 2 and k >= 1 required")
        if not self.trunk_widths:
            raise ValueError("trunk needs at least one block")
        n_affine = len(self.classifier_widths) + 1
        placement = self.align_after if self.align_after is not None else tuple(range(n_affine))
        if not placement:
            raise ValueError("at least one alignment layer is required")
        if any(i < 0 or i >= n_affine for i in placement):
            raise ValueError(f"alignment placement {placement} outside 0..{n_affine - 1}")

    @property
    def placement(self) -> tuple[int, ...]:
        if self.align_after is not None:
            return tuple(sorted(set(self.align_after)))
        return tuple(range(len(self.classifier_widths) + 1))

    @property
    def n_domains(self) -> int:
        return 1 if self.whole_batch_norm else self.k + 1


class _Dense:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        self.weight = ParamBlock(he_normal(rng, n_in, (n_in, n_out)))
        self.bias = ParamBlock(np.zeros(n_out))


class Model:
    """Instantiated network; owned by a single training thread."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        trunk_dims = (cfg.in_dim,) + cfg.trunk_widths
        self.trunk = [_Dense(rng, a, b) for a, b in zip(trunk_dims[:-1], trunk_dims[1:])]
        cls_dims = (cfg.trunk_widths[-1],) + cfg.classifier_widths + (cfg.n_classes,)
        self.classifier = [_Dense(rng, a, b) for a, b in zip(cls_dims[:-1], cls_dims[1:])]
        self.align_layers = {
            j: AlignmentLayer(cls_dims[j + 1], cfg.n_domains, cfg.align) for j in cfg.placement
        }
        self.branch = DomainPredictor(
            cfg.trunk_widths[-1], cfg.k, cfg.branch_hidden, seed=int(rng.integers(2**31))
        )

    def named_params(self) -> list[tuple[str, ParamBlock]]:
        out = []
        for i, layer in enumerate(self.trunk):
            out += [(f"trunk.{i}.weight", layer.weight), (f"trunk.{i}.bias", layer.bias)]
        for i, layer in enumerate(self.classifier):
            out += [(f"classifier.{i}.weight", layer.weight), (f"classifier.{i}.bias", layer.bias)]
        for j in sorted(self.align_layers):
            layer = self.align_layers[j]
            if layer.cfg.affine:
                out += [(f"align.{j}.gamma", layer.gamma), (f"align.{j}.beta", layer.beta)]
        out += [
            ("branch.w1", self.branch.w1),
            ("branch.b1", self.branch.b1),
            ("branch.w2", self.branch.w2),
            ("branch.b2", self.branch.b2),
        ]
        return out

    def parameters(self) -> list[ParamBlock]:
        return [p for _, p in self.named_params()]

    def param_groups(self) -> dict[str, list[ParamBlock]]:
        groups = {"trunk": [], "classifier": [], "mda_affine": [], "branch": []}
        for name, p in self.named_params():
            if name.startswith("trunk."):
                groups["trunk"].append(p)
            elif name.startswith("classifier."):
                groups["classifier"].append(p)
            elif name.startswith("align."):
                groups["mda_affine"].append(p)
            else:
                groups["branch"].append(p)
        return groups

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()


@dataclass
class ForwardRecord:
    """Everything a forward pass produced; training passes also keep the caches backward needs."""

    class_probs: np.ndarray
    domain_probs: np.ndarray
    assignment: Assignment
    trunk_caches: list
    branch_cache: object
    cls_caches: list
    src_idx: np.ndarray


@dataclass
class EvalRecord:
    class_probs: np.ndarray
    domain_probs: np.ndarray


def _trunk_forward(model: Model, features: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Trunk output of a batch's features; appends (input, pre-activation) per block to caches if given.

    Rank-4 features enter as their spatial means.
    """
    if features.ndim not in (2, 4):
        raise ValueError(f"expected rank 2 or 4 features, got rank {features.ndim}")
    h = spatial_mean(features) if features.ndim == 4 else features
    for layer in model.trunk:
        z = dense_forward(h, layer.weight.value, layer.bias.value)
        if caches is not None:
            caches.append((h, z))
        h = relu_forward(z)
    return h


def _forward(
    model: Model,
    batch: Batch,
    train: bool,
    assignment: Assignment | None = None,
    update_running: bool = True,
) -> ForwardRecord:
    """The one walk through trunk, predictor branch and classifier.

    Training mode normalizes with batch statistics and keeps every activation
    backward_train needs; evaluation mode normalizes with running statistics
    and keeps none, so that a whole split can be evaluated in one call.  The
    predictor runs on every non-target sample in both modes.
    """
    trunk_caches = [] if train else None
    h = _trunk_forward(model, batch.features, trunk_caches)

    src_idx = np.flatnonzero(batch.source_mask)
    domain_probs = np.zeros((batch.size, model.cfg.k))
    branch_cache = None
    if src_idx.size:
        domain_probs[src_idx], branch_cache = model.branch.forward(h[src_idx])
        if not train:
            branch_cache = None
    if assignment is None and model.cfg.whole_batch_norm:
        assignment = Assignment(np.ones((batch.size, 1)), np.ones(batch.size, dtype=bool))
    elif assignment is None:
        assignment = merge_assignments(domain_probs, batch.kinds, batch.known_domains)

    cls_caches = []
    last = len(model.classifier) - 1
    for j, layer in enumerate(model.classifier):
        z = dense_forward(h, layer.weight.value, layer.bias.value)
        align_cache = None
        if j in model.align_layers:
            if train:
                z, align_cache = model.align_layers[j].forward(z, assignment, update_running)
            else:
                z = model.align_layers[j].infer(z, assignment)
        if train:
            cls_caches.append((h, align_cache, z))
        h = relu_forward(z) if j < last else z

    return ForwardRecord(
        class_probs=softmax(h),
        domain_probs=domain_probs,
        assignment=assignment,
        trunk_caches=trunk_caches,
        branch_cache=branch_cache,
        cls_caches=cls_caches,
        src_idx=src_idx,
    )


def forward_train(
    model: Model,
    batch: Batch,
    assignment_override: Assignment | None = None,
    update_running: bool = True,
) -> ForwardRecord:
    """Training-mode forward pass over a mixed source and target batch.

    The predictor runs on every non-target sample; its probabilities fill the
    free rows of the assignment matrix, which all alignment layers share.
    assignment_override substitutes an explicit matrix (gradient audits use
    this to probe the assignment input directly).
    """
    if not batch.source_mask.any():
        raise ValueError("training batch needs at least one source sample")
    return _forward(model, batch, True, assignment_override, update_running)


def compute_loss(record: ForwardRecord, batch: Batch, weights: LossWeights) -> LossBreakdown:
    """Evaluate the four-term objective on a finished forward pass."""
    src = batch.source_mask
    tgt = batch.target_mask
    known = batch.known_mask
    unknown = batch.unknown_mask

    class_ce = cross_entropy(record.class_probs[src], batch.class_labels[src])
    domain_ce = (
        cross_entropy(record.domain_probs[known], batch.known_domains[known]) if known.any() else 0.0
    )
    if tgt.any():
        h_class, _ = class_entropy(record.class_probs[tgt])
    elif weights.class_entropy > 0:
        raise ValueError("class-entropy weight is active but the batch has no target samples")
    else:
        h_class = 0.0
    h_domain, _ = domain_entropy(record.domain_probs[unknown])
    return total_loss(
        class_ce,
        domain_ce,
        h_class,
        h_domain,
        weights,
        n_source=int(src.sum()),
        n_known=int(known.sum()),
        n_target=int(tgt.sum()),
        n_unknown=int(unknown.sum()),
    )


def backward_train(
    model: Model, record: ForwardRecord, batch: Batch, weights: LossWeights
) -> LossBreakdown:
    """Backward pass of the full objective; fills every ParamBlock gradient.

    The predictor receives three contributions: the weighted domain log-loss
    on labeled rows, the weighted domain entropy on unlabeled rows, and the
    assignment gradients accumulated from every alignment layer (free rows
    only), all routed through its single softmax.
    """
    breakdown = compute_loss(record, batch, weights)
    model.zero_grads()
    record.assignment.zero_grad()

    src = batch.source_mask
    tgt = batch.target_mask
    b, n_classes = record.class_probs.shape

    # gradient at the classifier softmax input
    g_logits = np.zeros((b, n_classes))
    g_logits[src] = softmax_cross_entropy_backward(
        record.class_probs[src], batch.class_labels[src]
    )
    if weights.class_entropy > 0 and tgt.any():
        _, g_ent = class_entropy(record.class_probs[tgt])
        g_probs = np.zeros((b, n_classes))
        g_probs[tgt] = weights.class_entropy * g_ent
        g_logits += softmax_backward(record.class_probs, g_probs)

    # classifier stack, collecting assignment gradients on the way down
    grad = g_logits
    last = len(model.classifier) - 1
    for j in range(last, -1, -1):
        dense_input, align_cache, pre_act = record.cls_caches[j]
        if j < last:
            grad = relu_backward(pre_act, grad)
        if align_cache is not None:
            layer = model.align_layers[j]
            grad, grad_w, g_gamma, g_beta = layer.backward(align_cache, grad)
            if layer.cfg.affine:
                layer.gamma.grad += g_gamma
                layer.beta.grad += g_beta
            record.assignment.add_grad(grad_w)
        dlayer = model.classifier[j]
        grad, g_w, g_b = dense_backward(dense_input, dlayer.weight.value, grad)
        dlayer.weight.grad += g_w
        dlayer.bias.grad += g_b
    g_trunk = grad

    # predictor head
    src_idx = record.src_idx
    if src_idx.size and not model.cfg.whole_batch_norm:
        probs_b = record.domain_probs[src_idx]
        g_b_logits = np.zeros_like(probs_b)
        known_rows = np.flatnonzero(batch.known_mask[src_idx])
        if weights.domain_ce > 0 and known_rows.size:
            labels = batch.known_domains[src_idx][known_rows]
            g_b_logits[known_rows] = weights.domain_ce * softmax_cross_entropy_backward(
                probs_b[known_rows], labels
            )
        g_b_probs = np.zeros_like(probs_b)
        unknown_rows = np.flatnonzero(batch.unknown_mask[src_idx])
        if weights.domain_entropy > 0 and unknown_rows.size:
            _, g_ent = domain_entropy(probs_b[unknown_rows])
            g_b_probs[unknown_rows] += weights.domain_entropy * g_ent
        g_b_probs += record.assignment.grad[src_idx][:, : model.cfg.k]
        g_b_logits += softmax_backward(probs_b, g_b_probs)
        g_trunk[src_idx] += model.branch.backward(record.branch_cache, g_b_logits)

    # trunk stack
    grad = g_trunk
    for i in range(len(model.trunk) - 1, -1, -1):
        inp, pre = record.trunk_caches[i]
        grad = relu_backward(pre, grad)
        layer = model.trunk[i]
        grad, g_w, g_b = dense_backward(inp, layer.weight.value, grad)
        layer.weight.grad += g_w
        layer.bias.grad += g_b

    return breakdown


def calibrate_predictor(model: Model, batch: Batch) -> None:
    """Center the predictor's logits on a reference batch before training.

    A freshly initialized head can concentrate nearly all assignment mass on
    one domain, which starves the other domains' statistics and freezes the
    discovery dynamics in a degenerate state.  Subtracting the per-domain
    mean logit over one batch starts training mass-balanced while keeping the
    feature-dependent tilt that seeds the partition.
    """
    src_idx = np.flatnonzero(batch.source_mask)
    if src_idx.size == 0 or model.cfg.whole_batch_norm:
        return
    logits, _ = model.branch.logits(_trunk_forward(model, batch.features)[src_idx])
    model.branch.b2.value -= logits.mean(axis=0)


def forward_eval(model: Model, batch: Batch) -> EvalRecord:
    """Deterministic inference with running statistics; no state mutation.

    The predictor still runs for any non-target sample, so source inputs are
    normalized with their predicted soft assignments.  Works on single-sample
    batches since no batch statistics are involved.
    """
    record = _forward(model, batch, False)
    return EvalRecord(class_probs=record.class_probs, domain_probs=record.domain_probs)


# ---------------------------------------------------------------------------
# checkpoints


def _config_to_dict(cfg: ModelConfig) -> dict:
    doc = asdict(cfg)
    doc["align"] = asdict(cfg.align)
    return doc


def _config_from_dict(doc: dict) -> ModelConfig:
    doc = dict(doc)
    doc["align"] = AlignConfig(**doc.get("align", {}))
    for key in ("trunk_widths", "classifier_widths"):
        if key in doc and doc[key] is not None:
            doc[key] = tuple(doc[key])
    if doc.get("align_after") is not None:
        doc["align_after"] = tuple(doc["align_after"])
    return ModelConfig(**doc)


CHECKPOINT_FORMAT = 1


class CheckpointError(ValueError):
    """A checkpoint does not match the format or the model its config builds."""


def save_checkpoint(model: Model, path) -> None:
    """Write config, every parameter value, and running statistics as JSON."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": _config_to_dict(model.cfg),
        "params": {name: p.value.tolist() for name, p in model.named_params()},
        "running": {
            str(j): {
                "mean": layer.running.mean.tolist(),
                "var": layer.running.var.tolist(),
                "count": layer.running.count.tolist(),
            }
            for j, layer in model.align_layers.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def _restore(where: str, target: np.ndarray, values) -> None:
    """Copy checkpoint values into an array of exactly the same shape; nothing broadcasts."""
    try:
        arr = np.asarray(values)
    except ValueError as err:
        raise CheckpointError(f"{where}: {err}") from err
    if arr.shape != target.shape:
        raise CheckpointError(f"{where}: shape {arr.shape}, expected {target.shape}")
    if not np.can_cast(arr.dtype, target.dtype, "same_kind"):
        raise CheckpointError(f"{where}: {arr.dtype} values, expected {target.dtype}")
    target[...] = arr


def _same_names(where: str, found, expected) -> None:
    missing, extra = sorted(set(expected) - set(found)), sorted(set(found) - set(expected))
    if missing or extra:
        raise CheckpointError(f"{where}: missing {missing}, unexpected {extra}")


def load_checkpoint(path) -> Model:
    """Rebuild a model from save_checkpoint's JSON.

    The format version, the set of parameter and running-statistics names,
    and every shape must match the model the stored config builds exactly;
    any difference raises CheckpointError.
    """
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise CheckpointError(f"{path}: checkpoint format {found!r}, expected {CHECKPOINT_FORMAT}")
    _same_names(str(path), doc, ("format", "config", "params", "running"))
    try:
        model = Model(_config_from_dict(doc["config"]))
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: config: {err}") from err
    params = dict(model.named_params())
    _same_names(f"{path}: params", doc["params"], params)
    for name, p in params.items():
        _restore(f"{path}: params.{name}", p.value, doc["params"][name])
    layers = {str(j): layer for j, layer in model.align_layers.items()}
    _same_names(f"{path}: running", doc["running"], layers)
    for key, layer in layers.items():
        stats = doc["running"][key]
        _same_names(f"{path}: running.{key}", stats, ("mean", "var", "count"))
        for field_name in ("mean", "var", "count"):
            _restore(f"{path}: running.{key}.{field_name}", getattr(layer.running, field_name), stats[field_name])
    return model
