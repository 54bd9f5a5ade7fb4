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
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

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
)

__all__ = [
    "CheckpointError",
    "ConfigError",
    "EvalRecord",
    "ForwardRecord",
    "Model",
    "ModelConfig",
    "backward_train",
    "calibrate_predictor",
    "compute_loss",
    "config_from_json",
    "forward_eval",
    "forward_train",
    "load_checkpoint",
    "predict_domains",
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
    whole_batch_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.in_dim < 1 or self.n_classes < 2 or self.k < 1:
            raise ValueError("in_dim >= 1, n_classes >= 2 and k >= 1 required")
        if not self.trunk_widths:
            raise ValueError("trunk needs at least one block")
        for name in ("trunk_widths", "classifier_widths"):
            for i, width in enumerate(getattr(self, name)):
                if width < 1:
                    raise ValueError(f"{name}[{i}] must be >= 1, found {width}")
        if self.branch_hidden < 1:
            raise ValueError("branch_hidden must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_domains(self) -> int:
        return 1 if self.whole_batch_norm else self.k + 1


class _Dense:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        self.weight = ParamBlock(he_normal(rng, n_in, (n_in, n_out)))
        self.bias = ParamBlock(np.zeros(n_out))


class Model:
    """Instantiated network; owned by a single training thread.

    The value, grad and momentum of every ParamBlock are views into three flat
    buffers, the parameter arena, which `flat` wraps as one ParamBlock.  Blocks
    start at even offsets, 16-byte aligned as separate arrays are; padding stays 0.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        trunk_dims = (cfg.in_dim,) + cfg.trunk_widths
        self.trunk = [_Dense(rng, a, b) for a, b in zip(trunk_dims[:-1], trunk_dims[1:])]
        cls_dims = (cfg.trunk_widths[-1],) + cfg.classifier_widths + (cfg.n_classes,)
        self.classifier = [_Dense(rng, a, b) for a, b in zip(cls_dims[:-1], cls_dims[1:])]
        self.align_layers = {
            j: AlignmentLayer(width, cfg.n_domains, cfg.align) for j, width in enumerate(cls_dims[1:])
        }
        self.branch = DomainPredictor(
            cfg.trunk_widths[-1], cfg.k, cfg.branch_hidden, seed=int(rng.integers(2**31))
        )
        self._pack()

    def _pack(self) -> None:
        """Copy every block's arrays into a fresh arena and rebind the blocks to views of it."""
        blocks = self.parameters()
        starts = np.cumsum([0] + [p.value.size + p.value.size % 2 for p in blocks])
        arenas = [np.zeros(starts[-1]) for _ in range(3)]
        for p, start in zip(blocks, starts):
            for attr, arena in zip(("value", "grad", "momentum"), arenas):
                view = arena[start : start + p.value.size].reshape(p.value.shape)
                view[...] = getattr(p, attr)
                setattr(p, attr, view)
        self.flat = ParamBlock(*arenas)

    def __setstate__(self, state):
        # a copied or unpickled model gets blocks that are separate arrays; rejoin them
        self.__dict__.update(state)
        self._pack()

    def named_params(self) -> list[tuple[str, ParamBlock]]:
        out = []
        for i, layer in enumerate(self.trunk):
            out += [(f"trunk.{i}.weight", layer.weight), (f"trunk.{i}.bias", layer.bias)]
        for i, layer in enumerate(self.classifier):
            out += [(f"classifier.{i}.weight", layer.weight), (f"classifier.{i}.bias", layer.bias)]
        for j, layer in self.align_layers.items():
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
            prefix = name.split(".")[0]
            groups["mda_affine" if prefix == "align" else prefix].append(p)
        return groups

    def zero_grads(self) -> None:
        self.flat.zero_grad()


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
    """Trunk output of a batch's [b, in_dim] features; appends (input, pre-activation) per block to caches if given.

    Features of any other rank fail in dense_forward with a ValueError.
    """
    h = features
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
    and drops each activation once the next one is made, so that a whole split
    can be evaluated in one call.  The predictor runs on every non-target
    sample in both modes.  Every alignment layer shares cfg.align and the one
    assignment matrix, so training mode column-normalizes it once for all of
    them.
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
    aw = model.align_layers[0].alpha(assignment) if train else None

    cls_caches = []
    last = len(model.classifier) - 1
    for j, layer in enumerate(model.classifier):
        z = dense_forward(h, layer.weight.value, layer.bias.value)
        if train:
            z, align_cache = model.align_layers[j].forward(z, assignment, update_running, aw)
            cls_caches.append((h, align_cache, z))
        else:
            # an activation goes as soon as the next one exists
            h = None
            z = model.align_layers[j].infer(z, assignment)
        h = relu_forward(z) if j < last else z
        z = None

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
    return _objective(record, batch, weights)[0]


def _objective(record: ForwardRecord, batch: Batch, weights: LossWeights):
    """compute_loss's breakdown and the probs gradients of its class and domain entropy terms.

    The class-entropy gradient is None when the batch has no target rows.
    """
    src = batch.source_mask
    tgt = batch.target_mask
    known = batch.known_mask
    unknown = batch.unknown_mask

    class_ce = cross_entropy(record.class_probs[src], batch.class_labels[src])
    domain_ce = (
        cross_entropy(record.domain_probs[known], batch.known_domains[known]) if known.any() else 0.0
    )
    g_class = None
    if tgt.any():
        h_class, g_class = class_entropy(record.class_probs[tgt])
    elif weights.class_entropy > 0:
        raise ValueError("class-entropy weight is active but the batch has no target samples")
    else:
        h_class = 0.0
    h_domain, g_domain = domain_entropy(record.domain_probs[unknown])
    breakdown = total_loss(class_ce, domain_ce, h_class, h_domain, weights)
    return breakdown, g_class, g_domain


def backward_train(
    model: Model, record: ForwardRecord, batch: Batch, weights: LossWeights
) -> LossBreakdown:
    """Backward pass of the full objective; fills every ParamBlock gradient.

    The predictor receives three contributions: the weighted domain log-loss
    on labeled rows, the weighted domain entropy on unlabeled rows, and the
    assignment gradients accumulated from every alignment layer (free rows
    only), all routed through its single softmax.
    """
    breakdown, g_class_ent, g_domain_ent = _objective(record, batch, weights)
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
        g_logits[tgt] += softmax_backward(record.class_probs[tgt], weights.class_entropy * g_class_ent)

    # classifier stack, collecting assignment gradients on the way down
    grad = g_logits
    last = len(model.classifier) - 1
    for j in range(last, -1, -1):
        dense_input, align_cache, pre_act = record.cls_caches[j]
        if j < last:
            grad = relu_backward(pre_act, grad)
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
            g_b_probs[unknown_rows] += weights.domain_entropy * g_domain_ent
        g_b_probs += record.assignment.grad[src_idx][:, : model.cfg.k]
        g_b_logits += softmax_backward(probs_b, g_b_probs)
        g_trunk[src_idx] += model.branch.backward(record.branch_cache, g_b_logits)

    # trunk stack
    grad = g_trunk
    for i in range(len(model.trunk) - 1, -1, -1):
        inp, pre = record.trunk_caches[i]
        grad = relu_backward(pre, grad)
        layer = model.trunk[i]
        # the gradient at the network input is never used
        grad, g_w, g_b = dense_backward(inp, layer.weight.value, grad, input_grad=i > 0)
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
    if model.cfg.whole_batch_norm or not batch.source_mask.any():
        return
    logits, _ = model.branch.logits(_branch_input(model, batch))
    model.branch.b2.value -= logits.mean(axis=0)


def _branch_input(model: Model, batch: Batch) -> np.ndarray:
    """Trunk output of a batch's non-target rows, the predictor branch's input; the classifier never runs."""
    return _trunk_forward(model, batch.features)[np.flatnonzero(batch.source_mask)]


def predict_domains(model: Model, batch: Batch) -> np.ndarray:
    """The predictor's probabilities over the k latent domains for a batch's non-target rows.

    Only the trunk and the branch run; the rows equal forward_eval's
    domain_probs of the same rows.
    """
    probs, _ = model.branch.forward(_branch_input(model, batch))
    return probs


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


CHECKPOINT_FORMAT = 3


class CheckpointError(ValueError):
    """A checkpoint does not match the format or the model its config builds."""


def save_checkpoint(model: Model, path) -> None:
    """Write config, every parameter value, and running statistics as JSON."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.cfg),
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


class ConfigError(ValueError):
    """A config value, or a run's inputs, do not fit; the message starts with the config path at fault."""


def config_from_json(kind, value, path: str):
    """Read a JSON value as the annotation kind, a config dataclass at the top, or raise ConfigError naming its path.

    A config takes an object, field by field: each name must be a field, and one left out keeps its default.
    tuple[X, ...] takes a list, float | tuple[float, ...] a number or a list, bool only true or false, int
    only integers (not booleans) and float any finite number.  Paths look like model.trunk_widths[0].
    """
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, found {type(value).__name__}")
        hints = typing.get_type_hints(kind)
        kwargs = {}
        for key, item in value.items():
            if key not in hints:
                raise ConfigError(f"{path}.{key}: unknown field")
            kwargs[key] = config_from_json(hints[key], item, f"{path}.{key}")
        try:
            return kind(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    if isinstance(kind, types.UnionType):  # float | tuple[float, ...]
        scalar, sequence = typing.get_args(kind)
        kind = sequence if isinstance(value, list) else scalar
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, found {value!r}")
        return tuple(config_from_json(typing.get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    fits = {
        bool: isinstance(value, bool),
        int: number and isinstance(value, int),
        float: number and (isinstance(value, int) or math.isfinite(value)),
    }[kind]
    if not fits:
        raise ConfigError(f"{path}: expected {'finite float' if kind is float else kind.__name__}, found {value!r}")
    return value


def _restore(where: str, target: np.ndarray, values, nonnegative: bool = False) -> None:
    """Copy finite checkpoint values into an array of exactly the same shape; nothing broadcasts."""
    try:
        arr = np.asarray(values)
    except ValueError as err:
        raise CheckpointError(f"{where}: {err}") from err
    if arr.shape != target.shape:
        raise CheckpointError(f"{where}: shape {arr.shape}, expected {target.shape}")
    if not np.can_cast(arr.dtype, target.dtype, "same_kind"):
        raise CheckpointError(f"{where}: {arr.dtype} values, expected {target.dtype}")
    if not np.isfinite(arr).all() or nonnegative and (arr < 0).any():
        raise CheckpointError(f"{where}: values must be finite{' and >= 0' if nonnegative else ''}")
    target[...] = arr


def _same_names(where: str, found, expected) -> None:
    if not isinstance(found, dict):
        raise CheckpointError(f"{where}: expected an object, found {type(found).__name__}")
    missing, extra = sorted(set(expected) - set(found)), sorted(set(found) - set(expected))
    if missing or extra:
        raise CheckpointError(f"{where}: missing {missing}, unexpected {extra}")


def load_checkpoint(path) -> Model:
    """Rebuild a model from save_checkpoint's JSON.

    The format version, the sets of config, parameter and running-statistics
    names, and every shape must match the model the stored config builds
    exactly, every config value must fit config_from_json, every array be
    finite, and running variances and counts >= 0; else CheckpointError,
    as for a file that is not valid JSON.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as err:
            raise CheckpointError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise CheckpointError(f"{path}: checkpoint format {found!r}, expected {CHECKPOINT_FORMAT}")
    _same_names(str(path), doc, ("format", "config", "params", "running"))
    config = doc["config"]
    _same_names(f"{path}: config", config, [f.name for f in fields(ModelConfig)])
    _same_names(f"{path}: config.align", config["align"], [f.name for f in fields(AlignConfig)])
    try:
        model = Model(config_from_json(ModelConfig, config, "config"))
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    params = dict(model.named_params())
    _same_names(f"{path}: params", doc["params"], params)
    for name, p in params.items():
        _restore(f"{path}: params.{name}", p.value, doc["params"][name])
    layers = {str(j): layer for j, layer in model.align_layers.items()}
    _same_names(f"{path}: running", doc["running"], layers)
    for key, layer in layers.items():
        stats = doc["running"][key]
        _same_names(f"{path}: running.{key}", stats, ("mean", "var", "count"))
        for field_name, nonnegative in (("mean", False), ("var", True), ("count", True)):
            where = f"{path}: running.{key}.{field_name}"
            _restore(where, getattr(layer.running, field_name), stats[field_name], nonnegative)
    return model
