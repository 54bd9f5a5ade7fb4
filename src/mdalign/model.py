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
import os
import queue
import sys
import threading
import types
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .alignment import AlignmentLayer
from .assignment import Assignment, DomainPredictor, merge_assignments
from .data import Batch, Split
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
    "EVAL_BLOCK_ROWS",
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
    "row_blocks",
    "save_checkpoint",
    "split_trunk",
]


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    n_classes: int
    k: int = 2
    trunk_widths: tuple[int, ...] = (64,)
    classifier_widths: tuple[int, ...] = (64,)
    branch_hidden: int = 64
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

    def sizes(self) -> dict[str, int]:
        """The fields whose products size the model's arrays, by path: a list entry as name[i]."""
        sizes = {name: getattr(self, name) for name in ("in_dim", "n_classes", "k", "branch_hidden")}
        for name in ("trunk_widths", "classifier_widths"):
            sizes |= {f"{name}[{i}]": width for i, width in enumerate(getattr(self, name))}
        return sizes


class _Dense:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        self.weight = ParamBlock(he_normal(rng, n_in, (n_in, n_out)))
        self.bias = ParamBlock(np.zeros(n_out))


class Model:
    """Instantiated network; owned by a single training thread.

    backward_train may hand some dense weight and bias gradients to the
    process's worker thread, which writes them into this model's grad views;
    it joins that work before it returns or raises, so no other thread
    touches the model outside a backward_train call.

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
        self.align_layers = {j: AlignmentLayer(width, cfg.n_domains) for j, width in enumerate(cls_dims[1:])}
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
    """Everything a forward pass produced; training passes also keep the caches backward needs.

    Those are the dense inputs, the dense outputs (inside each alignment
    cache), the ReLU outputs and the small per-domain arrays: trunk_caches
    holds (input, ReLU output) per block, cls_caches (dense input, alignment
    cache, ReLU output or None for the last layer) per layer.  Backward
    recomputes the rest.
    """

    class_probs: np.ndarray
    domain_probs: np.ndarray
    assignment: Assignment
    trunk_caches: list
    branch_cache: object
    cls_caches: list


@dataclass
class EvalRecord:
    class_probs: np.ndarray
    domain_probs: np.ndarray


def _trunk_forward(model: Model, features: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Trunk output of a batch's [b, in_dim] features; appends (input, ReLU output) per block to caches if given.

    Features of any other rank fail in dense_forward with a ValueError.
    """
    h = features
    for layer in model.trunk:
        z = dense_forward(h, layer.weight.value, layer.bias.value)
        inp, h = h, relu_forward(z, out=z)
        if caches is not None:
            caches.append((inp, h))
    return h


def _forward(
    model: Model,
    batch: Batch,
    train: bool,
    assignment: Assignment | None = None,
    update_running: bool = True,
    trunk_done: bool = False,
) -> ForwardRecord:
    """The one walk through trunk, predictor branch and classifier.

    Training mode normalizes with batch statistics and keeps the caches
    ForwardRecord lists for backward_train; evaluation mode normalizes with
    running statistics and drops each activation once the next one is made.
    With trunk_done, an evaluation starts from the trunk: the batch's
    features are already the trunk's output over its rows, as split_trunk
    computes it block by block for a whole split.  The predictor runs on every non-target sample in both
    modes, the batch's source half, which it reads as a view.  Every alignment layer reads the one
    assignment matrix, so training mode column-normalizes it once for all of them.
    """
    trunk_caches = [] if train else None
    h = batch.features if trunk_done else _trunk_forward(model, batch.features, trunk_caches)

    domain_probs = np.zeros((batch.size, model.cfg.k))
    branch_cache = None
    if batch.n_source:
        domain_probs[batch.source], branch_cache = model.branch.forward(h[batch.source])
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
            inp = h
        else:
            # an activation goes as soon as the next one exists
            h = None
            z = model.align_layers[j].infer(z, assignment)
        # the ReLU rectifies in place the alignment output that only this walk holds
        h = relu_forward(z, out=z) if j < last else z
        z = None
        if train:
            cls_caches.append((inp, align_cache, h if j < last else None))

    return ForwardRecord(
        class_probs=softmax(h),
        domain_probs=domain_probs,
        assignment=assignment,
        trunk_caches=trunk_caches,
        branch_cache=branch_cache,
        cls_caches=cls_caches,
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
    if not batch.n_source:
        raise ValueError("training batch needs at least one source sample")
    return _forward(model, batch, True, assignment_override, update_running)


def compute_loss(record: ForwardRecord, batch: Batch, weights: LossWeights) -> LossBreakdown:
    """Evaluate the four-term objective on a finished forward pass."""
    return _objective(record, batch, weights)[0]


def _objective(record: ForwardRecord, batch: Batch, weights: LossWeights):
    """compute_loss's breakdown and the probs gradients of its class and domain entropy terms.

    The class-entropy gradient is None when the batch has no target rows.
    """
    src, known, unknown = batch.source, batch.known_mask, batch.unknown_mask

    class_ce = cross_entropy(record.class_probs[src], batch.class_labels[src])
    domain_ce = (
        cross_entropy(record.domain_probs[known], batch.known_domains[known]) if known.any() else 0.0
    )
    g_class = None
    if batch.n_source < batch.size:
        h_class, g_class = class_entropy(record.class_probs[batch.target])
    elif weights.class_entropy > 0:
        raise ValueError("class-entropy weight is active but the batch has no target samples")
    else:
        h_class = 0.0
    h_domain, g_domain = domain_entropy(record.domain_probs[unknown])
    breakdown = total_loss(class_ce, domain_ce, h_class, h_domain, weights)
    return breakdown, g_class, g_domain


# ---------------------------------------------------------------------------
# the process's worker thread, and backward with the large weight-gradient
# products on it

# A dense layer's weight gradient goes to the worker thread when x^T g takes at
# least this many multiply-adds.  A round trip through the worker (queue put,
# wake-up, join) took about 16 us on a 2-core x86 VM, where one OpenBLAS thread
# needs about 170 us for 2**22 multiply-adds: some ten handoffs' worth.
_OFFLOAD_MIN_MACS = 1 << 22

_jobs: queue.SimpleQueue | None = None  # the worker's queue; None until this process's first job


def _forget_worker() -> None:
    # a forked child inherits the queue but not the thread that reads it
    global _jobs
    _jobs = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _work(jobs: queue.SimpleQueue) -> None:
    """The worker's loop: run each job, then put (its result, None) or (None, its exception) on its reply queue."""
    while True:
        fn, args, done = jobs.get()
        try:
            outcome = fn(*args), None
        except Exception as err:  # the joining thread raises it
            outcome = None, err
        done.put(outcome)
        # hold no array while waiting for the next job
        del fn, args, done, outcome


def _submit(fn, *args) -> queue.SimpleQueue:
    """Run fn(*args) on the process's one worker thread, started on first use; returns the job's reply queue.

    Jobs run one at a time, in the order they were submitted.  _join waits
    for a job through its reply queue.
    """
    global _jobs
    if _jobs is None:
        _jobs = queue.SimpleQueue()
        threading.Thread(target=_work, args=(_jobs,), name="mdalign-worker", daemon=True).start()
    done = queue.SimpleQueue()
    _jobs.put((fn, args, done))
    return done


def _join(pending: list[queue.SimpleQueue]) -> list:
    """Wait for every job whose reply queue is in pending; return their results in order.

    Once all of them have ended, the first exception one raised is raised
    instead.
    """
    outcomes = [done.get() for done in pending]
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _weight_grads(x: np.ndarray, grad_out: np.ndarray, g_weight: np.ndarray, g_bias: np.ndarray) -> None:
    """Give the zeroed views g_weight and g_bias the bits of adding dense_backward's weight and bias gradient to them.

    The product is written straight into g_weight, with no temporary and no
    add pass (a temporary made on the worker thread would also come from that
    thread's own malloc arena and stay resident).  + 0.0 then turns its -0.0
    into +0.0, as adding it to 0.0 does.
    """
    np.matmul(x.T, grad_out, out=g_weight)
    g_weight += 0.0
    g_bias += grad_out.sum(axis=0)


def _dense_layer_backward(layer: _Dense, x: np.ndarray, grad: np.ndarray, queued: list, input_grad: bool = True):
    """dense_backward of one layer, its weight and bias gradient written into the layer's zeroed grad views.

    Returns grad_x, or None without input_grad.  The weight and bias gradient
    go to the worker thread, their reply queue to queued, and this thread goes
    straight on with grad_x, when grad_x is wanted (so there is work to
    overlap), x^T grad takes at least _OFFLOAD_MIN_MACS multiply-adds and the
    process may run on two CPUs.  Otherwise this thread computes them with the
    worker's function, _weight_grads.
    """
    if input_grad and x.shape[0] * x.shape[1] * grad.shape[1] >= _OFFLOAD_MIN_MACS and _cpus() >= 2:
        queued.append(_submit(_weight_grads, x, grad, layer.weight.grad, layer.bias.grad))
    else:
        _weight_grads(x, grad, layer.weight.grad, layer.bias.grad)
    return dense_backward(x, layer.weight.value, grad, weight_grad=False)[0] if input_grad else None


def backward_train(
    model: Model, record: ForwardRecord, batch: Batch, weights: LossWeights
) -> LossBreakdown:
    """Backward pass of the full objective; fills every ParamBlock gradient.

    The predictor receives three contributions: the weighted domain log-loss
    on labeled rows, the weighted domain entropy on unlabeled rows, and the
    assignment gradients accumulated from every alignment layer (free rows
    only), all routed through its single softmax.

    A large dense weight gradient whose layer's input gradient the pass goes
    on with is computed on one worker thread per process (_dense_layer_backward
    says when), overlapping the rest of the pass.  Every such job is joined
    before this returns or raises, so the caller sees complete gradients with
    the bits of a pass on one thread; an exception a job raised is raised here.
    """
    queued: list[queue.SimpleQueue] = []
    try:
        return _backward(model, record, batch, weights, queued)
    finally:
        if queued:
            _join(queued)


def _backward(model: Model, record: ForwardRecord, batch: Batch, weights: LossWeights, queued: list):
    """backward_train's pass; the reply queues of the weight gradients it hands to the worker go to queued."""
    breakdown, g_class_ent, g_domain_ent = _objective(record, batch, weights)
    model.zero_grads()
    record.assignment.zero_grad()

    src, tgt = batch.source, batch.target
    b, n_classes = record.class_probs.shape

    # gradient at the classifier softmax input
    g_logits = np.zeros((b, n_classes))
    g_logits[src] = softmax_cross_entropy_backward(
        record.class_probs[src], batch.class_labels[src]
    )
    if weights.class_entropy > 0 and g_class_ent is not None:
        g_logits[tgt] += softmax_backward(record.class_probs[tgt], weights.class_entropy * g_class_ent)

    # classifier stack, collecting assignment gradients on the way down
    grad = g_logits
    last = len(model.classifier) - 1
    for j in range(last, -1, -1):
        dense_input, align_cache, relu_out = record.cls_caches[j]
        if j < last:
            # relu_out > 0 exactly where the pre-activation is, NaN and -0.0
            # included; grad is the dense_backward output made one layer up
            grad = relu_backward(relu_out, grad)
        layer = model.align_layers[j]
        grad, grad_w, g_gamma, g_beta = layer.backward(align_cache, grad)
        layer.gamma.grad += g_gamma
        layer.beta.grad += g_beta
        record.assignment.add_grad(grad_w)
        grad = _dense_layer_backward(model.classifier[j], dense_input, grad, queued)
    g_trunk = grad

    # predictor head, over the batch's source half; it starts at row 0, so a
    # batch row's index is also its index in that half
    if batch.n_source and not model.cfg.whole_batch_norm:
        probs_b = record.domain_probs[src]
        g_b_logits = np.zeros_like(probs_b)
        known_rows = np.flatnonzero(batch.known_mask)
        if weights.domain_ce > 0 and known_rows.size:
            labels = batch.known_domains[known_rows]
            g_b_logits[known_rows] = weights.domain_ce * softmax_cross_entropy_backward(
                probs_b[known_rows], labels
            )
        g_b_probs = np.zeros_like(probs_b)
        unknown_rows = np.flatnonzero(batch.unknown_mask)
        if weights.domain_entropy > 0 and unknown_rows.size:
            g_b_probs[unknown_rows] += weights.domain_entropy * g_domain_ent
        g_b_probs += record.assignment.grad[src, : model.cfg.k]
        g_b_logits += softmax_backward(probs_b, g_b_probs)
        g_trunk[src] += model.branch.backward(record.branch_cache, g_b_logits)

    # trunk stack
    grad = g_trunk
    for i in range(len(model.trunk) - 1, -1, -1):
        inp, relu_out = record.trunk_caches[i]
        # grad is made here: g_trunk, or the dense_backward output of the block above
        grad = relu_backward(relu_out, grad)
        # the gradient at the network input is never used
        grad = _dense_layer_backward(model.trunk[i], inp, grad, queued, input_grad=i > 0)

    return breakdown


def calibrate_predictor(model: Model, batch: Batch) -> None:
    """Center the predictor's logits on a reference batch before training.

    A freshly initialized head can concentrate nearly all assignment mass on
    one domain, which starves the other domains' statistics and freezes the
    discovery dynamics in a degenerate state.  Subtracting the per-domain
    mean logit over one batch starts training mass-balanced while keeping the
    feature-dependent tilt that seeds the partition.  Only the trunk and the
    branch run, on the batch's non-target rows.
    """
    if model.cfg.whole_batch_norm or not batch.n_source:
        return
    logits, _ = model.branch.logits(_trunk_forward(model, batch.features)[batch.source])
    model.branch.b2.value -= logits.mean(axis=0)


def forward_eval(model: Model, batch: Batch, trunk_done: bool = False) -> EvalRecord:
    """Deterministic inference with running statistics; no state mutation.

    The predictor still runs for any non-target sample, so source inputs are
    normalized with their predicted soft assignments.  Works on single-sample
    batches since no batch statistics are involved.  With trunk_done, the
    batch's features are the trunk's output over its rows (split_trunk's),
    and the walk starts after the trunk.
    """
    record = _forward(model, batch, False, trunk_done=trunk_done)
    return EvalRecord(class_probs=record.class_probs, domain_probs=record.domain_probs)


# rows per block when a whole split runs through the trunk (row_blocks)
EVAL_BLOCK_ROWS = 1024


def row_blocks(n: int) -> list[slice]:
    """Rows 0..n in order as max(n // B, 1) blocks of near-equal size, B = EVAL_BLOCK_ROWS.

    From n = B on every block holds B to 2B - 1 rows, so no small tail is
    left; fewer rows are one block.
    """
    count = max(n // EVAL_BLOCK_ROWS, 1)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def split_trunk(model: Model, split: Split) -> np.ndarray:
    """The trunk's output [n, trunk_widths[-1]] over every row of a split, computed over row_blocks.

    Each block's rows are read (a uint8 split's codes over PIXEL_SCALE) only
    for its own pass, so a split's float64 features never exist whole: the
    peak is one block's features and activations besides the output.  The rows carry the
    bits of one trunk call over the whole split as long as each block's dense
    products take the BLAS kernel the one call takes; OpenBLAS switches to
    other kernels only for small products, and B-row blocks stay above them at
    every trunk layer shape the workloads use (tests/test_model.py,
    TestBlockedTrunk, asserts this for the BLAS the suite runs on).
    """
    out = np.empty((len(split), model.cfg.trunk_widths[-1]))
    for rows in row_blocks(len(split)):
        out[rows] = _trunk_forward(model, split._read(rows))
    return out


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_FORMAT = 4


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
    only integers (not booleans) and float any number a float holds finitely.  Paths look like model.trunk_widths[0].
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
        float: number and abs(value) <= sys.float_info.max,
    }[kind]
    if not fits:
        raise ConfigError(f"{path}: expected {'finite float' if kind is float else kind.__name__}, found {value!r}")
    return value


def _checked(where: str, values, shape: tuple[int, ...], dtype, nonnegative: bool = False) -> np.ndarray:
    """Checkpoint JSON values as a finite array of exactly this shape, of values dtype holds; nothing broadcasts."""
    try:
        arr = np.asarray(values)
    except ValueError as err:
        raise CheckpointError(f"{where}: {err}") from err
    if arr.shape != shape:
        raise CheckpointError(f"{where}: shape {arr.shape}, expected {shape}")
    # numpy reads a JSON boolean as a number (even [true, 2] is int64); a checkpoint never stores one
    if any(type(v) is bool for v in np.asarray(values, dtype=object).flat):
        raise CheckpointError(f"{where}: bool values, expected {np.dtype(dtype)}")
    if not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise CheckpointError(f"{where}: {arr.dtype} values, expected {np.dtype(dtype)}")
    if not np.isfinite(arr).all() or nonnegative and (arr < 0).any():
        raise CheckpointError(f"{where}: values must be finite{' and >= 0' if nonnegative else ''}")
    return arr


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of Model(cfg), in named_params order, computed without building the model."""
    trunk_dims = (cfg.in_dim,) + cfg.trunk_widths
    cls_dims = (cfg.trunk_widths[-1],) + cfg.classifier_widths + (cfg.n_classes,)
    shapes = {}
    for part, dims in (("trunk", trunk_dims), ("classifier", cls_dims)):
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"{part}.{i}.weight"], shapes[f"{part}.{i}.bias"] = (a, b), (b,)
    for j, width in enumerate(cls_dims[1:]):
        shapes[f"align.{j}.gamma"] = shapes[f"align.{j}.beta"] = (width,)
    h, k = cfg.branch_hidden, cfg.k
    return shapes | {"branch.w1": (cfg.trunk_widths[-1], h), "branch.b1": (h,), "branch.w2": (h, k), "branch.b2": (k,)}


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
    as for a file that is not valid JSON.  Every stored array is checked
    against the shapes the config implies before the model is built, so a
    width too large to allocate is refused by name too.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as err:
            raise CheckpointError(f"{path}: not valid JSON ({err})") from err
    found = doc.get("format") if isinstance(doc, dict) else None
    if type(found) is not int or found != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: checkpoint format {found!r}, expected {CHECKPOINT_FORMAT}")
    _same_names(str(path), doc, ("format", "config", "params", "running"))
    config = doc["config"]
    _same_names(f"{path}: config", config, [f.name for f in fields(ModelConfig)])
    try:
        cfg = config_from_json(ModelConfig, config, "config")
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    shapes = _param_shapes(cfg)
    _same_names(f"{path}: params", doc["params"], list(shapes))
    params = {name: _checked(f"{path}: params.{name}", doc["params"][name], shape, np.float64)
              for name, shape in shapes.items()}
    n, widths = cfg.n_domains, cfg.classifier_widths + (cfg.n_classes,)  # Model's alignment layer widths
    _same_names(f"{path}: running", doc["running"], [str(j) for j in range(len(widths))])
    running = {}
    for j, width in enumerate(widths):
        stats = doc["running"][str(j)]
        _same_names(f"{path}: running.{j}", stats, ["mean", "var", "count"])
        rules = {"mean": ((n, width), np.float64, False), "var": ((n, width), np.float64, True),
                 "count": ((n,), np.int64, True)}
        for name, rule in rules.items():
            running[j, name] = _checked(f"{path}: running.{j}.{name}", stats[name], *rule)
    model = Model(cfg)
    for name, p in model.named_params():
        p.value[...] = params[name]
    for (j, name), values in running.items():
        getattr(model.align_layers[j].running, name)[...] = values
    return model
