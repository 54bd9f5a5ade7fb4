"""Spans around calls into mdalign's public functions, and their self times.

A traced run replaces each public function at the place its caller looks it
up (a module global such as `training.forward_train`, or a class attribute
such as `AlignmentLayer.forward`) with a wrapper that records one span: the
span's name, start, end and the span that was open when it started.  Spans
stay in memory until the run ends.  Counters are bumped at the same
boundaries, so a count and the time it explains come from the same call.

The program is single-threaded, so spans nest strictly: the part of a span's
interval covered by its children is the sum of its direct children's
durations, and a span's self time is its duration minus that sum.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans and counters; `patch` installs wrappers, `restore` removes them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, counter: str | None = None, amount=None):
        """A wrapper of fn that records a span `name` and bumps `counter` by amount(args)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if counter is not None:
                counts[counter] += 1 if amount is None else amount(args)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, counter: str | None = None, amount=None) -> None:
        """Replace owner.attr (a module global or a class attribute) with a traced wrapper."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counter, amount))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the root of a timed round."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def iteration_times(spans, loop: str, step: str, breaks) -> list[list[float]]:
    """Iteration times of each `loop` span, in the order the loops ran.

    An iteration ends when its `step` span ends, so the time between two
    consecutive step ends in one loop is one whole iteration, from drawing its
    batch to the update.  The first iteration of a loop, and intervals with a
    span named in `breaks` (an evaluation, say) in them, are left out.
    """
    loops: dict[int, list[float]] = {}
    last_end: dict[int, float | None] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == loop:
            loops[i] = []
            last_end[i] = None
        elif name == step and parent in loops:
            if last_end[parent] is not None:
                loops[parent].append(end - last_end[parent])
            last_end[parent] = end
        elif name in breaks and parent in loops:
            last_end[parent] = None
    return list(loops.values())


def write_spans(path, rounds) -> None:
    """Write the spans of each traced round as CSV: round, index, parent, name, start and end in us."""
    with open(path, "w") as f:
        f.write("round,index,parent,name,start_us,end_us\n")
        for r, spans in enumerate(rounds):
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                f.write(f"{r},{i},{parent},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n")


# ---------------------------------------------------------------------------
# mdalign's layer boundaries


def _rows(args) -> int:
    return len(args[0])


def _merge_rows(args) -> int:
    return len(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap each public function of mdalign's modules where its caller looks it up.

    Span names are `<module>.<layer metric>`; several functions may share a
    name, as the softmax and cross-entropy pairs share primitives.softmax.
    """
    from mdalign import alignment, assignment, data, experiments, model, training

    table = [
        # data
        (data, "synth_make", "data.synth_make", None, None),
        (experiments, "synth_make", "data.synth_make", None, None),
        (data, "load_manifest", "data.load_manifest", None, None),
        (training, "BatchSampler", "data.sampler_init", None, None),
        (data.BatchSampler, "next_batch", "data.next_batch", None, None),
        (data, "make_batch", "data.make_batch", "data.batch_rows", _rows),
        (training, "make_batch", "data.make_batch", "data.batch_rows", _rows),
        # assignment
        (model, "merge_assignments", "assignment.merge", "assignment.merge_rows", _merge_rows),
        (assignment.DomainPredictor, "forward", "assignment.predictor", None, None),
        (assignment.DomainPredictor, "backward", "assignment.predictor", None, None),
        # alignment
        (alignment.AlignmentLayer, "forward", "alignment.forward", "alignment.calls", None),
        (alignment.AlignmentLayer, "backward", "alignment.backward", "alignment.calls", None),
        (alignment.AlignmentLayer, "infer", "alignment.infer", "alignment.calls", None),
        # losses
        (model, "class_entropy", "losses.objective", None, None),
        (model, "domain_entropy", "losses.objective", None, None),
        (model, "total_loss", "losses.objective", None, None),
        # primitives
        (model, "softmax", "primitives.softmax", None, None),
        (model, "softmax_backward", "primitives.softmax", None, None),
        (model, "cross_entropy", "primitives.softmax", None, None),
        (model, "softmax_cross_entropy_backward", "primitives.softmax", None, None),
        (assignment, "softmax", "primitives.softmax", None, None),
        (model, "dense_forward", "primitives.dense", None, None),
        (model, "dense_backward", "primitives.dense", None, None),
        (assignment, "dense_forward", "primitives.dense", None, None),
        (assignment, "dense_backward", "primitives.dense", None, None),
        (model, "relu_forward", "primitives.relu", None, None),
        (model, "relu_backward", "primitives.relu", None, None),
        (assignment, "relu_forward", "primitives.relu", None, None),
        (assignment, "relu_backward", "primitives.relu", None, None),
        # model
        (training, "forward_train", "model.forward_train", None, None),
        (training, "backward_train", "model.backward_train", None, None),
        (training, "forward_eval", "model.forward_eval", None, None),
        (model, "save_checkpoint", "model.checkpoint", None, None),
        (model, "load_checkpoint", "model.checkpoint", None, None),
        # training
        (experiments, "train", "training.loop", None, None),
        (training, "train", "training.loop", None, None),
        (training, "sgd_step", "training.sgd_step", "training.iterations", None),
        (training, "evaluate_model", "training.evaluate", None, None),
        # experiments
        (experiments, "run_baseline_grid", "experiments.runner", None, None),
        (experiments, "run_single", "experiments.runner", "experiments.runs", None),
    ]
    for owner, attr, name, counter, amount in table:
        tracer.patch(owner, attr, name, counter, amount)
