"""mdalign benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload pinned_grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The workload repeats whole rounds while one more round
still fits in --seconds (at least one).  With --trace 0 it prints the
end-to-end metrics: set-up time, the fastest of a block of set-ups made
before the rounds and, on most workloads, of set-ups spread over the
training loops; training throughput from the fastest iteration of each run;
and peak memory.  With --trace 1 it prints the per-layer ones: traced rounds
alternate with plain rounds, and the spans of the traced rounds are written
to .bench_out/.  Every run checks the program's outputs; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from statistics import fmean, median
from time import perf_counter

from spans import Tracer, instrument, iteration_times, self_times, write_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("pinned_grid", "wide_domains", "digit_files")
# the block of set-ups before the first round has at least SETUP_BLOCK_REPS
# calls and lasts at least SETUP_BLOCK_S seconds; during training, on
# workloads whose setup_in_training is true, one more set-up call follows an
# update step once SETUP_PAUSE times the last call's length has passed since
# it, so set-up takes about a tenth of the run
SETUP_BLOCK_REPS = 3
SETUP_BLOCK_S = 1.0
SETUP_PAUSE = 9.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics from spans: (metric, span name) with the self time in seconds
SPAN_METRICS = [
    ("data.synth_make_s", "data.synth_make"),
    ("data.load_manifest_s", "data.load_manifest"),
    ("data.sampler_init_s", "data.sampler_init"),
    ("data.next_batch_s", "data.next_batch"),
    ("data.make_batch_s", "data.make_batch"),
    ("assignment.merge_s", "assignment.merge"),
    ("assignment.predictor_s", "assignment.predictor"),
    ("alignment.forward_s", "alignment.forward"),
    ("alignment.backward_s", "alignment.backward"),
    ("alignment.infer_s", "alignment.infer"),
    ("losses.objective_s", "losses.objective"),
    ("primitives.softmax_s", "primitives.softmax"),
    ("primitives.dense_s", "primitives.dense"),
    ("primitives.relu_s", "primitives.relu"),
    ("model.forward_train_s", "model.forward_train"),
    ("model.backward_train_s", "model.backward_train"),
    ("model.forward_eval_s", "model.forward_eval"),
    ("model.checkpoint_s", "model.checkpoint"),
    ("training.loop_s", "training.loop"),
    ("training.sgd_step_s", "training.sgd_step"),
    ("training.evaluate_s", "training.evaluate"),
    ("experiments.runner_s", "experiments.runner"),
]
COUNT_METRICS = [
    "data.batch_rows",
    "assignment.merge_rows",
    "alignment.calls",
    "training.iterations",
    "experiments.runs",
]
ROOT_SPAN = "bench.round"
LOOP_SPAN = "training.loop"
STEP_SPAN = "training.sgd_step"
EVAL_SPAN = "training.evaluate"
SETUP_SPAN = "bench.setup"


def blas_env_threads() -> int:
    """One BLAS thread unless the environment asks for more, never more than the cores
    this process may use; call before numpy loads.  Returns that core count.

    One thread keeps runs steadier on a shared machine, and none of the
    workloads' matrices is large enough to gain much from a second.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = "1"
    return nproc


def blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: str):
    """The commit checked out at root, read from .git without starting git; None outside a repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mdalign", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_use(),
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end_metrics(setup_times, loops, runs_per_round: int, rows_per_step: int, rss_mb: float) -> dict:
    """{name: (value, unit)} from set-up times and the iteration times of each training loop.

    Set-up time is the fastest call.  The loops at the same place in every
    round train the same run; their iterations are pooled.  A run's iteration
    time is the fastest of its pool, and throughput averages these over the
    runs of a round.
    """
    fastest = [min(t for times in loops[k::runs_per_round] for t in times) for k in range(runs_per_round)]
    return {
        "setup_s": (min(setup_times), "s"),
        "train_samples_per_s": (rows_per_step / fmean(fastest), "samples/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def set_up_block(wl, times: list):
    """At least SETUP_BLOCK_REPS set-up calls lasting SETUP_BLOCK_S together, each timed
    on its own into times; returns the last dataset.  Only one dataset is alive at a time."""
    block, dataset = [], None
    while len(block) < SETUP_BLOCK_REPS or sum(block) < SETUP_BLOCK_S:
        dataset = None
        start = perf_counter()
        dataset = wl.setup()
        block.append(perf_counter() - start)
    times.extend(block)
    return dataset


class Runner:
    """Repeats whole rounds of one workload and keeps what the checks and metrics need."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.diverged = 0

    def attempt(self, fn):
        """Run fn as one round; returns its wall time, or None when it raised."""
        self.attempted += self.wl.ops_per_round
        start = perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.ops_per_round
            return None
        wall = perf_counter() - start
        if self.first is None:
            self.first = out
        elif repr(out["rows"]) != repr(self.first["rows"]):
            self.diverged += 1
        return wall


def _room_for_another(start: float, seconds: float, rounds: int) -> bool:
    """True while one more round of the mean length so far still ends within seconds."""
    elapsed = perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds <= seconds


def measure(runner, seconds: float, setup_times: list):
    """Whole rounds while another fits, with set-up calls spread over the training loops.

    Returns the round walls, the iteration times of every training loop, and
    the peak memory read right after the first round: later rounds run while
    the first round's results are kept for the checks, and how many rounds
    fit depends on the machine's speed.

    Only the training loop, its update step and its evaluation are wrapped,
    where their callers look them up, to time each iteration.  A set-up call
    made after an update step drops its dataset at once; the iteration it
    falls in is left out, as one with an evaluation is.  Workloads whose
    set-up makes a dataset as large as the memory peak make no such calls.
    """
    from mdalign import experiments, training

    wl = runner.wl
    walls = []
    clock = Tracer()
    clock.patch(training, "train", LOOP_SPAN)
    clock.patch(experiments, "train", LOOP_SPAN)
    clock.patch(training, "sgd_step", STEP_SPAN)
    clock.patch(training, "evaluate_model", EVAL_SPAN)
    step = training.sgd_step
    due = perf_counter()

    def step_then_set_up(*args, **kwargs):
        nonlocal due
        out = step(*args, **kwargs)
        if perf_counter() >= due:
            with clock.span(SETUP_SPAN):
                start = perf_counter()
                wl.setup()
                setup_times.append(perf_counter() - start)
            due = perf_counter() + SETUP_PAUSE * setup_times[-1]
        return out

    if wl.setup_in_training:
        training.sgd_step = step_then_set_up
    try:
        dataset = set_up_block(wl, setup_times)
        start = perf_counter()
        rounds = 0
        while _room_for_another(start, seconds, rounds):
            kept = len(clock.spans)
            wall = runner.attempt(lambda: wl.round(dataset))
            if rounds == 0:
                rss_mb = peak_rss_mb()
            if wall is None:
                del clock.spans[kept:]  # a failed round's loops would shift the others' places
            else:
                walls.append(wall)
            rounds += 1
    finally:
        training.sgd_step = step
        clock.restore()
    return walls, iteration_times(clock.spans, LOOP_SPAN, STEP_SPAN, (EVAL_SPAN, SETUP_SPAN)), rss_mb


def measure_traced(runner, seconds: float):
    """Pairs of a plain and a traced round, each with one set-up call, while another pair fits."""
    plain, traced, tracers = [], [], []
    wl = runner.wl

    def plain_round():
        return wl.round(wl.setup())

    def traced_round():
        tracer = Tracer()
        instrument(tracer)
        try:
            with tracer.span(ROOT_SPAN):
                out = wl.round(wl.setup())
        finally:
            tracer.restore()
        tracers.append(tracer)
        return out

    start = perf_counter()
    pair = 0
    while _room_for_another(start, seconds, pair):
        order = (plain_round, traced_round) if pair % 2 == 0 else (traced_round, plain_round)
        for fn in order:
            wall = runner.attempt(fn)
            if wall is not None:
                (plain if fn is plain_round else traced).append(wall)
        pair += 1
    return plain, traced, tracers


def per_layer_metrics(plain, traced, tracers, seed: int) -> dict:
    from micro import run_timings

    selfs = [self_times(t.spans) for t in tracers]
    metrics = {}
    for metric, span in SPAN_METRICS:
        metrics[metric] = (median(s.get(span, 0.0) for s in selfs), "s")
    for metric in COUNT_METRICS:
        metrics[metric] = (median(t.counts.get(metric, 0) for t in tracers), "count")
    accounted = [
        sum(v for name, v in s.items() if name != ROOT_SPAN) / wall for s, wall in zip(selfs, traced)
    ]
    metrics["trace.accounted_pct"] = (100.0 * median(accounted), "%")
    metrics["trace.overhead_pct"] = (100.0 * (median(traced) / median(plain) - 1.0), "%")
    for metric, value in run_timings(seed).items():
        metrics[metric] = (value, "us")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mdalign", "__init__.py")):
        print(f"no mdalign sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    nproc = blas_env_threads()
    sys.path.insert(0, SRC)
    import mdalign

    if os.path.dirname(os.path.abspath(mdalign.__file__)) != os.path.join(SRC, "mdalign"):
        print(f"mdalign imported from {mdalign.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import micro
    import workloads

    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        problems = wl.check_inputs(set_up_block(wl, []))

        runner = Runner(wl)
        if args.trace:
            plain, traced, tracers = measure_traced(runner, args.seconds)
        else:
            setup_times = []
            # the memory peak is read in there, before the checks below: they evaluate over whole
            # datasets and run the layer at every microbenchmark shape, and would set a peak of their own
            walls, loops, rss_mb = measure(runner, args.seconds, setup_times)
        problems += micro.run_checks(args.seed)
        notes = []
        if runner.first is not None:
            found, notes = wl.check(runner.first, wl.setup())
            problems += found
        if runner.diverged:
            problems.append(f"{runner.diverged} rounds gave other rows than the first under the same seed")

        if args.trace:
            if not traced or not plain:
                print("no traced or no plain round finished", file=sys.stderr)
                return 1
            metrics = per_layer_metrics(plain, traced, tracers, args.seed)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv"), [t.spans for t in tracers])
        else:
            if not walls:
                print("no round finished", file=sys.stderr)
                return 1
            metrics = end_to_end_metrics(setup_times, loops, wl.ops_per_round, wl.rows_per_step, rss_mb)
            steps = [t for times in loops for t in times]
            notes.append(f"{len(walls)} rounds, median {median(walls):.3f} s; {len(steps)} iterations, "
                         f"median {1e3 * median(steps):.3f} ms; {len(setup_times)} set-ups, "
                         f"median {median(setup_times):.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print("note " + note)
    for problem in problems:
        print("CHECK FAILED " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
