"""The benchmark's workloads run on this checkout and their own output checks pass.

Every run checks the alignment layer against the benchmark's plain-loop
reference at each workload's shape, with gradient probes.  digit_files reads
datasets the way outside code does (row views, whole splits handed to
make_batch), so it guards that contract end to end; wide_domains trains
through alignment layers of 512 rows, up to 256 channels and 6 domains, and
recomputes the run's accuracy and NMI apart from the program.  pinned_grid
runs the baseline grid through the hooks the benchmark times it by (the
runner's `train` and `training.sgd_step`) and checks each run's evaluation
and the baselines' ordering.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload_briefly(workload):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0


def test_digit_files_benchmark_runs_correct():
    run_workload_briefly("digit_files")


def test_wide_domains_benchmark_runs_correct():
    run_workload_briefly("wide_domains")


def test_pinned_grid_benchmark_runs_correct():
    run_workload_briefly("pinned_grid")


def test_benchmark_hooks_resolve():
    """Every function the traced benchmark wraps still exists where the benchmark looks it up.

    The throughput metrics read the training.sgd_step spans, so a 3-iteration
    train must pass through that wrapper once per iteration.
    """
    from mdalign import training
    from mdalign.data import BatchSpec, SynthConfig, synth_make
    from mdalign.losses import LossWeights
    from mdalign.model import Model, ModelConfig

    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    original = training.forward_train
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        assert training.forward_train.__wrapped__ is original
        cfg = training.TrainConfig(iterations=3, weights=LossWeights(0.0, 0.0, 0.0),
                                   batch=BatchSpec(source_quota=8, target_quota=8))
        data = synth_make(SynthConfig(train_per_domain=20, test_per_domain=20))
        training.train(Model(ModelConfig(in_dim=6, n_classes=4)), data, cfg)
        assert [s[0] for s in tracer.spans].count("training.sgd_step") == 3
        assert tracer.counts["training.iterations"] == 3
    finally:
        tracer.restore()
    assert training.forward_train is original
