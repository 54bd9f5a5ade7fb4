"""Command-line interface: exit codes, overrides, artifacts, determinism."""

import dataclasses
import json
import os
import re
import resource
import struct
import subprocess
import sys

import numpy as np
import pytest

import mdalign
from mdalign.alignment import AlignConfig
from mdalign.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from mdalign.data import BatchSpec, FeatureShift, SynthConfig, synth_make
from mdalign.losses import LossWeights
from mdalign.model import Model, ModelConfig, config_from_json
from mdalign.training import TrainConfig, metrics_csv_lines, train


@pytest.fixture
def quick_config(tmp_path):
    """A small synthetic task that trains in well under a second."""
    doc = {
        "data": {
            "synthetic": {
                "n_latent_domains": 2,
                "n_classes": 3,
                "feature_dim": 4,
                "train_per_domain": 40,
                "test_per_domain": 40,
                "class_separation": 3.0,
                "domain_shifts": [{"offset": 1.5}, {"offset": -1.5}],
                "standardize": True,
                "seed": 5,
            }
        },
        "model": {"trunk_widths": [12], "classifier_widths": [12], "branch_hidden": 8},
        "train": {
            "iterations": 40,
            "base_lr": 0.05,
            "eval_every": 20,
            "batch": {"source_quota": 16, "target_quota": 16},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestTrainCommand:
    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_unknown_field_names_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"iterationz": 5}}))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "train.iterationz" in capsys.readouterr().err

    def test_run_directory_artifacts(self, quick_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", quick_config, "--out", str(out)]) == EXIT_OK
        for name in ("manifest.json", "metrics.csv", "checkpoint.json", "summary.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert len(manifest["config_hash"]) == 16
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "iteration,total,class_ce,domain_ce,h_C,h_D,acc,nmi,purity,lr"

    def test_existing_out_dir_needs_force(self, quick_config, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["train", "--config", quick_config, "--out", str(out)]) == EXIT_CONFIG
        assert main(["train", "--config", quick_config, "--out", str(out), "--force"]) == EXIT_OK

    def test_out_that_is_a_file_is_refused_before_training(self, quick_config, tmp_path, capsys, monkeypatch):
        # it used to train, then fail writing into the file with NotADirectoryError (exit 1)
        from mdalign import cli

        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained"))
        out = tmp_path / "run"
        out.write_text("")
        assert main(["train", "--config", quick_config, "--out", str(out), "--force"]) == EXIT_CONFIG
        assert f"--out {out}: exists and is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["baselines", "--seeds", "1"]], ids=["train", "baselines"])
    @pytest.mark.parametrize("where", ["empty", "under_a_file"])
    def test_out_that_cannot_be_made_is_refused_before_training(
        self, quick_config, tmp_path, capsys, monkeypatch, command, where
    ):
        # both used to train in full, then fail in os.makedirs (FileNotFoundError, NotADirectoryError), exit 1
        from mdalign import cli, experiments

        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained"))
        monkeypatch.setattr(experiments, "train", lambda *a: pytest.fail("trained"))
        (tmp_path / "file").write_text("")
        out = {"empty": "", "under_a_file": str(tmp_path / "file" / "run")}[where]
        assert main([*command, "--config", quick_config, "--out", out]) == EXIT_CONFIG
        expected = {"empty": "--out: the path is empty", "under_a_file": f"{tmp_path / 'file'} is not a directory"}
        assert expected[where] in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]

    def test_set_override_wins(self, quick_config, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", quick_config, "--out", str(out), "--set", "train.seed=7"]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["seed"] == 7
        assert manifest["seeds"] == [7]

    def test_identical_configs_give_byte_identical_metrics(self, quick_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", quick_config, "--out", str(out_a)]) == EXIT_OK
        assert main(["train", "--config", quick_config, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a == hash_b

    def test_numerical_abort_exit_code(self, quick_config, tmp_path, capsys):
        code = main(
            [
                "train",
                "--config",
                quick_config,
                "--out",
                str(tmp_path / "run"),
                "--set",
                "train.base_lr=1e18",
            ]
        )
        assert code == EXIT_NUMERICAL
        assert "iteration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (["data.synthetic.conflict_pair=[0, 1]"], "data.synthetic.conflict_pair: unknown field"),
            (["data.synthetic.conflict_strength=1"], "data.synthetic.conflict_strength: unknown field"),
            (["data.synthetic.patch_jitter=0.5"], "data.synthetic.patch_jitter: unknown field"),
            (["train.batch.replace=true"], "train.batch.replace: unknown field"),
            (["model.align_after=[0]"], "model.align_after: unknown field"),
            (["data.synthetic.patch_hw=[2, 2]"], "data.synthetic.patch_hw: unknown field"),
            (["train.batch.seed=3"], "train.batch.seed: unknown field"),
            (["train.schedule=\"inverse\""], "train.schedule: unknown field"),
            (["train.momentum=0.5"], "train.momentum: unknown field"),
            (["train.weight_decay=0"], "train.weight_decay: unknown field"),
            (["model.align.running_momentum=1.0"], "model.align: unknown field"),
            (["model.align.eps=0.001"], "model.align: unknown field"),
            (
                ["data.synthetic.target_shift.permutation=[3, 2, 1, 0]"],
                "data.synthetic.target_shift.permutation: unknown field",
            ),
            (
                ["data.synthetic.target_shift.noise_sigma=0.1"],
                "data.synthetic.target_shift.noise_sigma: unknown field",
            ),
            (
                ["train.batch.balance_datasets=true"],
                "train.batch.balance_datasets: needs a dataset id on every source row",
            ),
            (["train.eval_every=0"], "train: eval_every must be >= 1"),
            (["train.batch.source_quota=0"], "train.batch: source_quota must be >= 1"),
            (["train.batch.target_quota=0"], "train.batch: target_quota must be >= 1"),
            (["train.batch.target_quota=0", "train.weights.class_entropy=0"], "train.batch: target_quota must be >= 1"),
            (["model.in_dim=5"], "model.in_dim: source_train rows have shape (4,), but model.in_dim is 5"),
            (["model.n_classes=2"], "model.n_classes: source row 0 has class label 2, but model.n_classes is 2"),
            (["train.batch.source_quota=2.5"], "train.batch.source_quota: expected int, found 2.5"),
            (["train.iterations=2.5"], "train.iterations: expected int, found 2.5"),
            (["model.k=1.5"], "model.k: expected int, found 1.5"),
            (['model.whole_batch_norm="no"'], "model.whole_batch_norm: expected bool, found 'no'"),
            (["data.synthetic.standardize=1"], "data.synthetic.standardize: expected bool, found 1"),
            (["model.trunk_widths=[12.5]"], "model.trunk_widths[0]: expected int, found 12.5"),
            (["train.seed=true"], "train.seed: expected int, found True"),
            (["train.base_lr=NaN"], "train.base_lr: expected finite float, found nan"),
            (["train.base_lr=" + "9" * 400], "train.base_lr: expected finite float, found 999"),
            (
                ['data.synthetic.target_shift.offset="x"'],
                "data.synthetic.target_shift.offset: expected finite float, found 'x'",
            ),
            (
                ['data.synthetic.target_shift={"offset": [1, 2]}'],
                "data.synthetic: target_shift.offset: 2 entries, but feature_dim is 4",
            ),
            (['data.synthetic.target_shift={"scale": [2]}'], "data.synthetic: target_shift.scale: 1 entries"),
            (
                ['data.synthetic.domain_shifts=[{"offset": 1.5}, {"scale": [1, 2, 3, 4, 5]}]'],
                "data.synthetic: domain_shifts[1].scale: 5 entries, but feature_dim is 4",
            ),
            (['data={"manifest": 12345}'], "data.manifest: expected a path string, found int"),
            (['data={"manifest": ["a.json"]}'], "data.manifest: expected a path string, found list"),
            (["model.seed=-1"], "model: seed must be >= 0"),
            (["train.seed=-1"], "train: seed must be >= 0"),
            (["data.synthetic.seed=-1"], "data.synthetic: seed must be >= 0"),
            (["train=[]"], "train: expected an object, found list"),
            (["model=5"], "model: expected an object, found int"),
            (["data=3"], "data: expected an object, found int"),
            (["model.branch_hidden=0"], "model: branch_hidden must be >= 1"),
            (["model.trunk_widths=[0]"], "model: trunk_widths[0] must be >= 1, found 0"),
            (["model.classifier_widths=[12, 0]"], "model: classifier_widths[1] must be >= 1, found 0"),
        ],
        ids=["conflict_pair", "conflict_strength", "patch_jitter", "replace", "align_after", "patch_hw",
             "batch_seed", "schedule", "momentum", "weight_decay", "running_momentum", "align", "permutation",
             "noise_sigma",
             "balance_without_ids", "eval_every", "source_quota", "target_quota", "target_quota_without_class_entropy",
             "in_dim", "n_classes",
             "fractional_quota", "fractional_iterations", "fractional_k", "string_affine", "int_standardize",
             "fractional_width", "bool_seed", "nan_base_lr", "huge_int_base_lr", "string_offset", "short_offset", "one_entry_scale",
             "long_domain_scale", "int_manifest", "list_manifest", "negative_model_seed", "negative_train_seed",
             "negative_synthetic_seed", "train_list", "model_number", "data_number", "zero_branch_hidden",
             "zero_trunk_width", "zero_classifier_width"],
    )
    def test_bad_override_is_a_config_error(self, quick_config, tmp_path, capsys, overrides, expected):
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["train", "--config", quick_config, "--out", str(tmp_path / "run"), *sets])
        assert code == EXIT_CONFIG
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, overrides, code, expected",
        [
            (["train"], ["model.branch_hidden=0"], EXIT_CONFIG, "config error: model: branch_hidden must be >= 1"),
            (
                ["baselines", "--seeds", "1"],
                ["model.k=1"],
                EXIT_CONFIG,
                "config error: config=multi_source seed 0: model.k",
            ),
            (["train"], ["train.base_lr=1e18"], EXIT_NUMERICAL, "numerical abort: non-finite loss at iteration 1"),
            (["baselines", "--seeds", "1"], ["train.base_lr=1e18"], EXIT_NUMERICAL, "non-finite loss at iteration"),
            (
                ["train"],
                ["train.base_lr=1e308"],
                EXIT_NUMERICAL,
                "numerical abort: non-finite domain probabilities from the predictor branch at iteration 1",
            ),
            (
                ["train"],
                ["train.base_lr=1e308", "train.iterations=1"],
                EXIT_NUMERICAL,
                "numerical abort: non-finite class probabilities in the evaluation after the update at iteration 0",
            ),
        ],
        ids=["config", "run_inputs", "numerical_abort", "grid_numerical_abort", "diverging_predictor",
             "diverging_last_step"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_leaves_no_directory(self, quick_config, tmp_path, capsys, command, overrides, code, expected):
        """The run directory is made once the run has finished, so a run that fails at any stage leaves none."""
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert main([*command, "--config", quick_config, "--out", str(tmp_path / "run"), *sets]) == code
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_list_shifts_train_as_tuples(self, quick_config, tmp_path):
        """JSON lists for a shift's offset and scale give the metrics of the SynthConfig built with tuples."""
        out = tmp_path / "run"
        shift = 'data.synthetic.target_shift={"offset": [0.5, 0, -0.5, 1], "scale": [1, 2, 1, 0.5]}'
        assert main(["train", "--config", quick_config, "--out", str(out), "--set", shift]) == EXIT_OK
        data = SynthConfig(
            n_classes=3, feature_dim=4, train_per_domain=40, test_per_domain=40,
            domain_shifts=(FeatureShift(offset=1.5), FeatureShift(offset=-1.5)),
            target_shift=FeatureShift(offset=(0.5, 0.0, -0.5, 1.0), scale=(1.0, 2.0, 1.0, 0.5)),
            standardize=True, seed=5,
        )
        model = Model(ModelConfig(in_dim=4, n_classes=3, trunk_widths=(12,), classifier_widths=(12,), branch_hidden=8))
        train_cfg = TrainConfig(iterations=40, eval_every=20, batch=BatchSpec(source_quota=16, target_quota=16))
        _, rows = train(model, synth_make(data), train_cfg)
        assert (out / "metrics.csv").read_text() == "\n".join(metrics_csv_lines(rows)) + "\n"

    def test_module_runs_the_command(self, tmp_path):
        """python -m mdalign.cli runs main, so a missing config exits 2."""
        src = os.path.dirname(os.path.dirname(mdalign.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "mdalign.cli", "train", "--config", "missing.json", "--out", "x"]
        proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "config file not found: missing.json" in proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "setting, path",
        [
            ("model.branch_hidden=1000000000000", "model.branch_hidden"),
            ("model.trunk_widths=[1000000000000]", "model.trunk_widths[0]"),
            ("model.classifier_widths=[1000000000000]", "model.classifier_widths[0]"),
            ("model.k=1000000000000", "model.k"),
            ("data.synthetic.train_per_domain=1000000000000", "data.synthetic.train_per_domain"),
            ("data.synthetic.feature_dim=1000000000000", "data.synthetic.feature_dim"),
            # a byte count past intp is refused before any allocation, with a ValueError
            ("model.branch_hidden=1000000000000000000", "model.branch_hidden"),
            ("data.synthetic.train_per_domain=1000000000000000000", "data.synthetic.train_per_domain"),
            # one identity shift per latent domain was once built before any array, for 40 s
            pytest.param(
                ("data.synthetic.domain_shifts=[]", "data.synthetic.n_latent_domains=1000000000000"),
                "data.synthetic.n_latent_domains",
                id="data.synthetic.n_latent_domains=1000000000000-identity_shifts",
            ),
        ],
    )
    def test_size_too_large_to_allocate_is_a_config_error(self, quick_config, tmp_path, setting, path):
        """Each size fails to allocate at once; the run has a process of its own, its address space capped at 3 GiB.

        setting is one --set value or a tuple of them, the last one setting the size.
        """

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        src = os.path.dirname(os.path.dirname(mdalign.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = tmp_path / "run"
        cmd = [sys.executable, "-m", "mdalign.cli", "train", "--config", quick_config, "--out", str(out)]
        settings = (setting,) if isinstance(setting, str) else setting
        for one in settings:
            cmd += ["--set", one]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=15, preexec_fn=cap_address_space
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        size = settings[-1].rsplit("=", 1)[1].strip("[]")
        assert proc.stderr.startswith(f"config error: {path}: {size} is too large"), proc.stderr
        assert not out.exists()

    def test_bad_set_syntax(self, quick_config, tmp_path):
        code = main(["train", "--config", quick_config, "--out", str(tmp_path / "o"), "--set", "oops"])
        assert code == EXIT_CONFIG


class TestGradcheckCommand:
    def test_stock_run_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        output = capsys.readouterr().out
        for group in ("trunk", "classifier", "mda_affine", "branch", "assignment"):
            assert group in output

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        from mdalign.alignment import AlignmentLayer

        original = AlignmentLayer.backward

        def corrupted(self, cache, grad_out):
            grad_x, grad_w, grad_gamma, grad_beta = original(self, cache, grad_out)
            return grad_x * 1.01, grad_w, grad_gamma, grad_beta

        monkeypatch.setattr(AlignmentLayer, "backward", corrupted)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        assert "FAILED" in capsys.readouterr().out

    def test_each_layer_gradient_names_its_worst_configuration(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for key in ("grad_x", "grad_w", "grad_gamma", "grad_beta"):
            line = next(line for line in lines if line.split()[0] == key)
            assert re.search(r" at b=[48] k=[123] c=[13] rank=[24] mixed=(True|False)$", line), line

    def test_failure_names_the_configuration(self, monkeypatch, capsys):
        from mdalign.alignment import AlignmentLayer

        original = AlignmentLayer.backward

        def corrupted(self, cache, grad_out):
            grad_x, grad_w, grad_gamma, grad_beta = original(self, cache, grad_out)
            if cache.x_shape == (4, 1) and self.n_domains == 2:
                grad_gamma = grad_gamma * 1.01
            return grad_x, grad_w, grad_gamma, grad_beta

        monkeypatch.setattr(AlignmentLayer, "backward", corrupted)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        assert "FAILED: grad_gamma (b=4 k=1 c=1 rank=2 mixed=True)" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exit_info:
            main(["gradcheck", "--seed", seed])
        assert exit_info.value.code == 2
        assert f"argument --seed: expected an integer >= 0, found '{seed}'" in capsys.readouterr().err


class TestRunnerCommands:
    def test_baselines_emits_exactly_four_rows(self, quick_config, tmp_path):
        out = tmp_path / "base"
        code = main(
            ["baselines", "--config", quick_config, "--out", str(out), "--seeds", "2",
             "--set", "train.iterations=20"]
        )
        assert code == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 5  # header + one row per configuration
        labels = [line.split(",")[0] for line in summary[1:]]
        assert labels == ["source_only", "unified", "discovery", "multi_source"]
        runs = (out / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 4 * 2

    def test_ablate_k_default_list(self, quick_config, tmp_path):
        out = tmp_path / "abl"
        code = main(
            ["ablate-k", "--config", quick_config, "--out", str(out), "--seeds", "1",
             "--set", "train.iterations=20"]
        )
        assert code == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["2", "3", "4", "5"]

    def test_sweep_default_fractions(self, quick_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep-labels", "--config", quick_config, "--out", str(out), "--seeds", "1",
             "--set", "train.iterations=20"]
        )
        assert code == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["0.0", "0.05", "0.25", "0.5", "1.0"]

    @pytest.mark.parametrize(
        "command, code, expected",
        [
            (
                ["baselines"],
                EXIT_CONFIG,
                "config=multi_source seed 0: model.k: source row 40 declares domain 1, but model.k is 1",
            ),
            (["sweep-labels", "--fractions", "0,1"], EXIT_CONFIG, "model.k: source row 40 declares domain 1"),
            (["sweep-labels", "--fractions", "0"], EXIT_OK, ""),
        ],
        ids=["baselines", "sweep_revealing", "sweep_revealing_none"],
    )
    def test_revealed_domain_beyond_k(self, quick_config, tmp_path, capsys, command, code, expected):
        """Runners that reveal latent domains need each of them below model.k, checked before the run directory."""
        out = tmp_path / "grid"
        args = ["--config", quick_config, "--out", str(out), "--seeds", "1", "--set", "model.k=1"]
        assert main([*command, *args, "--set", "train.iterations=5"]) == code
        assert expected in capsys.readouterr().err
        assert out.exists() == (code == EXIT_OK)

    @pytest.mark.parametrize(
        "command, expected",
        [
            (["ablate-k", "--k", "0"], "argument --k: expected comma-separated integers >= 1, found '0'"),
            (["ablate-k", "--k", "x"], "argument --k: expected comma-separated integers >= 1, found 'x'"),
            (
                ["sweep-labels", "--fractions", "1.5"],
                "argument --fractions: expected comma-separated numbers in [0, 1], found '1.5'",
            ),
            (
                ["sweep-labels", "--fractions", "0,-0.5"],
                "argument --fractions: expected comma-separated numbers in [0, 1], found '0,-0.5'",
            ),
            (["baselines", "--seeds", "0"], "argument --seeds: expected an integer >= 1, found '0'"),
            (["baselines", "--seeds", "-2"], "argument --seeds: expected an integer >= 1, found '-2'"),
            (["ablate-k", "--seeds", "0"], "argument --seeds: expected an integer >= 1, found '0'"),
            (["sweep-labels", "--seeds", "two"], "argument --seeds: expected an integer >= 1, found 'two'"),
        ],
        ids=["k_zero", "k_word", "fraction_above_one", "negative_fraction", "baselines_no_seeds",
             "baselines_negative_seeds", "ablate_no_seeds", "sweep_word_seeds"],
    )
    def test_bad_grid_values_are_usage_errors(self, quick_config, tmp_path, capsys, command, expected):
        """argparse converts every occurrence of a flag, so a bad --seeds fails before the trailing --seeds 1."""
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--config", quick_config, "--out", str(out), "--seeds", "1"])
        assert exit_info.value.code == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, path",
        [
            (["ablate-k", "--k", "2,1000000000000"], "--k"),
            (["sweep-labels", "--set", "data.synthetic.feature_dim=1000000000000"], "data.synthetic.feature_dim"),
            (["baselines", "--set", "model.branch_hidden=1000000000000"], "model.branch_hidden"),
        ],
        ids=["ablate_k", "sweep_labels", "baselines"],
    )
    def test_size_too_large_to_allocate_is_a_config_error(self, quick_config, tmp_path, args, path):
        """Refused before any run trains: a run of 10**9 iterations would outlast the timeout.

        Each size fails to allocate at once; the grid has a process of its own, its address space capped at 3 GiB.
        """

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        src = os.path.dirname(os.path.dirname(mdalign.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = tmp_path / "grid"
        cmd = [sys.executable, "-m", "mdalign.cli", *args, "--config", quick_config, "--out", str(out)]
        cmd += ["--seeds", "1", "--set", "train.iterations=1000000000"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"config error: {path}: 1000000000000 is too large"), proc.stderr
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["train", "baselines", "ablate-k", "sweep-labels"])
    @pytest.mark.parametrize(
        "setting", ["data.synthetic.class_separation=1e308", 'data.synthetic.target_shift={"scale": 1e308}'],
        ids=["class_separation", "target_scale"],
    )
    def test_non_finite_synthetic_features_are_a_data_error(self, quick_config, tmp_path, capsys, command, setting):
        # these used to blame data.synthetic.train_per_domain as too large (train) or die with a traceback (grids)
        out = tmp_path / "run"
        seeds = [] if command == "train" else ["--seeds", "1"]
        code = main([command, "--config", quick_config, "--out", str(out), *seeds, "--set", setting])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.match(r"config error: data\.synthetic: (source|target)_(train|test): row \d+ has non-finite", err)
        assert "too large" not in err
        assert not out.exists()


def write_digit_set(store, rng, stem, shift, n=24):
    """Write a tiny 3x3 "digit" IDX pair of n images (class = which corner is bright); returns its manifest entry."""
    from mdalign.data import idx_write_images, idx_write_labels

    labels = np.arange(n) % 2
    images = np.zeros((n, 3, 3))
    images[labels == 0, 0, 0] = 0.9
    images[labels == 1, 2, 2] = 0.9
    images += 0.05 * rng.uniform(size=images.shape) + shift
    idx_write_images(store / f"{stem}-images.idx", (images.clip(0, 1) * 255).astype(np.uint8))
    idx_write_labels(store / f"{stem}-labels.idx", labels.astype(np.uint8))
    return {"images": f"{stem}-images.idx", "labels": f"{stem}-labels.idx"}


class TestManifestTraining:
    def test_train_from_idx_manifest_with_env_dir(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        store = tmp_path / "store"
        store.mkdir()

        manifest = {
            "sources": [write_digit_set(store, rng, "a", 0.0), write_digit_set(store, rng, "b", 0.1)],
            "target": write_digit_set(store, rng, "t", 0.05),
        }
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(manifest))
        config = {
            "data": {"manifest": str(manifest_path)},
            "model": {"k": 2, "trunk_widths": [8], "classifier_widths": [8], "branch_hidden": 4},
            "train": {
                "iterations": 15,
                "base_lr": 0.05,
                "eval_every": 15,
                "batch": {"source_quota": 12, "target_quota": 12},
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        monkeypatch.setenv("MDA_DATA_DIR", str(store))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["acc"] <= 1.0

    def test_declared_domain_beyond_k_is_a_config_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        sources = [write_digit_set(tmp_path, rng, f"s{d}", 0.05 * d) for d in range(3)]
        for d, entry in enumerate(sources):
            entry["domain"] = d
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps({"sources": sources, "target": write_digit_set(tmp_path, rng, "t", 0.0)}))
        config_path = tmp_path / "config.json"
        train = {"iterations": 5, "batch": {"source_quota": 12, "target_quota": 12}}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.k: dataset id 2 declares domain 2" in err and "model.k is 2" in err
        assert not (tmp_path / "run").exists()

    def test_class_label_beyond_n_classes_is_a_config_error(self, tmp_path, capsys):
        # a label at or above n_classes used to fail in the first step's cross-entropy, after the run directory was made
        from mdalign.data import idx_write_labels

        rng = np.random.default_rng(5)
        sources = [write_digit_set(tmp_path, rng, "s", 0.0)]
        idx_write_labels(tmp_path / "s-labels.idx", np.arange(24) % 4)
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps({"sources": sources, "target": write_digit_set(tmp_path, rng, "t", 0.0)}))
        config_path = tmp_path / "config.json"
        train = {"iterations": 5, "batch": {"source_quota": 12, "target_quota": 12}}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        sets = ["--set", "model.n_classes=3"]
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run"), *sets])
        assert code == EXIT_CONFIG
        assert "model.n_classes: dataset id 0 has class label 3, but model.n_classes is 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_target_label_above_the_sources_is_a_manifest_error(self, tmp_path, capsys):
        # it used to train, and evaluation scored every row of the unknown class as a miss (acc=0.0000)
        from mdalign.data import idx_write_labels

        rng = np.random.default_rng(7)
        doc = {"sources": [write_digit_set(tmp_path, rng, "s", 0.0)], "target": write_digit_set(tmp_path, rng, "t", 0.0)}
        idx_write_labels(tmp_path / "t-labels.idx", np.full(24, 9, dtype=np.uint8))
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        train = {"iterations": 2, "batch": {"source_quota": 12, "target_quota": 12}}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        for sets in ([], ["--set", "model.n_classes=10"]):
            code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run"), *sets])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: data.manifest: ")
            assert "t-labels.idx holds target label 9, above 1, the largest source label" in err
            assert not (tmp_path / "run").exists()

    def test_one_source_class_is_a_manifest_error(self, tmp_path, capsys):
        # it used to be "config error: model: in_dim >= 1, n_classes >= 2 and k >= 1 required", naming no file
        from mdalign.data import idx_write_labels

        rng = np.random.default_rng(6)
        doc = {"sources": [write_digit_set(tmp_path, rng, "s", 0.0)], "target": write_digit_set(tmp_path, rng, "t", 0.0)}
        # the target too, since a target label above every source label is refused on its own
        for stem in ("s", "t"):
            idx_write_labels(tmp_path / f"{stem}-labels.idx", np.zeros(24, dtype=np.uint8))
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        train = {"iterations": 2, "batch": {"source_quota": 12, "target_quota": 12}}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "config error: data.manifest: every source label is 0, one class" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        # with the classes set, the same files train
        sets = ["--set", "model.n_classes=2"]
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run"), *sets])
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "breakage, expected",
        [
            ("negative_domain", "domain index >= 0"),
            ("empty_sources", "no source files"),
            ("missing_file", "s1-images.idx"),
            ("image_size", "s1-images.idx: images (1, 4, 4), expected (1, 3, 3)"),
            ("target_image_size", "t-images.idx: images (1, 5, 5), expected (1, 3, 3), the sources' image size"),
            ("target_test_image_size", "u-images.idx: images (1, 5, 5), expected (1, 3, 3), the sources' image size"),
            ("no_target", "no 'target' entry"),
            ("no_sources", "no 'sources' entry"),
            ("no_images_key", "needs 'images' and 'labels'"),
            ("fractional_domain", "declares domain 0.5, which is not an integer"),
            ("misspelt_domain", "has unknown key 'domian'"),
            ("misspelt_target_test", "digits.json: unknown key 'target_tset'"),
            ("not_an_object", "the manifest must be a JSON object, found int"),
            ("sources_not_a_list", "'sources' must be a list of file entries, found int"),
            ("images_not_a_string", "needs a path string at 'images'"),
            ("labels_not_a_string", "needs a path string at 'labels'"),
            ("payload_beyond_the_file", "t-images.idx: header declares 38654705655 payload bytes, the file holds 216"),
            ("trailing_bytes", "s1-labels.idx: 7 bytes after the 24-byte payload"),
            (
                "huge_domain",
                "s0-images.idx declares domain 1180591620717411303424, "
                "but a domain index >= 0 and below 2**63 is needed",
            ),
        ],
    )
    def test_bad_manifest_is_a_config_error(self, tmp_path, capsys, breakage, expected):
        from mdalign.data import idx_write_images

        rng = np.random.default_rng(2)
        doc = {
            "sources": [write_digit_set(tmp_path, rng, f"s{d}", 0.0) for d in range(2)],
            "target": write_digit_set(tmp_path, rng, "t", 0.0),
        }
        if breakage == "negative_domain":
            doc["sources"][0]["domain"] = -1
        elif breakage == "empty_sources":
            doc["sources"] = []
        elif breakage == "missing_file":
            os.remove(tmp_path / "s1-images.idx")
        elif breakage == "image_size":
            idx_write_images(tmp_path / "s1-images.idx", np.zeros((24, 4, 4), dtype=np.uint8))
        elif breakage == "target_image_size":
            idx_write_images(tmp_path / "t-images.idx", np.zeros((24, 5, 5), dtype=np.uint8))
        elif breakage == "target_test_image_size":
            doc["target_test"] = write_digit_set(tmp_path, rng, "u", 0.0)
            idx_write_images(tmp_path / "u-images.idx", np.zeros((24, 5, 5), dtype=np.uint8))
        elif breakage == "no_images_key":
            del doc["sources"][1]["images"]
        elif breakage == "huge_domain":
            doc["sources"][0]["domain"] = 2**70
        elif breakage == "misspelt_domain":
            doc["sources"][0]["domian"] = 0
        elif breakage == "misspelt_target_test":
            doc["target_tset"] = write_digit_set(tmp_path, rng, "u", 0.0)
        elif breakage == "fractional_domain":
            doc["sources"][0]["domain"] = 0.5
        elif breakage == "not_an_object":
            doc = 5
        elif breakage == "sources_not_a_list":
            doc["sources"] = 5
        elif breakage == "images_not_a_string":
            doc["sources"][0]["images"] = 5
        elif breakage == "labels_not_a_string":
            doc["target"]["labels"] = ["t-labels.idx"]
        elif breakage == "payload_beyond_the_file":
            with open(tmp_path / "t-images.idx", "r+b") as f:
                f.seek(4)
                f.write(struct.pack(">I", 0xFFFFFFFF))
        elif breakage == "trailing_bytes":
            with open(tmp_path / "s1-labels.idx", "ab") as f:
                f.write(b"\x00" * 7)
        else:
            del doc[breakage[3:]]
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": {"iterations": 5}}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "data.manifest" in err and expected in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "batch, expected",
        [
            ({}, "train.batch.source_quota: 64 exceeds the 24 rows of the source pool"),
            (
                {"source_quota": 24, "target_quota": 25},
                "train.batch.target_quota: 25 exceeds the 24 rows of the target pool",
            ),
        ],
        ids=["source", "target"],
    )
    def test_quota_beyond_pool_is_a_config_error(self, tmp_path, capsys, batch, expected):
        rng = np.random.default_rng(3)
        doc = {"sources": [write_digit_set(tmp_path, rng, "s", 0.0)], "target": write_digit_set(tmp_path, rng, "t", 0.0)}
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        train = {"iterations": 2, "batch": batch}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_balanced_share_beyond_a_file_is_a_config_error(self, tmp_path, capsys):
        # 16 source rows per batch, 8 per file: the 4-row file would repeat rows within a batch
        rng = np.random.default_rng(4)
        doc = {
            "sources": [write_digit_set(tmp_path, rng, "s0", 0.0), write_digit_set(tmp_path, rng, "s1", 0.0, n=4)],
            "target": write_digit_set(tmp_path, rng, "t", 0.0),
        }
        manifest_path = tmp_path / "digits.json"
        manifest_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        train = {"iterations": 2, "batch": {"source_quota": 16, "target_quota": 16, "balance_datasets": True}}
        config_path.write_text(json.dumps({"data": {"manifest": str(manifest_path)}, "train": train}))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "train.batch.balance_datasets: dataset id 1 has 4 rows, fewer than its share 8 of source_quota 16" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "run").exists()


class TestHelp:
    def test_help_enumerates_every_flag(self):
        parser = build_parser()
        help_text = parser.format_help()
        subparsers = parser._subparsers._group_actions[0].choices
        run = {"--config", "--out", "--force", "--set"}
        expected = {
            "train": run,
            "gradcheck": {"--seed"},
            "ablate-k": run | {"--k", "--seeds"},
            "sweep-labels": run | {"--fractions", "--seeds"},
            "baselines": run | {"--seeds"},
        }
        assert set(subparsers) == set(expected)
        for sub, flags in expected.items():
            assert sub in help_text
            sub_parser = subparsers[sub]
            found = {flag for action in sub_parser._actions for flag in action.option_strings} - {"-h", "--help"}
            assert found == flags, sub
            sub_help = sub_parser.format_help()
            for flag in flags:
                assert flag in sub_help, f"{flag} missing from {sub} help"


class TestConfigFields:
    # Every field here is a setting a config file, or a standalone alignment layer (AlignConfig), may name;
    # adding or dropping one shows in this list.
    FIELDS = {
        SynthConfig: (
            "n_latent_domains", "n_classes", "feature_dim", "train_per_domain", "test_per_domain",
            "domain_shifts", "target_shift", "class_separation", "standardize", "seed",
        ),
        FeatureShift: ("rotation", "offset", "scale"),
        ModelConfig: (
            "in_dim", "n_classes", "k", "trunk_widths", "classifier_widths", "branch_hidden", "whole_batch_norm",
            "seed",
        ),
        AlignConfig: ("eps", "affine", "zero_mass_threshold"),
        TrainConfig: ("iterations", "base_lr", "weights", "batch", "seed", "eval_every"),
        LossWeights: ("domain_ce", "class_entropy", "domain_entropy"),
        BatchSpec: ("source_quota", "target_quota", "balance_datasets"),
    }

    @pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
    def test_config_fields_are_pinned(self, cls):
        assert tuple(f.name for f in dataclasses.fields(cls)) == self.FIELDS[cls]

    # No field at its default, and every annotation shape: int, float, bool, tuple[int, ...],
    # tuple[FeatureShift, ...], float | tuple[float, ...] as a number and as a list, and nested configs.
    SAMPLES = {
        SynthConfig: SynthConfig(
            n_latent_domains=3, n_classes=3, feature_dim=2, train_per_domain=7, test_per_domain=5,
            domain_shifts=(FeatureShift(offset=(1.0, -1.0)), FeatureShift(rotation=0.5, scale=2.0), FeatureShift()),
            target_shift=FeatureShift(offset=0.5), class_separation=2.5, standardize=True, seed=3,
        ),
        FeatureShift: FeatureShift(rotation=0.25, offset=(1.0, 2.5), scale=0.5),
        ModelConfig: ModelConfig(
            in_dim=5, n_classes=3, k=4, trunk_widths=(8, 6), classifier_widths=(7,), branch_hidden=9,
            whole_batch_norm=True, seed=2,
        ),
        AlignConfig: AlignConfig(eps=1e-4, affine=False, zero_mass_threshold=1e-3),
        TrainConfig: TrainConfig(
            iterations=9, base_lr=0.5, weights=LossWeights(0.1, 0.0, 0.3),
            batch=BatchSpec(source_quota=5, target_quota=6, balance_datasets=True), seed=4, eval_every=3,
        ),
        LossWeights: LossWeights(domain_ce=0.0, class_entropy=0.4, domain_entropy=1.5),
        BatchSpec: BatchSpec(source_quota=3, target_quota=2, balance_datasets=True),
    }

    @pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
    def test_json_round_trip(self, cls):
        sample = self.SAMPLES[cls]
        doc = json.loads(json.dumps(dataclasses.asdict(sample)))
        assert config_from_json(cls, doc, "config") == sample
