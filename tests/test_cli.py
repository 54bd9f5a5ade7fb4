"""Command-line interface: exit codes, overrides, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from mdalign.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main


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

    @pytest.mark.parametrize("field", ["conflict_pair", "patch_hw"])
    def test_optional_pair_accepts_null_and_rejects_a_scalar(self, quick_config, tmp_path, capsys, field):
        run = ["train", "--config", quick_config, "--set", "train.iterations=5"]
        assert main(run + ["--out", str(tmp_path / "a"), "--set", f"data.synthetic.{field}=null"]) == EXIT_OK
        assert main(run + ["--out", str(tmp_path / "b"), "--set", f"data.synthetic.{field}=3"]) == EXIT_CONFIG
        assert f"data.synthetic.{field}: expected a list" in capsys.readouterr().err

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


def write_digit_set(store, rng, stem, shift):
    """Write a tiny 3x3 "digit" IDX pair (class = which corner is bright); returns its manifest entry."""
    from mdalign.data import idx_write_images, idx_write_labels

    n = 24
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
        assert "s2-images.idx" in err and "domain 2" in err and "model.k is 2" in err
        assert not (tmp_path / "run").exists()


class TestHelp:
    def test_help_enumerates_every_flag(self):
        parser = build_parser()
        help_text = parser.format_help()
        for sub in ("train", "gradcheck", "ablate-k", "sweep-labels", "baselines"):
            assert sub in help_text
        for sub, flags in {
            "train": ["--config", "--out", "--set", "--force"],
            "gradcheck": ["--config", "--seed"],
            "ablate-k": ["--k", "--seeds"],
            "sweep-labels": ["--fractions", "--seeds"],
            "baselines": ["--seeds"],
        }.items():
            sub_help = parser._subparsers._group_actions[0].choices[sub].format_help()
            for flag in flags:
                assert flag in sub_help, f"{flag} missing from {sub} help"
