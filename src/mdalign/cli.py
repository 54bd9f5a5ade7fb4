"""Command-line front end: experiment dispatch and artifact emission.

Commands: train, gradcheck, ablate-k, sweep-labels, baselines.  Configs are
JSON documents with optional sections model/train/data; `--set key=value`
overrides individual fields.  Every run directory receives a manifest with
the config snapshot and its content hash, metrics as CSV, and a JSON
summary, so identical configs reproduce byte-identical artifacts.

Exit codes: 0 success, 1 gradient-check failure, 2 configuration error,
3 numerical abort during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from .alignment import AlignConfig
from .data import BatchSpec, FeatureShift, SynthConfig, load_manifest, synth_make
from .experiments import (
    ExperimentConfig,
    run_baseline_grid,
    run_k_ablation,
    run_supervision_sweep,
    summarize,
)
from .losses import LossWeights
from .model import Model, ModelConfig, save_checkpoint
from .training import NumericalAbortError, TrainConfig, metrics_csv_lines, train
from .verification import LAYER_TOLERANCE, MODEL_TOLERANCE, run_gradient_audit

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration; carries the offending field path."""


def _build(cls, doc: dict, path: str, converters: dict | None = None):
    """Instantiate a dataclass from a dict, naming unknown or bad fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in field_names:
            raise ConfigError(f"{path}.{key}: unknown field")
        if converters and key in converters:
            value = converters[key](value, f"{path}.{key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _as_shift(doc, path) -> FeatureShift:
    shift = _build(FeatureShift, doc, path)
    out = dataclasses.asdict(shift)
    for key in ("offset", "scale"):
        if isinstance(out[key], list):
            out[key] = tuple(out[key])
    if out["permutation"] is not None:
        out["permutation"] = tuple(out["permutation"])
    return FeatureShift(**out)


def _tupled(value, path):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list")
    return tuple(value)


def _optional_tupled(value, path):
    return None if value is None else _tupled(value, path)


def _build_synth(doc: dict, path: str) -> SynthConfig:
    converters = {
        "domain_shifts": lambda v, p: tuple(_as_shift(item, f"{p}[{i}]") for i, item in enumerate(v)),
        "target_shift": _as_shift,
        "conflict_pair": _optional_tupled,
        "patch_hw": _optional_tupled,
    }
    return _build(SynthConfig, doc, path, converters)


def load_config(path: str, overrides: list[str]) -> dict:
    """Read the config file and apply --set overrides to the raw document."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        node[parts[-1]] = value
    return doc


def _check_manifest_domains(path: str, k: int) -> None:
    """Every domain a manifest's source file declares must be one of model.k latent domains."""
    with open(path) as f:
        for entry in json.load(f)["sources"]:
            if entry.get("domain") is not None and entry["domain"] >= k:
                raise ConfigError(
                    f"data.manifest: source {entry['images']} declares domain {entry['domain']}, but model.k is {k}"
                )


def resolve_config(doc: dict):
    """Turn the raw document into (dataset, model config, train config, meta)."""
    for section in doc:
        if section not in ("data", "model", "train"):
            raise ConfigError(f"{section}: unknown section")
    data_doc = dict(doc.get("data", {}))
    for key in data_doc:
        if key not in ("synthetic", "manifest"):
            raise ConfigError(f"data.{key}: unknown field (use synthetic or manifest)")
    if "manifest" in data_doc and "synthetic" in data_doc:
        raise ConfigError("data: synthetic and manifest are mutually exclusive")

    if "manifest" in data_doc:
        dataset = load_manifest(data_doc["manifest"])
        feat = dataset.source_train.features
        in_dim = feat.shape[1]
        n_classes = 1 + int(dataset.source_train.class_labels.max())
        synth_cfg = None
    else:
        synth_cfg = _build_synth(data_doc.get("synthetic", {}), "data.synthetic")
        dataset = synth_make(synth_cfg)
        in_dim = synth_cfg.feature_dim
        n_classes = synth_cfg.n_classes

    model_doc = dict(doc.get("model", {}))
    model_doc.setdefault("in_dim", in_dim)
    model_doc.setdefault("n_classes", n_classes)
    if synth_cfg is not None:
        model_doc.setdefault("k", synth_cfg.n_latent_domains)
    model_cfg = _build(
        ModelConfig,
        model_doc,
        "model",
        {
            "align": lambda v, p: _build(AlignConfig, v, p),
            "trunk_widths": _tupled,
            "classifier_widths": _tupled,
            "align_after": _optional_tupled,
        },
    )
    if synth_cfg is None:
        _check_manifest_domains(data_doc["manifest"], model_cfg.k)
    train_cfg = _build(
        TrainConfig,
        dict(doc.get("train", {})),
        "train",
        {
            "weights": lambda v, p: _build(LossWeights, v, p),
            "batch": lambda v, p: _build(BatchSpec, v, p),
        },
    )
    return dataset, model_cfg, train_cfg, {"synthetic": synth_cfg}


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _prepare_out(out: str, force: bool) -> None:
    if os.path.exists(out):
        if not force:
            raise ConfigError(f"output directory exists: {out} (use --force to overwrite)")
    else:
        os.makedirs(out)


def _write_manifest(out, doc, command, seeds) -> None:
    manifest = {
        "command": command,
        "config": doc,
        "config_hash": _config_hash(doc),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seeds": list(seeds),
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)


def _write_lines(path, lines) -> None:
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set or [])
    dataset, model_cfg, train_cfg, _ = resolve_config(doc)
    _prepare_out(args.out, args.force)
    model = Model(model_cfg)
    model, rows = train(model, dataset, train_cfg)
    _write_manifest(args.out, doc, "train", [train_cfg.seed])
    _write_lines(os.path.join(args.out, "metrics.csv"), metrics_csv_lines(rows))
    save_checkpoint(model, os.path.join(args.out, "checkpoint.json"))
    final = rows[-1]
    summary = {
        "config_hash": _config_hash(doc),
        "iterations": final.iteration,
        "acc": final.acc,
        "nmi": final.nmi,
        "purity": final.purity,
        "total": final.total,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    print(f"done: acc={final.acc:.4f} nmi={final.nmi:.4f} -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.config:
        load_config(args.config, args.set or [])  # validated, seeds the audit only
    report, ok = run_gradient_audit(seed=args.seed)
    print(f"alignment layer ({report['layer']['configs']} configurations, tolerance {LAYER_TOLERANCE:g}):")
    for key in ("grad_x", "grad_w", "grad_gamma", "grad_beta"):
        print(f"  {key:12s} max rel err {report['layer'][key]:.3e}")
    print(f"full model (tolerance {MODEL_TOLERANCE:g}):")
    for group in ("trunk", "classifier", "mda_affine", "branch", "assignment"):
        print(f"  {group:12s} max rel err {report['model'][group]:.3e}")
    if not ok:
        offenders = [k for k, v in report["layer"].items() if k != "configs" and v > LAYER_TOLERANCE]
        offenders += [k for k, v in report["model"].items() if v > MODEL_TOLERANCE]
        print(f"FAILED: {', '.join(offenders)}")
        return EXIT_CHECK_FAILED
    print("all gradient checks passed")
    return EXIT_OK


def _run_grid_command(args, runner, key: str, values: tuple[str, ...]) -> int:
    """Run runner(base, seeds); write manifest.json, runs.csv (key, seed and value columns) and summary.csv."""
    doc = load_config(args.config, args.set or [])
    _, model_cfg, train_cfg, meta = resolve_config(doc)
    if meta["synthetic"] is None:
        raise ConfigError("data: experiment runners need a synthetic dataset")
    base = ExperimentConfig(data=meta["synthetic"], model=model_cfg, train=train_cfg)
    _prepare_out(args.out, args.force)
    seeds = list(range(args.seeds))
    rows = runner(base, seeds)
    _write_manifest(args.out, doc, args.command, seeds)
    _write_lines(
        os.path.join(args.out, "runs.csv"),
        [",".join((key, "seed") + values)]
        + [",".join([str(r[key]), str(r["seed"])] + [f"{r[v]:.12g}" for v in values]) for r in rows],
    )
    med = summarize(rows, key)
    _write_lines(
        os.path.join(args.out, "summary.csv"),
        [f"{key},median_acc,mean_acc,n"] + [f"{s[key]},{s['median']:.12g},{s['mean']:.12g},{s['n']}" for s in med],
    )
    for s in med:
        print(f"{key}={s[key]}: median acc {s['median']:.4f} (mean {s['mean']:.4f}, {s['n']} seeds)")
    return EXIT_OK


def cmd_ablate_k(args) -> int:
    k_values = [int(v) for v in args.k.split(",")]
    return _run_grid_command(
        args, lambda base, seeds: run_k_ablation(base, k_values, seeds), "k", ("acc", "nmi", "purity")
    )


def cmd_sweep_labels(args) -> int:
    fractions = [float(v) for v in args.fractions.split(",")]
    return _run_grid_command(
        args, lambda base, seeds: run_supervision_sweep(base, fractions, seeds), "fraction", ("acc",)
    )


def cmd_baselines(args) -> int:
    return _run_grid_command(args, run_baseline_grid, "config", ("acc", "nmi", "purity"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdalign",
        description="Latent-domain discovery experiments with multi-domain alignment layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="JSON config with sections model/train/data")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory (must not exist unless --force)")
            p.add_argument("--force", action="store_true", help="allow writing into an existing directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field (repeatable)")

    p_train = sub.add_parser("train", help="train one model and write metrics, checkpoint, summary")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit of every gradient path")
    p_grad.add_argument("--config", help="optional config (validated; the audit grid is fixed)")
    p_grad.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field (repeatable)")
    p_grad.add_argument("--seed", type=int, default=0, help="seed for the audit draws")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_k = sub.add_parser("ablate-k", help="median accuracy per number of latent domains")
    common(p_k)
    p_k.add_argument("--k", default="2,3,4,5", help="comma-separated k values")
    p_k.add_argument("--seeds", type=int, default=5, help="number of seeds per configuration")
    p_k.set_defaults(func=cmd_ablate_k)

    p_sweep = sub.add_parser("sweep-labels", help="accuracy at varying fractions of domain labels")
    common(p_sweep)
    p_sweep.add_argument(
        "--fractions", default="0,0.05,0.25,0.5,1.0", help="comma-separated label fractions in [0, 1]"
    )
    p_sweep.add_argument("--seeds", type=int, default=5, help="number of seeds per fraction")
    p_sweep.set_defaults(func=cmd_sweep_labels)

    p_base = sub.add_parser("baselines", help="source-only / unified / discovery / known-domain grid")
    common(p_base)
    p_base.add_argument("--seeds", type=int, default=5, help="number of seeds per configuration")
    p_base.set_defaults(func=cmd_baselines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbortError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())
