"""Command-line front end: experiment dispatch and artifact emission.

Commands: train, gradcheck, ablate-k, sweep-labels, baselines.  Configs are
JSON documents with optional sections model/train/data; `--set key=value`
overrides individual fields.  Every run directory receives a manifest with
the config snapshot and its content hash, metrics as CSV, and a JSON
summary, so identical configs reproduce byte-identical artifacts.  The
run directory is made only once its run has finished, so a run that fails
leaves none behind.

Exit codes: 0 success, 1 gradient-check failure, 2 configuration error,
3 numerical abort during training.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

from .data import NonFiniteFeatureError, SynthConfig, load_manifest, synth_make
from .experiments import (
    ExperimentConfig,
    run_baseline_grid,
    run_k_ablation,
    run_supervision_sweep,
    summarize,
)
from .model import ConfigError, Model, ModelConfig, config_from_json, save_checkpoint
from .training import NumericalAbortError, TrainConfig, metrics_csv_lines, train
from .verification import LAYER_TOLERANCE, MODEL_TOLERANCE, run_gradient_audit

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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


def resolve_config(doc: dict):
    """Turn the raw document into (data, model config, train config).

    data is the SynthConfig of a synthetic task, or the Dataset a manifest
    lists, which is loaded here since its widths and labels size the model.
    """
    for section, value in doc.items():
        if section not in ("data", "model", "train"):
            raise ConfigError(f"{section}: unknown section")
        if not isinstance(value, dict):
            raise ConfigError(f"{section}: expected an object, found {type(value).__name__}")
    data_doc = doc.get("data", {})
    for key in data_doc:
        if key not in ("synthetic", "manifest"):
            raise ConfigError(f"data.{key}: unknown field (use synthetic or manifest)")
    if "manifest" in data_doc and "synthetic" in data_doc:
        raise ConfigError("data: synthetic and manifest are mutually exclusive")

    if "manifest" in data_doc:
        if not isinstance(data_doc["manifest"], str):
            raise ConfigError(f"data.manifest: expected a path string, found {type(data_doc['manifest']).__name__}")
        try:
            data = load_manifest(data_doc["manifest"])
        except (OSError, ValueError) as err:
            raise ConfigError(f"data.manifest: {err}") from err
        in_dim = data.source_train.features.shape[1]
        n_classes = 1 + int(data.source_train.class_labels.max())
        if n_classes < 2 and "n_classes" not in doc.get("model", {}):
            raise ConfigError("data.manifest: every source label is 0, one class; a model needs 2 or more")
    else:
        data = config_from_json(SynthConfig, data_doc.get("synthetic", {}), "data.synthetic")
        in_dim = data.feature_dim
        n_classes = data.n_classes

    model_doc = dict(doc.get("model", {}))
    model_doc.setdefault("in_dim", in_dim)
    model_doc.setdefault("n_classes", n_classes)
    if isinstance(data, SynthConfig):
        model_doc.setdefault("k", data.n_latent_domains)
    model_cfg = config_from_json(ModelConfig, model_doc, "model")
    train_cfg = config_from_json(TrainConfig, doc.get("train", {}), "train")
    return data, model_cfg, train_cfg


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _check_out(out: str, force: bool) -> None:
    """Refuse an --out that the finished run could not be written to; _write_manifest makes it.

    Refused: an existing path without --force, one that is not a directory
    even with it, an empty path, and a path below an existing file.
    """
    if not out:
        raise ConfigError("--out: the path is empty")
    if os.path.exists(out) and not force:
        raise ConfigError(f"output directory exists: {out} (use --force to overwrite)")
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out}: exists and is not a directory")
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {out}: {parent} is not a directory")


def _write_manifest(out, doc, command, seeds) -> None:
    """Make the run directory, once its run has finished, and write the run's first artifact into it."""
    os.makedirs(out, exist_ok=True)
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


def _built(what: str, section: str, make, cfg, flags: tuple[str, ...] = ()):
    """make(cfg), or a ConfigError naming what in the config section keeps it from being made.

    Non-finite synthetic features name the section and keep the split and row the data layer found.  A failed
    allocation blames the largest of cfg.sizes(), which size the arrays (a field in flags by its command-line flag):
    a stray 10**12 among widths in the hundreds.  numpy raises MemoryError when the allocation fails and ValueError
    when the byte count does not even fit in an intp; the configs have checked every other value before make runs.
    """
    try:
        return make(cfg)
    except NonFiniteFeatureError as err:
        raise ConfigError(f"{section}: {err}") from err
    except (MemoryError, ValueError) as err:
        sizes = {(f"--{name}" if name in flags else f"{section}.{name}"): v for name, v in cfg.sizes().items()}
        path = max(sizes, key=sizes.get)
        raise ConfigError(f"{path}: {sizes[path]} is too large, {what} does not fit in memory") from err


def cmd_train(args) -> int:
    doc = load_config(args.config, args.set or [])
    data, model_cfg, train_cfg = resolve_config(doc)
    _check_out(args.out, args.force)
    if isinstance(data, SynthConfig):
        data = _built("the synthetic dataset", "data.synthetic", synth_make, data)
    model = _built("the model", "model", Model, model_cfg)
    model, rows = train(model, data, train_cfg)
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
    report, ok = run_gradient_audit(seed=args.seed)
    layer, worst = report["layer"], report["layer_worst"]

    def where(key: str) -> str:
        return " ".join(f"{name}={value}" for name, value in worst[key].items())

    print(f"alignment layer ({layer['configs']} configurations, tolerance {LAYER_TOLERANCE:g}):")
    for key in ("grad_x", "grad_w", "grad_gamma", "grad_beta"):
        print(f"  {key:12s} max rel err {layer[key]:.3e} at {where(key)}")
    print(f"full model (tolerance {MODEL_TOLERANCE:g}):")
    for group in ("trunk", "classifier", "mda_affine", "branch", "assignment"):
        print(f"  {group:12s} max rel err {report['model'][group]:.3e}")
    if not ok:
        offenders = [f"{k} ({where(k)})" for k, v in layer.items() if k != "configs" and v > LAYER_TOLERANCE]
        offenders += [k for k, v in report["model"].items() if v > MODEL_TOLERANCE]
        print(f"FAILED: {', '.join(offenders)}")
        return EXIT_CHECK_FAILED
    print("all gradient checks passed")
    return EXIT_OK


def _run_grid_command(args, runner, key: str, values: tuple[str, ...], ks: tuple[int, ...] = ()) -> int:
    """Run runner(base, seeds) once its data and largest model (at the largest --k value in ks, else model.k) are
    made and dropped, so neither fails once runs train; write manifest.json, runs.csv and summary.csv."""
    doc = load_config(args.config, args.set or [])
    data, model_cfg, train_cfg = resolve_config(doc)
    if not isinstance(data, SynthConfig):
        raise ConfigError("data: experiment runners need a synthetic dataset")
    _check_out(args.out, args.force)
    _built("the synthetic dataset", "data.synthetic", synth_make, data)
    _built("the model", "model", Model, replace(model_cfg, k=max(ks, default=model_cfg.k)), ("k",) if ks else ())
    base = ExperimentConfig(data=data, model=model_cfg, train=train_cfg)
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
    return _run_grid_command(
        args, lambda base, seeds: run_k_ablation(base, args.k, seeds), "k", ("acc", "nmi", "purity"), tuple(args.k)
    )


def cmd_sweep_labels(args) -> int:
    return _run_grid_command(
        args,
        lambda base, seeds: run_supervision_sweep(base, args.fractions, seeds),
        "fraction",
        ("acc",),
    )


def cmd_baselines(args) -> int:
    return _run_grid_command(args, run_baseline_grid, "config", ("acc", "nmi", "purity"))


def _comma_list(convert, accept, expected: str):
    """An argparse type: a comma-separated list whose every item converts and is accepted."""

    def parse(text: str) -> list:
        try:
            items = [convert(v) for v in text.split(",")]
            if all(accept(v) for v in items):
                return items
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected comma-separated {expected}, found {text!r}")

    return parse


def _int_at_least(low: int):
    """An argparse type: one integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, found {text!r}")

    return parse


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
    p_grad.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for the audit draws")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_k = sub.add_parser("ablate-k", help="median accuracy per number of latent domains")
    common(p_k)
    p_k.add_argument(
        "--k", default="2,3,4,5", type=_comma_list(int, lambda k: k >= 1, "integers >= 1"),
        help="comma-separated k values",
    )
    p_k.add_argument("--seeds", type=_int_at_least(1), default=5, help="number of seeds per configuration")
    p_k.set_defaults(func=cmd_ablate_k)

    p_sweep = sub.add_parser("sweep-labels", help="accuracy at varying fractions of domain labels")
    common(p_sweep)
    p_sweep.add_argument(
        "--fractions",
        default="0,0.05,0.25,0.5,1.0",
        type=_comma_list(float, lambda f: 0 <= f <= 1, "numbers in [0, 1]"),
        help="comma-separated label fractions in [0, 1]",
    )
    p_sweep.add_argument("--seeds", type=_int_at_least(1), default=5, help="number of seeds per fraction")
    p_sweep.set_defaults(func=cmd_sweep_labels)

    p_base = sub.add_parser("baselines", help="source-only / unified / discovery / known-domain grid")
    common(p_base)
    p_base.add_argument("--seeds", type=_int_at_least(1), default=5, help="number of seeds per configuration")
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


if __name__ == "__main__":
    entry()
