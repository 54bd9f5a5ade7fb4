"""The three workloads: inputs made from a seed, set-up, one timed round, checks.

Every workload is a closed loop with one client: a round is a fixed batch
job, started again only after the previous one finished.  A round repeats
exactly under the same seed, so rounds of one run are the same operations.

pinned_grid   run_baseline_grid on pinned_benchmark() over two run seeds: four
              runs per seed of 600 iterations on 96-row batches.  Small
              tensors, so Python per-call overhead dominates, and the only
              workload that goes through the experiment runner.
wide_domains  one discovery run, k = 5 latent domains, 32-dim features,
              classifier widths 256 and 512-row batches.  BLAS and
              element-wise work in the alignment layer dominate.
digit_files   seeded 28x28 digit-like IDX files, three source pseudo-domains
              (identity, rot90, invert; the first declares its domain) and a
              shifted target, loaded through a manifest, trained with
              balanced per-file quotas, evaluated often over ~3e4 rows, and
              ended with a checkpoint save and load.
"""

from __future__ import annotations

import json
import os

import numpy as np

from mdalign import data as mdata
from mdalign import experiments, model as mmodel, training
from mdalign.assignment import KNOWN_SOURCE, merge_assignments
from mdalign.data import BatchSpec, FeatureShift, ImageShift, SynthConfig
from mdalign.losses import LossWeights
from mdalign.model import Model, ModelConfig
from mdalign.training import TrainConfig

from checks import reference_accuracy, reference_nmi

def _step_rows(cfg: TrainConfig) -> int:
    return cfg.batch.source_quota + cfg.batch.target_quota


def _check_evaluation(label: str, model: Model, dataset, acc: float, nmi: float) -> list[str]:
    """Recompute target accuracy and discovery NMI from forward_eval and the hidden labels."""
    problems = []
    target = mdata.make_batch(dataset.target_test)
    probs = mmodel.forward_eval(model, target).class_probs
    acc_ref = reference_accuracy(probs, [s.hidden_label for s in dataset.target_test])
    if acc_ref != acc:
        problems.append(f"{label}: reported accuracy {acc!r}, recomputed {acc_ref!r}")
    if model.cfg.whole_batch_norm:
        if not np.isnan(nmi):
            problems.append(f"{label}: NMI {nmi!r} reported without a domain predictor")
        return problems
    source = mdata.make_batch(dataset.source_train)
    predicted = np.argmax(mmodel.forward_eval(model, source).domain_probs, axis=1)
    nmi_ref = reference_nmi(predicted, [s.hidden_latent_domain for s in dataset.source_train])
    if not abs(nmi_ref - nmi) <= 1e-9:
        problems.append(f"{label}: reported NMI {nmi!r}, recomputed {nmi_ref!r}")
    return problems


class PinnedGrid:
    """run_baseline_grid on the pinned benchmark; the seed picks the two run seeds."""

    name = "pinned_grid"
    setup_in_training = True

    def __init__(self, seed: int, workdir: str):
        self.base = experiments.default_experiment()
        self.run_seeds = [2 * seed, 2 * seed + 1]
        self.ops_per_round = len(experiments.BASELINES) * len(self.run_seeds)
        self.rows_per_step = _step_rows(self.base.resolved_train())

    def setup(self):
        return mdata.synth_make(self.base.data)

    def check_inputs(self, dataset) -> list[str]:
        return []

    def round(self, dataset):
        """One grid, on the data the grid makes itself; the models each run trained are kept for the checks."""
        trained = []
        inner = vars(experiments)["train"]

        def keep(model, data, cfg):
            out = inner(model, data, cfg)
            trained.append((model, data))
            return out

        experiments.train = keep
        try:
            rows = experiments.run_baseline_grid(self.base, self.run_seeds)
        finally:
            experiments.train = inner
        return {"rows": rows, "trained": trained}

    def check(self, first, dataset) -> tuple[list[str], list[str]]:
        """Per-run evaluation recomputed on the grid's own data, plus the ordering of the four baselines."""
        problems = []
        rows = first["rows"]
        for row, (model, data) in zip(rows, first["trained"]):
            problems += _check_evaluation(f"{row['config']} seed {row['seed']}", model, data, row["acc"], row["nmi"])
        med = {
            label: float(np.median([r["acc"] for r in rows if r["config"] == label]))
            for label in experiments.BASELINES
        }
        a, b, c, d = (med[label] for label in experiments.BASELINES)
        # Gated: every adapted model beats source-only, discovery by criterion 5's 0.02,
        # and unified < known-domain; these held on every run seed pair tried.
        if not (a < b and c - a >= 0.02 and b < d):
            problems.append(f"ordering: source_only {a:.3f} < unified {b:.3f} < known-domain {d:.3f} "
                            f"and discovery {c:.3f} >= source_only + 0.02 fails")
        # Reported only: unified < discovery and discovery <= known-domain within 0.02
        # fail on some run seed pairs (see CHANGES.md), so they cannot gate a run.
        full = a < b < c <= d and c - a >= 0.02 and d - c <= 0.02
        notes = [f"criterion-5 ordering on run seeds {self.run_seeds}: {'holds' if full else 'does not hold'} "
                 f"(a={a:.3f} b={b:.3f} c={c:.3f} d={d:.3f})"]
        return problems, notes


def wide_synth(seed: int) -> SynthConfig:
    rng = np.random.default_rng([seed, 5])
    dim = 32
    shifts = tuple(
        FeatureShift(
            rotation=float(rng.uniform(-1.0, 1.0)),
            offset=tuple(float(v) for v in rng.normal(0.0, 2.0, dim)),
            scale=float(rng.uniform(0.7, 1.4)),
        )
        for _ in range(5)
    )
    return SynthConfig(
        n_latent_domains=5,
        n_classes=6,
        feature_dim=dim,
        train_per_domain=600,
        test_per_domain=300,
        domain_shifts=shifts,
        target_shift=FeatureShift(offset=tuple(float(v) for v in rng.normal(0.0, 0.5, dim))),
        class_separation=1.5,
        standardize=True,
        seed=int(rng.integers(2**31)),
    )


class WideDomains:
    """One discovery run on a wide synthetic task, trained directly as `mdalign train` does."""

    name = "wide_domains"
    setup_in_training = True
    iterations = 160

    def __init__(self, seed: int, workdir: str):
        self.synth = wide_synth(seed)
        self.model_cfg = ModelConfig(
            in_dim=32, n_classes=6, k=5, trunk_widths=(128,), classifier_widths=(256, 256),
            branch_hidden=64, seed=seed,
        )
        self.train_cfg = TrainConfig(
            iterations=self.iterations,
            base_lr=0.02,
            weights=LossWeights(domain_ce=0.0, class_entropy=0.2, domain_entropy=0.2),
            batch=BatchSpec(source_quota=256, target_quota=256),
            seed=seed,
            eval_every=self.iterations // 2,
        )
        self.ops_per_round = 1
        self.rows_per_step = _step_rows(self.train_cfg)

    def setup(self):
        return mdata.synth_make(self.synth)

    def check_inputs(self, dataset) -> list[str]:
        return []

    def round(self, dataset):
        model = Model(self.model_cfg)
        _, rows = training.train(model, dataset, self.train_cfg)
        return {"rows": rows, "model": model}

    def check(self, first, dataset):
        final = first["rows"][-1]
        problems = _check_evaluation("discovery", first["model"], dataset, final.acc, final.nmi)
        return problems, [f"target accuracy {final.acc:.3f}, discovery NMI {final.nmi:.3f}"]


# ---------------------------------------------------------------------------
# digit files


DIGIT_SOURCES = (ImageShift(), ImageShift(rot90=1), ImageShift(invert=True))
DIGIT_TARGET = ImageShift(gain=0.45, bias=0.3, noise_sigma=0.2)
DIGITS_PER_FILE = 7000


def digit_prototypes(rng, n_classes: int = 10, size: int = 28) -> np.ndarray:
    """One 28x28 stroke pattern per class: three soft line segments."""
    yy, xx = np.mgrid[0:size, 0:size] + 0.5
    protos = np.zeros((n_classes, size, size))
    for c in range(n_classes):
        for _ in range(3):
            p, q = rng.uniform(5.0, size - 5.0, 2), rng.uniform(5.0, size - 5.0, 2)
            seg = q - p
            t = np.clip(((yy - p[0]) * seg[0] + (xx - p[1]) * seg[1]) / max(seg @ seg, 1e-9), 0.0, 1.0)
            dist = np.hypot(yy - (p[0] + t * seg[0]), xx - (p[1] + t * seg[1]))
            protos[c] = np.maximum(protos[c], np.exp(-((dist / 1.3) ** 2)))
    return protos


def draw_digits(rng, protos: np.ndarray, n: int):
    """Jittered, rescaled, noisy copies of the prototypes in [0, 1]: ([n, 1, 28, 28], labels)."""
    labels = rng.permutation(np.arange(n) % len(protos))
    images = protos[labels] * rng.uniform(0.6, 1.0, (n, 1, 1))
    moves = rng.integers(-2, 3, (n, 2))
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            sel = (moves[:, 0] == dy) & (moves[:, 1] == dx)
            images[sel] = np.roll(images[sel], (dy, dx), axis=(1, 2))
    images += rng.normal(0.0, 0.12, images.shape)
    return np.clip(images, 0.0, 1.0)[:, None], labels


def to_uint8(images: np.ndarray) -> np.ndarray:
    return np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)


class DigitFiles:
    """IDX digit files through a manifest, balanced training, frequent evaluation, a checkpoint."""

    name = "digit_files"
    # a set-up call during training would hold a second ~180 MB pool next to the
    # one being trained on, and could set the peak that peak_rss_mb reads once
    # evaluation needs less memory than it does today
    setup_in_training = False
    iterations = 300
    eval_every = 75
    batch = BatchSpec(source_quota=96, target_quota=96, balance_datasets=True)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 10])
        protos = digit_prototypes(rng)
        self.pixels = []  # uint8 [n, 28, 28] per source file, as written
        entries = []
        for i, shift in enumerate(DIGIT_SOURCES):
            images, labels = draw_digits(rng, protos, DIGITS_PER_FILE)
            px = to_uint8(mdata.image_transform(images, shift)[:, 0])
            entries.append(self._write(workdir, f"source{i}", px, labels))
            self.pixels.append(px)
        entries[0]["domain"] = 0
        images, labels = draw_digits(rng, protos, DIGITS_PER_FILE)
        target_px = to_uint8(mdata.image_transform(images, DIGIT_TARGET, seed=seed)[:, 0])
        self.manifest = os.path.join(workdir, "manifest.json")
        with open(self.manifest, "w") as f:
            json.dump({"sources": entries, "target": self._write(workdir, "target", target_px, labels)}, f)
        self.checkpoint = os.path.join(workdir, "checkpoint.json")
        self.model_cfg = ModelConfig(
            in_dim=28 * 28, n_classes=10, k=len(DIGIT_SOURCES), trunk_widths=(64,),
            classifier_widths=(64,), branch_hidden=32, seed=seed,
        )
        self.train_cfg = TrainConfig(
            iterations=self.iterations,
            base_lr=0.02,
            # domain_ce = 0 as in the pinned discovery runs: with one declared file
            # every domain label is 0, and at 0.5 the domain log-loss pulls the free
            # rows onto domain 0 on three of the five seeds tried (see CHANGES.md).
            weights=LossWeights(domain_ce=0.0, class_entropy=0.2, domain_entropy=0.2),
            batch=self.batch,
            seed=seed,
            eval_every=self.eval_every,
        )
        self.ops_per_round = 1
        self.rows_per_step = _step_rows(self.train_cfg)

    @staticmethod
    def _write(workdir, stem, pixels, labels) -> dict:
        entry = {"images": f"{stem}-images.idx", "labels": f"{stem}-labels.idx"}
        mdata.idx_write_images(os.path.join(workdir, entry["images"]), pixels)
        mdata.idx_write_labels(os.path.join(workdir, entry["labels"]), labels)
        return entry

    def setup(self):
        return mdata.load_manifest(self.manifest)

    def check_inputs(self, dataset) -> list[str]:
        """Loaded pixels equal the written uint8 / 255 exactly; the declared file arrives fixed one-hot."""
        problems = []
        ids = np.array([s.dataset_id for s in dataset.source_train])
        for i, px in enumerate(self.pixels):
            loaded = np.stack([s.features for s in dataset.source_train if s.dataset_id == i])
            if not np.array_equal(loaded, px.reshape(px.shape[0], -1).astype(np.float64) / 255.0):
                problems.append(f"source file {i}: loaded pixels differ from uint8 / 255")
        declared = [s for s in dataset.source_train if s.dataset_id == 0]
        if any(s.tag.kind != KNOWN_SOURCE or s.tag.index != 0 for s in declared):
            problems.append("declared file 0 did not arrive as known-source domain 0")
        picks = np.concatenate([np.flatnonzero(ids == i)[:4] for i in range(len(self.pixels))])
        tags = [dataset.source_train[j].tag for j in picks] + [dataset.target_train[0].tag]
        k = self.model_cfg.k
        pred = np.full((len(tags), k), 1.0 / k)
        merged = merge_assignments(pred, tags)
        rows = ids[picks] == 0
        one_hot = np.zeros(k + 1)
        one_hot[0] = 1.0
        if not (merged.fixed[: len(picks)][rows].all() and (merged.probs[: len(picks)][rows] == one_hot).all()):
            problems.append("declared-domain rows are not fixed one-hot assignment rows")
        if merged.fixed[: len(picks)][~rows].any():
            problems.append("undeclared source rows were fixed")
        return problems

    def round(self, dataset):
        model = Model(self.model_cfg)
        _, rows = training.train(model, dataset, self.train_cfg)
        mmodel.save_checkpoint(model, self.checkpoint)
        loaded = mmodel.load_checkpoint(self.checkpoint)
        return {"rows": rows, "model": model, "loaded": loaded}

    def check(self, first, dataset):
        final = first["rows"][-1]
        problems = _check_evaluation("digits", first["model"], dataset, final.acc, final.nmi)
        target = mdata.make_batch(dataset.target_test)
        before = mmodel.forward_eval(first["model"], target).class_probs
        after = mmodel.forward_eval(first["loaded"], target).class_probs
        if not np.array_equal(before, after):
            problems.append("checkpoint save then load changed evaluation probabilities")
        return problems, [f"target accuracy {final.acc:.3f}, pseudo-domain NMI {final.nmi:.3f}"]


WORKLOADS = {w.name: w for w in (PinnedGrid, WideDomains, DigitFiles)}
