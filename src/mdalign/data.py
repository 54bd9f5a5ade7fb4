"""Synthetic multi-domain data, digit-file ingestion, and batch sampling.

The synthetic generator draws class-conditional Gaussian features shared by
all domains and then applies one invertible transform per latent domain, so
that datasets with a controllable amount of domain shift can be produced
from a seed alone.  Real digit sets enter through the big-endian IDX format
and can be turned into pseudo-domains with deterministic pixel transforms.

Every split is one columnar Split: a feature array [n, ...] and one array
per field, built once at ingestion by Split.of (the digit files' pixels
kept as uint8 codes until a batch reads them).  Ground-truth latent domain
ids (and target labels) sit in hidden columns that batches never copy: the
sampler and the training loop cannot see them, and evaluation code reads
them from the split's hidden columns.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .assignment import KNOWN_CODE, TARGET_CODE, UNKNOWN_CODE, DomainTag

__all__ = [
    "Batch",
    "BatchSampler",
    "BatchSpec",
    "Dataset",
    "FeatureShift",
    "IdxCountMismatchError",
    "IdxEmptyError",
    "IdxError",
    "IdxMagicError",
    "IdxShapeMismatchError",
    "IdxTrailingBytesError",
    "IdxTruncatedError",
    "ImageShift",
    "LabeledSample",
    "NonFiniteFeatureError",
    "PIXEL_SCALE",
    "Split",
    "SynthConfig",
    "apply_feature_shift",
    "idx_load",
    "idx_write_images",
    "idx_write_labels",
    "image_transform",
    "load_manifest",
    "make_batch",
    "reveal_domain_labels",
    "synth_make",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# a uint8 pixel code c is read as the feature c / PIXEL_SCALE, in [0, 1]
PIXEL_SCALE = 255.0


class IdxError(ValueError):
    """Base class for digit-file format failures."""


class IdxMagicError(IdxError):
    """File does not start with the expected magic number."""


class IdxEmptyError(IdxError):
    """Header declares a dimension of 0, so the file holds no samples, or samples of no pixels."""


class IdxTruncatedError(IdxError):
    """File ended before the declared payload."""


class IdxTrailingBytesError(IdxError):
    """File holds bytes after the declared payload."""


class IdxCountMismatchError(IdxError):
    """Image and label files disagree on the sample count."""


class IdxShapeMismatchError(IdxError):
    """Image files of one split disagree on the image size."""


class NonFiniteFeatureError(ValueError):
    """A split's features hold NaN or infinity."""


# ---------------------------------------------------------------------------
# samples and datasets


@dataclass(frozen=True)
class LabeledSample:
    """Read-only view of one split row: features, optional training label, and its domain tag.

    Only Split.__getitem__ builds one, for inspection; splits are built from
    columns with Split.of.  hidden_label and hidden_latent_domain are
    evaluation-only ground truth that training code must not touch.
    """

    features: np.ndarray
    class_label: int | None
    tag: DomainTag
    dataset_id: int | None = None
    hidden_label: int | None = field(default=None, repr=False)
    hidden_latent_domain: int | None = field(default=None, repr=False)


def _opt(value) -> int | None:
    return None if value < 0 else int(value)


@dataclass(eq=False)
class Split:
    """One dataset split as columns, one entry per row in every array.

    features holds the stored values [n, ...]: uint8 pixel codes, such as a
    split of digit files' [n, h * w], or else float64.  Only the private
    reader turns them into the float64 features a batch carries, dividing
    codes by PIXEL_SCALE as the rows are read, so a pixel split keeps 1 byte
    per pixel at rest and gives the bits a float64 split of codes /
    PIXEL_SCALE would.
    class_labels is -1 on unlabeled rows;
    kinds holds each row's int8 kind code (assignment.KNOWN_CODE, UNKNOWN_CODE
    or TARGET_CODE) and known_domains its declared domain, -1 unless the row
    is known-source; dataset_ids is -1 where no file provenance was declared.
    hidden_labels and hidden_domains are evaluation-only ground truth, -1
    where absent: batches never copy them and training code must not read
    them.

    Build one with Split.of.  split[i] is a LabeledSample whose features are
    row i as float64: a view of a float64 split's row, a scaled copy of a
    pixel split's.  A slice or an index array gives a Split of the same
    features dtype.
    """

    features: np.ndarray
    class_labels: np.ndarray
    kinds: np.ndarray
    known_domains: np.ndarray
    dataset_ids: np.ndarray
    hidden_labels: np.ndarray = field(repr=False)
    hidden_domains: np.ndarray = field(repr=False)

    @classmethod
    def of(
        cls,
        features,
        *,
        kinds,
        class_labels=None,
        known_domains=None,
        dataset_ids=None,
        hidden_labels=None,
        hidden_domains=None,
        name: str = "split",
    ) -> "Split":
        """A split of the given columns, each omitted one -1 on every row.

        uint8 features are pixel codes, kept as they are: no copy and no
        scan, since every code / PIXEL_SCALE is finite.  Features of any other
        dtype become float64, and NaN or infinity among them raises
        NonFiniteFeatureError naming the split and its first row holding one.
        """
        features = np.asarray(features)
        if features.dtype != np.uint8:
            features = np.asarray(features, dtype=np.float64)
            if not np.isfinite(features).all():
                bad = ~np.isfinite(features.reshape(len(features), -1)).all(axis=1)
                raise NonFiniteFeatureError(f"{name}: row {np.flatnonzero(bad)[0]} has non-finite features")
        n = features.shape[0]

        def ids(column):
            return np.full(n, -1) if column is None else np.asarray(column, dtype=np.int64)

        return cls(
            features,
            ids(class_labels),
            np.asarray(kinds, dtype=np.int8),
            ids(known_domains),
            ids(dataset_ids),
            ids(hidden_labels),
            ids(hidden_domains),
        )

    def _read(self, idx=slice(None)) -> np.ndarray:
        """Feature rows idx; a float64 split gives its own array indexed, so a whole split is not copied."""
        return _scale(self.features[idx])

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return LabeledSample(
                features=self._read(key),
                class_label=_opt(self.class_labels[key]),
                tag=DomainTag.from_code(self.kinds[key], self.known_domains[key]),
                dataset_id=_opt(self.dataset_ids[key]),
                hidden_label=_opt(self.hidden_labels[key]),
                hidden_latent_domain=_opt(self.hidden_domains[key]),
            )
        return replace(self, **{f.name: getattr(self, f.name)[key] for f in fields(self)})

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _scale(stored: np.ndarray) -> np.ndarray:
    """Stored split values as float64 features: float64 values as they are, uint8 codes over PIXEL_SCALE."""
    return np.divide(stored, PIXEL_SCALE) if stored.dtype == np.uint8 else stored


@dataclass
class Dataset:
    """Source rows for training, unlabeled target rows for training, and held-out target rows for scoring."""

    source_train: Split
    target_train: Split
    target_test: Split


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class FeatureShift:
    """Deterministic feature-space transform defining one domain.

    rotation acts on consecutive coordinate pairs (0,1), (2,3), ...; offset
    and scale may be scalars or per-dimension tuples.  Every part is
    invertible (for a non-zero scale).
    """

    rotation: float = 0.0
    offset: float | tuple[float, ...] = 0.0
    scale: float | tuple[float, ...] = 1.0


def apply_feature_shift(x: np.ndarray, shift: FeatureShift) -> np.ndarray:
    """Apply a domain transform to [n, dim] feature rows: rotate, then scale, then offset."""
    out = np.array(x, dtype=np.float64)
    if shift.rotation != 0.0:
        # rotate each coordinate pair (0, 1), (2, 3), ...; an odd last column stays
        c, s = np.cos(shift.rotation), np.sin(shift.rotation)
        p = out.shape[1] // 2 * 2
        a = out[:, 0:p:2].copy()
        b = out[:, 1:p:2].copy()
        out[:, 0:p:2] = c * a - s * b
        out[:, 1:p:2] = s * a + c * b
    out *= np.asarray(shift.scale, dtype=np.float64)
    out += np.asarray(shift.offset, dtype=np.float64)
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a seeded synthetic multi-domain classification task.

    Class prototypes are shared across domains; each latent domain applies
    its own transform, and the target domain a held-out one.  The seed fully
    determines the dataset.

    Each source domain also draws test_per_domain held-out rows, which no
    split keeps: the draw stays because the rows drawn after it depend on it.
    """

    n_latent_domains: int = 2
    n_classes: int = 4
    feature_dim: int = 6
    train_per_domain: int = 200
    test_per_domain: int = 200
    domain_shifts: tuple[FeatureShift, ...] = ()
    target_shift: FeatureShift = FeatureShift()
    class_separation: float = 3.0
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_latent_domains < 1:
            raise ValueError("need at least one latent domain")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.feature_dim < 1 or self.train_per_domain < 1 or self.test_per_domain < 1:
            raise ValueError("dimensions and sample counts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.domain_shifts and len(self.domain_shifts) != self.n_latent_domains:
            raise ValueError("one domain shift per latent domain (or none for identities)")
        named = [(f"domain_shifts[{d}]", s) for d, s in enumerate(self.domain_shifts)]
        for name, shift in [*named, ("target_shift", self.target_shift)]:
            for part in ("offset", "scale"):
                value = getattr(shift, part)
                if isinstance(value, tuple) and len(value) != self.feature_dim:
                    raise ValueError(f"{name}.{part}: {len(value)} entries, but feature_dim is {self.feature_dim}")

    def sizes(self) -> dict[str, int]:
        """The fields whose products size the dataset's arrays, by name."""
        names = ("n_latent_domains", "n_classes", "feature_dim", "train_per_domain", "test_per_domain")
        return {name: getattr(self, name) for name in names}


def _balanced_labels(count: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.arange(count) % n_classes
    return rng.permutation(labels)


def synth_make(cfg: SynthConfig) -> Dataset:
    """Generate source and target sets for a synthetic latent-domain task."""
    rng = np.random.default_rng(cfg.seed)
    prototypes = cfg.class_separation * rng.normal(size=(cfg.n_classes, cfg.feature_dim))
    shifts = cfg.domain_shifts or tuple(FeatureShift() for _ in range(cfg.n_latent_domains))

    def draw(count, shift):
        labels = _balanced_labels(count, cfg.n_classes, rng)
        base = prototypes[labels] + rng.normal(size=(count, cfg.feature_dim))
        return apply_feature_shift(base, shift), labels

    source = []
    for shift in shifts:
        source.append(draw(cfg.train_per_domain, shift))
        draw(cfg.test_per_domain, shift)  # dropped; later draws depend on it
    x, labels = (np.concatenate(column) for column in zip(*source))
    target_train = draw(cfg.train_per_domain, cfg.target_shift)
    target_test = draw(cfg.test_per_domain, cfg.target_shift)

    if cfg.standardize:
        # label-free preprocessing: pooled moments of the unlabeled training
        # material, applied in place to every split's features
        pool = np.concatenate([x, target_train[0]])
        mu = pool.mean(axis=0)
        sd = pool.std(axis=0)
        sd[sd == 0] = 1.0
        for features in (x, target_train[0], target_test[0]):
            features -= mu
            features /= sd

    def target(name, features, labels):
        return Split.of(features, kinds=np.full(len(features), TARGET_CODE), hidden_labels=labels, name=name)

    source_train = Split.of(
        x,
        kinds=np.full(len(x), UNKNOWN_CODE),
        class_labels=labels,
        hidden_labels=labels,
        hidden_domains=np.repeat(np.arange(len(shifts)), cfg.train_per_domain),
        name="source_train",
    )
    return Dataset(source_train, target("target_train", *target_train), target("target_test", *target_test))


# ---------------------------------------------------------------------------
# digit pseudo-domains


@dataclass(frozen=True)
class ImageShift:
    """Deterministic pixel transform for building pseudo-domains from digits."""

    rot90: int = 0
    gain: float = 1.0
    bias: float = 0.0
    invert: bool = False
    noise_sigma: float = 0.0


def image_transform(x: np.ndarray, shift: ImageShift, seed: int = 0) -> np.ndarray:
    """Apply an ImageShift to a stack of images [n, 1, h, w]."""
    out = np.array(x, dtype=np.float64)
    if out.ndim != 4:
        raise ValueError("image_transform expects [n, channels, h, w]")
    if shift.rot90 % 4:
        out = np.rot90(out, k=shift.rot90 % 4, axes=(2, 3)).copy()
    if shift.gain != 1.0 or shift.bias != 0.0:
        out = shift.gain * out + shift.bias
    if shift.invert:
        out = 1.0 - out
    if shift.noise_sigma > 0.0:
        out = out + np.random.default_rng(seed).normal(0.0, shift.noise_sigma, size=out.shape)
    return out


# ---------------------------------------------------------------------------
# IDX files


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxTruncatedError(f"{path}: needed {n} more bytes, found {len(data)}")
    return data


def _idx_header(f, path, magic: int, n_dims: int) -> tuple[int, ...]:
    """The dimensions an open IDX file's header declares, leaving f at the payload.

    The magic number, a dimension of 0, and the declared payload against the
    file's size are all checked before any payload byte is read.
    """
    (found,) = struct.unpack(">I", _read_exact(f, 4, path))
    if found != magic:
        raise IdxMagicError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
    dims = struct.unpack(">" + "I" * n_dims, _read_exact(f, 4 * n_dims, path))
    if 0 in dims:
        # nothing to train or score on; and beside a 0, the other dimensions may exceed any float64 array
        raise IdxEmptyError(f"{path}: header declares dimensions {dims}, one of them 0")
    declared = math.prod(dims)
    held = os.fstat(f.fileno()).st_size - f.tell()
    if held < declared:
        raise IdxTruncatedError(f"{path}: header declares {declared} payload bytes, the file holds {held}")
    if held > declared:
        raise IdxTrailingBytesError(f"{path}: {held - declared} bytes after the {declared}-byte payload")
    return dims


def _read_payload(f, out: np.ndarray, path) -> np.ndarray:
    """Fill out, a C-contiguous uint8 array, with f's next out.size bytes; a short read raises IdxTruncatedError."""
    got = f.readinto(memoryview(out).cast("B"))
    if got != out.size:
        raise IdxTruncatedError(f"{path}: needed {out.size} payload bytes, found {got}")
    return out


def _read_idx(path, magic: int, n_dims: int) -> np.ndarray:
    """The uint8 payload of an IDX file, read into a new array of the shape its checked header declares."""
    with open(path, "rb") as f:
        dims = _idx_header(f, path, magic, n_dims)
        return _read_payload(f, np.empty(dims, dtype=np.uint8), path)


def _check_pair(images_path, labels_path):
    """(image dims (n, h, w), int64 labels [n]) of an IDX file pair.

    The image header is checked, then the labels read and counted against
    it; no pixel is read.
    """
    with open(images_path, "rb") as f:
        dims = _idx_header(f, images_path, IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, LABEL_MAGIC, 1).astype(np.int64)
    if dims[0] != labels.shape[0]:
        raise IdxCountMismatchError(f"{images_path}: {dims[0]} images vs {labels.shape[0]} labels in {labels_path}")
    return dims, labels


def _read_images(path, dims: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """Read an image file's pixels into out, of dims' size, once its header, opened again, still declares dims."""
    with open(path, "rb") as f:
        found = _idx_header(f, path, IMAGE_MAGIC, 3)
        if found != dims:
            raise IdxError(f"{path}: header declares dimensions {found}, it declared {dims} when first read")
        return _read_payload(f, out, path)


def idx_load(images_path, labels_path):
    """Read a big-endian IDX image/label file pair.

    Returns (images [n, 1, h, w] scaled to [0, 1], labels int64 [n]).  Bad
    magic numbers, a dimension of 0, truncated payloads, trailing bytes and
    image/label count disagreements each raise their own IdxError subclass.
    """
    dims, labels = _check_pair(images_path, labels_path)
    images = _read_images(images_path, dims, np.empty(dims, dtype=np.uint8))
    return images[:, None] / PIXEL_SCALE, labels


def _as_bytes(arr: np.ndarray, what: str) -> np.ndarray:
    """arr as uint8; a uint8 array as it is, any other must hold only integers in 0..255 (nothing wraps)."""
    if arr.dtype == np.uint8:
        return arr
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be integers in 0..255, found {arr.dtype} values")
    bad = (arr < 0) | (arr > 255) | (arr != np.floor(arr))
    if bad.any():
        raise ValueError(f"{what} must be integers in 0..255, found {arr[bad][0]}")
    return arr.astype(np.uint8)


def idx_write_images(path, images: np.ndarray) -> None:
    """Write images [n, h, w] or [n, 1, h, w] of integers in 0..255 in IDX format."""
    arr = np.asarray(images)
    if arr.ndim == 4:
        arr = arr[:, 0]
    if arr.ndim != 3:
        raise ValueError("expected [n, h, w] images")
    arr = _as_bytes(arr, "pixels")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, *arr.shape))
        f.write(np.ascontiguousarray(arr))


def idx_write_labels(path, labels) -> None:
    """Write a flat vector of integer labels in 0..255 in IDX format."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("expected a flat label vector")
    arr = _as_bytes(arr, "labels")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, arr.shape[0]))
        f.write(np.ascontiguousarray(arr))


def _resolve(path_str: str, manifest_dir) -> str:
    """An absolute path as it is; a relative one under MDA_DATA_DIR where it exists there, else under manifest_dir."""
    data_root = os.environ.get("MDA_DATA_DIR")
    if data_root and not os.path.isabs(path_str) and os.path.exists(os.path.join(data_root, path_str)):
        return os.path.join(data_root, path_str)
    return os.path.join(manifest_dir, path_str)


def load_manifest(path) -> Dataset:
    """Load a dataset manifest: a JSON document listing IDX files and domain tags.

    Schema: {"sources": [{"images", "labels", optional "domain"}...],
    "target": {"images", "labels"}, optional "target_test": {...}}; any
    other key, at the top or in a file entry, is refused.  Source
    entries with a "domain" index become known-source samples; the others
    unknown-source.  Relative paths resolve against the MDA_DATA_DIR
    environment variable, then the manifest's directory.
    Target labels are loaded but hidden from training.  Images become flat
    pixel vectors [h * w], the input of the dense networks; every file must
    hold images of the first source file's size, else IdxShapeMismatchError.
    Without a "target_test" entry the target rows are also the held-out
    rows.  Each split keeps its files' uint8 pixels as they are, 1 byte per
    pixel: a batch or an evaluation reads its rows as code / PIXEL_SCALE,
    the float64 value idx_load gives.  A file that cannot be read raises
    OSError; a malformed manifest or IDX file raises ValueError, as does a
    target label above every source label, which no model of the sources'
    classes can score.
    """
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the manifest must be a JSON object, found {type(doc).__name__}")
    manifest_dir = os.path.dirname(os.path.abspath(path))

    image_shape = None  # the first source file's, which every file must match

    def load_split(entries, domains=None) -> Split:
        """One split of IDX pairs, their uint8 pixels read straight into one [n, h * w] array of codes.

        The first pass checks every file pair in order, reading labels only,
        then every image size; the second reads each image file's pixels into
        its rows, one file open at a time.  domains holds each source file's
        declared domain, -1 where it declares none; without domains the rows
        are target rows, whose labels stay hidden.
        """
        nonlocal image_shape
        paths = [(_resolve(e["images"], manifest_dir), _resolve(e["labels"], manifest_dir)) for e in entries]
        pairs = [_check_pair(images_path, labels_path) for images_path, labels_path in paths]
        image_shape = image_shape or (1, *pairs[0][0][1:])
        for e, (dims, _) in zip(entries, pairs):
            if (1, *dims[1:]) != image_shape:
                raise IdxShapeMismatchError(
                    f"{e['images']}: images {(1, *dims[1:])}, expected {image_shape}, the sources' image size"
                )
        counts = [dims[0] for dims, _ in pairs]
        codes = np.empty((sum(counts), math.prod(image_shape)), dtype=np.uint8)
        start = 0
        for (images_path, _), (dims, _) in zip(paths, pairs):
            _read_images(images_path, dims, codes[start : start + dims[0]])
            start += dims[0]
        labels = np.concatenate([labels for _, labels in pairs])
        if domains is None:
            return Split.of(codes, kinds=np.full(len(labels), TARGET_CODE, dtype=np.int8), hidden_labels=labels)
        ids = np.arange(len(entries))
        return Split.of(
            codes,
            kinds=np.repeat(np.where(domains >= 0, KNOWN_CODE, UNKNOWN_CODE).astype(np.int8), counts),
            class_labels=labels,
            known_domains=np.repeat(domains, counts),
            dataset_ids=np.repeat(ids, counts),
            hidden_labels=labels,
            hidden_domains=np.repeat(np.where(domains >= 0, domains, ids), counts),
        )

    for key in ("sources", "target"):
        if key not in doc:
            raise ValueError(f"{path}: the manifest has no {key!r} entry")
    for key in doc:
        if key not in ("sources", "target", "target_test"):
            raise ValueError(f"{path}: unknown key {key!r}")
    sources = doc["sources"]
    if not isinstance(sources, list):
        raise ValueError(f"{path}: 'sources' must be a list of file entries, found {type(sources).__name__}")
    if not sources:
        raise ValueError(f"{path}: the manifest lists no source files")
    entries = [(e, ("images", "labels", "domain")) for e in sources]
    entries += [(doc[key], ("images", "labels")) for key in ("target", "target_test") if key in doc]
    for e, known in entries:
        if not isinstance(e, dict) or "images" not in e or "labels" not in e:
            raise ValueError(f"{path}: file entry {e!r} needs 'images' and 'labels'")
        for key in ("images", "labels"):
            if not isinstance(e[key], str):
                raise ValueError(f"{path}: file entry {e!r} needs a path string at {key!r}")
        for key in e:
            if key not in known:
                raise ValueError(f"{path}: file entry {e!r} has unknown key {key!r}")
    for e in sources:
        d = e.get("domain")
        if d is not None and type(d) is not int:
            raise ValueError(f"{path}: {e['images']} declares domain {d!r}, which is not an integer")
        if d is not None and not 0 <= d < 2**63:
            raise ValueError(
                f"{path}: {e['images']} declares domain {d}, but a domain index >= 0 and below 2**63 is needed"
            )
    domains = np.array([-1 if e.get("domain") is None else e["domain"] for e in sources], dtype=np.int64)
    source_train = load_split(sources, domains)
    targets = {key: load_split([doc[key]]) for key in ("target", "target_test") if key in doc}
    top = source_train.class_labels.max()
    for key, split in targets.items():
        if (label := split.hidden_labels.max()) > top:
            where = f"{path}: {doc[key]['labels']}"
            raise ValueError(f"{where} holds target label {label}, above {top}, the largest source label")
    return Dataset(source_train, targets["target"], targets.get("target_test", targets["target"]))


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """A training batch of public columns; carries no hidden evaluation fields.

    The masks are derived from the kind codes.
    """

    features: np.ndarray
    class_labels: np.ndarray
    kinds: np.ndarray
    known_domains: np.ndarray
    source_mask: np.ndarray = field(init=False)
    target_mask: np.ndarray = field(init=False)
    known_mask: np.ndarray = field(init=False)
    unknown_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.target_mask = self.kinds == TARGET_CODE
        self.source_mask = ~self.target_mask
        self.known_mask = self.kinds == KNOWN_CODE
        self.unknown_mask = self.kinds == UNKNOWN_CODE

    @property
    def size(self) -> int:
        return self.features.shape[0]


# the public columns a batch carries besides its features
_BATCH_COLUMNS = ("class_labels", "kinds", "known_domains")


def make_batch(split: Split, features: np.ndarray | None = None) -> Batch:
    """A batch of a Split's public columns; target labels come through as -1.

    Its features are the given rows, one per split row, or by default the
    split's own: a float64 split's array as it is, at no copy, a uint8
    split's codes over PIXEL_SCALE in one new array.  An evaluation passes the
    trunk's output over the split instead (model.split_trunk), which reads
    the rows block by block.
    """
    return Batch(split._read() if features is None else features, *(getattr(split, name) for name in _BATCH_COLUMNS))


@dataclass(frozen=True)
class BatchSpec:
    """Quota-based batch recipe: so many source samples, so many target, at least one of each."""

    source_quota: int = 64
    target_quota: int = 64
    balance_datasets: bool = False

    def __post_init__(self):
        for name in ("source_quota", "target_quota"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: every batch holds source and target rows")


class _Epoch:
    """Endless epoch-shuffled stream of the given row indices: a fresh permutation per pass."""

    def __init__(self, rows: np.ndarray, rng: np.random.Generator):
        self.rows = rows
        self.size = len(rows)
        self.rng = rng
        self.order = rows[rng.permutation(self.size)]
        self.cursor = 0

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        got = 0
        while got < count:
            if self.cursor == self.size:
                self.order = self.rows[self.rng.permutation(self.size)]
                self.cursor = 0
            step = min(count - got, self.size - self.cursor)
            out[got : got + step] = self.order[self.cursor : self.cursor + step]
            self.cursor += step
            got += step
        return out


class BatchSampler:
    """Draws quota batches without replacement: source rows first, then target rows.

    Each pool is walked in epochs, a fresh permutation per pass, so a quota
    may not exceed its pool.  Source rows are drawn in one of two modes:
    uniformly over the pooled source set, or, with balance_datasets on, with
    the quota split evenly over the declared dataset ids (file provenance,
    not latent domains), each id walking its own epochs, so no id's share
    may exceed its rows either.  The plain mode is the balanced one with a
    single group holding every row.  The sampler sees only public sample
    fields; hidden ground truth never reaches a batch.  The same pools, spec
    and seed give the same stream of batches.

    Both pools must store features of one dtype, as a batch scales their
    gathered rows once, else TypeError naming both dtypes.  Every ValueError
    about the spec starts with the BatchSpec field at fault.
    """

    def __init__(self, source: Split, target: Split, spec: BatchSpec, seed: int):
        if source.features.dtype != target.features.dtype:
            raise TypeError(f"source pool stores {source.features.dtype}, target pool {target.features.dtype}")
        if spec.source_quota > len(source):
            raise ValueError(f"source_quota: {spec.source_quota} exceeds the {len(source)} rows of the source pool")
        if spec.target_quota > len(target):
            raise ValueError(f"target_quota: {spec.target_quota} exceeds the {len(target)} rows of the target pool")
        self.source = source
        self.target = target
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        if spec.balance_datasets:
            ids = source.dataset_ids
            if np.any(ids < 0):
                raise ValueError("balance_datasets: needs a dataset id on every source row")
            groups = {int(g): np.flatnonzero(ids == g) for g in np.unique(ids)}
        else:
            groups = {None: np.arange(len(source))}
        per, extra = divmod(spec.source_quota, len(groups))
        self._shares = [per + (gi < extra) for gi in range(len(groups))]
        # the plain mode's one share is the whole quota, checked against the pool above
        for (g, rows), share in zip(groups.items(), self._shares):
            if share > len(rows):
                raise ValueError(
                    f"balance_datasets: dataset id {g} has {len(rows)} rows, "
                    f"fewer than its share {share} of source_quota {spec.source_quota}"
                )
        self._group_epochs = [_Epoch(rows, self._rng) for rows in groups.values()]
        self._target_epoch = _Epoch(np.arange(len(target)), self._rng)

    def _source_indices(self) -> np.ndarray:
        return np.concatenate([epoch.take(n) for epoch, n in zip(self._group_epochs, self._shares)])

    def next_batch(self) -> Batch:
        """Gather the quota rows of both pools' public columns, source rows first, then target.

        The stored rows of both pools are gathered into one array and scaled once.
        """
        rows = ((self.source, self._source_indices()), (self.target, self._target_epoch.take(self.spec.target_quota)))
        features = _scale(np.concatenate([split.features[idx] for split, idx in rows]))
        columns = (np.concatenate([getattr(split, name)[idx] for split, idx in rows]) for name in _BATCH_COLUMNS)
        return Batch(features, *columns)


# ---------------------------------------------------------------------------
# hidden ground truth, revealed for semi-supervised runs


def reveal_domain_labels(split: Split, rows=None) -> Split:
    """A copy of the split whose chosen rows (all by default) are known-source of their latent domain.

    Experiment-level operation for semi-supervised runs; the revealed copy is
    what enters training.  Only the tag columns are copied.
    """
    rows = np.arange(len(split)) if rows is None else np.asarray(rows, dtype=np.int64)
    domains = split.hidden_domains[rows]
    if np.any(domains < 0):
        raise ValueError("sample has no latent domain to reveal")
    kinds = split.kinds.copy()
    kinds[rows] = KNOWN_CODE
    known = split.known_domains.copy()
    known[rows] = domains
    return replace(split, kinds=kinds, known_domains=known)
