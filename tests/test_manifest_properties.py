"""Property tests at the manifest boundary: wrong JSON types, damaged IDX files, labels beyond the classes.

Every drawn manifest goes through `mdalign train`.  It either trains, or it
is a configuration error (exit 2) that names the config path at fault, with
no traceback and no run directory.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdalign.cli import EXIT_CONFIG, EXIT_OK, main  # noqa: E402
from mdalign.data import idx_write_images, idx_write_labels  # noqa: E402

STEMS = ("s0", "s1", "t", "u")  # two source files (s0 declares domain 0), a target and a target_test
ROWS = 4
LABEL_FILES = tuple(f"{stem}-labels.idx" for stem in STEMS)
IDX_FILES = tuple(f"{stem}-images.idx" for stem in STEMS) + LABEL_FILES


def entry(stem: str) -> dict:
    return {"images": f"{stem}-images.idx", "labels": f"{stem}-labels.idx"}


MANIFEST = {
    "sources": [entry("s0") | {"domain": 0}, entry("s1")],
    "target": entry("t"),
    "target_test": entry("u"),
}

TEXT = st.text(max_size=6)
BOOL = st.booleans()
INT = st.integers(-(10**6), 10**6)
FLOAT = st.floats()
LIST = st.lists(st.integers(0, 9), max_size=3)
OBJECT = st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2)
NULL = st.none()


def wrong_value(value):
    """Values of a JSON type the manifest refuses where value stands; a domain may be null, which declares none."""
    if isinstance(value, dict):
        return st.one_of(TEXT, BOOL, INT, FLOAT, LIST, NULL)
    if isinstance(value, list):
        return st.one_of(TEXT, BOOL, INT, FLOAT, OBJECT, NULL)
    if isinstance(value, str):
        return st.one_of(BOOL, INT, FLOAT, LIST, OBJECT, NULL)
    return st.one_of(TEXT, BOOL, FLOAT, LIST, OBJECT)  # the domain index


def key_paths(value, where=()):
    """(path, value) of the document and of every value in it, list items included."""
    yield where, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from key_paths(item, where + (key,))


PATHS = dict(key_paths(MANIFEST))


def replaced(doc, where, value):
    """A copy of doc whose value at where is value."""
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return doc


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A four-file manifest of 2x2 images and its config.

    run(manifest, overrides) trains on it and returns (exit code, stderr, whether a run directory was left).
    """
    root = tmp_path_factory.mktemp("manifests")
    rng = np.random.default_rng(5)
    for stem in STEMS:
        idx_write_images(root / f"{stem}-images.idx", rng.integers(0, 256, (ROWS, 2, 2)))
        idx_write_labels(root / f"{stem}-labels.idx", [0, 1, 2, 3])
    doc = {
        "data": {"manifest": str(root / "manifest.json")},
        "model": {"trunk_widths": [4], "classifier_widths": [4], "branch_hidden": 4},
        "train": {"iterations": 1, "batch": {"source_quota": 1, "target_quota": 1}},
    }
    (root / "config.json").write_text(json.dumps(doc))
    out = root / "run"

    def train(manifest=MANIFEST, overrides=()):
        (root / "manifest.json").write_text(json.dumps(manifest))
        err = io.StringIO()
        args = ["train", "--config", str(root / "config.json"), "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        left = out.exists()
        if left:
            shutil.rmtree(out)
        return code, err.getvalue(), left

    train.root = root
    return train


@contextlib.contextmanager
def files_written(root, contents: dict):
    """Write each named file's bytes for the duration of the block, then restore the files as they were."""
    keep = {name: (root / name).read_bytes() for name in contents}
    try:
        for name, data in contents.items():
            (root / name).write_bytes(data)
        yield
    finally:
        for name, data in keep.items():
            (root / name).write_bytes(data)


def test_unchanged_manifest_trains(run):
    code, err, left = run()
    assert code == EXIT_OK and left, err


@given(st.fixed_dictionaries({path: wrong_value(value) for path, value in PATHS.items()}))
def test_wrong_json_type_is_a_config_error(run, values):
    """Each example holds one wrong value per place in the manifest, and each is tried alone."""
    for where, value in values.items():
        code, err, left = run(replaced(MANIFEST, where, value))
        assert code == EXIT_CONFIG and err.startswith("config error: data.manifest: ") and not left, (where, value, err)


@st.composite
def damaged(draw, length: int):
    """The bytes of a file of the given length emptied, cut short, or given trailing bytes."""
    how = draw(st.sampled_from(["empty", "truncated", "over-long"]))
    if how == "empty":
        return lambda data: b""
    if how == "truncated":
        cut = draw(st.integers(1, length - 1))
        return lambda data: data[:cut]
    extra = draw(st.binary(min_size=1, max_size=8))
    return lambda data: data + extra


@given(st.data())
def test_damaged_idx_file_is_a_config_error(run, data):
    """Each example damages every IDX file of the manifest once, and each damaged file is tried alone."""
    for name in IDX_FILES:
        original = (run.root / name).read_bytes()
        damage = data.draw(damaged(len(original)), label=name)
        with files_written(run.root, {name: damage(original)}):
            code, err, left = run()
        assert code == EXIT_CONFIG and err.startswith("config error: data.manifest: ") and not left, (name, err)


@given(
    st.fixed_dictionaries(
        {name: st.lists(st.integers(0, 9) | st.integers(0, 255), min_size=ROWS, max_size=ROWS) for name in LABEL_FILES}
    ),
    st.none() | st.integers(2, 16),
)
def test_labels_beyond_the_classes_train_or_are_a_config_error(run, labels, n_classes):
    """Labels of any byte value, against the classes the source labels imply or an override of model.n_classes.

    A target label above every source label is a config error naming data.manifest, with or without an
    override; otherwise a source label at or above an override is a config error naming model.n_classes,
    the path at fault, and source labels that imply fewer than two classes name data.manifest.
    """
    contents = {}
    for name, values in labels.items():
        idx_write_labels(run.root / "scratch.idx", values)
        contents[name] = (run.root / "scratch.idx").read_bytes()
    overrides = () if n_classes is None else (f"model.n_classes={n_classes}",)
    with files_written(run.root, contents):
        code, err, left = run(overrides=overrides)
    source_top = max(max(labels[name]) for name in LABEL_FILES[:2])
    if max(max(labels[name]) for name in LABEL_FILES[2:]) > source_top:
        assert code == EXIT_CONFIG and not left, err
        assert err.startswith("config error: data.manifest: "), (labels, n_classes, err)
        assert f"above {source_top}, the largest source label" in err, (labels, n_classes, err)
        return
    if code == EXIT_OK:
        assert left
        return
    assert code == EXIT_CONFIG and not left, err
    named = "model.n_classes" if n_classes is not None else "data.manifest"
    assert err.startswith(f"config error: {named}: "), (labels, n_classes, err)
