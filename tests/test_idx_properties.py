"""Property tests at the IDX boundary: magic numbers, dimensions, truncation and trailing bytes.

Every drawn image/label file pair either loads, with the shape and values its
headers declare, or raises an IdxError subclass.  Through `mdalign train` on
a manifest, a pair that does not load is a configuration error (exit 2) with
no traceback and no run directory.
"""

import contextlib
import io
import json
import shutil
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdalign.cli import EXIT_CONFIG, EXIT_OK, main  # noqa: E402
from mdalign.data import (  # noqa: E402
    IMAGE_MAGIC,
    LABEL_MAGIC,
    IdxError,
    idx_load,
    idx_write_images,
    idx_write_labels,
)

# a declared payload above this many bytes is never written in full
MAX_PAYLOAD = 4096


def payload(length: int) -> bytes:
    return (np.arange(length) * 37 % 256).astype(np.uint8).tobytes()


@st.composite
def idx_file(draw, magic: int, n_dims: int):
    """(file bytes, dims or None): dims when the file is well formed, None when its magic, header or payload is off."""
    good_magic = draw(st.booleans())
    found = magic if good_magic else draw(st.integers(0, 2**32 - 1).filter(lambda m: m != magic))
    small = st.integers(0, 4)
    dims = tuple(draw(st.lists(small | st.integers(2**31, 2**32 - 1), min_size=n_dims, max_size=n_dims)))
    declared = int(np.prod(dims, dtype=object))
    if declared <= MAX_PAYLOAD:
        length = declared + draw(st.sampled_from([0, 0, 0, -1, -3, 1, 7]))  # truncated or trailing bytes
    else:
        length = draw(st.integers(0, 64))
    length = max(length, 0)
    header = struct.pack(">I" + "I" * n_dims, found, *dims)
    cut = draw(st.none() | st.integers(0, len(header) - 1))  # a file that ends inside its header
    data = header[:cut] if cut is not None else header + payload(length)
    well_formed = good_magic and cut is None and length == declared and 0 not in dims
    return data, dims if well_formed else None


@st.composite
def idx_pair(draw):
    """(image bytes, label bytes, (n, h, w) when the pair loads else None); counts agree more often than not."""
    images, image_dims = draw(idx_file(IMAGE_MAGIC, 3))
    if image_dims is not None and image_dims[0] <= MAX_PAYLOAD and draw(st.booleans()):
        n = image_dims[0]
        labels, label_dims = struct.pack(">II", LABEL_MAGIC, n) + payload(n), (n,)
    else:
        labels, label_dims = draw(idx_file(LABEL_MAGIC, 1))
    loads = image_dims is not None and label_dims is not None and image_dims[0] == label_dims[0]
    return images, labels, image_dims if loads else None


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


@given(idx_pair())
def test_pair_loads_or_raises_an_idx_error(root, pair):
    images, labels, dims = pair
    (root / "i.idx").write_bytes(images)
    (root / "l.idx").write_bytes(labels)
    if dims is None:
        with pytest.raises(IdxError):
            idx_load(root / "i.idx", root / "l.idx")
        return
    pixels, loaded = idx_load(root / "i.idx", root / "l.idx")
    n, h, w = dims
    assert pixels.shape == (n, 1, h, w)
    np.testing.assert_array_equal(pixels.reshape(-1), np.frombuffer(images[16:], dtype=np.uint8) / 255.0)
    np.testing.assert_array_equal(loaded, np.frombuffer(labels[8:], dtype=np.uint8))


@pytest.fixture(scope="module")
def manifest_run(root):
    """A two-file manifest of 2x2 images, its config, and an output path; the test overwrites one file pair."""
    rng = np.random.default_rng(4)
    for stem in ("s", "t"):
        idx_write_images(root / f"{stem}-images.idx", rng.integers(0, 256, (4, 2, 2)))
        idx_write_labels(root / f"{stem}-labels.idx", [0, 1, 0, 1])
    pairs = {stem: {"images": f"{stem}-images.idx", "labels": f"{stem}-labels.idx"} for stem in ("s", "t")}
    (root / "manifest.json").write_text(json.dumps({"sources": [pairs["s"]], "target": pairs["t"]}))
    doc = {
        "data": {"manifest": str(root / "manifest.json")},
        "model": {"trunk_widths": [4], "classifier_widths": [4], "branch_hidden": 4},
        "train": {"iterations": 1, "batch": {"source_quota": 1, "target_quota": 1}},
    }
    (root / "config.json").write_text(json.dumps(doc))
    return root, str(root / "config.json"), root / "run"


@given(idx_pair(), st.sampled_from(["s", "t"]))
def test_pair_through_train_is_a_config_error_or_trains(manifest_run, pair, stem):
    """A pair that does not load is exit 2 and leaves no run directory; nothing raises out of main."""
    root, config, out = manifest_run
    images, labels, dims = pair
    keep = {name: (root / name).read_bytes() for name in (f"{stem}-images.idx", f"{stem}-labels.idx")}
    (root / f"{stem}-images.idx").write_bytes(images)
    (root / f"{stem}-labels.idx").write_bytes(labels)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", config, "--out", str(out)])
    finally:
        for name, data in keep.items():
            (root / name).write_bytes(data)
    if code == EXIT_OK:
        shutil.rmtree(out)
    assert code in (EXIT_CONFIG, EXIT_OK), (code, err.getvalue())
    if dims is None:
        assert code == EXIT_CONFIG and err.getvalue().startswith("config error: data.manifest: "), err.getvalue()
    assert code == EXIT_OK or not out.exists()
