"""Synthetic generation, pixel transforms, IDX ingestion, and batch sampling."""

import dataclasses
import hashlib
import io
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mdalign.assignment import KNOWN_CODE, TARGET_CODE, UNKNOWN_CODE, DomainTag
import mdalign.data as mdata
from mdalign.data import (
    Batch,
    BatchSampler,
    BatchSpec,
    Dataset,
    FeatureShift,
    IdxCountMismatchError,
    IdxEmptyError,
    IdxError,
    IdxMagicError,
    IdxShapeMismatchError,
    IdxTrailingBytesError,
    IdxTruncatedError,
    ImageShift,
    LabeledSample,
    NonFiniteFeatureError,
    SynthConfig,
    apply_feature_shift,
    idx_load,
    idx_write_images,
    idx_write_labels,
    image_transform,
    load_manifest,
    make_batch,
    Split,
    reveal_domain_labels,
    synth_make,
)
from mdalign.experiments import pinned_benchmark
from mdalign.model import Model, ModelConfig
from mdalign.training import TrainConfig, metrics_csv_lines, train


from conftest import nearest_centroid_accuracy


class TestFeatureShift:
    def test_identity_by_default(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(apply_feature_shift(x, FeatureShift()), x)

    def test_rotation_is_invertible(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 4))
        fwd = apply_feature_shift(x, FeatureShift(rotation=0.7))
        back = apply_feature_shift(fwd, FeatureShift(rotation=-0.7))
        np.testing.assert_allclose(back, x, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 4, 5])
    def test_rotation_turns_each_pair_and_keeps_an_odd_last_column(self, dim):
        """Bytes of rotating pair by pair in a loop, odd dimensions included."""
        x = np.random.default_rng(2).normal(size=(6, dim))
        out = apply_feature_shift(x, FeatureShift(rotation=0.7))
        c, s = np.cos(0.7), np.sin(0.7)
        expected = x.copy()
        for j in range(0, dim - 1, 2):
            expected[:, j] = c * x[:, j] - s * x[:, j + 1]
            expected[:, j + 1] = s * x[:, j] + c * x[:, j + 1]
        assert out.tobytes() == expected.tobytes()

    def test_offset_and_scale(self):
        x = np.ones((2, 2))
        out = apply_feature_shift(x, FeatureShift(offset=(1.0, -1.0), scale=2.0))
        np.testing.assert_array_equal(out, [[3.0, 1.0], [3.0, 1.0]])


def split_digest(data) -> str:
    """sha256 over dtype, shape and bytes of all seven columns of the three splits."""
    digest = hashlib.sha256()
    for name in ("source_train", "target_train", "target_test"):
        split = getattr(data, name)
        for column in (
            "features", "class_labels", "kinds", "known_domains", "dataset_ids", "hidden_labels", "hidden_domains"
        ):
            values = np.ascontiguousarray(getattr(split, column))
            digest.update(f"{name}.{column}:{values.dtype.str}:{values.shape}".encode())
            digest.update(values.tobytes())
    return digest.hexdigest()


# synth_make draws held-out source rows that no split keeps; dropping or moving
# that draw changes every later row, and so these recorded digests.
RECORDED_SPLITS = {
    "pinned": (pinned_benchmark(), "25581df7ccb12d754ccc827e42f7a9f83b738367d263b1af858e3c623e1f8ad6"),
    "three_domains": (
        SynthConfig(n_latent_domains=3, n_classes=3, feature_dim=4, train_per_domain=20, test_per_domain=15, seed=3),
        "96dd500686c891df940b9e7ce519c79fb9528b334f6976124e34ad75dbe9d8bd",
    ),
    "rotated_standardized": (
        SynthConfig(
            n_latent_domains=2, n_classes=3, feature_dim=5, train_per_domain=25, test_per_domain=30,
            domain_shifts=(FeatureShift(rotation=0.7), FeatureShift(rotation=-0.4, offset=1.0, scale=1.5)),
            target_shift=FeatureShift(rotation=0.2, offset=-0.5),
            standardize=True,
            seed=11,
        ),
        "01957d4279669d16a015e39f91ea183d4443d2420ff53c7d64913b222e81d637",
    ),
}


class TestSynthMake:
    @pytest.mark.parametrize("recipe", sorted(RECORDED_SPLITS))
    def test_splits_match_recorded_digest(self, recipe):
        cfg, expected = RECORDED_SPLITS[recipe]
        assert split_digest(synth_make(cfg)) == expected

    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(seed=11)
        d1, d2 = synth_make(cfg), synth_make(cfg)
        for a, b in zip(d1.source_train, d2.source_train):
            np.testing.assert_array_equal(a.features, b.features)
            assert a.class_label == b.class_label
        for a, b in zip(d1.target_test, d2.target_test):
            np.testing.assert_array_equal(a.features, b.features)

    def test_counts_and_tags(self):
        cfg = SynthConfig(n_latent_domains=3, train_per_domain=20, test_per_domain=10)
        data = synth_make(cfg)
        assert len(data.source_train) == 60
        assert len(data.target_train) == 20
        assert len(data.target_test) == 10
        assert all(s.tag.kind == "unknown-source" for s in data.source_train)
        assert all(s.tag.kind == "target" for s in data.target_train)

    def test_target_labels_hidden_but_recoverable(self):
        data = synth_make(SynthConfig(seed=3))
        assert (data.target_test.class_labels == -1).all()
        assert (data.target_test.hidden_labels >= 0).all()

    def test_latent_domain_recorded_on_source(self):
        data = synth_make(SynthConfig(n_latent_domains=2, seed=4))
        assert set(data.source_train.hidden_domains.tolist()) == {0, 1}
        assert (data.target_train.hidden_domains == -1).all()

    def test_rotated_domains_fixture_is_solvable(self):
        # two sources rotated +/- 45 degrees, target at 0: the task must be
        # separable for a nearest-centroid learner trained on the sources
        cfg = SynthConfig(
            n_latent_domains=2,
            n_classes=3,
            feature_dim=4,
            class_separation=4.0,
            domain_shifts=(FeatureShift(rotation=np.pi / 4), FeatureShift(rotation=-np.pi / 4)),
            target_shift=FeatureShift(rotation=0.0),
            seed=5,
        )
        data = synth_make(cfg)
        assert nearest_centroid_accuracy(data.source_train, data.target_test) > 0.8

    def test_non_finite_features_rejected(self):
        cfg = SynthConfig(
            train_per_domain=20,
            domain_shifts=(FeatureShift(), FeatureShift(offset=np.nan)),
        )
        with pytest.raises(NonFiniteFeatureError, match="source_train: row 20 "):
            synth_make(cfg)

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(n_latent_domains=0)
        with pytest.raises(ValueError):
            SynthConfig(n_latent_domains=2, domain_shifts=(FeatureShift(),))
        with pytest.raises(ValueError, match=r"target_shift\.offset: 1 entries, but feature_dim is 6"):
            SynthConfig(feature_dim=6, target_shift=FeatureShift(offset=(1.0,)))


class TestSplit:
    def split(self):
        return Split.of(
            np.repeat([[0.0], [1.0], [2.0]], 3, axis=1),
            kinds=[KNOWN_CODE, UNKNOWN_CODE, TARGET_CODE],
            class_labels=[2, 0, -1],
            known_domains=[1, -1, -1],
            dataset_ids=[0, -1, -1],
            hidden_labels=[-1, 0, 4],
            hidden_domains=[1, -1, -1],
        )

    def test_of_fills_omitted_columns_with_minus_one(self):
        split = Split.of(np.zeros((4, 2)), kinds=np.full(4, TARGET_CODE))
        assert split.kinds.dtype == np.int8
        for name in ("class_labels", "known_domains", "dataset_ids", "hidden_labels", "hidden_domains"):
            column = getattr(split, name)
            assert column.dtype == np.int64 and column.tolist() == [-1] * 4, name

    def test_rows_round_trip_and_view_the_features(self):
        split = self.split()
        expected = [
            (2, DomainTag.known_source(1), 0, None, 1),
            (0, DomainTag.unknown_source(), None, 0, None),
            (None, DomainTag.target(), None, 4, None),
        ]
        assert len(split) == 3
        for i, (row, want) in enumerate(zip(split, expected)):
            assert isinstance(row, LabeledSample)
            assert np.shares_memory(row.features, split.features)
            np.testing.assert_array_equal(row.features, np.full(3, float(i)))
            assert (row.class_label, row.tag, row.dataset_id, row.hidden_label, row.hidden_latent_domain) == want
        assert split[np.int64(2)].tag == DomainTag.target()
        with pytest.raises(dataclasses.FrozenInstanceError):
            split[0].class_label = 1

    def test_slices_and_index_arrays_give_splits(self):
        split = self.split()
        tail = split[1:]
        assert isinstance(tail, Split) and len(tail) == 2
        assert np.shares_memory(tail.features, split.features)
        picked = split[np.array([2, 0])]
        assert picked.class_labels.tolist() == [-1, 2]

    def test_whole_split_batch_is_not_copied(self):
        split = synth_make(SynthConfig(seed=2, train_per_domain=10)).source_train
        batch = make_batch(split)
        assert np.shares_memory(batch.features, split.features)
        assert batch.size == len(split)

    def test_non_finite_samples_rejected(self):
        for bad in (np.inf, np.nan):
            features = np.zeros((3, 2, 2))
            features[1, 1, 0] = bad
            with pytest.raises(NonFiniteFeatureError, match="batch: row 1 "):
                Split.of(features, kinds=np.full(3, UNKNOWN_CODE), name="batch")

    def test_uint8_codes_rest_as_codes_and_read_as_their_float64_twin(self):
        """uint8 features are kept as they are, and every read gives the bits of a float64 split of codes / 255."""
        rng = np.random.default_rng(8)
        codes = rng.integers(0, 256, (30, 5), dtype=np.uint8)
        columns = {
            "kinds": np.where(np.arange(30) < 20, UNKNOWN_CODE, TARGET_CODE),
            "class_labels": np.where(np.arange(30) < 20, np.arange(30) % 3, -1),
            "dataset_ids": np.where(np.arange(30) < 20, np.arange(30) % 2, -1),
            "hidden_domains": np.where(np.arange(30) < 20, np.arange(30) % 2, -1),
        }
        split = Split.of(codes, **columns)
        twin = Split.of(codes / 255.0, **columns)
        assert split.features is codes and mdata.PIXEL_SCALE == 255.0

        def same(a, b):
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()

        for row, twin_row in zip(split, twin):
            same(row.features, twin_row.features)
        parts = [(split[4:17], twin[4:17]), (split[np.array([3, 0, 29])], twin[np.array([3, 0, 29])])]
        parts.append((reveal_domain_labels(split, [1, 2]), reveal_domain_labels(twin, [1, 2])))
        for part, twin_part in [(split, twin), *parts]:
            assert part.features.dtype == np.uint8
            same(make_batch(part).features, make_batch(twin_part).features)
        spec = BatchSpec(source_quota=6, target_quota=4, balance_datasets=True)
        samplers = [BatchSampler(s[:20], s[20:], spec, seed=3) for s in (split, twin)]
        for _ in range(5):
            a, b = (sampler.next_batch() for sampler in samplers)
            same(a.features, b.features)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64, np.float32])
    def test_other_dtypes_become_float64_unscaled(self, dtype):
        features = np.arange(12).reshape(4, 3).astype(dtype)
        split = Split.of(features, kinds=np.full(4, UNKNOWN_CODE))
        assert split.features.dtype == np.float64
        assert split.features.tolist() == np.arange(12.0).reshape(4, 3).tolist()
        assert make_batch(split).features.tolist() == split.features.tolist()

    def test_every_returned_split_is_built_by_split_of(self, tmp_path, monkeypatch):
        """synth_make and load_manifest return only splits Split.of built, holding the features it checked.

        load_manifest used to build its splits with the bare constructor, and
        synth_make to standardize after Split.of, binding features it never
        checked.
        """
        built = {}
        of = Split.of.__func__

        def recorded(cls, *args, **kwargs):
            split = of(cls, *args, **kwargs)
            built[id(split)] = (split, split.features)
            return split

        monkeypatch.setattr(Split, "of", classmethod(recorded))
        manifest, _ = TestManifest().write_manifest(tmp_path, 2, (12, 8, 6, 5))
        for data in (synth_make(SynthConfig(seed=1, train_per_domain=10, standardize=True)), load_manifest(manifest)):
            for name in ("source_train", "target_train", "target_test"):
                split = getattr(data, name)
                assert id(split) in built, name
                assert built[id(split)][1] is split.features, name


class TestImageTransform:
    def test_inversion_is_an_involution(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(3, 1, 4, 4))
        spec = ImageShift(invert=True)
        np.testing.assert_allclose(image_transform(image_transform(x, spec), spec), x, atol=1e-15)

    def test_zero_noise_is_identity(self):
        x = np.random.default_rng(8).uniform(size=(2, 1, 3, 3))
        np.testing.assert_array_equal(image_transform(x, ImageShift(noise_sigma=0.0)), x)

    def test_four_quarter_turns_are_identity(self):
        x = np.random.default_rng(9).uniform(size=(2, 1, 5, 5))
        out = x
        for _ in range(4):
            out = image_transform(out, ImageShift(rot90=1))
        np.testing.assert_array_equal(out, x)

    def test_intensity_map(self):
        x = np.full((1, 1, 2, 2), 0.5)
        out = image_transform(x, ImageShift(gain=0.5, bias=0.1))
        np.testing.assert_allclose(out, 0.35, atol=1e-15)

    def test_noise_is_seeded(self):
        x = np.zeros((1, 1, 2, 2))
        a = image_transform(x, ImageShift(noise_sigma=1.0), seed=4)
        b = image_transform(x, ImageShift(noise_sigma=1.0), seed=4)
        np.testing.assert_array_equal(a, b)


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        # 2 images of 2x2 pixels holding bytes 0..7
        img_path = tmp_path / "imgs.idx"
        lbl_path = tmp_path / "lbls.idx"
        with open(img_path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(bytes(range(8)))
        with open(lbl_path, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 2))
            f.write(bytes([3, 7]))
        images, labels = idx_load(img_path, lbl_path)
        assert images.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(images.reshape(-1), np.arange(8) / 255.0)
        np.testing.assert_array_equal(labels, [3, 7])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        lbl = tmp_path / "l.idx"
        idx_write_labels(lbl, [0])
        with pytest.raises(IdxMagicError):
            idx_load(path, lbl)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        lbl = tmp_path / "l.idx"
        idx_write_labels(lbl, [0, 1])
        with pytest.raises(IdxTruncatedError):
            idx_load(path, lbl)

    def test_payload_beyond_the_file_is_truncation(self, tmp_path):
        """The declared size is checked against the file before reading; 2**96 bytes used to raise OverflowError."""
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8)
        lbl = tmp_path / "l.idx"
        idx_write_labels(lbl, [0])
        with pytest.raises(IdxTruncatedError, match=r"header declares \d+ payload bytes, the file holds 8"):
            idx_load(path, lbl)

    def test_trailing_bytes_rejected(self, tmp_path):
        # bytes after the payload used to be silently ignored
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        idx_write_images(img, np.zeros((2, 2, 2), dtype=np.uint8))
        idx_write_labels(lbl, [0, 1])
        with open(img, "ab") as f:
            f.write(b"\x00" * 7)
        with pytest.raises(IdxTrailingBytesError, match="7 bytes after the 8-byte payload"):
            idx_load(img, lbl)
        idx_write_images(img, np.zeros((2, 2, 2), dtype=np.uint8))
        with open(lbl, "ab") as f:
            f.write(b"\x01")
        with pytest.raises(IdxTrailingBytesError, match="1 bytes after the 2-byte payload"):
            idx_load(img, lbl)

    def test_empty_file_is_truncation(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        lbl = tmp_path / "l.idx"
        idx_write_labels(lbl, [0])
        with pytest.raises(IdxTruncatedError):
            idx_load(path, lbl)

    @pytest.mark.parametrize(
        "dims", [(0, 2, 2), (2, 0, 2), (0, 2**31, 2**31)], ids=["no_images", "no_pixels", "huge_empty_images"]
    )
    def test_zero_dimension_is_refused(self, tmp_path, dims):
        # (0, 2**31, 2**31) used to pass the reader, then raise a plain ValueError ("array is too big") in idx_load
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        idx_write_labels(lbl, [0] * dims[0])
        with pytest.raises(IdxEmptyError, match=rf"header declares dimensions \({dims[0]}, {dims[1]}, {dims[2]}\)"):
            idx_load(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "i.idx"
        lbl = tmp_path / "l.idx"
        idx_write_images(img, np.zeros((3, 2, 2), dtype=np.uint8))
        idx_write_labels(lbl, [1, 2])
        expected = rf"{re.escape(str(img))}: 3 images vs 2 labels in {re.escape(str(lbl))}$"
        with pytest.raises(IdxCountMismatchError, match=expected):
            idx_load(img, lbl)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        images = rng.integers(0, 256, size=(4, 3, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=4, dtype=np.uint8)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        idx_write_images(img, images)
        idx_write_labels(lbl, labels)
        loaded_images, loaded_labels = idx_load(img, lbl)
        recovered = np.round(loaded_images[:, 0] * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(recovered, images)
        np.testing.assert_array_equal(loaded_labels, labels)
        img2, lbl2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        idx_write_images(img2, recovered)
        idx_write_labels(lbl2, loaded_labels)
        assert img.read_bytes() == img2.read_bytes()
        assert lbl.read_bytes() == lbl2.read_bytes()

    @pytest.mark.parametrize("bad", [256, -1, 0.5, float("nan")])
    def test_writers_refuse_values_a_byte_cannot_hold(self, tmp_path, bad):
        # these used to wrap or truncate: labels [256, -1] read back as [0, 255]
        labels = np.array([1, bad])
        with pytest.raises(ValueError, match=f"labels must be integers in 0..255, found {bad}"):
            idx_write_labels(tmp_path / "l.idx", labels)
        pixels = np.full((1, 2, 2), bad)
        with pytest.raises(ValueError, match=f"pixels must be integers in 0..255, found {bad}"):
            idx_write_images(tmp_path / "i.idx", pixels)
        assert not (tmp_path / "l.idx").exists() and not (tmp_path / "i.idx").exists()

    def test_writers_take_integral_values_of_any_number_type(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        idx_write_images(img, np.array([[[0.0]], [[255.0]]]))
        idx_write_labels(lbl, [0, 255])
        images, labels = idx_load(img, lbl)
        assert images.reshape(-1).tolist() == [0.0, 1.0]
        assert labels.tolist() == [0, 255]


class TestManifest:
    def make_pair(self, directory, stem, count, seed, size=2):
        """An IDX pair of count random images, labelled 0, 1, 2, 3, 0, ... in a random order."""
        rng = np.random.default_rng(seed)
        idx_write_images(directory / f"{stem}-images.idx", rng.integers(0, 256, (count, size, size), dtype=np.uint8))
        idx_write_labels(directory / f"{stem}-labels.idx", rng.permutation(np.arange(count) % 4))
        return {"images": f"{stem}-images.idx", "labels": f"{stem}-labels.idx"}

    def test_manifest_loading_and_tags(self, tmp_path):
        doc = {
            "sources": [
                self.make_pair(tmp_path, "a", 5, 0) | {"domain": 0},
                self.make_pair(tmp_path, "b", 6, 1),
            ],
            "target": self.make_pair(tmp_path, "t", 7, 2),
        }
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        data = load_manifest(manifest)
        assert len(data.source_train) == 11
        assert data.source_train.kinds.tolist() == [KNOWN_CODE] * 5 + [UNKNOWN_CODE] * 6
        assert data.source_train.known_domains.tolist() == [0] * 5 + [-1] * 6
        assert (data.target_train.class_labels == -1).all()
        assert len(data.target_test) == 7

    @pytest.mark.parametrize(
        "where, key",
        [("top", "target_tset"), ("source", "domian"), ("target", "domain"), ("target_test", "label")],
    )
    def test_unknown_key_rejected(self, tmp_path, where, key):
        """A misspelt key is refused by name; it used to be ignored, so a "domian" lost the declared domain."""
        doc = {
            "sources": [self.make_pair(tmp_path, "a", 2, 0)],
            "target": self.make_pair(tmp_path, "t", 2, 1),
            "target_test": self.make_pair(tmp_path, "u", 2, 2),
        }
        (doc if where == "top" else doc["sources"][0] if where == "source" else doc[where])[key] = 0
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_manifest(manifest)

    @pytest.mark.parametrize("where", ["source", "target", "target_test"])
    def test_image_size_mismatch_rejected(self, tmp_path, where):
        """Every file, target files too, must hold images of the first source file's size."""
        idx_write_images(tmp_path / "b-images.idx", np.zeros((2, 3, 2), dtype=np.uint8))
        idx_write_labels(tmp_path / "b-labels.idx", [0, 1])
        odd = {"images": "b-images.idx", "labels": "b-labels.idx"}
        doc = {
            "sources": [self.make_pair(tmp_path, "a", 2, 0)],
            "target": self.make_pair(tmp_path, "t", 2, 1),
            "target_test": self.make_pair(tmp_path, "u", 2, 2),
        }
        if where == "source":
            doc["sources"].append(odd)
        else:
            doc[where] = odd
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        expected = r"b-images\.idx: images \(1, 3, 2\), expected \(1, 2, 2\), the sources' image size"
        with pytest.raises(IdxShapeMismatchError, match=expected):
            load_manifest(manifest)

    def write_manifest(self, directory, size, counts):
        """A manifest of len(counts) - 2 source files (the first declares domain 0), a target and a target_test."""
        *sources, target, target_test = (
            self.make_pair(directory, f"f{i}", n, i, size) for i, n in enumerate(counts)
        )
        sources[0]["domain"] = 0
        doc = {"sources": sources, "target": target, "target_test": target_test}
        manifest = directory / "manifest.json"
        manifest.write_text(json.dumps(doc))
        return manifest, doc

    def test_pixels_rest_as_one_byte_each(self, tmp_path):
        """A manifest split keeps 1 byte per pixel, and loading peaks at under twice the files' pixel bytes."""
        counts = (200, 150, 150, 200, 100)
        manifest, _ = self.write_manifest(tmp_path, 28, counts)
        tracemalloc.start()
        try:
            data = load_manifest(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for split in (data.source_train, data.target_train, data.target_test):
            assert split.features.dtype == np.uint8
            assert split.features.nbytes == len(split) * 28 * 28
        assert peak <= 2 * sum(counts) * 28 * 28
        for part in (data.source_train[10:20], reveal_domain_labels(data.source_train, [3])):
            assert part.features.dtype == np.uint8

    def test_loading_peaks_near_the_bytes_it_returns(self, tmp_path):
        """Each file's pixels are read straight into its split's rows, with no second copy of a payload.

        The loader used to read each payload into a bytes object, then join the files into the split's
        array: on this manifest its peak was 1.26 times the bytes it returns.
        """
        manifest, _ = self.write_manifest(tmp_path, 28, (300, 250, 350, 300, 200))
        tracemalloc.start()
        try:
            data = load_manifest(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        splits = {id(split): split for split in (data.source_train, data.target_train, data.target_test)}
        returned = sum(getattr(split, f.name).nbytes for split in splits.values() for f in dataclasses.fields(split))
        assert peak <= 1.1 * returned, (peak, returned)

    def test_image_file_changed_between_the_passes_is_refused(self, tmp_path, monkeypatch):
        """The pixels are read in a second pass, which checks each image header again before it reads."""
        manifest, doc = self.write_manifest(tmp_path, 2, (3, 3, 3, 3))
        first_pass = mdata._check_pair

        def then_grow(images_path, labels_path):
            checked = first_pass(images_path, labels_path)
            if images_path.endswith("f0-images.idx"):
                idx_write_images(images_path, np.zeros((4, 2, 2), dtype=np.uint8))
            return checked

        monkeypatch.setattr(mdata, "_check_pair", then_grow)
        expected = r"f0-images\.idx: header declares dimensions \(4, 2, 2\), it declared \(3, 2, 2\)"
        with pytest.raises(IdxError, match=expected):
            load_manifest(manifest)

    def test_short_payload_read_is_truncation(self, tmp_path):
        """A payload read that ends early, as when the file shrinks after its header was checked, is refused."""
        out = np.empty((2, 4), dtype=np.uint8)
        with pytest.raises(IdxTruncatedError, match="needed 8 payload bytes, found 5"):
            mdata._read_payload(io.BytesIO(bytes(5)), out, "f.idx")

    def test_pixel_splits_read_as_their_float64_twins(self, tmp_path):
        """Codes / 255.0 give, bit for bit, what splits of float64 pixels / 255.0 give: batches, rows, training."""
        manifest, doc = self.write_manifest(tmp_path, 3, (40, 30, 36, 20))
        pixels = load_manifest(manifest)

        def twin(split, entries):
            stored = [idx_load(tmp_path / e["images"], tmp_path / e["labels"])[0] for e in entries]
            names = ("kinds", "class_labels", "known_domains", "dataset_ids", "hidden_labels", "hidden_domains")
            columns = {name: getattr(split, name) for name in names}
            return Split.of(np.concatenate([px.reshape(len(px), -1) for px in stored]), **columns)

        floats = Dataset(
            twin(pixels.source_train, doc["sources"]),
            twin(pixels.target_train, [doc["target"]]),
            twin(pixels.target_test, [doc["target_test"]]),
        )

        def same(a, b):
            assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b) and a.tobytes() == b.tobytes()

        for name in ("source_train", "target_train", "target_test"):
            split, float_split = getattr(pixels, name), getattr(floats, name)
            assert split.features.dtype == split[5:17].features.dtype == np.uint8
            same(make_batch(split).features, make_batch(float_split).features)
            same(make_batch(split[5:17]).features, make_batch(float_split[5:17]).features)
            for row, float_row in zip(split, float_split):
                same(row.features, float_row.features)
        same(make_batch(reveal_domain_labels(pixels.source_train, [1, 2])).features, floats.source_train.features)

        spec = BatchSpec(source_quota=9, target_quota=7, balance_datasets=True)
        samplers = [
            BatchSampler(pixels.source_train, pixels.target_train, spec, seed=4),
            BatchSampler(floats.source_train, floats.target_train, spec, seed=4),
        ]
        for _ in range(12):
            a, b = (sampler.next_batch() for sampler in samplers)
            same(a.features, b.features)
            for name in ("class_labels", "kinds", "known_domains"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        # a batch scales both pools' gathered rows at once, so a pixel pool cannot pair with a float64 one
        with pytest.raises(TypeError, match=r"source pool stores uint8, target pool float64"):
            BatchSampler(pixels.source_train, floats.target_train, spec, seed=4)

        cfg = TrainConfig(iterations=8, base_lr=0.05, batch=spec, seed=2, eval_every=4)
        runs = []
        for dataset in (pixels, floats):
            model = Model(ModelConfig(in_dim=9, n_classes=4, k=2, trunk_widths=(8,), classifier_widths=(8,), seed=1))
            _, rows = train(model, dataset, cfg)
            running = [getattr(layer.running, f).tobytes() for layer in model.align_layers.values()
                       for f in ("mean", "var", "count")]
            runs.append((metrics_csv_lines(rows), model.flat.value.tobytes(), model.flat.momentum.tobytes(), running))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key", ["target", "target_test"])
    def test_target_label_above_the_sources_is_refused(self, tmp_path, key):
        """A target label no source holds used to train, and evaluation scored every row of it as a miss."""
        doc = {
            "sources": [self.make_pair(tmp_path, "a", 4, 0), self.make_pair(tmp_path, "b", 4, 1)],
            "target": self.make_pair(tmp_path, "t", 4, 2),
            "target_test": self.make_pair(tmp_path, "u", 4, 3),
        }
        for stem in ("a", "b", "t", "u"):
            idx_write_labels(tmp_path / f"{stem}-labels.idx", [0, 1, 1, 0])
        idx_write_labels(tmp_path / doc[key]["labels"], [0, 9, 1, 0])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        expected = f"{doc[key]['labels']} holds target label 9, above 1, the largest source label"
        with pytest.raises(ValueError, match=re.escape(expected)):
            load_manifest(manifest)

    def test_no_sources_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sources": [], "target": self.make_pair(tmp_path, "t", 2, 1)}))
        with pytest.raises(ValueError, match="no source files"):
            load_manifest(manifest)

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        datadir = tmp_path / "store"
        datadir.mkdir()
        doc = {
            "sources": [self.make_pair(datadir, "a", 3, 3)],
            "target": self.make_pair(datadir, "t", 3, 4),
        }
        elsewhere = tmp_path / "conf"
        elsewhere.mkdir()
        manifest = elsewhere / "m.json"
        manifest.write_text(json.dumps(doc))
        monkeypatch.setenv("MDA_DATA_DIR", str(datadir))
        data = load_manifest(manifest)
        assert len(data.source_train) == 3


class TestBatchSampler:
    def make_pools(self, n_source=20, n_target=12):
        rng = np.random.default_rng(0)
        rows = np.arange(n_source)
        source = Split.of(
            rng.normal(size=(n_source, 3)),
            kinds=np.full(n_source, UNKNOWN_CODE),
            class_labels=rows % 3,
            hidden_domains=rows % 2,
        )
        target = Split.of(
            rng.normal(size=(n_target, 3)), kinds=np.full(n_target, TARGET_CODE), hidden_labels=np.arange(n_target) % 3
        )
        return source, target

    def test_quota_arithmetic(self):
        source, target = self.make_pools()
        sampler = BatchSampler(source, target, BatchSpec(source_quota=4, target_quota=4), seed=0)
        batch = sampler.next_batch()
        assert batch.size == 8
        assert batch.n_source == 4
        assert batch.size - batch.n_source == 4
        assert batch.class_labels[batch.target].tolist() == [-1] * 4

    def test_deterministic_under_seed(self):
        source, target = self.make_pools()
        a = BatchSampler(source, target, BatchSpec(source_quota=5, target_quota=3), seed=9)
        b = BatchSampler(source, target, BatchSpec(source_quota=5, target_quota=3), seed=9)
        for _ in range(7):
            np.testing.assert_array_equal(a.next_batch().features, b.next_batch().features)

    def test_mix_ratio_is_exact(self):
        source, target = self.make_pools()
        sampler = BatchSampler(source, target, BatchSpec(source_quota=6, target_quota=2), seed=1)
        for _ in range(50):
            batch = sampler.next_batch()
            assert batch.n_source == 6 and batch.size - batch.n_source == 2

    def test_epoch_covers_pool_without_replacement(self):
        source, target = self.make_pools(n_source=10, n_target=10)
        sampler = BatchSampler(source, target, BatchSpec(source_quota=5, target_quota=1), seed=2)
        seen = []
        for _ in range(2):
            batch = sampler.next_batch()
            seen += [tuple(f) for f in batch.features[batch.source]]
        assert len(set(seen)) == 10

    def test_zero_quota_rejected(self):
        """Every batch holds source and target rows."""
        for name in ("source_quota", "target_quota"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
                BatchSpec(**{name: 0})

    def test_quota_exceeding_pool_rejected(self):
        source, target = self.make_pools(n_source=3)
        with pytest.raises(ValueError):
            BatchSampler(source, target, BatchSpec(source_quota=4, target_quota=1), seed=0)

    def test_balanced_dataset_quota(self):
        rng = np.random.default_rng(1)
        source = Split.of(
            rng.normal(size=(16, 2)),
            kinds=np.full(16, UNKNOWN_CODE),
            class_labels=np.zeros(16),
            dataset_ids=np.arange(16) % 2,
        )
        target = Split.of(rng.normal(size=(4, 2)), kinds=np.full(4, TARGET_CODE))
        sampler = BatchSampler(
            source, target, BatchSpec(source_quota=6, target_quota=2, balance_datasets=True), seed=0
        )
        batch = sampler.next_batch()
        assert batch.n_source == 6

    # First four batches (5 source + 3 target rows) of an index-valued pool: source
    # row i holds i and belongs to dataset i % 3, target row j holds 100 + j.
    # Recorded from the per-sample list sampler that the columnar one replaced.
    STREAMS = {
        False: [
            [4, 6, 10, 0, 1, 104, 102, 100],
            [3, 8, 7, 2, 5, 103, 106, 101],
            [9, 11, 8, 4, 9, 105, 100, 105],
            [3, 7, 11, 6, 1, 104, 101, 106],
        ],
        True: [
            [0, 6, 10, 4, 2, 103, 102, 105],
            [3, 9, 7, 1, 11, 106, 101, 100],
            [9, 0, 1, 4, 5, 104, 102, 104],
            [6, 3, 7, 10, 8, 100, 103, 101],
        ],
    }

    @pytest.mark.parametrize("balance", sorted(STREAMS))
    def test_same_batch_stream(self, balance):
        rows = np.arange(12)
        source = Split.of(rows[:, None], kinds=np.full(12, UNKNOWN_CODE), class_labels=rows % 4, dataset_ids=rows % 3)
        target = Split.of(100.0 + np.arange(7)[:, None], kinds=np.full(7, TARGET_CODE))
        spec = BatchSpec(source_quota=5, target_quota=3, balance_datasets=balance)
        sampler = BatchSampler(source, target, spec, seed=7)
        stream = [sampler.next_batch().features[:, 0].astype(int).tolist() for _ in range(4)]
        assert stream == self.STREAMS[balance]

    def test_balanced_share_beyond_a_file_rejected(self):
        # files of 10 and 2 rows at source quota 8: file 1 would give rows 10, 11, 10, 11 in one batch
        rows = np.arange(12)
        source = Split.of(rows[:, None], kinds=np.full(12, UNKNOWN_CODE), class_labels=rows % 2, dataset_ids=rows // 10)
        target = Split.of(np.zeros((4, 1)), kinds=np.full(4, TARGET_CODE))
        with pytest.raises(ValueError, match="dataset id 1 has 2 rows, fewer than its share 4 of source_quota 8"):
            BatchSampler(source, target, BatchSpec(source_quota=8, target_quota=2, balance_datasets=True), seed=0)
        sampler = BatchSampler(source, target, BatchSpec(source_quota=4, target_quota=2, balance_datasets=True), seed=0)
        for _ in range(5):
            drawn = sampler.next_batch().features[:4, 0]
            assert len(set(drawn.tolist())) == 4

    def test_balanced_mode_requires_ids(self):
        source, target = self.make_pools()
        with pytest.raises(ValueError):
            BatchSampler(source, target, BatchSpec(source_quota=4, target_quota=2, balance_datasets=True), seed=0)

    def test_batches_carry_no_hidden_ground_truth(self):
        source, target = self.make_pools()
        sampler = BatchSampler(source, target, BatchSpec(source_quota=4, target_quota=4), seed=0)
        batch = sampler.next_batch()
        assert not hasattr(batch, "hidden_label")
        assert not hasattr(batch, "hidden_latent_domain")


class TestBatchOrder:
    """A batch holds its source rows first, then its target rows, and its halves are two slices."""

    def test_target_row_before_a_source_row_is_refused(self):
        kinds = np.array([UNKNOWN_CODE, TARGET_CODE, KNOWN_CODE, TARGET_CODE], dtype=np.int8)
        expected = (
            "batch row 1 is a target row before source row 2: "
            "a batch holds its source rows first, then its target rows"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            Batch(np.zeros((4, 2)), np.full(4, -1), kinds, np.array([-1, -1, 0, -1]))

    @pytest.mark.parametrize(
        "codes",
        [[], [TARGET_CODE] * 3, [UNKNOWN_CODE] * 3, [KNOWN_CODE, UNKNOWN_CODE, KNOWN_CODE, TARGET_CODE, TARGET_CODE]],
        ids=["empty", "target_only", "source_only", "mixed"],
    )
    def test_halves_cover_the_rows_of_each_kind(self, codes):
        """source and target index exactly the rows a mask of non-target and of target codes selects."""
        kinds = np.array(codes, dtype=np.int8)
        n = len(kinds)
        batch = Batch(np.arange(n, dtype=np.float64)[:, None], np.full(n, -1), kinds, np.full(n, -1))
        rows = np.arange(n)
        assert rows[batch.source].tolist() == np.flatnonzero(kinds != TARGET_CODE).tolist()
        assert rows[batch.target].tolist() == np.flatnonzero(kinds == TARGET_CODE).tolist()
        assert batch.n_source == np.count_nonzero(kinds != TARGET_CODE)
        assert np.shares_memory(batch.features[batch.source], batch.features) or batch.n_source == 0

    def test_library_batches_keep_the_order(self, tmp_path):
        """make_batch of every split synth_make and load_manifest build, and next_batch in both modes, comply."""
        synthetic = synth_make(SynthConfig(n_latent_domains=3, train_per_domain=12, test_per_domain=4, seed=2))
        pairs = TestManifest()
        doc = {
            "sources": [pairs.make_pair(tmp_path, "a", 9, 0) | {"domain": 0}, pairs.make_pair(tmp_path, "b", 7, 1)],
            "target": pairs.make_pair(tmp_path, "t", 8, 2),
            "target_test": pairs.make_pair(tmp_path, "u", 5, 3),
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        files = load_manifest(tmp_path / "manifest.json")
        revealed = dataclasses.replace(synthetic, source_train=reveal_domain_labels(synthetic.source_train, [0, 5]))
        for data in (synthetic, files, revealed):
            assert make_batch(data.source_train).n_source == len(data.source_train)
            assert make_batch(data.target_train).n_source == make_batch(data.target_test).n_source == 0
            for balance in (False, True) if data is files else (False,):
                spec = BatchSpec(source_quota=6, target_quota=4, balance_datasets=balance)
                sampler = BatchSampler(data.source_train, data.target_train, spec, seed=0)
                for _ in range(3):
                    batch = sampler.next_batch()
                    assert (batch.n_source, batch.size) == (6, 10)
                    assert (batch.kinds[batch.target] == TARGET_CODE).all()


class TestRevealDomainLabel:
    def test_reveal_converts_tag(self):
        split = Split.of(np.zeros((1, 2)), kinds=[UNKNOWN_CODE], class_labels=[1], hidden_domains=[1])
        revealed = reveal_domain_labels(split)
        assert (revealed.kinds.tolist(), revealed.known_domains.tolist()) == ([KNOWN_CODE], [1])
        assert (split.kinds.tolist(), split.known_domains.tolist()) == ([UNKNOWN_CODE], [-1])

    def test_reveal_without_ground_truth_fails(self):
        split = Split.of(np.zeros((1, 2)), kinds=[UNKNOWN_CODE], class_labels=[1])
        with pytest.raises(ValueError):
            reveal_domain_labels(split)
