"""Property test at the config boundary: a --set value of the wrong JSON type, at any field path.

Every such value must be a configuration error (exit 2) whose message names
the path, and no run directory may be made.
"""

import contextlib
import dataclasses
import io
import json
import types
import typing

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdalign.cli import EXIT_CONFIG, main  # noqa: E402
from mdalign.data import SynthConfig  # noqa: E402
from mdalign.model import ModelConfig  # noqa: E402
from mdalign.training import TrainConfig  # noqa: E402


def field_paths(kind, prefix):
    """(path, annotation) of every field a --set key can reach, the fields of nested configs included."""
    for name, hint in typing.get_type_hints(kind).items():
        path = f"{prefix}.{name}"
        yield path, hint
        if dataclasses.is_dataclass(hint):
            yield from field_paths(hint, path)


PATHS = dict([*field_paths(ModelConfig, "model"), *field_paths(TrainConfig, "train"),
              *field_paths(SynthConfig, "data.synthetic")])

TEXT = st.text(max_size=6)
BOOL = st.booleans()
INT = st.integers(-(10**6), 10**6)
FLOAT = st.floats()
LIST = st.lists(st.integers(0, 9), max_size=3)
OBJECT = st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2)
NULL = st.none()


def wrong_value(hint):
    """Values of a JSON type the annotation refuses."""
    if dataclasses.is_dataclass(hint):
        return st.one_of(TEXT, BOOL, INT, FLOAT, LIST, NULL)
    if isinstance(hint, types.UnionType):  # float | tuple[float, ...] takes a number or a list
        return st.one_of(TEXT, BOOL, OBJECT, NULL)
    if typing.get_origin(hint) is tuple:
        return st.one_of(TEXT, BOOL, INT, FLOAT, OBJECT, NULL)
    return {
        bool: st.one_of(TEXT, INT, FLOAT, LIST, OBJECT, NULL),
        int: st.one_of(TEXT, BOOL, FLOAT.filter(lambda v: not v.is_integer()), LIST, OBJECT, NULL),
        float: st.one_of(TEXT, BOOL, LIST, OBJECT, NULL),
    }[hint]


@pytest.fixture(scope="module")
def run_paths(tmp_path_factory):
    """A small synthetic config and an output path inside one module-wide directory."""
    root = tmp_path_factory.mktemp("properties")
    doc = {
        "data": {"synthetic": {"n_classes": 3, "feature_dim": 4, "train_per_domain": 20, "test_per_domain": 20}},
        "model": {"trunk_widths": [8], "classifier_widths": [8], "branch_hidden": 4},
        "train": {"iterations": 2, "batch": {"source_quota": 8, "target_quota": 8}},
    }
    (root / "config.json").write_text(json.dumps(doc))
    return str(root / "config.json"), root / "run"


@given(st.fixed_dictionaries({path: wrong_value(hint) for path, hint in PATHS.items()}))
def test_wrong_json_type_is_a_config_error(run_paths, values):
    """Each example holds one wrong value per path, and each path's value is tried alone."""
    config, out = run_paths
    for path, value in values.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--config", config, "--out", str(out), "--set", f"{path}={json.dumps(value)}"])
        assert code == EXIT_CONFIG, (path, value)
        assert path in err.getvalue(), (path, value)
        assert not out.exists(), (path, value)
