"""Property test at the checkpoint boundary: a saved checkpoint mutated at one drawn place.

Every node of the saved JSON document is mutated in turn: an object loses
or gains a key, an array changes its shape or one element, and a scalar
becomes another JSON type, an integer beyond int64, a float where an integer
stood, a non-finite or a negative number.  load_checkpoint must either load
the document or raise CheckpointError, never another exception, and a
model it loads must evaluate a batch.
"""

import copy
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdalign.assignment import TARGET_CODE, UNKNOWN_CODE  # noqa: E402
from mdalign.data import Split, make_batch  # noqa: E402
from mdalign.model import (  # noqa: E402
    CheckpointError,
    Model,
    ModelConfig,
    forward_eval,
    load_checkpoint,
    save_checkpoint,
)

OTHER_TYPE = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
    st.integers(2**63, 2**1100),
)
NON_FINITE_OR_NEGATIVE = st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.25])


def scalar_mutation(value):
    """Another JSON type, an int beyond int64, a non-finite or negative number, or (for an int) a float."""
    options = [OTHER_TYPE, NON_FINITE_OR_NEGATIVE]
    if type(value) is int:
        options.append(st.sampled_from([float(value), value + 0.5]))
    return st.one_of(options)


def nodes(value, where=()):
    """(path, node) of every object, array and scalar of a checkpoint document; arrays are not entered."""
    yield where, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, where + (key,))


def reshaped(array, how):
    return {
        "drop": array[:-1],
        "append": array + array[-1:],
        "wrap": [array],
        "first": array[0],
        "empty": [],
        "ragged": [array[0][:-1]] + array[1:] if isinstance(array[0], list) else array + [array],
    }[how]


def mutants(data, doc):
    """One mutated copy of doc per mutation drawn at each node, with the path and what was done."""
    for where, node in nodes(doc):
        edits = []
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(sorted(node)), label=f"{where} key to remove")
            edits.append((f"remove {key!r}", lambda n, key=key: {k: v for k, v in n.items() if k != key}))
            new = data.draw(st.text(max_size=6).filter(lambda k, n=node: k not in n), label=f"{where} key to add")
            edits.append((f"add {new!r}", lambda n, new=new: {**n, new: 0}))
        elif isinstance(node, list):
            how = data.draw(st.sampled_from(["drop", "append", "wrap", "first", "empty", "ragged"]), label=str(where))
            edits.append((f"reshape {how}", lambda n, how=how: reshaped(n, how)))
            index, leaf = [], node
            while isinstance(leaf, list):
                index.append(data.draw(st.integers(0, len(leaf) - 1), label=f"{where} index"))
                leaf = leaf[index[-1]]
            value = data.draw(scalar_mutation(leaf), label=f"{where}{index}")
            edit = lambda n, index=index, value=value: set_element(n, index, value)  # noqa: E731
            edits.append((f"element {index} = {value!r}", edit))
        else:
            value = data.draw(scalar_mutation(node), label=str(where))
            edits.append((f"= {value!r}", lambda n, value=value: value))
        for what, edit in edits:
            yield f"{'.'.join(where) or 'top'}: {what}", replaced(doc, where, edit)


def set_element(array, index, value):
    target = array
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    return array


def replaced(doc, where, edit):
    """A deep copy of doc whose node at where is edit(node)."""
    doc = copy.deepcopy(doc)
    if not where:
        return edit(doc)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = edit(parent[where[-1]])
    return doc


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small model's checkpoint document, with running statistics that evaluation can use, and a batch."""
    root = tmp_path_factory.mktemp("checkpoints")
    model = Model(ModelConfig(in_dim=4, n_classes=3, k=2, trunk_widths=(6,), classifier_widths=(5,), branch_hidden=4))
    for layer in model.align_layers.values():
        layer.running.count[...] = 1
    save_checkpoint(model, root / "base.json")
    rng = np.random.default_rng(0)
    batch = make_batch(Split.of(rng.normal(size=(4, 4)), kinds=[UNKNOWN_CODE] * 2 + [TARGET_CODE] * 2))
    return json.loads((root / "base.json").read_text()), batch, root / "mutant.json"


def test_unmutated_checkpoint_loads(saved):
    doc, batch, path = saved
    path.write_text(json.dumps(doc))
    forward_eval(load_checkpoint(path), batch)


@given(st.data())
def test_mutated_checkpoint_loads_or_is_refused(saved, data):
    """Each example draws one mutation per node (two per array), and each is tried alone."""
    doc, batch, path = saved
    for what, mutant in mutants(data, doc):
        path.write_text(json.dumps(mutant))
        try:
            model = load_checkpoint(path)
        except CheckpointError:
            continue
        except Exception as err:  # noqa: BLE001 - the property is that nothing else escapes
            pytest.fail(f"{what}: {type(err).__name__}: {err}")
        try:
            forward_eval(model, batch)
        except Exception as err:  # noqa: BLE001
            pytest.fail(f"{what}: loaded, then evaluation raised {type(err).__name__}: {err}")
