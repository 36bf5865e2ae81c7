"""Tests for repro.gate: the committed-file gates' shared core.

* the doc diff is empty for a document round-tripped through
  :func:`canonical_json` and names exactly the dotted path of a single
  mutated leaf, type changes included;
* every committed oracle is byte-identical to its canonical rendering;
* :func:`atomic_write` leaves no temp file behind when a write fails.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.gate import atomic_write, canonical_json, diff, load

REPO_ROOT = Path(__file__).resolve().parents[1]

leaves = (
    st.booleans()
    | st.integers(-10**12, 10**12)
    | st.floats(-1e12, 1e12, allow_nan=False)
    | st.text(max_size=8)
)
keys = st.text("abcxyz0189_", min_size=1, max_size=4)
docs = st.dictionaries(keys, st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20,
), max_size=5)


def leaf_paths(node, path=""):
    """(dotted path, container, key) for every leaf, in diff's notation."""
    items = (node.items() if isinstance(node, dict) else enumerate(node))
    for key, value in items:
        here = (f"{path}[{key}]" if isinstance(node, list)
                else f"{path}.{key}" if path else key)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, here)
        else:
            yield here, node, key


def mutated(value, retype: bool):
    if retype:
        return None
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + max(1.0, abs(value))
    return value + "x"


@settings(max_examples=150, deadline=None)
@given(docs)
def test_canonical_roundtrip_diffs_empty(doc):
    text = canonical_json(doc)
    assert text.endswith("\n")
    again = json.loads(text)
    assert diff(doc, again) == []
    assert canonical_json(again) == text


@settings(max_examples=150, deadline=None)
@given(docs, st.data())
def test_single_mutated_leaf_is_reported_at_its_path(doc, data):
    committed = json.loads(canonical_json(doc))
    paths = list(leaf_paths(committed))
    if not paths:
        return
    path, container, key = data.draw(st.sampled_from(paths))
    container[key] = mutated(container[key], data.draw(st.booleans()))
    diffs = diff(doc, committed)
    assert len(diffs) == 1, diffs
    assert diffs[0].startswith(f"{path}: "), (path, diffs)


@pytest.mark.parametrize("name", [
    "BENCH_core.json", "BENCH_serve.json", "PROTO_BASELINE.json",
])
def test_committed_oracles_are_canonical(name):
    path = REPO_ROOT / name
    assert canonical_json(load(path)) == path.read_text()


def test_atomic_write_cleans_up_on_failure(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(TypeError):
        atomic_write(str(path), object())  # fails mid-write
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_text() == "old"  # the old contents survive whole
    assert atomic_write(str(path), "new") == str(path)
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_text() == "new"
