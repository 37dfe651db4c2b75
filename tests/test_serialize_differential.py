"""The datum readers and writers built from ``PARTS`` against the frozen pairs.

Random representations, extending data, crossed data and matched pairs over
Q and GF(5) (from the glue and representation oracles): each writer must give
the JSON of its frozen pair, key for key and byte for byte, and each reader
must rebuild an equal datum from it.  Mutated files (a key dropped or added,
a value or an entry field replaced by a wrong JSON type, a float, a bad index
or another dimension) must give an equal datum or the same ``InputError``
message on both sides, except a negative dimension, which the new reader
refuses by name.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from adw import serialize as io
from adw.fields import InputError

from . import frozen_serialize as frozen
from .test_glue_differential import crossed_data, extending_data, matched_data
from .test_reps_differential import representations

DIFF = settings(derandomize=True, max_examples=60, deadline=None)
KINDS = {
    "rep": (representations(), io.rep_to_dict, io.rep_from_dict,
            frozen.rep_to_dict, frozen.rep_from_dict),
    "datum": (extending_data(), io.datum_to_dict, io.datum_from_dict,
              frozen.datum_to_dict, frozen.datum_from_dict),
    "crossed": (crossed_data(), io.crossed_to_dict, io.crossed_from_dict,
                frozen.crossed_to_dict, frozen.crossed_from_dict),
    "matched": (matched_data(), io.matched_to_dict, io.matched_from_dict,
                frozen.matched_to_dict, frozen.matched_from_dict),
}
DIM_KEYS = ("modDim", "vDim")
JUNK = (None, True, 1.5, 2.0, "x", "1/0", [], {}, -1, 0, 1, 7, [{}], {"c": "1"})


def field_of(obj):
    return getattr(obj, obj.PARTS[0][0]).field


def outcome(reader, d, field, basedir):
    try:
        return "ok", reader(d, field, basedir)
    except InputError as exc:
        return "input error", str(exc)


@st.composite
def mutations(draw, d):
    """A copy of ``d`` with one defect: a key dropped or added, a value
    replaced, or a field of one entry (or of the inline algebra) dropped or
    replaced.  An empty list or a dimension is replaced by -1 or -2."""
    d = copy.deepcopy(d)
    key = draw(st.sampled_from(sorted(d)))
    action = draw(st.sampled_from(("inner", "replace", "inner", "drop", "add")))
    if action == "drop":
        del d[key]
    elif action == "add":
        d["extra"] = draw(st.sampled_from(JUNK))
    elif action == "replace":
        d[key] = draw(st.sampled_from(JUNK + (-2,)))
    elif d[key] and isinstance(d[key], (list, dict)):
        inner = draw(st.sampled_from(d[key])) if isinstance(d[key], list) else d[key]
        sub = draw(st.sampled_from(sorted(inner)))
        if draw(st.booleans()):
            del inner[sub]
        else:
            inner[sub] = draw(st.sampled_from(JUNK + (-2, 3)))
    else:
        d[key] = -draw(st.integers(1, 2))
    return d


def negative_dim(d):
    """The dimension key of ``d`` that holds a negative integer, or None."""
    for key in DIM_KEYS:
        v = d.get(key)
        if isinstance(v, int) and not isinstance(v, bool) and v < 0:
            return key
    return None


@pytest.mark.parametrize("kind", sorted(KINDS))
@DIFF
@given(data=st.data())
def test_writer_and_reader_match_frozen_pair(kind, data):
    strategy, to_dict, from_dict, old_to_dict, old_from_dict = KINDS[kind]
    obj = data.draw(strategy)
    field = field_of(obj)
    new, old = to_dict(obj), old_to_dict(obj)
    assert list(new) == list(old)
    blob = json.dumps(new, sort_keys=True, indent=2)
    assert blob == json.dumps(old, sort_keys=True, indent=2)
    d = json.loads(blob)
    assert from_dict(d, field) == old_from_dict(d, field) == obj


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    """Where a string in place of an inline algebra is looked up, and not found."""
    return str(tmp_path_factory.mktemp("empty"))


@pytest.mark.parametrize("kind", sorted(KINDS))
@DIFF
@given(data=st.data())
def test_malformed_files_fail_as_the_frozen_reader(kind, empty_dir, data):
    strategy, to_dict, from_dict, _, old_from_dict = KINDS[kind]
    obj = data.draw(strategy)
    field = field_of(obj)
    d = data.draw(mutations(json.loads(json.dumps(to_dict(obj)))))
    new = outcome(from_dict, copy.deepcopy(d), field, empty_dir)
    key = negative_dim(d)
    if key is not None:
        assert new == ("input error", "%s: expected a non-negative integer" % key)
    else:
        assert new == outcome(old_from_dict, d, field, empty_dir)
