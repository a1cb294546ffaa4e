"""Properties of ``fileio.dumps``: the same bytes as the plain recursive
serializer it replaced, floats that parse back bit for bit, and no token
for a non-finite number; report and corpus lines are strict JSON."""

import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import fileio
from test_batch import states_with_edges

DUMPS_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def reference_emit(obj) -> str:
    """The serializer before its type dispatch and key cache: one isinstance
    chain and one json.dumps per key and string."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite number {obj!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {reference_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(reference_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


finite = st.floats(allow_nan=False, allow_infinity=False)
int64 = st.integers(-(2**63), 2**63 - 1)
leaves = st.one_of(
    finite,
    finite.map(np.float64),
    st.integers(),
    int64.map(np.int64),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.lists(finite, max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(int64, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)
# keys of several types: 1, 1.0 and True are one dict key but encode differently
keys = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), finite)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=16,
)


def float_pairs(obj, parsed):
    """(emitted float, parsed token) for every float in ``obj``. ``parsed``
    comes from :func:`parse`: integer tokens stay text, since a float such
    as 1.0 or -0.0 is written without a point, and objects stay lists of
    pairs, since keys such as 1 and "1" encode alike."""
    if isinstance(obj, (float, np.floating)):
        yield float(obj), parsed
    elif isinstance(obj, dict):
        for v, (_, pv) in zip(obj.values(), parsed):
            yield from float_pairs(v, pv)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for v, pv in zip(obj, parsed):
            yield from float_pairs(v, pv)


def parse(text: str):
    return json.loads(text, parse_int=str, object_pairs_hook=list)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestDumps:
    @DUMPS_PROPERTY
    @given(values)
    def test_same_bytes_as_reference(self, obj):
        assert fileio.dumps(obj) == reference_emit(obj)

    @DUMPS_PROPERTY
    @given(values)
    def test_floats_round_trip_bit_for_bit(self, obj):
        parsed = parse(fileio.dumps(obj))
        for value, token in float_pairs(obj, parsed):
            assert bits(float(token)) == bits(value)

    @DUMPS_PROPERTY
    @given(values, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                                    np.float64("-inf")]),
           st.sampled_from(["list", "tuple", "dict", "array"]))
    def test_non_finite_rejected(self, obj, bad, container):
        wrapped = {"list": [obj, bad], "tuple": (bad, obj), "dict": {"x": obj, "y": bad},
                   "array": [obj, np.array([0.5, bad])]}[container]
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps(wrapped)

    def test_report_and_state_dicts(self):
        x = xs.random_xstate(4, 2, complex_phases=True)
        for obj in (fileio.state_to_obj(x), xs.report(x).to_dict(),
                    xs.report(xs.stack([x, xs.werner(0.3)]), side="A").to_dict()):
            assert fileio.dumps(obj) == reference_emit(obj)


def refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def strict_parse(text: str):
    """:func:`parse`, refusing NaN and infinities as a strict JSON parser does."""
    return json.loads(text, parse_constant=refuse_constant, parse_int=str,
                      object_pairs_hook=list)


class TestStrictJson:
    """Report lines and corpus lines of any state, edge states included, are
    strict JSON whose floats parse back bit for bit, the sign of zero too."""

    @DUMPS_PROPERTY
    @given(st.lists(states_with_edges(), min_size=1, max_size=4))
    def test_report_and_corpus_lines(self, states):
        for side in "AB":
            for x in states:
                rep = xs.report(x, side=side).to_dict()
                for value, token in float_pairs(rep, strict_parse(fileio.dumps(rep))):
                    assert bits(float(token)) == bits(value)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.jsonl")
            fileio.save_corpus(path, states)
            with open(path) as fh:
                lines = fh.read().splitlines()
        assert len(lines) == len(states)
        for x, line in zip(states, lines):
            for value, token in float_pairs(fileio.state_to_obj(x), strict_parse(line)):
                assert bits(float(token)) == bits(value)
