"""The repo's JSON dialect: ``json_text`` ≡ ``json.dumps(indent=1)``.

``repro.utils.jsonio.json_text`` hands containers of scalars and lists of
flat records to the C encoder, with the newline and indent carried by the
item separator; the pure-Python ``json.dumps(obj, indent=1,
default=float)`` is the oracle it must match byte for byte, on generated
documents and on the inputs ``json`` rejects.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import json_text

NAN, INF = float("nan"), float("inf")


def oracle(doc):
    return json.dumps(doc, indent=1, default=float)


#: pieces a string is made of: JSON escapes, non-ASCII text, lone
#: surrogates and the braces the record path splits on
STRING_PARTS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "é", " ",
                     "日本", "\ud800", "\udfff", "}", "},", "{", "}, {",
                     "},\n {", "]", "[", ": "]),
)
STRINGS = st.lists(STRING_PARTS, max_size=4).map("".join)
FLOATS = st.one_of(
    st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e308, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(st.integers(-10, 10), st.integers(),
                 st.sampled_from([2**64, 2**64 + 1, -2**70, 10**30]))
NUMPY = st.one_of(
    FLOATS.map(np.float64),
    st.one_of(st.sampled_from([NAN, INF, -INF, -0.0, 0.1]),
              st.floats(width=32)).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS, NUMPY)
KEYS = st.one_of(STRINGS, st.integers(-3, 2**65), FLOATS, st.booleans(),
                 st.none(), FLOATS.map(np.float64))


@st.composite
def records(draw, max_records=6):
    """A list of flat records: one key set for all, or one per record."""
    shared = draw(st.booleans())
    names = draw(st.lists(KEYS, min_size=0, max_size=4))
    out = []
    for _ in range(draw(st.integers(0, max_records))):
        keys = names if shared else draw(st.lists(KEYS, max_size=4))
        out.append({key: draw(SCALARS) for key in keys})
    return out


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        records(),
    )


DOCUMENTS = st.recursive(st.one_of(SCALARS, records()), containers,
                         max_leaves=40)


class TestByteIdentity:
    @settings(max_examples=400, deadline=None)
    @given(doc=DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        assert json_text(doc) == oracle(doc)

    @settings(max_examples=200, deadline=None)
    @given(rows=records(max_records=30), depth=st.integers(0, 3))
    def test_records_at_every_depth(self, rows, depth):
        doc = rows
        for _ in range(depth):
            doc = {"k": doc, "other": [doc, {}]}
        assert json_text(doc) == oracle(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", [[]], [{}], [{}, {"a": 1}], [{"a": 1}, {}],
        {"a": {}}, {"a": [[], {}]}, [{"a": 1}], [{"a": 1}, {"b": [1]}],
        [{"}": "},"}, {"{": "},\n {"}],
        {NAN: 1, INF: 2, -INF: 3, True: 4, False: 5, None: 6, 7: 8},
        [NAN, INF, -INF, -0.0, 5e-324, 1e308, 2**64 + 1, -2**100],
        [np.float64(0.1), np.float32(0.1), np.int64(-3), np.bool_(True)],
        {"x": np.float32(INF), "y": np.int64(2**62)},
        "𐏿\"\\\x00é",
        NAN, 1, True, None,
    ])
    def test_examples(self, doc):
        assert json_text(doc) == oracle(doc)

    def test_subclassed_containers_are_walked_like_json_walks_them(self):
        from collections import OrderedDict

        class Row(dict):
            pass

        doc = [Row(a=1), OrderedDict(b=[1, 2]), (Row(), [Row(c=NAN)])]
        assert json_text(doc) == oracle(doc)


class TestRejections:
    @pytest.mark.parametrize("make", [
        lambda: object(),
        lambda: [1, object()],
        lambda: {"a": object()},
        lambda: [{"a": 1}, {"a": object()}],
        lambda: {"a": [{"b": {"c": object()}}]},
        lambda: {(1, 2): 1},
        lambda: [{(1, 2): 1}],
        lambda: {"a": {(1, 2): [1]}},
        lambda: {np.int64(1): 2},
        lambda: [{1, 2}],
    ])
    def test_same_exception_type(self, make):
        with pytest.raises(Exception) as expected:
            oracle(make())
        with pytest.raises(Exception) as got:
            json_text(make())
        assert got.type is expected.type

    def test_self_containing_containers(self):
        loop = [1]
        loop.append(loop)
        nested = {"a": [{"b": 1}]}
        nested["a"].append(nested)
        for doc in (loop, nested, [loop], {"x": (nested,)}):
            with pytest.raises(ValueError, match="Circular reference"):
                oracle(doc)
            with pytest.raises(ValueError, match="Circular reference"):
                json_text(doc)

    def test_one_object_twice_is_not_a_cycle(self):
        shared = {"a": [1, 2]}
        doc = [shared, shared, {"b": shared}]
        assert json_text(doc) == oracle(doc)


def test_one_dialect_one_function():
    """Every ``indent=1, default=float`` writer in ``src`` goes through
    ``json_text``; only the encoder's own module names the oracle."""
    src = Path(__file__).resolve().parents[1] / "src"
    writers = [
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if re.search(r"indent=1,\s*default=float", path.read_text())
    ]
    assert writers == ["repro/utils/jsonio.py"]
