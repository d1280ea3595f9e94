"""Property tests of the analysis layer's byte-equality contracts.

Each vectorized path is checked against the reference it replaced, on
generated frames with NaN/±inf values, ``-0.0``, empty frames, singleton
groups and int, float and object keys:

* the grouped-reduction primitive (``aggregate``, ``curve``,
  ``tradeoff_curves``) ≡ a sub-frame per group;
* ``replicate_baselines``'s index gather ≡ the records round trip;
* ``unique`` ≡ the set of every unwrapped value;
* the Pareto sweep ≡ the pairwise dominance mask;
* ``Query.apply_store`` ≡ ``Query.apply`` and ``build_report_from_store``
  ≡ ``build_report(store.to_frame())`` over stores with zone maps,
  without them (legacy) and backfilled, with superseded keys;
* a served ``/query`` ≡ the envelope plus ``Query.apply(store.to_frame())``
  ≡ the unprojected apply (``_finish`` over ``frame.filter``), errors
  included, over keyed and unkeyed multi-segment stores;
* ``filter`` ≡ ``perf.suite._rowloop_filter``, ``group_by`` ≡
  ``_group_by_rows`` and ``join_baseline`` ≡ ``_join_baseline_rows``, on
  key columns of every kind, NaN and mixed types included, and keys with
  no control row.
"""

import json
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.frame import (
    ResultFrame,
    _dominated,
    _dominated_pairwise,
    _factorize_strings,
)
from repro.analysis.query import QueryError, compile_query
from repro.analysis.report import (
    build_report,
    build_report_from_store,
    report_json_text,
)
from repro.experiment.prune import BASELINE_STRATEGY
from repro.serve import FrameSource, ResultsServer
from repro.store import ColumnStore
from repro.utils import json_text

NAN, INF = float("nan"), float("inf")

#: factorizable key pools: repeats make multi-row groups, ±0.0 and ±inf
#: are keys like any other
KEY_POOLS = {
    "int": st.integers(-2, 3),
    "float": st.sampled_from([0.0, -0.0, 1.5, 2.0, INF, -INF]),
    "str": st.sampled_from(["a", "b", "ab", "B", ""]),
}
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, NAN, INF, -INF, 1.0]),
    st.floats(-1e6, 1e6),
)
STATS = ("mean", "std", "min", "max")


def column(kind, values):
    if kind == "int":
        return np.array(values, dtype=np.int64)
    if kind == "float":
        return np.array(values, dtype=np.float64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@st.composite
def keyed_frames(draw, max_rows=24):
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_POOLS)),
                          min_size=2, max_size=2))
    cols = {
        f"k{i}": column(kind, draw(st.lists(KEY_POOLS[kind],
                                            min_size=n, max_size=n)))
        for i, kind in enumerate(kinds)
    }
    cols["v"] = column("float", draw(st.lists(VALUES, min_size=n, max_size=n)))
    cols["w"] = column("int", draw(st.lists(st.integers(-5, 5),
                                            min_size=n, max_size=n)))
    return ResultFrame(cols)


def assert_same_frame(got, expected):
    assert got.columns == expected.columns
    assert [got[c].dtype for c in got.columns] == \
        [expected[c].dtype for c in expected.columns]
    assert got.fingerprint() == expected.fingerprint()


def curve_bits(points):
    """Every CurvePoint field, bit for bit (NaN- and ±0.0-exact)."""
    return [
        (np.array([p.x, p.mean, p.std]).tobytes(), p.n, type(p.n))
        for p in points
    ]


def curves_bits(curves):
    return [(repr(k), type(k), curve_bits(v)) for k, v in curves.items()]


class TestGroupedReduction:
    @settings(max_examples=60, deadline=None)
    @given(frame=keyed_frames(), data=st.data())
    def test_aggregate_matches_per_group_reference(self, frame, data):
        names = tuple(data.draw(st.sampled_from(
            [("k0",), ("k1",), ("k0", "k1"), ("k1", "k0")])))
        stats = tuple(data.draw(st.lists(st.sampled_from(STATS),
                                         unique=True, max_size=4)))
        values = data.draw(st.sampled_from([["v"], ["v", "w"], []]))
        got = frame.aggregate(by=names, values=values, stats=stats)
        assert_same_frame(
            got, frame._aggregate_groups(names, values, stats))
        # default values: every numeric non-key column
        assert_same_frame(
            frame.aggregate(by=names),
            frame._aggregate_groups(
                names, [c for c in ("k0", "k1", "v", "w")
                        if c not in names and frame[c].dtype.kind in "if"],
                ("mean", "std")))

    @settings(max_examples=60, deadline=None)
    @given(frame=keyed_frames())
    def test_curves_match_per_group_reference(self, frame):
        for x in ("k0", "k1"):
            try:
                expected = curve_bits(frame._curve_groups(x, "v"))
            except ValueError:  # float() of a string key: same on both
                with pytest.raises(ValueError):
                    frame.curve(x=x, y="v")
                continue
            assert curve_bits(frame.curve(x=x, y="v")) == expected
        try:
            expected = curves_bits(
                frame._tradeoff_curves_groups("k0", "k1", "v"))
        except ValueError:
            with pytest.raises(ValueError):
                frame.tradeoff_curves(group="k0", x="k1", y="v")
            return
        assert curves_bits(
            frame.tradeoff_curves(group="k0", x="k1", y="v")) == expected

    @pytest.mark.parametrize("keys", [
        np.array([1.0, NAN, 1.0, NAN]),      # NaN keys: one group per NaN
        np.array([None] * 4, dtype=object),  # np.unique cannot sort None
    ])
    def test_unfactorizable_keys_take_the_fallback(self, keys):
        frame = ResultFrame({"k": keys,
                             "x": np.array([1.0, 2.0, 1.0, 2.0]),
                             "v": np.array([1.0, 2.0, 3.0, -0.0])})
        assert frame._grouping(("k",)) is None
        assert frame._grouping(("k", "x")) is None
        assert_same_frame(frame.aggregate(by="k", values=["v"]),
                          frame._aggregate_groups(("k",), ["v"],
                                                  ("mean", "std")))
        assert curves_bits(frame.tradeoff_curves(group="k", x="x", y="v")) \
            == curves_bits(frame._tradeoff_curves_groups("k", "x", "v"))

    def test_mixed_type_keys_fail_like_the_reference(self):
        frame = ResultFrame({"k": column("object", ["a", 1, "a", 2.5]),
                             "v": np.array([1.0, 2.0, 3.0, 4.0])})
        assert frame._grouping(("k",)) is None
        for call in (lambda f: f.aggregate(by="k", values=["v"]),
                     lambda f: f._aggregate_groups(("k",), ["v"], ("mean",)),
                     lambda f: f.tradeoff_curves(group="k", x="v", y="v"),
                     lambda f: f._tradeoff_curves_groups("k", "v", "v")):
            with pytest.raises(TypeError, match="not supported"):
                call(frame)

    def test_empty_frame(self):
        frame = ResultFrame({"k": np.array([], dtype=object),
                             "v": np.array([], dtype=np.float64)})
        assert_same_frame(frame.aggregate(by="k"),
                          frame._aggregate_groups(("k",), ["v"],
                                                  ("mean", "std")))
        assert frame.curve(x="k", y="v") == []
        assert frame.tradeoff_curves(group="k", x="k", y="v") == {}

    def test_singleton_groups_reduce_like_one_value_arrays(self):
        values = [-0.0, NAN, INF, -INF, 5e-324, 2.5]
        frame = ResultFrame({"k": np.arange(len(values)),
                             "v": np.array(values)})
        got = frame.aggregate(by="k", values=["v"], stats=STATS)
        assert_same_frame(got, frame._aggregate_groups(("k",), ["v"], STATS))
        # a one-value sum starts from +0.0: the mean of -0.0 is 0.0
        assert np.signbit(got["v_mean"][0]) == np.False_
        assert np.signbit(got["v_min"][0])
        assert got["v_std"].tolist() == [0.0] * len(values)

    def test_unknown_stat_still_raises(self):
        frame = ResultFrame({"k": np.array([1, 1, 2]), "v": np.ones(3)})
        with pytest.raises(ValueError, match="unknown stat 'median'"):
            frame.aggregate(by="k", values=["v"], stats=("median",))


class TestFactorizationCache:
    def test_columns_are_read_only_views(self):
        source = np.array([1.0, 2.0, 3.0])
        frame = ResultFrame({"x": source, "s": ["a", "b", "a"]})
        for name in ("x", "s"):
            with pytest.raises(ValueError, match="read-only"):
                frame.column(name)[0] = frame.column(name)[1]
        source[0] = 9.0  # the caller's array keeps its own flags
        assert frame.take([0, 1]).column("x").flags.writeable is False

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.text(max_size=3)))
    def test_string_factorization_matches_np_unique(self, values):
        col = column("object", values)
        uniq, codes = _factorize_strings(col)
        expected_uniq, expected_codes = np.unique(col, return_inverse=True)
        assert uniq.tolist() == expected_uniq.tolist()
        assert codes.tolist() == expected_codes.tolist()
        assert codes.dtype == np.int64
        # anything but plain str is left to np.unique
        assert _factorize_strings(column("object", values + [1])) is None

    def test_object_codes_are_computed_once_per_frame(self, monkeypatch):
        import repro.analysis.frame as frame_mod

        calls = []
        original = frame_mod._factorize_column
        monkeypatch.setattr(frame_mod, "_factorize_column",
                            lambda col: calls.append(col.dtype.kind)
                            or original(col))
        frame = ResultFrame({"s": np.array(["b", "a", "b"], dtype=object),
                             "x": np.array([1.0, 2.0, 1.0]),
                             "v": np.array([1.0, 2.0, 3.0])})
        frame.aggregate(by=("s", "x"), values=["v"])
        frame.tradeoff_curves(group="s", x="x", y="v")
        frame.curve(x="x", y="v")
        assert frame.unique("s") == ["a", "b"]
        # the object column once however often grouped; the numeric one
        # per grouping, so no per-row codes stay behind for it
        assert sorted(calls) == ["O", "f", "f", "f"]
        assert list(frame._codes) == ["s"]

    def test_concurrent_first_groupings_agree(self):
        import sys

        rng = np.random.default_rng(0)
        n = 20_000
        cols = {
            "s": np.array(["gw", "lw", "rand", "gg"], dtype=object)[
                rng.integers(0, 4, n)],
            "c": rng.choice([1.0, 2.0, 4.0, 8.0], n),
            "v": rng.standard_normal(n),
        }
        expected = ResultFrame(cols)._aggregate_groups(
            ("s", "c"), ["v"], ("mean", "std")).fingerprint()
        for _ in range(3):
            shared = ResultFrame(cols)
            results, errors = [], []

            def reader():
                try:
                    results.append(shared.aggregate(
                        by=("s", "c"), values=["v"]).fingerprint())
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert results == [expected] * len(threads)


@st.composite
def sweep_frames(draw, max_rows=20, plain=True):
    """Sweep-shaped rows with baseline sentinels; ``plain=False`` adds a
    column the gather cannot reproduce (so the records path is taken)."""
    n = draw(st.integers(1, max_rows))
    strategies = st.sampled_from([BASELINE_STRATEGY, "gw", "lw", "random"])
    cols = {
        "model": column("str", draw(st.lists(st.sampled_from(["m1", "m2"]),
                                             min_size=n, max_size=n))),
        "dataset": column("str", draw(st.lists(st.sampled_from(["d"]),
                                               min_size=n, max_size=n))),
        "strategy": column("str", draw(st.lists(strategies,
                                                min_size=n, max_size=n))),
        "seed": column("int", draw(st.lists(st.integers(0, 3),
                                            min_size=n, max_size=n))),
        "top1": column("float", draw(st.lists(VALUES, min_size=n,
                                              max_size=n))),
        # a fresh dict per row: a dict two output rows share is a clone
        # that was not copied
        "extra": column("dict", [{"i": i} if draw(st.booleans()) else {}
                                 for i in range(n)]),
    }
    if not plain:
        odd = draw(st.sampled_from(["bool", "none", "int32", "numeric_object"]))
        if odd == "bool":
            cols["flag"] = np.array(draw(st.lists(st.booleans(), min_size=n,
                                                  max_size=n)))
        elif odd == "none":
            cols["note"] = column("object", [None] * n)
        elif odd == "int32":
            cols["epochs"] = np.arange(n, dtype=np.int32)
        else:
            cols["mixed"] = column("object", list(range(n)))
    return ResultFrame(cols)


class TestReplicateBaselines:
    @settings(max_examples=50, deadline=None)
    @given(frame=sweep_frames(), explicit=st.booleans())
    def test_gather_matches_records_path(self, frame, explicit):
        strategies = ["gw", "zz"] if explicit else None
        got = frame.replicate_baselines(strategies)
        sentinel = frame.mask(strategy=BASELINE_STRATEGY)
        if not sentinel.any():
            assert got is frame  # nothing to replicate: unchanged
            return
        # the gather itself ran, not its fallback
        assert frame._replicate_baselines_gathered(
            sentinel, strategies) is not None
        assert_same_frame(got, frame._replicate_baselines_records(strategies))
        extras = [e for e in got["extra"] if isinstance(e, dict)]
        # every clone owns its dict: no two rows share one
        assert len({id(e) for e in extras}) == len(extras)
        # a replicated frame passes through unchanged (build_report
        # relies on it for the results server's prepared frame)
        assert got.replicate_baselines() is got

    @settings(max_examples=25, deadline=None)
    @given(frame=sweep_frames(plain=False))
    def test_columns_the_gather_cannot_reproduce_take_records(self, frame):
        got = frame.replicate_baselines()
        sentinel = frame.mask(strategy=BASELINE_STRATEGY)
        if not sentinel.any():
            assert got is frame
            return
        assert frame._replicate_baselines_gathered(sentinel, None) is None
        assert_same_frame(got, frame._replicate_baselines_records())


class TestUnique:
    @settings(max_examples=60, deadline=None)
    @given(kind_values=st.one_of(
        st.tuples(st.just("int"), st.lists(st.integers(-3, 3))),
        # no NaN: each NaN is its own set member, hashed by identity, so
        # the reference's order is not reproducible (NaN columns take it)
        st.tuples(st.just("float"), st.lists(st.sampled_from(
            [0.0, -0.0, 1.5, -1.5, INF, -INF]))),
        st.tuples(st.just("float"), st.lists(st.floats(allow_nan=False))),
        st.tuples(st.just("str"), st.lists(st.sampled_from(
            ["b", "a", "ab", ""]))),
        # equal numbers of different types: the set keeps the first
        st.tuples(st.just("object"), st.lists(st.sampled_from(
            [1, 1.0, 2.5, True, 0, -0.0]))),
    ))
    def test_unique_matches_set_of_rows(self, kind_values):
        frame = ResultFrame({"c": column(*kind_values)})
        got, expected = frame.unique("c"), frame._unique_rows("c")
        assert [(type(v), repr(v)) for v in got] == \
            [(type(v), repr(v)) for v in expected]

    def test_signed_zeros_keep_the_first_rows_sign(self):
        # np.unique's sort may put 0.0 ahead of a first-seen -0.0 (it
        # does here on numpy 2.4 / x86-64); the set keeps the first row's
        values = np.random.default_rng(0).choice([0.0, -0.0, 1.5], 2000)
        assert repr(float(values[values == 0][0])) == "-0.0"
        assert [repr(v) for v in ResultFrame({"c": values}).unique("c")] \
            == ["-0.0", "1.5"]

    def test_incomparable_types_raise_like_the_reference(self):
        frame = ResultFrame({"c": column("str", ["a", 1])})
        with pytest.raises(TypeError):
            frame._unique_rows("c")
        with pytest.raises(TypeError):
            frame.unique("c")


COORDS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, INF, -INF, NAN])


class TestPareto:
    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.tuples(COORDS, COORDS), max_size=30))
    def test_sweep_matches_pairwise_mask(self, points):
        xs = np.array([p[0] for p in points], dtype=np.float64)
        ys = np.array([p[1] for p in points], dtype=np.float64)
        assert _dominated(xs, ys).tolist() == \
            _dominated_pairwise(xs, ys).tolist()

    def test_frontier_scales_past_the_pairwise_matrices(self):
        # 60k rows: the pairwise mask would need three 3.6 GB matrices
        rng = np.random.default_rng(1)
        n = 60_000
        frame = ResultFrame({"x": rng.integers(1, 50, n).astype(np.float64),
                             "y": rng.random(n)})
        front = frame.pareto_frontier(x="x", y="y")
        best = [frame.filter(x=float(x))["y"].max() for x in front["x"]]
        assert front["y"].tolist() == best
        assert np.all(np.diff(front["y"]) < 0)


# --------------------------------------------------------------------------
# store contracts: pushdown and the projected report
# --------------------------------------------------------------------------

@st.composite
def store_segments(draw):
    """(segments of (frame, keys)) in the layout workers write: sweep
    rows keyed by cell, later segments superseding some earlier keys."""
    segments = []
    used = []
    for s in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        rows = []
        keys = []
        for i in range(n):
            key = draw(st.sampled_from(used)) if used and draw(st.booleans()) \
                else f"cell-{s}-{i}"
            keys.append(key if key not in keys else f"cell-{s}-{i}")
            strategy = draw(st.sampled_from(
                [BASELINE_STRATEGY, "global_weight", "random"]))
            comp = 1.0 if strategy == BASELINE_STRATEGY else \
                draw(st.sampled_from([2.0, 4.0]))
            top1 = draw(st.sampled_from([0.5, 0.6, 0.7, NAN]))
            rows.append({
                "model": "m", "dataset": "d", "strategy": strategy,
                "compression": comp, "seed": draw(st.integers(0, 2)),
                "actual_compression": draw(st.sampled_from(
                    [comp, comp * 1.1, INF])),
                "theoretical_speedup": comp ** 0.8,
                "total_params": 100, "nonzero_params": int(100 / comp),
                "dense_flops": 1e3, "effective_flops": 1e3 / comp,
                "baseline_top1": 0.8, "baseline_top5": 0.9,
                "pre_finetune_top1": 0.4, "pre_finetune_top5": 0.6,
                "top1": top1, "top5": 0.85,
                "pretrained_key": "p", "finetune_epochs_ran": i,
                "extra": draw(st.sampled_from(
                    [{}, {"kernel_backend": "fast"}, {"failed": True}])),
            })
        used.extend(keys)
        frame = ResultFrame.from_records(rows)
        # workers store rows as run; an ingest may store derived columns
        segments.append((frame.derived() if draw(st.booleans()) else frame,
                         keys))
    return segments


def build_store(root: Path, segments, variant: str) -> ColumnStore:
    store = ColumnStore(root)
    for frame, keys in segments:
        store.append_frame(frame, keys=keys)
    if variant != "stats":
        manifest = json.loads(store.manifest_path.read_text())
        for entry in manifest["segments"]:
            entry.pop("stats", None)
        store.manifest_path.write_text(json.dumps(manifest))
        store = ColumnStore(root)
        if variant == "backfilled":
            store.analyze()
    return store


QUERY_DOCS = st.fixed_dictionaries({}, optional={
    "filter": st.one_of(
        st.fixed_dictionaries({"strategy": st.sampled_from(
            ["random", BASELINE_STRATEGY])}),
        st.fixed_dictionaries({"top1": st.fixed_dictionaries({
            "op": st.sampled_from([">", "<=", "!="]),
            "value": st.sampled_from([0.55, 0.7])})}),
        st.fixed_dictionaries({"seed": st.lists(st.integers(0, 2),
                                                max_size=2)}),
    ),
    "sort": st.sampled_from(["seed", ["top1", "seed"]]),
    "limit": st.integers(1, 5),
    "offset": st.integers(0, 3),
}).flatmap(lambda doc: st.one_of(
    st.just(doc),
    st.just({**{k: v for k, v in doc.items() if k != "sort"},
             "aggregate": {"by": ["strategy", "compression"],
                           "values": ["top1", "actual_compression"],
                           "stats": ["mean", "std", "max"]}}),
    st.just({**{k: v for k, v in doc.items() if k != "sort"},
             "group_by": ["strategy"]}),
))


class TestStoreContracts:
    @settings(max_examples=15, deadline=None)
    @given(segments=store_segments(), doc=QUERY_DOCS,
           variant=st.sampled_from(["stats", "legacy", "backfilled"]))
    def test_apply_store_matches_apply(self, segments, doc, variant):
        with tempfile.TemporaryDirectory() as tmp:
            store = build_store(Path(tmp) / "store", segments, variant)
            query = compile_query(doc)
            got = query.apply_store(store)
            expected = query.apply(store.to_frame())
            assert json.dumps(got, default=float) == \
                json.dumps(expected, default=float)

    @settings(max_examples=15, deadline=None)
    @given(segments=store_segments(),
           variant=st.sampled_from(["stats", "legacy", "backfilled"]),
           y=st.sampled_from(["top1", "top5"]))
    def test_store_report_matches_frame_report(self, segments, variant, y):
        with tempfile.TemporaryDirectory() as tmp:
            store = build_store(Path(tmp) / "store", segments, variant)
            outstanding = {"pending": 1, "leased": 0}
            expected = report_json_text(build_report(
                store.to_frame(), y=y, outstanding=outstanding))
            assert report_json_text(build_report_from_store(
                store, y=y, outstanding=outstanding)) == expected


@st.composite
def served_segments(draw):
    """``(segments of (frame, keys or None))`` for a keyed or an unkeyed
    store of several segments: later keyed segments supersede earlier
    keys, ``w`` is int64 in some segments and float64 in others, ``z``
    is missing from some (NaN there), ``o`` holds None and NaN among its
    strings, and ``s`` holds strings only."""
    keyed = draw(st.booleans())
    segments = []
    used = []
    for s in range(draw(st.integers(2, 4))):
        floats = draw(st.booleans())
        with_z = draw(st.booleans())
        rows = []
        keys = []
        for i in range(draw(st.integers(1, 5))):
            key = draw(st.sampled_from(used)) if used and draw(st.booleans()) \
                else f"row-{s}-{i}"
            keys.append(key if key not in keys else f"row-{s}-{i}")
            w = draw(st.integers(0, 3))
            row = {
                "s": draw(st.sampled_from(["a", "b", "ab"])),
                "o": draw(st.sampled_from(["x", "y", None, NAN])),
                "k": draw(st.integers(0, 3)),
                "w": w + 0.5 if floats else w,
                "v": draw(st.sampled_from([0.5, 1.5, -0.0, NAN, INF])),
            }
            if with_z:
                row["z"] = draw(st.integers(0, 2))
            rows.append(row)
        used.extend(keys)
        segments.append((ResultFrame.from_records(rows),
                         keys if keyed else None))
    return segments


SERVED_COLUMNS = ["s", "o", "k", "w", "v", "z"]
#: ``nope`` names no column: documents naming it must fail alike
SORTABLE = st.sampled_from(["s", "k", "w", "v", "z", "nope"])
GROUP_KEYS = st.sampled_from(["s", "k", "w", "z"] * 2 + ["nope"])
FILTER_ITEMS = st.one_of(
    st.tuples(st.just("s"), st.sampled_from(["a", "b", "ab"])),
    st.tuples(st.just("o"), st.sampled_from(["x", "y", None])),
    st.tuples(st.sampled_from(["k", "w", "z"]), st.integers(0, 3)),
    st.tuples(st.sampled_from(["k", "o", "s"]),
              st.lists(st.sampled_from([0, 1, "a", "x", None]), max_size=3)),
    st.tuples(st.sampled_from(["v", "w", "k", "z"]), st.fixed_dictionaries({
        "op": st.sampled_from(["<", ">=", "!=", "==", "in", "not-in"]),
        "value": st.sampled_from([0.5, 1, 2]),
    }).map(lambda spec: spec if spec["op"] not in ("in", "not-in")
           else {**spec, "value": [spec["value"], 0]})),
    # ordering strings works on ``s``; on ``o`` a NaN makes it raise
    st.tuples(st.sampled_from(["s", "o"]), st.fixed_dictionaries({
        "op": st.sampled_from(["<", ">"]), "value": st.just("b")})),
    st.tuples(st.just("nope"), st.just(1)),
)


def served_shapes(doc):
    """A select, an aggregate or a group_by over ``doc``'s filter and
    page."""
    base = {key: st.just(value) for key, value in doc.items()}
    return st.one_of(
        st.fixed_dictionaries(base, optional={
            "sort": st.lists(SORTABLE, min_size=1, max_size=2),
            "columns": st.lists(st.sampled_from(SERVED_COLUMNS + ["nope"]),
                                min_size=1, max_size=3, unique=True),
        }),
        st.fixed_dictionaries({**base, "aggregate": st.fixed_dictionaries({
            "by": st.lists(GROUP_KEYS, min_size=1, max_size=2, unique=True),
        }, optional={
            "values": st.lists(st.sampled_from(["v", "w", "k", "nope"]),
                               max_size=2, unique=True),
            "stats": st.just(["mean", "max"]),
        })}, optional={"sort": st.sampled_from(["n", "s", "k"])}),
        st.fixed_dictionaries({**base, "group_by": st.lists(
            GROUP_KEYS, min_size=1, max_size=2, unique=True)},
            optional={"sort": st.just("n")}),
    )


SERVED_DOCS = st.fixed_dictionaries({
    "filter": st.lists(FILTER_ITEMS, max_size=2).map(dict),
}, optional={
    "limit": st.integers(1, 4),
    "offset": st.integers(0, 3),
}).flatmap(served_shapes)


def unprojected_apply(query, frame):
    """``Query.apply`` before it projected: every column of the filtered
    rows goes through the later stages."""
    query._checked_columns(frame, query.filter, "filter")
    try:
        rows = frame.filter(**query.filter) if query.filter else frame
    except ValueError as exc:
        raise QueryError(str(exc)) from exc
    return query._finish(frame, rows)


#: two unkeyed segments whose ``o`` holds a NaN and a string: ordering
#: ``o`` raises, and the mask raises before any name is checked
INCOMPARABLE = [
    (ResultFrame.from_records(
        [{"s": "a", "o": NAN, "k": 0, "w": 0, "v": 0.5}]), None),
    (ResultFrame.from_records(
        [{"s": "b", "o": "x", "k": 1, "w": 1, "v": 1.5}]), None),
]
OPS_ON_O = {"o": {"op": "<", "value": "b"}}


class TestServedQuery:
    @settings(max_examples=200, deadline=None)
    @given(segments=served_segments(), doc=SERVED_DOCS)
    @example(segments=INCOMPARABLE, doc={"filter": OPS_ON_O, "sort": "nope"})
    @example(segments=INCOMPARABLE,
             doc={"filter": OPS_ON_O, "aggregate": {"by": ["nope"]}})
    def test_body_is_apply_on_the_store_frame(self, segments, doc):
        with tempfile.TemporaryDirectory() as tmp:
            store = ColumnStore(Path(tmp) / "store")
            for frame, keys in segments:
                store.append_frame(frame, keys=keys)
            server = ResultsServer([FrameSource("s", path=store.root)])
            snapshot = server.sources["s"].load()
            frame = store.to_frame()
            response = server.dispatch(
                "POST", "/query", {}, json.dumps(doc).encode())
        query = compile_query(doc)
        try:
            expected = unprojected_apply(query, frame)
        except QueryError as exc:
            assert response.status == 400
            assert json.loads(response.text)["error"] == str(exc)
            with pytest.raises(QueryError) as raised:
                query.apply(frame)
            assert str(raised.value) == str(exc)
            return
        assert json_text(query.apply(frame)) == json_text(expected)
        assert response.status == 200
        assert response.text == json_text({
            "frame": "s", "fingerprint": snapshot.fingerprint,
            "generation": snapshot.generation, **query.apply(frame)})


#: key pools of every kind the row loops see: NaN (its own group in the
#: row loop, so no factorization), signed zeros, and mixed-type objects
ROW_KEYS = {
    "int": st.integers(-2, 2),
    "float": st.sampled_from([0.0, -0.0, 1.0, 2.5, NAN, INF]),
    "str": st.sampled_from(["a", "b", ""]),
    "mixed": st.sampled_from(["a", 1, 2.5, None, NAN, True, -0.0]),
}
#: compressions: ≤ 1 is a control row, NaN never is
COMPRESSIONS = st.sampled_from([0.5, 1.0, 1.0, 2.0, 4.0, NAN])
JOIN_KEYS = ("model", "dataset", "seed")


@st.composite
def rowloop_frames(draw, max_rows=18):
    """Sweep-shaped frames whose join keys are of any kind; some keys have
    no control row (or no row at compression ≤ 1 at all)."""
    n = draw(st.integers(0, max_rows))
    cols = {}
    for name in JOIN_KEYS:
        kind = draw(st.sampled_from(sorted(ROW_KEYS)))
        values = draw(st.lists(ROW_KEYS[kind], min_size=n, max_size=n))
        cols[name] = column("object" if kind == "mixed" else kind, values)
    cols["compression"] = column(
        "float", draw(st.lists(COMPRESSIONS, min_size=n, max_size=n)))
    for name in ("top1", "top5"):
        cols[name] = column(
            "float", draw(st.lists(VALUES, min_size=n, max_size=n)))
    return ResultFrame(cols)


def same_outcome(fast, reference):
    """Run both; they must raise the same exception type or both return."""
    try:
        expected = reference()
    except Exception as exc:  # the reference's failure is the contract
        with pytest.raises(type(exc)):
            fast()
        return None, None
    return fast(), expected


class TestRowLoopTwins:
    """``filter``, ``group_by`` and ``join_baseline`` ≡ their per-row
    references, which ``/query`` and ``/summary`` answer through."""

    @settings(max_examples=150, deadline=None)
    @given(frame=rowloop_frames(), data=st.data())
    def test_filter_matches_rowloop(self, frame, data):
        from repro.perf.suite import _rowloop_filter

        names = data.draw(st.lists(
            st.sampled_from(JOIN_KEYS + ("compression",)),
            min_size=1, max_size=3, unique=True))
        pool = st.one_of(*ROW_KEYS.values(), COMPRESSIONS)
        conditions = {
            name: data.draw(st.one_of(pool, st.lists(pool, max_size=3)))
            for name in names
        }
        got, expected = same_outcome(
            lambda: frame.filter(**conditions),
            lambda: _rowloop_filter(frame, **conditions))
        if expected is not None:
            assert_same_frame(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(frame=rowloop_frames(), data=st.data(), sort=st.booleans())
    def test_group_by_matches_rowloop(self, frame, data, sort):
        keys = data.draw(st.sampled_from(
            ["model", "seed", "compression", ["model", "seed"],
             ["seed", "dataset", "model"], ["compression", "model"]]))
        single = isinstance(keys, str)
        names = (keys,) if single else tuple(keys)
        got, expected = same_outcome(
            lambda: frame.group_by(keys, sort=sort),
            lambda: frame._group_by_rows(names, single=single, sort=sort))
        if expected is None:
            return
        assert [repr(k) for k, _ in got] == [repr(k) for k, _ in expected]
        assert [type(k) for k, _ in got] == [type(k) for k, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert_same_frame(a, b)

    @settings(max_examples=150, deadline=None)
    @given(frame=rowloop_frames(), data=st.data())
    def test_join_baseline_matches_rowloop(self, frame, data):
        on = tuple(data.draw(st.sampled_from(
            [JOIN_KEYS, ("model",), ("seed", "model")])))
        got, expected = same_outcome(
            lambda: frame.join_baseline(on),
            lambda: frame._join_baseline_rows(on))
        if expected is not None:
            assert_same_frame(got, expected)

    def test_one_nan_object_is_one_key_like_the_row_loop(self):
        """``json`` parses every ``NaN`` token to one float object; a dict
        keeps the rows that hold it together, ``np.unique`` would not."""
        frame = ResultFrame({
            "model": column("object", [NAN, NAN, float("nan"), 1.0]),
            "dataset": column("str", ["d"] * 4),
            "seed": column("int", [0] * 4),
            "compression": column("float", [1.0, 2.0, 2.0, 1.0]),
            "top1": column("float", [0.9, 0.8, 0.7, 0.6]),
            "top5": column("float", [1.0, 0.9, 0.8, 0.7]),
        })
        got = frame.group_by("model", sort=False)
        expected = frame._group_by_rows(("model",), single=True, sort=False)
        assert [len(sub) for _, sub in got] == [2, 1, 1]
        assert [len(sub) for _, sub in expected] == [2, 1, 1]
        joined = frame.join_baseline()
        assert joined["control_top1"][1] == 0.9  # the NaN row's control
        assert_same_frame(joined, frame._join_baseline_rows(JOIN_KEYS))

    def test_a_filter_that_matches_nothing(self):
        from repro.perf.suite import _rowloop_filter

        frame = ResultFrame({"k": column("str", ["a", "b"])})
        assert len(frame.take([])) == 0
        assert_same_frame(frame.filter(k="z"), _rowloop_filter(frame, k="z"))
