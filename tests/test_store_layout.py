"""The column store's segment file (schema 2) and its schema-1 twin.

* One append writes one regular file and reads nothing back.
* A projected read parses only the value pools of the columns it returns,
  and a single-segment store's numeric columns are views of one map.
* A damaged segment of either layout raises ``StoreError`` naming the
  store, the segment and the column.
* ``compact`` sweeps every unreferenced entry of ``segments/``.
* The twin: a store written segment file by segment file reads byte for
  byte like a store of the same appends written by the schema-1 writer
  kept in ``store_fixtures``, and so does a mixed store.  Reading or
  analyzing a schema-1 store leaves its fingerprint, and so its served
  ``/report`` tag, as they were.
"""

import json
import mmap
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.frame import ResultFrame
from repro.analysis.report import build_report_from_store, report_json_text
from repro.experiment.cache import spec_hash
from repro.store import ColumnStore, StoreError, columnar
from store_fixtures import SchemaOneStore
from test_frame_properties import column, store_segments
from test_store import synth_row, synth_spec

NAN, INF = float("nan"), float("inf")


def probe_frame() -> ResultFrame:
    """Two rows: an int, a float and two object columns."""
    return ResultFrame.from_records([
        {"i": 1, "f": 0.5, "s": "alpha", "t": {"k": [1, 2]}},
        {"i": 2, "f": NAN, "s": "beta", "t": None},
    ])


def segment_path(store: ColumnStore) -> Path:
    (entry,) = store.segments()
    return store.segments_dir / entry["name"]


def mapped_object(arr: np.ndarray):
    """What a (view of a) ``np.frombuffer`` array's bytes belong to."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


class TestSegmentFile:
    def test_one_append_adds_one_regular_file(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame())
        before = set(store.segments_dir.iterdir())
        spec = synth_spec(3)
        store.append_rows([synth_row(spec, 3)], keys=[spec_hash(spec)])
        (added,) = set(store.segments_dir.iterdir()) - before
        assert added.is_file() and not added.is_symlink()
        assert added.name == store.segments()[-1]["name"]
        # a one-row result row: 23 columns, 5 of them objects, keyed
        assert len(store.segments()[-1]["columns"]) == 23

    def test_append_reads_back_nothing_it_wrote(self, tmp_path, monkeypatch):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame(), keys=["a", "b"])

        def no_reads(*args, **kwargs):
            raise AssertionError("an append read a segment")

        monkeypatch.setattr(np, "load", no_reads)
        monkeypatch.setattr(Path, "read_bytes", no_reads)
        monkeypatch.setattr(columnar.mmap, "mmap", no_reads)
        entry = store.append_frame(probe_frame(), keys=["b", "c"])
        monkeypatch.undo()
        assert entry["rows"] == 2
        assert store.keys() == {"a", "b", "c"}
        # b's second generation supersedes its first
        assert store.to_frame().column("i").tolist() == [1, 1, 2]

    def test_projection_parses_only_returned_pools(self, tmp_path, monkeypatch):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame())
        store.append_frame(probe_frame())
        pools = []
        real_loads = json.loads

        def loads(text, *args, **kwargs):
            value = real_loads(text, *args, **kwargs)
            if isinstance(value, list):  # headers and manifests are objects
                pools.append(value)
            return value

        monkeypatch.setattr(columnar.json, "loads", loads)
        frame = store.to_frame(columns=["i", "s"],
                               where={"f": {"op": "!=", "value": 9.0}})
        assert pools == [["alpha", "beta"]] * 2
        pools.clear()
        store.to_frame(columns=["f"])
        assert pools == []
        monkeypatch.undo()
        assert frame.column("s").tolist() == ["alpha", "beta"] * 2

    def test_single_segment_columns_view_one_map(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame(), keys=["a", "b"])
        frame = store.to_frame()
        maps = set()
        for name in ("i", "f"):
            column = frame.column(name)
            assert not column.flags.writeable
            owner = mapped_object(column)
            assert isinstance(owner, mmap.mmap), name
            maps.add(id(owner))
        assert len(maps) == 1

    def test_a_read_opens_a_segment_once_per_pass(self, tmp_path,
                                                  monkeypatch):
        """A keyed read takes every segment's keys, then each selected
        segment's columns: one open each, however many columns it reads."""
        store = ColumnStore(tmp_path / "store")
        for keys in (["a", "b"], ["b", "c"], ["d", "e"]):
            store.append_frame(probe_frame(), keys=keys)
        opened = []
        real_open = ColumnStore._open_segment

        def open_segment(self, entry):
            opened.append(entry["name"])
            return real_open(self, entry)

        monkeypatch.setattr(ColumnStore, "_open_segment", open_segment)
        names = [entry["name"] for entry in store.segments()]
        store.to_frame()
        assert opened == names + names
        opened.clear()
        # segments the zone maps rule out are opened for their keys alone
        store.to_frame(where={"i": 5})
        assert opened == names
        opened.clear()
        unkeyed = ColumnStore(tmp_path / "unkeyed")
        for _ in range(3):
            unkeyed.append_frame(probe_frame())
        unkeyed.to_frame(columns=["i", "f", "s", "t"])
        assert opened == [entry["name"] for entry in unkeyed.segments()]

    def test_keys_and_stats_read_the_file(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame(), keys=["a", "b"])
        entry = store.segments()[0]
        assert store.keys() == {"a", "b"}
        # a read holds every segment's keys at once: they pin no map
        keys = store._segment_keys(entry)
        assert keys.tolist() == ["a", "b"]
        assert not isinstance(mapped_object(keys), mmap.mmap)
        assert store._stats_from_disk(entry) == entry["stats"]
        assert store.stats()["size_bytes"] == segment_path(store).stat().st_size


class TestDamagedSegments:
    def make_store(self, tmp_path, cls=ColumnStore, keys=("a", "b")):
        store = cls(tmp_path / "store")
        store.append_frame(ResultFrame.from_records([
            {"i": 1, "f": 0.5, "s": "alpha"},
            {"i": 2, "f": 1.5, "s": "beta"},
        ]), keys=keys)
        return ColumnStore(store.root)

    def assert_names(self, excinfo, store, *names):
        message = str(excinfo.value)
        for name in (str(store.root), segment_path(store).name) + names:
            assert name in message, (name, message)

    @pytest.mark.parametrize("keys", [None, ("a", "b")])
    def test_truncated_segment(self, tmp_path, keys):
        store = self.make_store(tmp_path, keys=keys)
        path = segment_path(store)
        data = path.read_bytes()
        _, header_length = columnar._PREAMBLE.unpack_from(data)
        start = columnar._PREAMBLE.size + header_length
        start += -start % columnar._ALIGN
        # the data region cut right after column i's two int64 values: a
        # keyed read fails on the keys, which it reads first, an unkeyed
        # one on column f
        path.write_bytes(data[:start + 16])
        with pytest.raises(StoreError, match="run past the end") as excinfo:
            store.to_frame()
        self.assert_names(excinfo, store,
                          "column 'f'" if keys is None else "column 'keys'")
        if keys is not None:
            with pytest.raises(StoreError, match="run past the end") as excinfo:
                store.keys()
            self.assert_names(excinfo, store, "column 'keys'")
        # cut inside the header
        path.write_bytes(data[:start // 2])
        with pytest.raises(StoreError, match="header") as excinfo:
            store.to_frame()
        self.assert_names(excinfo, store)

    @pytest.mark.parametrize("content", [b"", b"REPRO", b'{"rows": 2}',
                                         b"\x93NUMPY" + bytes(120)])
    def test_not_a_segment_file(self, tmp_path, content):
        store = self.make_store(tmp_path)
        segment_path(store).write_bytes(content)
        with pytest.raises(StoreError, match="not a segment file") as excinfo:
            store.to_frame()
        self.assert_names(excinfo, store)

    def test_missing_segment(self, tmp_path):
        store = self.make_store(tmp_path)
        segment_path(store).unlink()
        with pytest.raises(StoreError, match="unreadable") as excinfo:
            store.to_frame()
        self.assert_names(excinfo, store)

    @pytest.mark.parametrize("file_name,column", [
        ("f.npy", "f"), ("s.values.json", "s"), ("s.codes.npy", "s"),
        ("keys.npy", "keys"),
    ])
    def test_schema_one_segment_missing_a_file(self, tmp_path, file_name,
                                                column):
        store = self.make_store(tmp_path, cls=SchemaOneStore)
        (segment_path(store) / file_name).unlink()
        with pytest.raises(StoreError) as excinfo:
            store.to_frame()
        self.assert_names(excinfo, store, f"column {column!r}", file_name)


class TestCompactSweep:
    def test_stray_temp_file_is_swept(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame())
        store.append_frame(probe_frame())
        stray = store.segments_dir / ".tmp-99999-7"
        stray.write_bytes(b"a killed writer's half segment")
        expected = store.to_frame().fingerprint()
        assert store.compact()["swept"] == 3
        (entry,) = store.segments()
        assert [p.name for p in store.segments_dir.iterdir()] == [entry["name"]]
        assert store.to_frame().fingerprint() == expected

    def test_dead_writers_temp_file_blocks_nothing(self, tmp_path):
        """A killed writer's temp file whose pid and sequence number recur
        (a restarted container reuses pids) is overwritten, not fatal."""
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame())
        stale = store.segments_dir / f".tmp-{os.getpid()}-1"
        stale.write_bytes(b"a killed writer's half segment")
        store.append_frame(probe_frame())
        assert not stale.exists()
        stale = store.segments_dir / f".tmp-{os.getpid()}-2"
        stale.write_bytes(b"another one")
        expected = store.to_frame().fingerprint()
        store.compact()
        assert [p.is_file() for p in store.segments_dir.iterdir()] == [True]
        assert store.to_frame().fingerprint() == expected

    def test_stray_legacy_directory_is_swept(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(probe_frame())
        stray = store.segments_dir / "seg-00000042-0badf00d"
        stray.mkdir()
        np.save(stray / "i.npy", np.arange(3))
        (stray / "s.values.json").write_text('["x"]')
        expected = store.to_frame().fingerprint()
        assert store.compact()["swept"] == 2
        (entry,) = store.segments()
        assert [p.name for p in store.segments_dir.iterdir()] == [entry["name"]]
        # the new segment stepped past the stray's sequence number
        assert int(entry["name"].split("-")[1]) == 43
        assert store.to_frame().fingerprint() == expected


# ---------------------------------------------------------------------------
# the twin: segment files read like the schema-1 directories
# ---------------------------------------------------------------------------

INTS = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 63), 2 ** 63 - 1))
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, NAN, INF, -INF, 1.5]),
                   st.floats())
SCALARS = st.one_of(st.none(), st.just(NAN), st.just(-0.0), st.booleans(),
                    st.integers(-3, 3), st.text(max_size=3))
OBJECTS = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)
#: column name → kind; "w" is int in some appends and float in others
KINDS = {"i": "int", "f": "float", "o": "object", "p": "object", "w": None}
KEY_POOL = ["k0", "k1", "k2", "k3", "k4", "k5"]



@st.composite
def append_batches(draw, max_appends=4):
    """1–4 appends of 1–5 rows: int, float and object columns whose set
    changes between appends, keyed or not, keys reused across appends."""
    batches = []
    for _ in range(draw(st.integers(1, max_appends))):
        n = draw(st.integers(1, 5))
        names = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                              max_size=len(KINDS), unique=True))
        columns = {}
        for name in names:
            kind = KINDS[name] or draw(st.sampled_from(["int", "float"]))
            pool = {"int": INTS, "float": FLOATS, "object": OBJECTS}[kind]
            columns[name] = column(kind, draw(st.lists(pool, min_size=n,
                                                       max_size=n)))
        keys = None
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(KEY_POOL), min_size=n,
                                 max_size=n))
        batches.append((ResultFrame(columns), keys))
    return batches


def conditions(kind):
    numeric = st.sampled_from([0, -1, 1.5, NAN, INF, -0.0])
    strings = st.sampled_from(["", "a", "ab"])
    value = numeric if kind != "object" else strings
    return st.one_of(
        st.fixed_dictionaries({
            "op": st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
            "value": value}),
        st.fixed_dictionaries({
            "op": st.sampled_from(["in", "not-in"]),
            "value": st.lists(value, max_size=3)}),
    )


def write(cls, root: Path, batches) -> ColumnStore:
    store = cls(root)
    for frame, keys in batches:
        store.append_frame(frame, keys=keys)
    return ColumnStore(root)


def outcome(read):
    """A read's frame fingerprint, or the type of what it raised."""
    try:
        return read().fingerprint()
    except Exception as exc:  # the twin must raise the same
        return type(exc)


class TestSchemaOneTwin:
    @settings(max_examples=40, deadline=None)
    @given(batches=append_batches(), data=st.data())
    def test_reads_match_the_schema_one_store(self, batches, data):
        with tempfile.TemporaryDirectory() as tmp:
            new = write(ColumnStore, Path(tmp) / "new", batches)
            old = write(SchemaOneStore, Path(tmp) / "old", batches)
            assert json.loads(old.manifest_path.read_text())["schema"] == 1
            assert new.to_frame().fingerprint() == old.to_frame().fingerprint()
            assert new.keys() == old.keys()
            names = new.to_frame().columns
            columns = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                         unique=True))
            name = data.draw(st.sampled_from(names))
            kind = new._union_kind(
                [e["columns"].get(name) for e in new.segments()])
            where = {name: data.draw(conditions(kind))}
            assert new.scan_plan(where=where, columns=columns) == \
                old.scan_plan(where=where, columns=columns)
            assert outcome(lambda: new.to_frame(columns=columns, where=where)) \
                == outcome(lambda: old.to_frame(columns=columns, where=where))

    @settings(max_examples=15, deadline=None)
    @given(segments=store_segments(), y=st.sampled_from(["top1", "top5"]))
    def test_report_matches_the_schema_one_store(self, segments, y):
        with tempfile.TemporaryDirectory() as tmp:
            new = write(ColumnStore, Path(tmp) / "new", segments)
            old = write(SchemaOneStore, Path(tmp) / "old", segments)
            assert new.to_frame().fingerprint() == old.to_frame().fingerprint()
            assert report_json_text(build_report_from_store(new, y=y)) == \
                report_json_text(build_report_from_store(old, y=y))

    @settings(max_examples=25, deadline=None)
    @given(batches=append_batches(), data=st.data())
    def test_mixed_store_reads_like_schema_one(self, batches, data):
        split = data.draw(st.integers(1, len(batches)))
        with tempfile.TemporaryDirectory() as tmp:
            old = write(SchemaOneStore, Path(tmp) / "old", batches)
            mixed = write(SchemaOneStore, Path(tmp) / "mixed", batches[:split])
            for frame, keys in batches[split:]:
                mixed.append_frame(frame, keys=keys)
            schema = json.loads(mixed.manifest_path.read_text())["schema"]
            assert schema == (1 if split == len(batches) else 2)
            expected = old.to_frame().fingerprint()
            assert mixed.to_frame().fingerprint() == expected
            assert mixed.keys() == old.keys()
            # compact leaves one segment file, and both compacted stores
            # are then the same store
            for store in (mixed, old):
                store.compact()
                (entry,) = store.segments_dir.iterdir()
                assert entry.is_file()
                assert store.to_frame().fingerprint() == expected
                assert json.loads(
                    store.manifest_path.read_text())["schema"] == 2
            assert mixed.fingerprint() == old.fingerprint()

    def test_ranges_hold_the_schema_one_payloads(self, tmp_path):
        """Each range of a segment file holds the bytes the schema-1 writer
        puts in that column's files: values, codes, the pool's JSON text
        (non-ASCII, dicts, NaN sentinels) and the keys."""
        frame = ResultFrame.from_records([
            {"i": 1, "f": -0.0, "s": "é", "t": {"b": 1, "a": [NAN]}},
            {"i": -2, "f": INF, "s": None, "t": None},
        ])
        new = ColumnStore(tmp_path / "new")
        new.append_frame(frame, keys=["k1", "k22"])
        old = SchemaOneStore(tmp_path / "old")
        old.append_frame(frame, keys=["k1", "k22"])
        old_dir = segment_path(old)
        data = segment_path(new).read_bytes()
        _, header_length = columnar._PREAMBLE.unpack_from(data)
        end = columnar._PREAMBLE.size + header_length
        header = json.loads(data[columnar._PREAMBLE.size:end])
        start = end + -end % columnar._ALIGN

        def span(offset, length):
            return data[start + offset:start + offset + length]

        def payload(file_name):
            return np.load(old_dir / file_name).tobytes()

        for spec in header["columns"]:
            name = spec["name"]
            if spec["kind"] == "object":
                assert span(spec["offset"], spec["length"]) == \
                    payload(f"{name}.codes.npy")
                assert span(spec["pool_offset"], spec["pool_length"]) == \
                    (old_dir / f"{name}.values.json").read_bytes()
            else:
                assert span(spec["offset"], spec["length"]) == \
                    payload(f"{name}.npy")
        keys = header["keys"]
        assert span(keys["offset"], keys["length"]) == payload("keys.npy")
        assert [spec["name"] for spec in header["columns"]] == frame.columns

    def test_reading_a_schema_one_store_keeps_its_fingerprint(self, tmp_path):
        from repro.serve import FrameSource, ResultsServer

        spec_rows = [(synth_spec(i), synth_row(synth_spec(i), i))
                     for i in range(6)]
        store = SchemaOneStore(tmp_path / "store")
        for chunk in (spec_rows[:4], spec_rows[4:]):
            store.append_rows([row for _, row in chunk],
                              keys=[spec_hash(spec) for spec, _ in chunk])
        # a store from before zone maps, as analyze finds it
        manifest = json.loads(store.manifest_path.read_text())
        for entry in manifest["segments"]:
            del entry["stats"]
        store.manifest_path.write_text(json.dumps(manifest))
        text = store.manifest_path.read_text()
        fingerprint = store.fingerprint()
        server = ResultsServer([FrameSource("s", path=store.root)])
        source = server.sources["s"]
        source.load()
        tag = server.dispatch("GET", "/report", {}, b"").etag

        reader = ColumnStore(store.root)
        reader.to_frame()
        reader.to_frame(columns=["top1"], where={"seed": [1, 2]})
        reader.keys()
        reader.stats()
        build_report_from_store(reader)
        assert store.manifest_path.read_text() == text
        assert reader.analyze() == {"segments": 2, "analyzed": 2}
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["schema"] == 1
        assert reader.fingerprint() == fingerprint
        source.load()
        assert source.snapshot().fingerprint == fingerprint
        assert server.dispatch("GET", "/report", {}, b"").etag == tag
