"""Binary column store: equivalence with the JSON paths, crash recovery,
supersession, CLI round-trips, and results-server integration.

The load-bearing guarantee is *point-for-point equivalence*: a frame read
back from the store must be indistinguishable — column order, dtypes,
values including inf/NaN and ``extra`` payloads — from the frame the JSON
path (``from_cache`` / ``from_queue`` / ``from_json``) builds over the
same rows, because ``repro report`` output must be byte-identical across
the two.
"""

import json
import math
import os

import numpy as np
import pytest

from exp_fixtures import crashy_spec
from repro.analysis.frame import ResultFrame, load_frame
from repro.experiment.cache import ResultCache, spec_hash
from repro.experiment.prune import ExperimentSpec
from repro.experiment.queue import QueueWorker, WorkQueue
from repro.experiment.results import PruningResult
from repro.store import ColumnStore, StoreError, StoreLockTimeout, is_store_dir
from repro.store import columnar
from store_fixtures import SchemaOneStore


def synth_spec(i: int) -> ExperimentSpec:
    return ExperimentSpec(
        model="lenet-300-100", dataset="cifar10",
        strategy=("global_weight", "random")[i % 2],
        compression=float((2, 4, 8)[i % 3]), seed=i,
    )


def synth_row(spec: ExperimentSpec, i: int) -> PruningResult:
    extra = {"kernel_backend": "fast"} if i % 2 else {}
    return PruningResult(
        model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
        compression=spec.compression, seed=spec.seed,
        # exercise the non-finite paths: all-pruned masks report inf
        # compression, missing metrics report NaN
        actual_compression=float("inf") if i % 5 == 0 else spec.compression * 1.1,
        theoretical_speedup=spec.compression * 0.8,
        total_params=266_610, nonzero_params=266_610 // int(spec.compression),
        dense_flops=5.3e5, effective_flops=5.3e5 / spec.compression,
        baseline_top1=0.61, baseline_top5=0.95,
        pre_finetune_top1=0.31, pre_finetune_top5=0.71,
        top1=float("nan") if i % 7 == 0 else 0.5 + i / 100.0, top5=0.93,
        pretrained_key="t", finetune_epochs_ran=i, extra=extra,
    )


def fill_cache(root, n: int = 20) -> ResultCache:
    cache = ResultCache(root)
    for i in range(n):
        spec = synth_spec(i)
        cache.put(spec, synth_row(spec, i))
    return cache


def assert_frames_identical(a: ResultFrame, b: ResultFrame) -> None:
    """Column order, length, and every cell (NaN-aware, type-strict)."""
    assert a.columns == b.columns
    assert len(a) == len(b)
    for i, (ra, rb) in enumerate(zip(a.to_records(), b.to_records())):
        for name in ra:
            va, vb = ra[name], rb[name]
            if isinstance(va, float) and isinstance(vb, float) \
                    and math.isnan(va) and math.isnan(vb):
                continue
            assert type(va) is type(vb), (i, name, va, vb)
            assert va == vb, (i, name, va, vb)


class TestEquivalence:
    def test_cache_ingest_matches_from_cache(self, tmp_path):
        cache = fill_cache(tmp_path / "cache")
        store = ColumnStore(tmp_path / "store")
        stats = store.ingest(cache.root)
        assert stats["rows_appended"] == 20 and stats["rows_skipped"] == 0
        assert_frames_identical(store.to_frame(),
                                ResultFrame.from_cache(cache.root))

    def test_chunked_ingest_matches_single_chunk(self, tmp_path):
        cache = fill_cache(tmp_path / "cache")
        chunked = ColumnStore(tmp_path / "chunked")
        stats = chunked.ingest(cache.root, chunk_rows=3)
        assert stats["segments_added"] == 7  # ceil(20 / 3)
        assert_frames_identical(chunked.to_frame(),
                                ResultFrame.from_cache(cache.root))

    def test_results_json_ingest_matches_from_json(self, tmp_path):
        cache = fill_cache(tmp_path / "cache")
        path = tmp_path / "results.json"
        ResultFrame.from_cache(cache.root).save(path)
        store = ColumnStore(tmp_path / "store")
        store.ingest(path, chunk_rows=6)
        assert_frames_identical(store.to_frame(), ResultFrame.from_json(path))

    def test_queue_ingest_matches_from_queue_incl_quarantine(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=0)
        cache = ResultCache(tmp_path / "q" / "cache")
        ok = crashy_spec(cell="store-ok")
        bad = crashy_spec(cell="store-bad", behavior="raise")
        queue.submit(ok)
        queue.submit(bad)
        QueueWorker(queue, cache, worker_id="w1").run(idle_timeout=0.0,
                                                      poll_interval=0.01)
        store = ColumnStore(tmp_path / "store")
        store.ingest(tmp_path / "q")
        frame = store.to_frame()
        assert_frames_identical(frame, ResultFrame.from_queue(tmp_path / "q"))
        failed = frame.column("extra")[np.array(
            [bool(e and e.get("failed")) for e in frame.column("extra")]
        )]
        assert len(failed) == 1  # the quarantined cell rides along

    def test_load_frame_sniffs_store_dir(self, tmp_path):
        cache = fill_cache(tmp_path / "cache", n=4)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        assert is_store_dir(store.root)
        assert not is_store_dir(cache.root)
        assert_frames_identical(load_frame(store.root),
                                load_frame(cache.root))

    def test_report_identical_from_store_and_cache(self, tmp_path):
        from repro.analysis import build_report, report_json_text

        cache = fill_cache(tmp_path / "cache")
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        via_cache = report_json_text(build_report(load_frame(cache.root)))
        via_store = report_json_text(build_report(load_frame(store.root)))
        assert via_store == via_cache


class TestSupersession:
    def test_reingest_is_idempotent(self, tmp_path):
        cache = fill_cache(tmp_path / "cache")
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        again = store.ingest(cache.root)
        assert again["rows_appended"] == 0 and again["rows_skipped"] == 20
        assert store.rows() == 20

    def test_new_generation_supersedes_on_read(self, tmp_path):
        cache = fill_cache(tmp_path / "cache", n=4)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        spec = synth_spec(1)
        newer = synth_row(spec, 1)
        newer.top1 = 0.999
        cache.put(spec, newer)
        store.ingest(cache.root, skip_existing=False)
        frame = store.to_frame()
        assert len(frame) == 4  # deduped by spec hash, not 4 + 4
        row = frame.filter(seed=1)
        assert row.column("top1")[0] == 0.999  # last generation wins
        # rows() still counts stored generations until compact
        assert store.rows() == 8
        result = store.compact()
        assert result["rows_after"] == 4
        assert store.rows() == 4
        assert_frames_identical(store.to_frame(), frame)

    def test_compact_coalesces_and_preserves_order(self, tmp_path):
        cache = fill_cache(tmp_path / "cache")
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root, chunk_rows=3)
        before = store.to_frame()
        result = store.compact()
        assert result["segments_before"] == 7
        assert result["segments_after"] == 1
        assert_frames_identical(store.to_frame(), before)

    def test_fingerprint_tracks_content(self, tmp_path):
        cache = fill_cache(tmp_path / "cache", n=4)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        fp = store.fingerprint()
        assert store.ingest(cache.root)["rows_appended"] == 0
        assert store.fingerprint() == fp  # idempotent re-ingest: unchanged
        spec = synth_spec(99)
        cache.put(spec, synth_row(spec, 99))
        store.ingest(cache.root)
        assert store.fingerprint() != fp


class TestCrashRecovery:
    def test_manifest_never_references_torn_segment(self, tmp_path, monkeypatch):
        cache = fill_cache(tmp_path / "cache", n=6)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        good = store.to_frame()
        fp = store.fingerprint()

        def boom(manifest):
            raise OSError("disk full")

        monkeypatch.setattr(ColumnStore, "_write_manifest",
                            lambda self, m: boom(m))
        with pytest.raises(OSError):
            store.append_rows([synth_row(synth_spec(50), 50)],
                              keys=[spec_hash(synth_spec(50))])
        monkeypatch.undo()
        # the crashed append left a sealed-but-unreferenced dir; readers
        # see the old generation, bit for bit
        assert store.fingerprint() == fp
        assert_frames_identical(store.to_frame(), good)
        live = {s["name"] for s in store._require_manifest()["segments"]}
        on_disk = {p.name for p in store.segments_dir.iterdir()}
        assert on_disk - live  # the torn segment is on disk ...
        store.compact()
        on_disk = {p.name for p in store.segments_dir.iterdir()}
        assert len(on_disk) == 1  # ... until compact sweeps it
        assert_frames_identical(store.to_frame(), good)

    def test_lock_contention_times_out(self, tmp_path):
        store = ColumnStore(tmp_path / "store", lock_timeout=0.2)
        store.append_rows([synth_row(synth_spec(0), 0)])
        lock = store.root / ".lock"
        lock.write_text("12345\n")
        with pytest.raises(StoreLockTimeout):
            store.append_rows([synth_row(synth_spec(1), 1)])
        assert store.rows() == 1

    def test_stale_lock_is_broken(self, tmp_path):
        store = ColumnStore(tmp_path / "store", lock_timeout=0.5)
        store.append_rows([synth_row(synth_spec(0), 0)])
        lock = store.root / ".lock"
        lock.write_text("12345\n")
        old = 1_000_000.0
        os.utime(lock, (old, old))
        store.append_rows([synth_row(synth_spec(1), 1)])
        assert store.rows() == 2

    def test_schema_mismatch_is_loud(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_rows([synth_row(synth_spec(0), 0)])
        manifest = json.loads(store.manifest_path.read_text())
        manifest["schema"] = 999
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="schema 999"):
            store.to_frame()


class TestWorkerPublish:
    def test_worker_mirrors_rows_to_store(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(tmp_path / "q" / "cache")
        spec = crashy_spec(cell="store-pub")
        queue.submit(spec)
        store_dir = tmp_path / "store"
        worker = QueueWorker(queue, cache, worker_id="w1", store=store_dir)
        assert worker.run_once() is True
        store = ColumnStore(store_dir)
        # the cell row plus the synthesized baseline, keyed by spec hash
        assert store.rows() == 2
        assert spec_hash(spec) in store.keys()
        # publish order is completion order, from_cache is hash order —
        # compare as sets of rows
        key = lambda r: (r["strategy"], r["seed"])
        mirrored = sorted(store.to_frame().to_records(), key=key)
        cached = sorted(ResultFrame.from_cache(cache.root).to_records(),
                        key=key)
        assert mirrored == cached

    def test_store_failure_does_not_fail_the_cell(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(tmp_path / "q" / "cache")
        spec = crashy_spec(cell="store-pub2")
        queue.submit(spec)
        worker = QueueWorker(queue, cache, worker_id="w1",
                             store=tmp_path / "store")
        monkeypatch.setattr(
            type(worker.store), "append_rows",
            lambda self, rows, keys=None: (_ for _ in ()).throw(
                RuntimeError("store offline")),
        )
        assert worker.run_once() is True  # best-effort mirror
        assert queue.state(spec_hash(spec)) == "done"
        assert cache.get(spec) is not None


class TestColumnEdgeCases:
    def test_column_union_across_segments(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(ResultFrame.from_records(
            [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]))
        store.append_frame(ResultFrame.from_records(
            [{"a": 3, "c": 0.5}, {"a": 4, "c": 1.5}]))
        frame = store.to_frame()
        assert frame.columns == ["a", "b", "c"]
        assert frame.column("a").tolist() == [1, 2, 3, 4]
        assert frame.column("b").tolist() == ["x", "y", None, None]
        b = frame.column("c")
        assert np.isnan(b[:2]).all() and b[2:].tolist() == [0.5, 1.5]

    def test_int_then_float_widens(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(ResultFrame.from_records([{"v": 1}]))
        store.append_frame(ResultFrame.from_records([{"v": 2.5}]))
        v = store.to_frame().column("v")
        assert v.dtype == np.float64 and v.tolist() == [1.0, 2.5]

    def test_unstorable_column_name_rejected(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        with pytest.raises(StoreError, match="keys"):
            store.append_frame(ResultFrame.from_records([{"keys": 1}]))
        assert not store.exists()  # nothing half-written

    def test_empty_store_roundtrip(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        assert store.append_frame(ResultFrame.from_records([])) is None
        with pytest.raises(FileNotFoundError):
            store.to_frame()


# ---------------------------------------------------------------------------
# the append path: splicing onto the writer's own last manifest
# ---------------------------------------------------------------------------

#: three appends — the middle one keyed and adding a column, the last one
#: dropping two — whose manifest fingerprint must never drift
PINNED_APPENDS = [
    ([{"i": 1, "f": 0.5, "s": "alpha"},
      {"i": 2, "f": float("nan"), "s": "beta"}], None),
    ([{"i": 5, "f": float("inf"), "s": None, "t": 7}], ["k1"]),
    ([{"i": -3, "s": "alpha"}], None),
]


def append_pinned(store: ColumnStore) -> None:
    for records, keys in PINNED_APPENDS:
        store.append_frame(ResultFrame.from_records(records), keys=keys)


def reference_text(store: ColumnStore) -> str:
    """The manifest as the parse-plus-full-encode path writes it."""
    return columnar._encode_manifest(json.loads(store.manifest_path.read_text()))


def count_manifest_parses(monkeypatch) -> list:
    """Record every ``json.loads`` call made on a manifest's text."""
    calls = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        if isinstance(text, str) and text.startswith('{"schema"'):
            calls.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(columnar.json, "loads", loads)
    return calls


class TestManifestSplice:
    def test_spliced_manifest_equals_reference_encoding(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        batches = [
            [{"a": 1, "b": "x"}],
            [{"a": 2, "b": "y", "c": 0.5}],     # new column partway through
            [{"d": float("-inf")}],            # only a new column
            [{"a": 3, "b": None, "c": float("nan"), "d": 1.0, "e": [1, 2]}],
        ]
        for i, records in enumerate(batches):
            store.append_frame(ResultFrame.from_records(records),
                               keys=[f"k{i}"] if i % 2 else None)
            text = store.manifest_path.read_text()
            assert "\n" not in text
            assert text == json.dumps(json.loads(text), allow_nan=False)
            assert text == reference_text(store)
        assert store.to_frame().columns == ["a", "b", "c", "d", "e"]
        assert store.rows() == 4

    def test_unchanged_manifest_is_never_parsed(self, tmp_path, monkeypatch):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(ResultFrame.from_records([{"a": 0}]))
        parses = count_manifest_parses(monkeypatch)
        for i in range(1, 4):
            store.append_frame(ResultFrame.from_records([{"a": i, "b": "x"}]))
        assert parses == []
        # the counter does see the parse a fresh instance has to make
        ColumnStore(store.root).append_frame(ResultFrame.from_records([{"a": 4}]))
        assert len(parses) == 1
        monkeypatch.undo()
        assert store.to_frame().column("a").tolist() == [0, 1, 2, 3, 4]

    def test_alternating_writers_lose_no_segment(self, tmp_path):
        root = tmp_path / "store"
        a, b = ColumnStore(root), ColumnStore(root)
        order = [a, a, b, a, b, b, a]
        for i, writer in enumerate(order):
            writer.append_frame(ResultFrame.from_records([{"n": i}]),
                                keys=[f"key{i}"])
        fresh = ColumnStore(root)
        assert fresh.to_frame().column("n").tolist() == list(range(len(order)))
        assert fresh.keys() == {f"key{i}" for i in range(len(order))}
        names = [s["name"] for s in fresh.segments()]
        assert len(set(names)) == len(order)
        assert a.fingerprint() == b.fingerprint() == fresh.fingerprint()
        assert fresh.manifest_path.read_text() == reference_text(fresh)

    def test_failed_publish_leaves_no_phantom_segment(self, tmp_path, monkeypatch):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(ResultFrame.from_records([{"n": 0}]))
        store.append_frame(ResultFrame.from_records([{"n": 1}]))

        def disk_full(path, text):
            raise OSError("disk full")

        monkeypatch.setattr(columnar, "atomic_write_text", disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.append_frame(ResultFrame.from_records([{"n": 99}]))
        monkeypatch.undo()
        store.append_frame(ResultFrame.from_records([{"n": 2}]))
        live = [s["name"] for s in store.segments()]
        on_disk = {p.name for p in store.segments_dir.iterdir()}
        (phantom,) = on_disk - set(live)
        assert len(live) == 3
        # the next sequence number stepped past the unreferenced segment
        assert int(live[-1].split("-")[1]) > int(phantom.split("-")[1])
        assert store.to_frame().column("n").tolist() == [0, 1, 2]
        assert store.manifest_path.read_text() == reference_text(store)

    def test_appends_onto_indented_parent_manifest(self, tmp_path):
        root = tmp_path / "store"
        writer = ColumnStore(root)
        append_pinned(writer)
        before = writer.to_frame()
        # the manifest as earlier releases wrote it: same JSON, indented
        manifest = json.loads(writer.manifest_path.read_text())
        writer.manifest_path.write_text(
            json.dumps(manifest, indent=1, allow_nan=False))
        for store in (ColumnStore(root), writer):
            assert_frames_identical(store.to_frame(), before)
        writer.append_frame(ResultFrame.from_records([{"i": 9, "u": "new"}]))
        text = writer.manifest_path.read_text()
        assert "\n" not in text and text == reference_text(writer)
        frame = ColumnStore(root).to_frame()
        assert len(frame) == len(before) + 1
        assert frame.columns == before.columns + ["u"]
        ColumnStore(root).compact()
        assert ColumnStore(root).to_frame().column("i").tolist() == \
            before.column("i").tolist() + [9]

    def test_fingerprint_is_pinned(self, tmp_path):
        # the value earlier releases computed for the same appends, so the
        # fixture writer is theirs: the compact manifest changes
        # whitespace only, never row identity
        store = SchemaOneStore(tmp_path / "store")
        append_pinned(store)
        assert store.fingerprint() == (
            "07aa80c4f0875a70259776435a9e423db87fd14b6dc1c4adf7bc7cc72efa67e2")
        assert ColumnStore(store.root).fingerprint() == store.fingerprint()

    def test_segment_file_fingerprint_is_pinned(self, tmp_path):
        # the same appends as schema-2 segment files: a change to the
        # segment layout or the manifest shows here
        store = ColumnStore(tmp_path / "store")
        append_pinned(store)
        assert store.fingerprint() == (
            "c75e65d4dae41f61bfece9efef3364aefcd48a6379961a1ed089073e84eed2a1")


class TestStoreCLI:
    def test_ingest_stats_compact_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        cache = fill_cache(tmp_path / "cache", n=7)
        store_dir = tmp_path / "store"
        assert main(["store", "ingest", str(cache.root), str(store_dir),
                     "--chunk-rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "rows appended  : 7" in out
        assert main(["store", "stats", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "rows        : 7" in out and "segments    : 4" in out
        assert main(["store", "compact", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "segments : 4 -> 1" in out
        assert main(["report", str(store_dir), "--json", "-"]) == 0

    def test_ingest_missing_source_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["store", "ingest", str(tmp_path / "nope"),
                     str(tmp_path / "store")]) == 2
        assert "nothing to ingest" in capsys.readouterr().err

    def test_stats_on_non_store_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["store", "stats", str(tmp_path)]) == 2
        assert "no store at" in capsys.readouterr().err


class TestServeIntegration:
    def test_store_source_kind_and_manifest_fingerprint(self, tmp_path):
        from repro.serve import FrameSource

        cache = fill_cache(tmp_path / "cache", n=5)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        source = FrameSource("s", path=store.root)
        assert source.kind == "store"
        snapshot = source.load()
        # ETags key on the manifest fingerprint — no frame re-hash
        assert snapshot.fingerprint == store.fingerprint()
        assert len(snapshot.frame) == 5

    def test_reload_on_append_and_compact(self, tmp_path):
        from repro.serve import FrameSource

        cache = fill_cache(tmp_path / "cache", n=3)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        source = FrameSource("s", path=store.root)
        source.load()
        assert source.maybe_reload() is False
        spec = synth_spec(77)
        cache.put(spec, synth_row(spec, 77))
        store.ingest(cache.root)
        assert source.maybe_reload() is True
        assert len(source.snapshot().frame) == 4
        assert source.snapshot().fingerprint == store.fingerprint()


# ---------------------------------------------------------------------------
# zone maps: recording, backfill, and predicate pushdown (PR 9)
# ---------------------------------------------------------------------------

def probe_store(tmp_path) -> ColumnStore:
    """Three hand-built segments exercising every zone-map edge: NaN and
    ±inf numerics, a null-bearing object column, int/float columns whose
    ranges separate cleanly across segments."""
    store = ColumnStore(tmp_path / "probe_store")
    store.append_frame(ResultFrame.from_records([
        {"i": 1, "f": 0.5, "s": "alpha"},
        {"i": 2, "f": float("nan"), "s": "beta"},
    ]))
    store.append_frame(ResultFrame.from_records([
        {"i": 5, "f": float("inf"), "s": "gamma"},
        {"i": 7, "f": float("-inf"), "s": None},
    ]))
    store.append_frame(ResultFrame.from_records([
        {"i": -3, "f": 2.25, "s": "alpha"},
    ]))
    return store


def strip_stats(store: ColumnStore) -> ColumnStore:
    """Rewrite the manifest without ``stats`` — a pre-PR-9 legacy store."""
    manifest = json.loads(store.manifest_path.read_text())
    for entry in manifest["segments"]:
        entry.pop("stats", None)
    store.manifest_path.write_text(json.dumps(manifest, indent=1))
    return ColumnStore(store.root)


#: (column, condition) pairs covering all 8 ops × int64/float64/object
#: × NaN/±inf probe values; every one must be byte-equal to its
#: full-scan twin, with or without zone maps
PUSHDOWN_CASES = [
    ("i", {"op": "==", "value": 2}),
    ("i", {"op": "==", "value": 100}),          # no match: all skipped
    ("i", {"op": "!=", "value": 5}),
    ("i", {"op": "<", "value": 0}),
    ("i", {"op": "<=", "value": 1}),
    ("i", {"op": ">", "value": 6}),
    ("i", {"op": ">=", "value": 7}),
    ("i", {"op": "in", "value": [2, 7]}),
    ("i", {"op": "not-in", "value": [1, 2, 5, 7, -3]}),
    ("f", {"op": "==", "value": 0.5}),
    ("f", {"op": "==", "value": float("inf")}),
    ("f", {"op": "==", "value": float("nan")}),   # matches nothing
    ("f", {"op": "!=", "value": 0.5}),            # NaN rows DO match !=
    ("f", {"op": "<", "value": 0.0}),
    ("f", {"op": "<=", "value": float("-inf")}),
    ("f", {"op": ">", "value": 100.0}),
    ("f", {"op": ">=", "value": 2.25}),
    ("f", {"op": "<", "value": float("nan")}),    # all-False, skippable
    ("f", {"op": "in", "value": [0.5, float("inf")]}),
    ("f", {"op": "not-in", "value": [0.5, 2.25]}),
    ("s", {"op": "==", "value": "alpha"}),
    ("s", {"op": "==", "value": "nope"}),
    ("s", {"op": "!=", "value": "alpha"}),
    ("s", {"op": "in", "value": ["alpha", "gamma"]}),
    ("s", {"op": "not-in", "value": ["alpha", "beta", "gamma"]}),
    ("s", "beta"),                                # scalar = equality
    ("i", [5, -3]),                               # bare list = membership
]


class TestZoneMaps:
    def test_stats_recorded_at_append(self, tmp_path):
        store = probe_store(tmp_path)
        segments = store.segments()
        assert all(isinstance(e.get("stats"), dict) for e in segments)
        s0 = segments[0]["stats"]
        assert s0["i"] == {"min": 1, "max": 2, "nulls": 0}
        # NaN is counted as a null and excluded from the bounds
        assert s0["f"]["nulls"] == 1 and s0["f"]["min"] == 0.5
        assert s0["s"] == {"nulls": 0, "values": ["alpha", "beta"]}
        # ±inf round-trips through the strict-JSON sentinel encoding
        s1 = json.loads(store.manifest_path.read_text())["segments"][1]
        assert s1["stats"]["f"]["max"] == {"__nonfinite__": "inf"}
        assert s1["stats"]["f"]["min"] == {"__nonfinite__": "-inf"}
        assert s1["stats"]["s"]["nulls"] == 1

    def test_large_pools_omit_values(self, tmp_path):
        from repro.store import ZONE_MAP_MAX_VALUES

        store = ColumnStore(tmp_path / "store")
        n = ZONE_MAP_MAX_VALUES + 1
        store.append_frame(ResultFrame.from_records(
            [{"s": f"v{j:04d}"} for j in range(n)]))
        (entry,) = store.segments()
        assert "values" not in entry["stats"]["s"]
        assert entry["stats"]["s"]["nulls"] == 0
        # no pool → the planner cannot prune, but reads stay correct
        plan = store.scan_plan(where={"s": "v0000"})
        assert plan["segments_selected"] == 1
        assert len(store.to_frame(where={"s": "v0000"})) == 1

    def test_analyze_backfills_and_keeps_fingerprint(self, tmp_path):
        store = probe_store(tmp_path)
        with_stats = store.segments()
        fp = store.fingerprint()
        legacy = strip_stats(store)
        assert all("stats" not in e for e in legacy.segments())
        # stats are deliberately outside the fingerprint: stripping or
        # backfilling them never invalidates ETags or change detection
        assert legacy.fingerprint() == fp
        result = legacy.analyze()
        assert result == {"segments": 3, "analyzed": 3}
        assert legacy.segments() == with_stats
        assert legacy.fingerprint() == fp
        # idempotent: a second pass finds nothing to do
        assert legacy.analyze() == {"segments": 3, "analyzed": 0}

    def test_compact_backfills_stats(self, tmp_path):
        legacy = strip_stats(probe_store(tmp_path))
        legacy.compact()
        (entry,) = legacy.segments()
        assert isinstance(entry["stats"], dict)
        assert entry["stats"]["i"] == {"min": -3, "max": 7, "nulls": 0}


class TestPushdown:
    @pytest.mark.parametrize("column,cond", PUSHDOWN_CASES)
    def test_pushdown_equals_fullscan_twin(self, tmp_path, column, cond):
        store = probe_store(tmp_path)
        where = {column: cond}
        expect = store.to_frame().filter(**where)
        assert_frames_identical(store.to_frame(where=where), expect)
        # the same predicate over a legacy store (no stats: nothing is
        # skipped), then again after analyze backfills the zone maps
        legacy = strip_stats(store)
        assert_frames_identical(legacy.to_frame(where=where), expect)
        legacy.analyze()
        assert_frames_identical(legacy.to_frame(where=where), expect)

    def test_plan_actually_skips(self, tmp_path):
        store = probe_store(tmp_path)
        plan = store.scan_plan(where={"i": {"op": ">", "value": 4}})
        assert plan["segments_total"] == 3
        assert plan["segments_selected"] == 1  # only segment 2 can match
        assert plan["rows_total"] == 5 and plan["rows_selected"] == 2
        # a predicate nothing satisfies prunes everything
        none = store.scan_plan(where={"i": {"op": "==", "value": 100}})
        assert none["segments_selected"] == 0
        assert len(store.to_frame(where={"i": 100})) == 0
        # no stats → conservative: every segment is selected
        legacy = strip_stats(store)
        assert legacy.scan_plan(where={"i": {"op": ">", "value": 4}})[
            "segments_selected"] == 3

    def test_projection_loads_requested_columns_only(self, tmp_path):
        store = probe_store(tmp_path)
        frame = store.to_frame(columns=["f", "i"])
        # the projection keeps the requested order
        assert frame.columns == ["f", "i"]
        plan = store.scan_plan(where={"i": {"op": "<", "value": 0}},
                               columns=["s"])
        # the filter column is loaded for masking even when not projected
        assert sorted(plan["columns_loaded"]) == ["i", "s"]

    def test_unknown_columns_fail_loudly(self, tmp_path):
        store = probe_store(tmp_path)
        with pytest.raises(KeyError, match="unknown column 'nope'"):
            store.to_frame(columns=["nope"])
        with pytest.raises(KeyError, match="unknown filter column 'nope'"):
            store.to_frame(where={"nope": 1})
        with pytest.raises(ValueError, match="callable"):
            store.to_frame(where={"i": lambda v: v > 0})

    def test_ordering_on_object_column_matches_fullscan(self, tmp_path):
        # string ordering on object columns: the planner evaluates the
        # condition against each segment's value pool, so the segment
        # holding only "gamma"/None is provably unmatched and skipped —
        # and the surviving rows still match the full scan byte for byte
        store = probe_store(tmp_path)
        where = {"s": {"op": "<", "value": "beta"}}
        assert store.scan_plan(where=where)["segments_selected"] == 2
        assert_frames_identical(store.to_frame(where=where),
                                store.to_frame().filter(**where))

    def test_superseded_rows_stay_dead_when_segment_skipped(self, tmp_path):
        store = ColumnStore(tmp_path / "store")
        store.append_frame(ResultFrame.from_records([{"x": 1}]), keys=["k"])
        store.append_frame(ResultFrame.from_records([{"x": 100}]), keys=["k"])
        # x == 1 prunes the superseding segment; the stale generation in
        # the surviving segment must NOT resurface
        assert store.scan_plan(where={"x": 1})["segments_selected"] == 1
        assert len(store.to_frame(where={"x": 1})) == 0
        frame = store.to_frame(where={"x": 100})
        assert frame.column("x").tolist() == [100]

    def test_pushdown_on_real_sweep_rows(self, tmp_path):
        cache = fill_cache(tmp_path / "cache", n=24)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root, chunk_rows=6)
        where = {"strategy": "random",
                 "compression": {"op": ">=", "value": 4.0}}
        assert_frames_identical(store.to_frame(where=where),
                                store.to_frame().filter(**where))


class TestApplyStore:
    QUERIES = [
        {"filter": {"seed": {"op": "<", "value": 6}}, "sort": ["seed"]},
        {"filter": {"strategy": "random"},
         "columns": ["strategy", "seed", "top1"], "limit": 3},
        {"filter": {"compression": {"op": "in", "value": [4.0, 8.0]}},
         "aggregate": {"by": ["strategy", "compression"],
                       "values": ["top1"]}},
        {"group_by": ["strategy", "compression"], "sort": ["n"],
         "limit": 2, "offset": 1},
        {},
    ]

    @pytest.mark.parametrize("spec", QUERIES)
    def test_apply_store_matches_apply(self, tmp_path, spec):
        from repro.analysis.query import compile_query

        cache = fill_cache(tmp_path / "cache", n=24)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root, chunk_rows=6)
        query = compile_query(spec)
        a = query.apply_store(store)
        b = query.apply(store.to_frame())
        assert json.dumps(a, default=float) == json.dumps(b, default=float)

    def test_apply_store_error_parity(self, tmp_path):
        from repro.analysis.query import QueryError, compile_query

        cache = fill_cache(tmp_path / "cache", n=6)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        frame = store.to_frame()
        for spec in ({"filter": {"nope": 1}},
                     {"columns": ["nope"]},
                     {"sort": ["nope"]},
                     {"aggregate": {"by": ["nope"]}},
                     # sort names a pre-aggregation column: both paths
                     # must reject it against the aggregated vocabulary
                     {"group_by": ["strategy"], "sort": ["seed"]}):
            query = compile_query(spec)
            with pytest.raises(QueryError) as via_store:
                query.apply_store(store)
            with pytest.raises(QueryError) as via_frame:
                query.apply(frame)
            assert str(via_store.value) == str(via_frame.value)


class TestIncrementalReport:
    """``build_report_from_store`` (a projected load) is byte-identical to
    ``build_report(store.to_frame())``."""

    def make_store(self, tmp_path, with_sentinels: bool = True):
        from repro.experiment.prune import BASELINE_STRATEGY

        cache = fill_cache(tmp_path / "cache", n=24)
        if with_sentinels:
            spec = ExperimentSpec(
                model="lenet-300-100", dataset="cifar10",
                strategy=BASELINE_STRATEGY, compression=1.0, seed=0)
            row = synth_row(spec, 3)
            cache.put(spec, row)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root, chunk_rows=7)
        return store

    def assert_reports_byte_equal(self, store, y="top1", outstanding=None):
        from repro.analysis.report import (
            build_report,
            build_report_from_store,
            report_json_text,
        )

        projected = build_report_from_store(
            store, y=y, outstanding=outstanding)
        full = build_report(store.to_frame(), y=y, outstanding=outstanding)
        assert report_json_text(projected) == report_json_text(full)

    def test_byte_equal_with_baseline_sentinels(self, tmp_path):
        self.assert_reports_byte_equal(self.make_store(tmp_path))

    def test_byte_equal_without_sentinels_y_top5(self, tmp_path):
        store = self.make_store(tmp_path, with_sentinels=False)
        self.assert_reports_byte_equal(store, y="top5")

    def test_byte_equal_after_compact_and_outstanding(self, tmp_path):
        store = self.make_store(tmp_path)
        store.compact()
        self.assert_reports_byte_equal(
            store, outstanding={"pending": 2, "leased": 1})

    def test_report_cli_store_matches_cache(self, tmp_path, capsys):
        from repro.cli import main

        store = self.make_store(tmp_path)
        assert main(["report", str(tmp_path / "cache"), "--json", "-"]) == 0
        from_cache = capsys.readouterr().out
        assert main(["report", str(store.root), "--json", "-"]) == 0
        assert capsys.readouterr().out == from_cache


class TestStoreCLIProgress:
    def test_ingest_prints_chunk_progress(self, tmp_path, capsys):
        from repro.cli import main

        cache = fill_cache(tmp_path / "cache", n=7)
        assert main(["store", "ingest", str(cache.root),
                     str(tmp_path / "store"), "--chunk-rows", "3"]) == 0
        out = capsys.readouterr().out
        assert "chunk 1/3 (3 rows)" in out
        assert "chunk 3/3 (1 rows)" in out

    def test_ingest_quiet_suppresses_progress(self, tmp_path, capsys):
        from repro.cli import main

        cache = fill_cache(tmp_path / "cache", n=7)
        assert main(["store", "ingest", str(cache.root),
                     str(tmp_path / "store"), "--chunk-rows", "3",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "chunk" not in out
        assert "rows appended  : 7" in out

    def test_stats_segments_renders_zone_maps(self, tmp_path, capsys):
        from repro.cli import main

        store = probe_store(tmp_path)
        assert main(["store", "stats", str(store.root), "--segments"]) == 0
        out = capsys.readouterr().out
        assert "5 row(s)" not in out  # per-segment, not the union
        assert "2 row(s), unkeyed" in out
        assert "min 1, max 2" in out          # segment 0 int bounds
        assert "min -inf, max inf" in out     # segment 1 restores ±inf
        assert "2 distinct value(s)" in out
        strip_stats(store)
        assert main(["store", "stats", str(store.root), "--segments"]) == 0
        out = capsys.readouterr().out
        assert "no zone-map stats" in out and "store analyze" in out
        assert main(["store", "analyze", str(store.root)]) == 0
        assert "analyzed : 3" in capsys.readouterr().out


class TestServePushdown:
    def test_store_snapshot_carries_planner_handles(self, tmp_path):
        from repro.serve import FrameSource

        cache = fill_cache(tmp_path / "cache", n=6)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        snapshot = FrameSource("s", path=store.root).load()
        assert snapshot.store is not None
        assert snapshot.store_manifest["fingerprint"] == store.fingerprint()
        # non-store sources must NOT grow the handles
        memory = FrameSource.from_frame("m", store.to_frame()).load()
        assert memory.store is None

    def test_store_report_text_matches_full_build(self, tmp_path):
        from repro.analysis.report import build_report, report_json_text
        from repro.serve import FrameSource

        cache = fill_cache(tmp_path / "cache", n=12)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root, chunk_rows=5)
        snapshot = FrameSource("s", path=store.root).load()
        expected = report_json_text(build_report(
            store.to_frame(), outstanding=snapshot.outstanding))
        assert snapshot.report_text("top1") == expected

    def test_report_reuses_the_snapshot_frame(self, tmp_path, monkeypatch):
        """A generation replicates its baselines once for /report and the
        other endpoints, and /report never loads the store again."""
        from repro.analysis.report import build_report, report_json_text
        from repro.serve import FrameSource

        store = TestIncrementalReport().make_store(tmp_path)
        snapshot = FrameSource("s", path=store.root).load()
        calls = {"replicate": 0, "segment_reads": 0}

        def count(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the two ways replicate_baselines copies rows: each call is work
        for method in ("_replicate_baselines_gathered",
                       "_replicate_baselines_records"):
            monkeypatch.setattr(ResultFrame, method, count(
                "replicate", getattr(ResultFrame, method)))
        # every segment read opens the segment first
        monkeypatch.setattr(ColumnStore, "_open_segment", count(
            "segment_reads", ColumnStore._open_segment))
        prepared = snapshot.prepared()
        top1 = snapshot.report_text("top1")
        top5 = snapshot.report_text("top5")
        assert snapshot.prepared() is prepared
        assert calls == {"replicate": 1, "segment_reads": 0}
        monkeypatch.undo()
        frame = store.to_frame()
        for y, text in (("top1", top1), ("top5", top5)):
            assert text == report_json_text(build_report(
                frame, y=y, outstanding=snapshot.outstanding))

    def test_query_falls_back_when_store_torn(self, tmp_path, monkeypatch):
        import repro.analysis.query as query_mod
        from repro.analysis.query import compile_query
        from repro.serve import FrameSource, ResultsServer

        cache = fill_cache(tmp_path / "cache", n=8)
        store = ColumnStore(tmp_path / "store")
        store.ingest(cache.root)
        server = ResultsServer([FrameSource("s", path=store.root)])
        source = server.sources["s"]
        source.load()
        spec = {"filter": {"seed": {"op": "<", "value": 4}},
                "sort": ["seed"]}
        expected = compile_query(spec).apply(store.to_frame())
        monkeypatch.setattr(
            query_mod.Query, "apply_store",
            lambda self, st, manifest=None: (_ for _ in ()).throw(
                OSError("segment deleted by racing compact")))
        response = server.dispatch(
            "POST", "/query", {}, json.dumps(spec).encode())
        assert response.status == 200
        payload = json.loads(response.text)
        assert payload["rows"] == json.loads(
            json.dumps(expected["rows"], default=float))
