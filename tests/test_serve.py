"""Results server + query language tests (repro.serve, repro.analysis.query).

Covers the query language's fail-fast validation and point-for-point
equivalence with in-process ResultFrame calls, every HTTP endpoint
(including ETag/304 conditional GETs and pagination), byte-identity of
``GET /report`` with ``python -m repro report --json -``, partial-sweep
accounting parity, torn-read-freedom under concurrent reload, and the
``python -m repro serve`` CLI's clean SIGTERM shutdown.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote

import numpy as np
import pytest

from repro.analysis import (
    QueryError,
    ResultFrame,
    build_report,
    compile_query,
    load_frame,
    queue_outstanding,
    report_json_text,
    report_to_json,
    run_query,
)
from repro.cli import main
from repro.experiment import (
    ExperimentSpec,
    PruningResult,
    ResultCache,
    ResultSet,
    WorkQueue,
)
from repro.serve import FrameSource, ResultsServer


def make_rows(strategies=("global_weight", "random"), seeds=(0, 1),
              comps=(1, 2, 4)):
    """Sweep-shaped rows with every column the report needs (no training)."""
    rows = []
    for strat in strategies:
        for seed in seeds:
            for c in comps:
                rows.append(PruningResult(
                    model="m", dataset="d", strategy=strat,
                    compression=float(c), seed=seed,
                    top1=0.9 - 0.02 * c + 0.01 * seed,
                    top5=0.95 - 0.01 * c,
                    baseline_top1=0.9 + 0.01 * seed,
                    baseline_top5=0.95,
                    actual_compression=float(c),
                    theoretical_speedup=float(c) ** 0.8,
                    dense_flops=100.0, effective_flops=100.0 / c,
                    total_params=1000, nonzero_params=int(1000 / c),
                ))
    return rows


def _spec(strategy, compression, seed):
    return ExperimentSpec(model="m", dataset="d", strategy=strategy,
                          compression=float(compression), seed=seed)


def _complete_cell(queue, cache, row, observe=lambda: None):
    """Submit + claim + complete one cell and publish its result row;
    ``observe()`` runs after each of those four on-disk steps."""
    spec = _spec(row.strategy, row.compression, row.seed)
    queue.submit(spec)
    observe()
    claim = queue.claim("test-worker")
    assert claim is not None
    observe()
    cache.put(spec, row)
    observe()
    queue.complete(claim)
    observe()


# ---------------------------------------------------------------------------
# query language (no server involved)
# ---------------------------------------------------------------------------

class TestQueryLanguage:
    @pytest.fixture
    def frame(self):
        return ResultFrame.from_results(make_rows())

    def test_empty_query_selects_all_rows(self, frame):
        result = run_query(frame, {})
        assert result["total"] == len(frame)
        assert result["rows"] == frame.to_records()

    def test_filter_matches_in_process_filter(self, frame):
        spec = {"filter": {"strategy": "global_weight",
                           "compression": {"op": ">=", "value": 2},
                           "seed": [0, 1]}}
        expected = frame.filter(
            strategy="global_weight",
            compression={"op": ">=", "value": 2},
            seed=[0, 1],
        )
        assert run_query(frame, spec)["rows"] == expected.to_records()

    def test_aggregate_matches_in_process_aggregate(self, frame):
        spec = {"aggregate": {"by": ["strategy", "compression"],
                              "values": ["top1"], "stats": ["mean", "std"]}}
        expected = frame.aggregate(by=("strategy", "compression"),
                                   values=("top1",), stats=("mean", "std"))
        assert run_query(frame, spec)["rows"] == expected.to_records()

    def test_aggregate_defaults_match_frame_defaults(self, frame):
        assert run_query(frame, {"aggregate": {}})["rows"] == \
            frame.aggregate().to_records()

    def test_group_by_is_count_only_aggregate(self, frame):
        result = run_query(frame, {"group_by": "strategy"})
        assert result["columns"] == ["strategy", "n"]
        assert result["rows"] == frame.aggregate(
            by=("strategy",), values=[], stats=()).to_records()

    def test_sort_and_projection(self, frame):
        result = run_query(frame, {"sort": ["compression", "strategy"],
                                   "columns": ["strategy", "compression"]})
        expected = frame.sort_by("compression", "strategy")
        assert result["columns"] == ["strategy", "compression"]
        assert result["rows"] == [
            {"strategy": r["strategy"], "compression": r["compression"]}
            for r in expected.to_records()
        ]

    def test_pagination_reassembles_exactly(self, frame):
        whole = run_query(frame, {"sort": "top1"})
        pages = []
        offset = 0
        while True:
            page = run_query(frame, {"sort": "top1", "limit": 5,
                                     "offset": offset})
            assert page["total"] == len(frame)
            if not page["rows"]:
                break
            pages.extend(page["rows"])
            offset += 5
        assert pages == whole["rows"]

    def test_offset_past_end_is_empty_not_an_error(self, frame):
        page = run_query(frame, {"limit": 5, "offset": 10_000})
        assert page["rows"] == [] and page["total"] == len(frame)

    @pytest.mark.parametrize("spec, message", [
        ("not a dict", "must be a JSON object"),
        ({"bogus_key": 1}, "unknown query key"),
        ({"filter": ["strategy"]}, "'filter' must be an object"),
        ({"filter": {"strategy": {"op": "~", "value": 1}}},
         "unknown filter op"),
        ({"filter": {"compression": {"op": "in", "value": 2}}},
         "needs a list value"),
        ({"group_by": "a", "aggregate": {}}, "mutually exclusive"),
        ({"aggregate": {"nope": 1}}, "unknown aggregate key"),
        ({"aggregate": {"stats": ["median"]}}, "unknown aggregate stat"),
        ({"group_by": []}, "non-empty list"),
        ({"limit": 0}, "positive integer"),
        ({"limit": True}, "positive integer"),
        ({"offset": -1}, "non-negative"),
    ])
    def test_compile_rejects_malformed_documents(self, spec, message):
        with pytest.raises(QueryError, match=message):
            compile_query(spec)

    def test_apply_rejects_unknown_columns(self, frame):
        for spec in ({"filter": {"nope": 1}}, {"group_by": "nope"},
                     {"sort": "nope"}, {"columns": ["nope"]},
                     {"aggregate": {"by": ["nope"]}}):
            with pytest.raises(QueryError, match="nope"):
                run_query(frame, spec)

    def test_canonical_is_spelling_independent(self):
        a = compile_query({"sort": "top1", "filter": {"seed": 0}})
        b = compile_query({"filter": {"seed": 0}, "sort": ["top1"]})
        assert a.canonical() == b.canonical()
        c = compile_query({"filter": {"seed": 1}, "sort": ["top1"]})
        assert a.canonical() != c.canonical()


# ---------------------------------------------------------------------------
# HTTP endpoints against an in-memory source
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    frame = ResultFrame.from_results(make_rows())
    srv = ResultsServer([FrameSource.from_frame("sweep", frame)])
    srv.start()
    yield srv
    srv.stop()


def _request(srv, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(srv.host, srv.port)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return response, payload
    finally:
        conn.close()


def _get_json(srv, path):
    response, payload = _request(srv, "GET", path)
    assert response.status == 200, payload[:300]
    return json.loads(payload)


class TestEndpoints:
    def test_healthz_reports_frames_and_metrics(self, server):
        doc = _get_json(server, "/healthz")
        assert doc["status"] == "ok"
        (entry,) = doc["frames"]
        assert entry["name"] == "sweep" and entry["kind"] == "memory"
        assert entry["rows"] == len(make_rows())
        assert entry["outstanding"] == {"pending": 0, "leased": 0}
        again = _get_json(server, "/healthz")
        assert again["metrics"]["/healthz"]["requests"] >= 1

    def test_frames_lists_columns_and_fingerprint(self, server):
        (entry,) = _get_json(server, "/frames")["frames"]
        assert "top1" in entry["columns"]
        frame = ResultFrame.from_results(make_rows())
        assert entry["fingerprint"] == frame.fingerprint()

    def test_query_matches_in_process_point_for_point(self, server):
        frame = ResultFrame.from_results(make_rows())
        spec = {"filter": {"compression": {"op": ">", "value": 1}},
                "aggregate": {"by": ["strategy", "compression"],
                              "values": ["top1", "delta_top1"]},
                "sort": ["strategy", "compression"]}
        response, payload = _request(
            server, "POST", "/query", body=json.dumps(spec))
        assert response.status == 200
        assert json.loads(payload)["rows"] == run_query(frame, spec)["rows"]

    def test_query_get_equals_post(self, server):
        spec = {"group_by": ["strategy"], "sort": "strategy"}
        from urllib.parse import quote
        _, get_payload = _request(
            server, "GET", "/query?q=" + quote(json.dumps(spec)))
        _, post_payload = _request(
            server, "POST", "/query", body=json.dumps(spec))
        assert get_payload == post_payload

    def test_query_pagination_carries_stable_fingerprint(self, server):
        from urllib.parse import quote

        pages, offset = [], 0
        fingerprints = set()
        while True:
            spec = {"sort": "top1", "limit": 5, "offset": offset}
            doc = _get_json(server, "/query?q=" + quote(json.dumps(spec)))
            fingerprints.add(doc["fingerprint"])
            if not doc["rows"]:
                break
            pages.extend(doc["rows"])
            offset += 5
        assert len(fingerprints) == 1
        frame = ResultFrame.from_results(make_rows())
        assert pages == run_query(frame, {"sort": "top1"})["rows"]

    def test_etag_304_round_trip(self, server):
        for path in ("/report", "/curves", "/summary?by=strategy",
                     "/pareto?limit=2"):
            response, payload = _request(server, "GET", path)
            assert response.status == 200 and payload
            etag = response.getheader("ETag")
            assert etag
            response, payload = _request(
                server, "GET", path, headers={"If-None-Match": etag})
            assert response.status == 304 and payload == b""
            # a different tag still gets the full body
            response, payload = _request(
                server, "GET", path, headers={"If-None-Match": '"zzz"'})
            assert response.status == 200 and payload

    def test_query_etag_varies_with_query(self, server):
        a = _request(server, "POST", "/query",
                     body=json.dumps({"group_by": "strategy"}))[0]
        b = _request(server, "POST", "/query",
                     body=json.dumps({"group_by": "seed"}))[0]
        assert a.getheader("ETag") != b.getheader("ETag")

    def test_summary_endpoint_matches_aggregate(self, server):
        doc = _get_json(server, "/summary?by=strategy&values=top1")
        frame = ResultFrame.from_results(make_rows())
        prepared = frame.replicate_baselines().derived().ok()
        expected = prepared.aggregate(by=("strategy",), values=("top1",))
        assert doc["rows"] == expected.to_records()

    def test_curves_endpoint_matches_tradeoff_curves(self, server):
        doc = _get_json(server, "/curves?y=top5")
        frame = ResultFrame.from_results(make_rows())
        prepared = frame.replicate_baselines().derived().ok()
        curves = prepared.tradeoff_curves(group="strategy", x="compression",
                                          y="top5")
        assert set(doc["curves"]) == {str(k) for k in curves}
        for strategy, points in curves.items():
            assert doc["curves"][str(strategy)] == [
                {"x": p.x, "mean": p.mean, "std": p.std, "n": p.n}
                for p in points
            ]

    def test_pareto_endpoint_matches_frontier(self, server):
        doc = _get_json(server, "/pareto")
        frame = ResultFrame.from_results(make_rows())
        prepared = frame.replicate_baselines().derived().ok()
        assert doc["rows"] == \
            prepared.pareto_frontier(x="compression", y="top1").to_records()

    def test_error_statuses(self, server):
        cases = [
            ("GET", "/nope", None, 404, "unknown endpoint"),
            ("GET", "/report?frame=missing", None, 404, "no frame named"),
            ("GET", "/report?y=loss", None, 400, "'y' must be one of"),
            ("GET", "/report?bogus=1", None, 400, "unknown parameter"),
            ("GET", "/query?q=notjson", None, 400, "not valid JSON"),
            ("POST", "/query", json.dumps({"zap": 1}), 400,
             "unknown query key"),
            ("POST", "/query", json.dumps({"filter": {"nope": 1}}), 400,
             "unknown filter column"),
            ("POST", "/report", None, 405, "method not allowed"),
            ("GET", "/summary?limit=zero", None, 400, "must be an integer"),
            ("GET", "/summary?by=bogus", None, 400, "unknown aggregate"),
        ]
        for method, path, body, status, needle in cases:
            response, payload = _request(server, method, path, body=body)
            assert response.status == status, (path, payload[:200])
            doc = json.loads(payload)
            assert needle in doc["error"], (path, doc["error"])
            assert doc["status"] == status

    def test_head_sends_headers_without_body(self, server):
        response, payload = _request(server, "HEAD", "/report")
        assert response.status == 200
        assert payload == b""
        assert response.getheader("ETag")
        assert int(response.getheader("Content-Length")) > 0


class TestTransport:
    def test_accepted_sockets_set_nodelay(self, monkeypatch):
        """TCP_NODELAY on every accepted socket: with Nagle on, a body
        written after its headers waits for the client's delayed ACK."""
        import socket

        from repro.serve import server as server_mod

        nodelay = []
        original_setup = server_mod._Handler.setup

        def setup(handler):
            original_setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(server_mod._Handler, "setup", setup)
        frame = ResultFrame.from_results(make_rows())
        srv = ResultsServer([FrameSource.from_frame("sweep", frame)])
        srv.start()
        try:
            for path in ("/healthz", "/report"):
                response, _ = _request(srv, "GET", path)
                assert response.status == 200
        finally:
            srv.stop()
        assert len(nodelay) == 2 and all(nodelay), nodelay

    def test_response_is_counted_before_it_is_sent(self, monkeypatch):
        """A client that has read a response finds it in /healthz."""
        from urllib.parse import urlsplit

        from repro.serve import server as server_mod

        counted = []
        original_end_headers = server_mod._Handler.end_headers

        def end_headers(handler):
            metrics = handler.server_app.metrics.to_dict()
            route = urlsplit(handler.path).path
            counted.append(metrics.get(route, {}).get("requests", 0))
            original_end_headers(handler)

        monkeypatch.setattr(server_mod._Handler, "end_headers", end_headers)
        frame = ResultFrame.from_results(make_rows())
        srv = ResultsServer([FrameSource.from_frame("sweep", frame)])
        srv.start()
        try:
            for path, status in (("/healthz", 200), ("/healthz", 200),
                                 ("/nope", 404)):
                response, _ = _request(srv, "GET", path)
                assert response.status == status
        finally:
            srv.stop()
        assert counted == [1, 2, 1]


# ---------------------------------------------------------------------------
# parity with the report CLI over real artifacts
# ---------------------------------------------------------------------------

class TestReportParity:
    @pytest.fixture
    def queue_dir(self, tmp_path):
        """A partially-drained queue: 12 done cells + 1 still pending."""
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(queue.root / "cache")
        for row in make_rows():
            _complete_cell(queue, cache, row)
        queue.submit(_spec("global_weight", 8.0, 7))  # never executed
        return queue.root

    def test_report_endpoint_identical_to_cli_json(self, queue_dir, capsys):
        srv = ResultsServer([FrameSource("q", queue_dir)])
        srv.start()
        try:
            _, payload = _request(srv, "GET", "/report")
        finally:
            srv.stop()
        assert main(["report", str(queue_dir), "--json", "-"]) == 1  # partial
        cli_text = capsys.readouterr().out
        assert payload.decode() == cli_text

    def test_outstanding_in_healthz_and_report(self, queue_dir):
        srv = ResultsServer([FrameSource("q", queue_dir)])
        srv.start()
        try:
            health = _get_json(srv, "/healthz")
            report = _get_json(srv, "/report")
        finally:
            srv.stop()
        assert health["frames"][0]["outstanding"] == \
            {"pending": 1, "leased": 0}
        assert report["outstanding"] == {"pending": 1, "leased": 0}

    def test_query_over_loaded_artifact_matches_load_frame(self, queue_dir):
        spec = {"filter": {"strategy": "global_weight"},
                "sort": ["compression", "seed"]}
        srv = ResultsServer([FrameSource("q", queue_dir)])
        srv.start()
        try:
            _, payload = _request(srv, "POST", "/query",
                                  body=json.dumps(spec))
        finally:
            srv.stop()
        frame = load_frame(queue_dir)
        assert json.loads(payload)["rows"] == run_query(frame, spec)["rows"]


# ---------------------------------------------------------------------------
# /fleet: live queue/fleet health for queue-dir sources
# ---------------------------------------------------------------------------

class TestFleetEndpoint:
    @pytest.fixture
    def queue_dir(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(queue.root / "cache")
        for row in make_rows():
            _complete_cell(queue, cache, row)
        queue.submit(_spec("global_weight", 8.0, 7))  # still pending
        return queue.root

    def _serve(self, sources):
        srv = ResultsServer(sources)
        srv.start()
        return srv

    def test_fleet_reports_queue_stats_without_manifests(self, queue_dir):
        srv = self._serve([FrameSource("q", queue_dir)])
        try:
            response, payload = _request(srv, "GET", "/fleet")
        finally:
            srv.stop()
        assert response.status == 200
        assert response.getheader("ETag") is None  # live data, never cached
        doc = json.loads(payload)
        assert doc["frame"] == "q"
        assert doc["queue"]["counts"] == \
            {"pending": 1, "leased": 0, "done": 12, "failed": 0}
        assert "fleet" not in doc and "plan" not in doc  # nothing launched
        assert "audit" not in doc  # audit is opt-in

    def test_fleet_includes_roster_and_plan_when_present(self, queue_dir):
        from repro.fleet import fleet_manifest_path

        manifest_path = fleet_manifest_path(queue_dir)
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(json.dumps({
            "schema": 1, "queue_dir": str(queue_dir), "launches": 1,
            "updated_at": "2026-08-08T00:00:00Z",
            "workers": [
                {"worker_id": "local-w0", "host": "local",
                 "launcher": "local", "pid": os.getpid(), "launch": 1},
                {"worker_id": "local-w1", "host": "local",
                 "launcher": "local", "pid": 2 ** 22 + 1, "launch": 1},
            ],
        }))
        from repro.fleet import batch_manifest_path

        batch_manifest_path(queue_dir).write_text(json.dumps({
            "schema": 1, "config_hash": "cafe" * 4, "batch_size": 4,
            "n_cells": 13, "created_at": "2026-08-08T00:00:00Z",
            "batches": [{"index": 0, "hashes": []}] * 4,
        }))
        srv = self._serve([FrameSource("q", queue_dir)])
        try:
            doc = _get_json(srv, "/fleet")
        finally:
            srv.stop()
        roster = {w["worker_id"]: w for w in doc["fleet"]["workers"]}
        assert roster["local-w0"]["alive"] is True
        assert roster["local-w1"]["alive"] in (False, None)
        assert doc["plan"] == {
            "config_hash": "cafe" * 4, "batch_size": 4, "n_cells": 13,
            "batches": 4, "created_at": "2026-08-08T00:00:00Z",
        }

    def test_fleet_audit_flags_ghost_done(self, queue_dir):
        srv = self._serve([FrameSource("q", queue_dir)])
        try:
            clean = _get_json(srv, "/fleet?audit=1")
            # break the done contract for one cell, then re-audit
            victim = next((queue_dir / "done").glob("*.json")).stem
            entry = queue_dir / "cache" / victim[:2] / f"{victim}.json"
            entry.unlink()
            broken = _get_json(srv, "/fleet?audit=1")
        finally:
            srv.stop()
        assert clean["audit"]["clean"] is True
        assert broken["audit"]["clean"] is False
        assert broken["audit"]["ghost_done"] == [victim]

    def test_fleet_rejects_non_queue_sources(self, server):
        response, payload = _request(server, "GET", "/fleet")
        assert response.status == 400
        doc = json.loads(payload)
        assert "memory source" in doc["error"]
        assert "work-queue" in doc["error"]

    def test_unknown_endpoint_mentions_fleet(self, server):
        response, payload = _request(server, "GET", "/nope")
        assert response.status == 404
        assert "/fleet" in json.loads(payload)["error"]


# ---------------------------------------------------------------------------
# conditional requests and the per-snapshot body memo
# ---------------------------------------------------------------------------

#: one request per data route; every answer carries an ETag
DATA_PATHS = ("/report", "/summary?by=strategy", "/curves", "/pareto?limit=2",
              "/query?q=" + quote(json.dumps({"group_by": "strategy"})))


@pytest.fixture
def builds(monkeypatch):
    """Calls of the functions that build a data route's body."""
    from repro.analysis.query import Query
    from repro.serve import server as server_mod

    counts = {}

    def count(owner, name):
        original = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(server_mod, "build_report")
    count(Query, "apply")
    count(ResultFrame, "tradeoff_curves")
    count(ResultFrame, "pareto_frontier")
    return counts


@pytest.fixture
def served():
    """A fresh server (cold memo) over one in-memory source."""
    source = FrameSource.from_frame("sweep", ResultFrame.from_results(make_rows()))
    srv = ResultsServer([source])
    srv.start()
    yield srv, source
    srv.stop()


class TestConditionalRequests:
    def test_matching_tag_builds_nothing(self, served, builds):
        srv, source = served
        etags = {path: _request(srv, "GET", path)[0].getheader("ETag")
                 for path in DATA_PATHS}
        source.load()  # the same rows again: generation 2, a cold memo

        def assert_not_modified(tags):
            before = dict(builds)
            for path, etag in tags.items():
                for header in (etag, f'"zzz", {etag}'):
                    response, payload = _request(
                        srv, "GET", path, headers={"If-None-Match": header})
                    assert response.status == 304 and payload == b"", path
                    assert response.getheader("ETag") == etag
            assert builds == before

        # /report's body names no generation: its tag still matches
        assert_not_modified({"/report": etags.pop("/report")})
        assert source.snapshot()._prepared is None  # not even prepared
        # every other envelope names the generation: a new body, a new tag
        fresh = {}
        for path, etag in etags.items():
            response, payload = _request(
                srv, "GET", path, headers={"If-None-Match": etag})
            assert response.status == 200, path
            assert json.loads(payload)["generation"] == 2
            fresh[path] = response.getheader("ETag")
            assert fresh[path] != etag, path
        assert_not_modified(fresh)

    def test_weak_tags_compare_weakly(self, served):
        srv, _ = served
        for path in DATA_PATHS:
            etag = _request(srv, "GET", path)[0].getheader("ETag")
            response, payload = _request(
                srv, "GET", path, headers={"If-None-Match": "W/" + etag})
            assert response.status == 304 and payload == b"", path

    def test_star_on_an_invalid_request_still_gets_its_error(self, served):
        srv, _ = served
        cases = [
            ("/report?y=loss", 400), ("/report?frame=missing", 404),
            ("/summary?by=bogus", 400), ("/summary?limit=zero", 400),
            ("/curves?group=bogus", 400), ("/pareto?x=bogus", 400),
            ("/query?q=notjson", 400),
            ("/query?q=" + quote(json.dumps({"filter": {"nope": 1}})), 400),
        ]
        for path, status in cases:
            response, payload = _request(
                srv, "GET", path, headers={"If-None-Match": "*"})
            assert response.status == status, (path, payload[:200])
            assert json.loads(payload)["status"] == status
        for path in DATA_PATHS:  # a body exists: * matches it
            response, payload = _request(
                srv, "GET", path, headers={"If-None-Match": "*"})
            assert response.status == 304 and payload == b"", path

    def test_sources_serving_one_frame_get_their_own_tags(self):
        """Two sources over the same rows answer with different bodies
        (the envelope names the source), so their tags must differ."""
        frame = ResultFrame.from_results(make_rows())
        srv = ResultsServer([FrameSource.from_frame("a", frame),
                             FrameSource.from_frame("b", frame)])
        srv.start()
        try:
            for path in DATA_PATHS:
                sep = "&" if "?" in path else "?"
                answers = {}
                for name in ("a", "b"):
                    response, payload = _request(
                        srv, "GET", f"{path}{sep}frame={name}")
                    assert response.status == 200, payload[:200]
                    answers[name] = (response.getheader("ETag"), payload)
                assert answers["a"][0] != answers["b"][0], path
                response, payload = _request(
                    srv, "GET", f"{path}{sep}frame=b",
                    headers={"If-None-Match": answers["a"][0]})
                assert response.status == 200 and payload == answers["b"][1]
        finally:
            srv.stop()

    def test_bodies_are_the_dialect_of_the_in_process_answers(self, served):
        srv, _ = served
        frame = ResultFrame.from_results(make_rows())
        prepared = frame.replicate_baselines().derived().ok()
        envelope = {"frame": "sweep", "fingerprint": frame.fingerprint(),
                    "generation": 1}
        curves = prepared.tradeoff_curves(group="strategy", x="compression",
                                          y="top1")
        frontier = prepared.pareto_frontier(x="compression", y="top1")
        expected = {
            "/report": report_to_json(build_report(frame)),
            "/summary?by=strategy": {**envelope, **compile_query(
                {"aggregate": {"by": ["strategy"], "stats": ["mean", "std"]}}
            ).apply(prepared)},
            "/curves": {**envelope, "group": "strategy", "x": "compression",
                        "y": "top1", "curves": {
                            str(k): [{"x": p.x, "mean": p.mean, "std": p.std,
                                      "n": p.n} for p in points]
                            for k, points in curves.items()}},
            "/pareto?limit=2": {**envelope, "x": "compression", "y": "top1",
                                **compile_query({"limit": 2}).apply(frontier)},
            DATA_PATHS[-1]: {**envelope,
                             **run_query(frame, {"group_by": "strategy"})},
        }
        assert set(expected) == set(DATA_PATHS)
        for path, doc in expected.items():
            for _ in range(2):  # built, then from the memo
                response, payload = _request(srv, "GET", path)
                assert response.status == 200
                assert payload == json.dumps(
                    doc, indent=1, default=float).encode(), path


class TestBodyMemo:
    #: the builder one fresh body of each memoized route calls once
    BUILDERS = {"/report": "build_report", "/summary": "apply",
                "/curves": "tradeoff_curves", "/pareto": "pareto_frontier"}

    def test_identical_gets_build_once_and_a_reload_builds_again(
            self, tmp_path, builds):
        path = tmp_path / "results.json"
        ResultSet(make_rows()).save(path)
        source = FrameSource("sweep", path)
        srv = ResultsServer([source])
        srv.start()
        try:
            for generation in (1, 2):
                for route, builder in self.BUILDERS.items():
                    before = builds[builder]
                    bodies = {_request(srv, "GET", route)[1]
                              for _ in range(4)}
                    assert len(bodies) == 1
                    assert builds[builder] == before + 1, (route, generation)
                before = builds["apply"]
                for _ in range(3):  # /query is built per request
                    _request(srv, "GET", DATA_PATHS[-1])
                assert builds["apply"] == before + 3
                ResultSet(make_rows(seeds=(0, 1, 2))).save(path)
                assert source.maybe_reload()
        finally:
            srv.stop()

    def test_concurrent_cold_reports_build_once(self, served, monkeypatch):
        from repro.serve import server as server_mod

        srv, _ = served
        calls = []
        original = server_mod.build_report

        def slow_build(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # every other request arrives mid-build
            return original(*args, **kwargs)

        monkeypatch.setattr(server_mod, "build_report", slow_build)
        start = threading.Barrier(8)
        answers, errors = [], []

        def client():
            try:
                start.wait(timeout=10)
                response, payload = _request(srv, "GET", "/report")
                answers.append((response.status, payload))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(calls) == 1
        assert len(answers) == 8 and len(set(answers)) == 1
        assert answers[0][0] == 200

    def test_memo_holds_at_most_its_bound(self, served, builds):
        from repro.serve.server import BODY_MEMO_SIZE

        srv, source = served
        paths = [f"/pareto?limit={k}" for k in range(1, BODY_MEMO_SIZE + 6)]
        for path in paths:
            assert _request(srv, "GET", path)[0].status == 200
            assert len(source.snapshot().bodies) <= BODY_MEMO_SIZE
        assert len(source.snapshot().bodies) == BODY_MEMO_SIZE
        before = builds["pareto_frontier"]
        _request(srv, "GET", paths[-1])  # recent: still memoized
        assert builds["pareto_frontier"] == before
        _request(srv, "GET", paths[0])  # least recent: evicted, rebuilt
        assert builds["pareto_frontier"] == before + 1


# ---------------------------------------------------------------------------
# concurrent reads during background reload (no torn responses)
# ---------------------------------------------------------------------------

class TestConcurrentReload:
    N_READERS = 4

    def test_outstanding_never_counts_a_claimed_cell_twice(
            self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(_spec("global_weight", 2.0, 0))
        real_glob = Path.glob
        claims = []

        def glob_then_claim(self, pattern):
            matches = list(real_glob(self, pattern))
            if not claims:  # a worker claims between the two counts
                claims.append(queue.claim("racer"))
            return iter(matches)

        monkeypatch.setattr(Path, "glob", glob_then_claim)
        counts = queue_outstanding(queue.root)
        assert claims[0] is not None
        assert counts["pending"] + counts["leased"] <= 1, counts

    def test_readers_see_whole_generations_only(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(queue.root / "cache")
        phase1 = make_rows(seeds=(0,))
        phase2 = make_rows(seeds=(1,))
        for row in phase1:
            _complete_cell(queue, cache, row)

        query = {"sort": ["strategy", "compression", "seed"]}
        valid_rows, valid_reports = [], []

        def whitelist():
            # the generation on disk now, reported the way the server and
            # `repro report` report a queue: with its outstanding counts
            frame = ResultFrame.from_queue(queue.root)
            valid_rows.append(run_query(frame, query)["rows"])
            valid_reports.append(json.loads(report_json_text(build_report(
                frame, outstanding=queue_outstanding(queue.root)))))

        whitelist()

        srv = ResultsServer([FrameSource("q", queue.root)],
                            reload_interval=0.05)
        srv.start()
        stop = threading.Event()
        observed_rows, observed_reports, errors = [], [], []

        def reader():
            conn = http.client.HTTPConnection(srv.host, srv.port)
            try:
                while not stop.is_set():
                    conn.request("POST", "/query", body=json.dumps(query))
                    response = conn.getresponse()
                    payload = response.read()
                    if response.status != 200:
                        errors.append(payload)
                        continue
                    observed_rows.append(json.loads(payload)["rows"])
                    conn.request("GET", "/report")
                    response = conn.getresponse()
                    payload = response.read()
                    if response.status != 200:
                        errors.append(payload)
                        continue
                    observed_reports.append(json.loads(payload))
            except Exception as exc:  # noqa: BLE001 - surfaced via errors
                errors.append(repr(exc).encode())
            finally:
                conn.close()

        threads = [threading.Thread(target=reader)
                   for _ in range(self.N_READERS)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.15)
            # grow the queue mid-flight: workers publish a second seed one
            # cell at a time, so EVERY on-disk state along the way — a cell
            # pending, leased, cached, done — is a legitimate generation
            # the reloader may capture; whitelist each
            for row in phase2:
                _complete_cell(queue, cache, row, observe=whitelist)
            # keep reading until the server demonstrably serves the final
            # (fully drained) generation
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if any(r == valid_rows[-1] for r in observed_rows):
                    break
                time.sleep(0.05)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            srv.stop()

        assert not errors, errors[:3]
        assert observed_rows and observed_reports
        # every response equals SOME whole generation, point for point —
        # never a mixture of generations and never a torn page
        for rows in observed_rows:
            assert rows in valid_rows
        for report in observed_reports:
            assert report in valid_reports
        # and the final generation was actually observed (reload happened)
        assert any(r == valid_rows[-1] for r in observed_rows)


# ---------------------------------------------------------------------------
# the serve CLI (subprocess: port auto-assign + clean SIGTERM shutdown)
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_serve_subprocess_sigterm_clean_exit(self, tmp_path):
        results = tmp_path / "results.json"
        ResultSet(make_rows()).save(results)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(results),
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "serving 1 frame(s) on http://" in line
            url = line.strip().rsplit(" ", 1)[-1]
            from urllib.request import urlopen

            with urlopen(f"{url}/healthz", timeout=10) as response:
                doc = json.loads(response.read())
            assert doc["status"] == "ok"
            assert doc["frames"][0]["kind"] == "results"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_serve_bad_source_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.json"),
                     "--port", "0"]) == 2
        assert "no results at" in capsys.readouterr().err
