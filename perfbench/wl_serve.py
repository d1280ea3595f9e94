"""serve_store: one keep-alive client against ResultsServer over a 50k-row store.

Set-up writes 50,000 keyed rows (``rowgen``, the fleet's layout with one
``__baseline__`` control per seed and model) in 8 segments and starts the
server on the store with reloads off.  The timed phase is a closed loop of one
client on one connection sending ``ROUNDS`` seeded shuffles of ``MIX``:
pushdown queries, summaries, curves, health and frame listings, ``/pareto``
(which fails: its n x n dominance matrix is far beyond the address-space cap
this workload sets), and ``If-None-Match`` polls.  After every fifth of the
requests but the last, a 1k-row keyed segment (half of it superseding
existing rows) is appended, ``FrameSource.maybe_reload`` is called and
``/report`` is fetched; that sequence is one ``refresh_s``.  An op is one
request.  The work is fixed rather than timed: each store generation makes
the first report-shaped request rebuild the prepared frame and each refresh
rebuilds the report, seconds each, so in a fixed time the count of the
cheaper requests would swing far more than the host's speed.  The sampled
``/query`` answers are checked after the timed phase, against the store as
it stood when each was answered.
"""

from __future__ import annotations

import http.client
import json
import resource
import statistics
import time

import numpy as np

import rowgen
from benchlib import Context, Outcome, Stopwatch, split_setups
from spans import END, NAME, OP, START

#: set-ups per run, two before the timed phase and two after the checks;
#: ``setup_s`` is their median
SETUP_REPEATS = 4
#: rows in the store.  With one control per seed, 100k rows make each
#: generation's rebuilds take about 6 s on a 2-core x86 VM and a run about
#: 65 s, too long to repeat twenty-odd runs of every workload within an
#: hour; 50k rows halve both.
N_ROWS = 50_000
SEGMENTS = 8
REFRESHES = 4
REFRESH_ROWS = 1000
#: headroom above the address space in use when the timed phase starts;
#: /pareto's first n x n boolean matrix (about 3.1 GiB over the prepared
#: 58k rows) must not fit
ADDRESS_HEADROOM = 1 << 30
#: one round of the request mix, shuffled with the seed: one request of
#: each kind, with no weights, because no record of how the server is used
#: says how often each kind is sent
MIX = ("query_select", "query_aggregate", "summary", "curves", "healthz",
       "frames", "pareto", "report_poll", "summary_poll", "curves_poll")
#: rounds of ``MIX`` per run; with the refreshes' /report, 204 requests
ROUNDS = 20
SELECT_COLUMNS = ["seed", "model", "compression", "actual_compression", "top1"]
ENVELOPE = ("frame", "fingerprint", "generation")


def _address_space_in_use() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize missing from /proc/self/status")


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=float)


class _Client:
    """One keep-alive connection; remembers the last ETag of each path."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.etags = {}

    def send(self, method: str, path: str, body=None, poll: bool = False):
        headers = {}
        sent_tag = self.etags.get(path) if poll else None
        if sent_tag is not None:
            headers["If-None-Match"] = sent_tag
        if body is not None:
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        latency = time.perf_counter() - t0
        etag = response.getheader("ETag")
        if response.status == 200 and etag is not None:
            self.etags[path] = etag
        return response.status, data, etag, sent_tag, latency

    def close(self) -> None:
        self.conn.close()


def _request(kind: str, rng: np.random.Generator, n_seeds: int):
    """(route, method, path, body document or None, poll?) for one op."""
    if kind == "query_select":
        seeds = sorted(int(s) for s in rng.choice(n_seeds, size=3, replace=False))
        doc = {"filter": {"seed": seeds,
                          "strategy": str(rng.choice(rowgen.STRATEGIES))},
               "columns": SELECT_COLUMNS, "sort": ["compression", "seed"]}
        return "query", "POST", "/query", doc, False
    if kind == "query_aggregate":
        doc = {"filter": {"compression": {"op": ">=",
                                          "value": float(rng.choice([4, 8, 16]))},
                          "model": str(rng.choice([m[0] for m in rowgen.MODELS]))},
               "aggregate": {"by": ["strategy", "compression"],
                             "values": ["top1", "actual_compression"],
                             "stats": ["mean", "std"]}}
        return "query", "POST", "/query", doc, False
    route = kind.split("_")[0]
    return route, "GET", "/" + route, None, kind.endswith("_poll")


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _segments(seed: int):
    """The store's generated rows as ``SEGMENTS`` (frame, keys) pairs."""
    from repro.analysis.frame import ResultFrame

    columns, keys = rowgen.make_rows(np.random.default_rng(seed), 0, N_ROWS)
    per = N_ROWS // SEGMENTS
    return [
        (ResultFrame({k: v[i * per:(i + 1) * per] for k, v in columns.items()}),
         keys[i * per:(i + 1) * per])
        for i in range(SEGMENTS)
    ]


def run(ctx: Context) -> Outcome:
    from repro.analysis.query import compile_query
    from repro.analysis.report import build_report, report_json_text
    from repro.analysis.frame import ResultFrame
    from repro.serve.server import FrameSource, ResultsServer
    from repro.store import ColumnStore

    out = Outcome()
    # the stored rows come from the seed itself; refreshes and requests from
    # a second stream, so the rows can be made again for the late set-ups
    rng = np.random.default_rng((ctx.seed, 1))
    refreshes = []
    for k in range(REFRESHES):
        old = int(rng.integers(0, N_ROWS - REFRESH_ROWS // 2))
        cols_a, keys_a = rowgen.make_rows(rng, old, REFRESH_ROWS // 2)
        cols_b, keys_b = rowgen.make_rows(
            rng, N_ROWS + k * (REFRESH_ROWS // 2), REFRESH_ROWS // 2)
        frame = ResultFrame({name: np.concatenate([cols_a[name], cols_b[name]])
                             for name in cols_a})
        refreshes.append((frame, keys_a + keys_b))

    def setup(rep: int, segments):
        store_dir = ctx.workdir / f"store-{rep}"
        t0 = time.perf_counter()
        store = ColumnStore(store_dir)
        for frame, seg_keys in segments:
            store.append_frame(frame, keys=seg_keys)
        source = FrameSource("sweep", store_dir)
        server = ResultsServer([source], reload_interval=0.0)
        server.start()
        out.setup_s.append(time.perf_counter() - t0)
        return store, source, server

    before, after = split_setups(SETUP_REPEATS)
    ctx.phase("setup")
    segments = _segments(ctx.seed)
    server = None
    for rep in before:
        if server is not None:
            server.stop()
        store, source, server = setup(rep, segments)
    # the generated rows are in the store now; keep them out of peak_rss_mb
    del segments

    limit = _address_space_in_use() + ADDRESS_HEADROOM
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    client = _Client(server.host, server.port)
    ops = []  # (route, status, latency, op id)
    problems = out.problems
    scan = {"selected": 0, "total": 0}
    # the first answer of each /query kind per store generation, checked
    # after the timed phase against the manifest current when it was given
    sampled = {}  # (generation, kind) -> (doc, payload)
    manifests = {}

    def op(route, method, path, doc=None, poll=False):
        body = json.dumps(doc).encode() if doc is not None else None
        op_id = ctx.begin_op("serve.transport")
        try:
            status, data, etag, sent, latency = client.send(method, path, body, poll)
        finally:
            ctx.end_op()
        ops.append((route, status, latency, op_id))
        with clock.exclude(), ctx.untraced():
            payload = None
            if status == 200:
                try:
                    payload = json.loads(data)
                except ValueError:
                    problems.append(f"{path}: 200 body is not JSON")
            if status == 304 and etag != sent:
                problems.append(f"{path}: 304 for If-None-Match {sent}, ETag {etag}")
            if status == 200 and sent is not None and etag == sent:
                problems.append(f"{path}: 200 although the ETag {etag} matched")
            if route == "query" and ctx.rec is not None:
                plan = store.scan_plan(where=doc["filter"])
                scan["selected"] += plan["segments_selected"]
                scan["total"] += plan["segments_total"]
        return status, payload

    refresh_s = []
    n_requests = ROUNDS * len(MIX)
    due = [n_requests * (k + 1) // (REFRESHES + 1) for k in range(REFRESHES)]
    n_seeds = N_ROWS // rowgen.CELLS_PER_SEED
    kinds = [str(k) for _ in range(ROUNDS) for k in rng.permutation(MIX)]

    ctx.phase("timed")
    clock = Stopwatch()
    try:
        for i, kind in enumerate(kinds):
            if refreshes and i == due[REFRESHES - len(refreshes)]:
                frame, seg_keys = refreshes.pop(0)
                t0 = time.perf_counter()
                store.append_frame(frame, keys=seg_keys)
                source.maybe_reload()
                reloaded = time.perf_counter() - t0
                op("report", "GET", "/report")
                refresh_s.append(reloaded + ops[-1][2])
            route, method, path, doc, poll = _request(kind, rng, n_seeds)
            status, payload = op(route, method, path, doc, poll)
            generation = REFRESHES - len(refreshes)
            if route == "query" and status == 200 and (generation, kind) not in sampled:
                sampled[generation, kind] = (doc, payload)
                with clock.exclude():
                    if generation not in manifests:
                        manifests[generation] = json.loads(
                            store.manifest_path.read_text())
        out.timed_s = clock.elapsed()

        ctx.phase("check")
        with ctx.untraced():
            frames = {}
            for (generation, _), (doc, payload) in sampled.items():
                if generation not in frames:
                    frames.clear()
                    frames[generation] = store.to_frame(
                        manifest=manifests[generation])
                expected = compile_query(doc).apply(frames[generation])
                got = {k: v for k, v in payload.items() if k not in ENVELOPE}
                if _canonical(got) != _canonical(expected):
                    problems.append(f"/query {json.dumps(doc)} differs from "
                                    "Query.apply(store.to_frame())")
            out.check(len(sampled) == 2 * (REFRESHES + 1),
                      f"only {len(sampled)} sampled /query checks ran")
            status, data, _, _, _ = client.send("GET", "/report")
            expected = report_json_text(build_report(store.to_frame()))
            out.check(status == 200 and data == expected.encode(),
                      "final /report differs from "
                      "report_json_text(build_report(store.to_frame()))")
            out.layer["store.segments"] = len(store.segments())
            out.layer["store.manifest_kb"] = \
                store.manifest_path.stat().st_size / 1024.0
    finally:
        client.close()
        server.stop()

    ctx.phase("setup")
    segments = _segments(ctx.seed)
    for rep in after:
        setup(rep, segments)[2].stop()
    del segments

    out.ops_s = [latency for _, _, latency, _ in ops]
    out.attempted = len(ops)
    out.failed = sum(1 for _, status, _, _ in ops if status >= 400)
    out.samples["refresh_s"] = (refresh_s, "s")
    out.info["pareto_errors"] = str(sum(
        1 for route, status, _, _ in ops if route == "pareto" and status >= 400))

    if ctx.rec is not None:
        dispatch = {}
        for span in ctx.rec.spans:
            if span[NAME] == "serve.dispatch" and span[OP] is not None:
                dispatch[span[OP]] = \
                    dispatch.get(span[OP], 0.0) + span[END] - span[START]
        for route in ("query", "summary", "curves", "report", "pareto", "healthz"):
            out.layer[f"serve.route.{route}.p50_ms"] = _median_ms(
                [lat for r, _, lat, _ in ops if r == route])
        out.layer["serve.transport_p50_ms"] = _median_ms(
            [lat - dispatch.get(i, 0.0) for _, _, lat, i in ops])
        # /report keeps its body per generation; a 304 on /summary or
        # /curves shows what answering a poll costs when nothing changed
        out.layer["serve.not_modified.dispatch_p50_ms"] = _median_ms(
            [dispatch.get(i, 0.0) for route, status, _, i in ops
             if status == 304 and route in ("summary", "curves")])
        out.layer["serve.errors"] = out.failed
        out.layer["store.scan.segments_selected"] = scan["selected"]
        out.layer["store.scan.segments_total"] = scan["total"]
    return out
