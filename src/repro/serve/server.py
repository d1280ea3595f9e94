"""The results service: load sweeps once, serve reads to many clients.

``python -m repro report`` re-parses its source on every invocation; fine
for one reader, wrong for many.  :class:`ResultsServer` is the
build-artifacts-once / serve-cheap-reads-to-many shape: each source
(``results.json``, result-cache dir, or work-queue dir — anything
:func:`~repro.analysis.frame.load_frame` sniffs) is loaded into a
:class:`~repro.analysis.frame.ResultFrame` once, snapshotted immutably,
and served over plain stdlib HTTP (``ThreadingHTTPServer`` — no new
dependencies) to any number of concurrent readers.

Endpoints (all JSON; schema documented in ``docs/FORMATS.md``):

==============  ===========================================================
``/healthz``    liveness + per-endpoint request metrics + per-source
                pending/leased accounting (partial sweeps are visible here,
                not just on stderr)
``/frames``     loaded sources: name, kind, rows, columns, fingerprint
``/report``     the §6 standard report — byte-identical JSON to
                ``python -m repro report --json -`` on the same source
``/curves``     per-group tradeoff curves (``group``/``x``/``y`` params)
``/pareto``     Pareto-dominant rows on (``x``, ``y``)
``/summary``    grouped aggregation (``by``/``values``/``stats`` params)
``/query``      the JSON query language (:mod:`repro.analysis.query`):
                ``POST`` a document, or ``GET`` with ``?q=<json>``
``/fleet``      queue-dir sources only: live queue stats, the launched
                fleet's worker roster (PID liveness), the batch plan, and
                with ``?audit=1`` a full done-vs-cache verify pass
==============  ===========================================================

Consistency and caching model
-----------------------------
* **Snapshots.**  A loaded source is an immutable :class:`Snapshot`
  (frame + content fingerprint + outstanding counts).  Handlers grab the
  current snapshot reference once per request, so a concurrent reload can
  never tear a response: every response is computed entirely against one
  generation, and carries that generation's ``fingerprint`` so clients
  paginating across requests can detect a generation change.
* **ETags.**  Every data response carries a strong ``ETag`` derived from
  the source name, the snapshot fingerprint (itself content-addressed over
  the frame — see :meth:`ResultFrame.fingerprint`), its outstanding counts
  and the canonicalized request — never from the body, so it is known
  before the body is built.  An ``If-None-Match`` holding it (compared
  weakly, so ``W/"..."`` matches too) answers ``304 Not Modified`` with no
  body and nothing built: polling costs almost nothing on every route
  while a source is unchanged.
* **Bodies.**  A snapshot memoizes the 200 bodies of ``/report``,
  ``/summary``, ``/curves`` and ``/pareto`` by ETag (at most
  :data:`BODY_MEMO_SIZE`), building each once however many requests ask at
  once.  ``/query`` bodies are built per request: any filter can be sent,
  and a select can return every row.
* **Reload.**  With ``reload_interval > 0`` a daemon thread polls each
  path-backed source's mtime signature and atomically swaps in a fresh
  snapshot when it changes — a queue directory still being drained by
  workers converges to the finished sweep without a restart.  A reload
  that fails (e.g. a torn mid-write file) keeps the previous snapshot and
  counts a ``reload_errors``.

In-process use (tests, benchmarks, notebooks)::

    server = ResultsServer([FrameSource("sweep", "results.json")])
    server.start()                      # binds, serves on a daemon thread
    ... http.client against server.host:server.port ...
    server.stop()
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)
from urllib.parse import parse_qsl, urlsplit

from ..analysis.frame import (
    ResultFrame,
    is_queue_dir,
    load_frame,
    queue_outstanding,
)
from ..analysis.query import Query, QueryError, compile_query
from ..analysis.report import build_report, report_json_text
from ..utils import BoundedMemo, json_text

__all__ = ["SERVE_SCHEMA_VERSION", "BODY_MEMO_SIZE", "FrameSource",
           "ResultsServer"]

#: bump when endpoint response layouts change incompatibly (also an ETag
#: ingredient, so clients never 304-cache across schema changes)
SERVE_SCHEMA_VERSION = 1

#: quality metrics the report/curve endpoints accept for ``y``
_Y_METRICS = ("top1", "top5")

#: largest accepted ``POST /query`` body; queries are small documents
_MAX_BODY_BYTES = 1 << 20

#: 200 bodies a snapshot memoizes.  A dashboard polls a handful of views
#: of a source, and an entry can never be stale (it names one generation's
#: body), so the bound only caps what clients that vary their parameters
#: can pin: a /report body is ~5 MB at 50k rows.
BODY_MEMO_SIZE = 16


class Snapshot:
    """One immutable loaded generation of a source.

    Everything a handler needs is reachable from here, so a request that
    holds a snapshot is isolated from concurrent reloads.  Derived
    artifacts (the replicated frame, the 200 bodies by ETag) are computed
    lazily once and cached — many readers, one build.  Every report-shaped
    endpoint reads the one replicated frame, so a generation replicates
    its baselines once and factorizes each grouping column once.
    """

    def __init__(
        self,
        frame: ResultFrame,
        generation: int,
        outstanding: Optional[Dict[str, int]] = None,
        fingerprint: Optional[str] = None,
        store=None,
        store_manifest: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.frame = frame
        self.generation = generation
        self.outstanding = {"pending": 0, "leased": 0}
        self.outstanding.update(outstanding or {})
        # binary-store sources pass the manifest fingerprint: same
        # changes-iff-data-changed contract, without re-hashing a
        # million-row frame on every reload
        self.fingerprint = fingerprint if fingerprint else frame.fingerprint()
        # store-backed snapshots keep the handle + the manifest generation
        # they were loaded from, so /query can push filters down to
        # segment level instead of scanning self.frame
        self.store = store
        self.store_manifest = store_manifest
        self._lock = threading.Lock()
        self._replicated: Optional[ResultFrame] = None
        self._prepared: Optional[ResultFrame] = None
        #: 200 bodies by ETag (see :meth:`ResultsServer.dispatch`)
        self.bodies = BoundedMemo(BODY_MEMO_SIZE)

    def _replicated_frame(self) -> ResultFrame:
        # caller holds self._lock
        if self._replicated is None:
            self._replicated = self.frame.replicate_baselines().derived()
        return self._replicated

    def prepared(self) -> ResultFrame:
        """Report-shaped rows: baselines replicated, derived columns,
        quarantined cells dropped — what /curves, /summary and /pareto
        serve (the same preparation ``build_report`` applies)."""
        with self._lock:
            if self._prepared is None:
                self._prepared = self._replicated_frame().ok()
            return self._prepared

    def report_text(self, y: str) -> str:
        """The §6 report JSON for this generation, from the snapshot's own
        rows; byte-identical to ``python -m repro report --json -``."""
        with self._lock:
            replicated = self._replicated_frame()
        return report_json_text(build_report(
            replicated, y=y, outstanding=self.outstanding))


class FrameSource:
    """One served source: a path (reloadable) or an in-memory frame.

    ``load()`` builds a fresh :class:`Snapshot`; ``maybe_reload()`` does so
    only when the path's mtime signature changed since the last load.
    ``snapshot()`` is the lock-free read path handlers use.
    """

    def __init__(
        self,
        name: str,
        path=None,
        cache_dir=None,
        frame: Optional[ResultFrame] = None,
    ) -> None:
        if (path is None) == (frame is None):
            raise ValueError("FrameSource needs exactly one of path/frame")
        self.name = name
        self.path = Path(path) if path is not None else None
        self.cache_dir = cache_dir
        self._memory_frame = frame
        self._snapshot: Optional[Snapshot] = None
        self._signature_loaded: Any = None
        self._generation = 0
        self.reloads = 0
        self.reload_errors = 0
        self._load_lock = threading.Lock()

    @classmethod
    def from_frame(cls, name: str, frame: ResultFrame) -> "FrameSource":
        """An in-memory source (benchmarks, tests); never reloads."""
        return cls(name, frame=frame)

    @property
    def kind(self) -> str:
        from ..store import is_store_dir

        if self.path is None:
            return "memory"
        if self.path.is_file():
            return "results"
        if self.path.is_dir() and is_queue_dir(self.path):
            return "queue"
        if self.path.is_dir() and is_store_dir(self.path):
            return "store"
        return "cache"

    # -- change detection ------------------------------------------------
    def _signature(self) -> Any:
        """Cheap mtime-based change token for the source's path.

        Directory mtimes change when entries are renamed in or unlinked
        (how the cache and queue publish state on POSIX), so statting the
        state/shard directories — not walking every entry — is enough to
        notice new rows.
        """
        if self.path is None:
            return None
        entries: List[Tuple[str, int, int]] = []

        def stat(p: Path) -> None:
            try:
                st = p.stat()
                entries.append((str(p), st.st_mtime_ns, st.st_size))
            except OSError:
                pass

        if self.path.is_file():
            stat(self.path)
            return tuple(entries)
        from ..store import is_store_dir

        if self.path.is_dir() and is_store_dir(self.path):
            # the manifest is rewritten atomically on every append/compact,
            # so its (mtime, size) alone is the store's change token
            stat(self.path / "manifest.json")
            return tuple(entries)
        cache_root = self.path
        if self.path.is_dir() and is_queue_dir(self.path):
            for sub in ("pending", "leased", "done", "failed"):
                stat(self.path / sub)
            stat(self.path / "queue.json")
            cache_root = Path(self.cache_dir) if self.cache_dir \
                else self.path / "cache"
        stat(cache_root)
        try:
            shards = sorted(cache_root.iterdir())
        except OSError:
            shards = []
        for shard in shards:
            if shard.is_dir():
                stat(shard)
        return tuple(entries)

    # -- loading ---------------------------------------------------------
    def load(self) -> Snapshot:
        """(Re)load the source into a fresh snapshot and swap it in."""
        with self._load_lock:
            # capture the signature BEFORE reading: a write landing during
            # the load re-triggers on the next poll instead of being missed
            signature = self._signature()
            fingerprint = None
            store = manifest = None
            if self.path is None:
                frame = self._memory_frame
                outstanding = {"pending": 0, "leased": 0}
            elif self.kind == "store":
                from ..store import ColumnStore

                # keep the handle + this generation's manifest so handlers
                # can push queries down to segment level (one manifest read
                # per load: fingerprint, frame, and planner all share it)
                store = ColumnStore(self.path)
                manifest = store._require_manifest()
                frame = store.to_frame(manifest=manifest)
                outstanding = queue_outstanding(self.path)
                fingerprint = manifest["fingerprint"]
            else:
                frame = load_frame(self.path, cache_dir=self.cache_dir)
                outstanding = queue_outstanding(self.path)
            self._generation += 1
            snapshot = Snapshot(
                frame, self._generation, outstanding,
                fingerprint=fingerprint, store=store, store_manifest=manifest,
            )
            self._signature_loaded = signature
            self._snapshot = snapshot  # atomic ref swap: readers never block
            return snapshot

    def maybe_reload(self) -> bool:
        """Reload iff the mtime signature moved; never drops a good
        snapshot on a failed reload (the error is counted instead)."""
        if self.path is None:
            return False
        if self._signature() == self._signature_loaded:
            return False
        try:
            self.load()
            self.reloads += 1
            return True
        except Exception:
            self.reload_errors += 1
            self._signature_loaded = self._signature()  # don't retry-spin
            return False

    def snapshot(self) -> Snapshot:
        snapshot = self._snapshot
        if snapshot is None:
            return self.load()
        return snapshot

    def describe(self, columns: bool = False) -> Dict[str, Any]:
        """The /frames (and /healthz) entry for this source."""
        snapshot = self.snapshot()
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "path": str(self.path) if self.path is not None else None,
            "rows": len(snapshot.frame),
            "generation": snapshot.generation,
            "fingerprint": snapshot.fingerprint,
            "outstanding": dict(snapshot.outstanding),
            "reloads": self.reloads,
            "reload_errors": self.reload_errors,
        }
        if columns:
            out["columns"] = snapshot.frame.columns
        return out


class _Metrics:
    """Per-endpoint request counters surfaced at /healthz."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_route: Dict[str, Dict[str, float]] = {}

    def record(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            entry = self._by_route.setdefault(route, {
                "requests": 0, "errors": 0, "not_modified": 0,
                "total_seconds": 0.0,
            })
            entry["requests"] += 1
            if status >= 400:
                entry["errors"] += 1
            if status == 304:
                entry["not_modified"] += 1
            entry["total_seconds"] += seconds

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            out = {}
            for route, entry in sorted(self._by_route.items()):
                requests = int(entry["requests"])
                out[route] = {
                    "requests": requests,
                    "errors": int(entry["errors"]),
                    "not_modified": int(entry["not_modified"]),
                    "total_seconds": entry["total_seconds"],
                    "avg_ms": (entry["total_seconds"] / requests * 1e3
                               if requests else 0.0),
                }
            return out


class _HTTPError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Response:
    __slots__ = ("status", "text", "etag")

    def __init__(self, status: int, text: str, etag: Optional[str] = None):
        self.status = status
        self.text = text
        self.etag = etag


def _error(status: int, message: str) -> _Response:
    return _Response(status, json_text({"error": message, "status": status}))


class _Plan(NamedTuple):
    """A validated data request: its ETag, how to build its body, and
    whether the snapshot memoizes that body."""

    snapshot: Snapshot
    etag: str
    build: Callable[[], str]
    memo: bool = True


def _entity_tags(if_none_match: Optional[str]) -> List[str]:
    """The tags of an ``If-None-Match`` header, ready for the weak
    comparison RFC 9110 §13.1.2 asks of it: ``W/`` prefixes dropped."""
    tags = [tag.strip() for tag in (if_none_match or "").split(",")]
    return [tag[2:] if tag.startswith("W/") else tag for tag in tags]


def _int_param(params: Dict[str, str], key: str, minimum: int) -> Optional[int]:
    if key not in params:
        return None
    try:
        value = int(params[key])
    except ValueError:
        raise _HTTPError(400, f"{key!r} must be an integer, "
                              f"got {params[key]!r}") from None
    if value < minimum:
        raise _HTTPError(400, f"{key!r} must be >= {minimum}, got {value}")
    return value


def _name_list_param(params: Dict[str, str], key: str) -> Optional[List[str]]:
    if key not in params:
        return None
    names = [part for part in params[key].split(",") if part]
    if not names:
        raise _HTTPError(400, f"{key!r} must be a comma-separated list of "
                              "column names")
    return names


class ResultsServer:
    """The long-running results service (see module docstring)."""

    def __init__(
        self,
        sources: Sequence[FrameSource],
        host: str = "127.0.0.1",
        port: int = 0,
        reload_interval: float = 0.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not sources:
            raise ValueError("ResultsServer needs at least one source")
        names = [s.name for s in sources]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate source name(s): {sorted(dupes)}")
        if reload_interval < 0:
            raise ValueError(
                f"reload_interval must be >= 0, got {reload_interval}"
            )
        self.sources: Dict[str, FrameSource] = {s.name: s for s in sources}
        self.host = host
        self._requested_port = port
        self.reload_interval = reload_interval
        self.log = log
        self.metrics = _Metrics()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._reload_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started_at: Optional[float] = None

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _bind(self) -> None:
        for source in self.sources.values():
            source.load()  # fail fast on bad sources, before binding
        app = self

        class _BoundHandler(_Handler):
            server_app = app

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _BoundHandler
        )
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()

    def start(self) -> None:
        """Bind and serve on daemon threads (the in-process entry point)."""
        self._bind()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()
        self._start_reloader()

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (the CLI entry point)."""
        self._bind()
        self._start_reloader()
        if self.log:
            self.log(f"serving {len(self.sources)} frame(s) on {self.url}")
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def _start_reloader(self) -> None:
        if self.reload_interval <= 0:
            return

        def poll() -> None:
            while not self._stop_event.wait(self.reload_interval):
                for source in self.sources.values():
                    if source.maybe_reload() and self.log:
                        snap = source.snapshot()
                        self.log(
                            f"reloaded {source.name!r}: {len(snap.frame)} "
                            f"rows (generation {snap.generation})"
                        )

        self._reload_thread = threading.Thread(
            target=poll, name="repro-serve-reload", daemon=True
        )
        self._reload_thread.start()

    def stop(self) -> None:
        """Idempotent clean shutdown: reloader first, then the listener."""
        self._stop_event.set()
        if self._reload_thread is not None:
            self._reload_thread.join(timeout=5.0)
            self._reload_thread = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    # -- request handling ------------------------------------------------
    def _source(self, name: Optional[str]) -> FrameSource:
        if name is None:
            if len(self.sources) == 1:
                return next(iter(self.sources.values()))
            raise _HTTPError(
                400,
                f"several frames are loaded — pick one with 'frame': "
                f"{sorted(self.sources)}",
            )
        try:
            return self.sources[name]
        except KeyError:
            raise _HTTPError(
                404, f"no frame named {name!r}; loaded: {sorted(self.sources)}"
            ) from None

    def _check_params(self, params: Dict[str, str], allowed: Sequence[str]):
        unknown = set(params) - set(allowed)
        if unknown:
            raise _HTTPError(
                400, f"unknown parameter(s) {sorted(unknown)}; "
                     f"expected a subset of {sorted(allowed)}"
            )

    def _etag(self, source: FrameSource, snapshot: Snapshot, route: str,
              canonical: Any, enveloped: bool = True) -> str:
        """A strong tag naming exactly one body: the source and generation
        content it is built from, the route and the canonical request.
        An ``enveloped`` body names its snapshot's generation, so a reload
        of the same rows changes its tag; ``/report``'s body does not."""
        material = [
            SERVE_SCHEMA_VERSION, source.name, snapshot.fingerprint,
            snapshot.outstanding, route, canonical,
        ]
        if enveloped:
            material.append(snapshot.generation)
        text = json.dumps(material, sort_keys=True)
        return '"' + hashlib.sha256(text.encode()).hexdigest()[:32] + '"'

    def _envelope(self, source: FrameSource, snapshot: Snapshot,
                  payload: Dict[str, Any]) -> Dict[str, Any]:
        out = {
            "frame": source.name,
            "fingerprint": snapshot.fingerprint,
            "generation": snapshot.generation,
        }
        out.update(payload)
        return out

    def dispatch(self, method: str, route: str, params: Dict[str, str],
                 body: bytes, if_none_match: Optional[str] = None
                 ) -> _Response:
        """Route one request to its endpoint → (status, JSON text, ETag).

        A data request is validated and its ETag computed before anything
        is built.  An ``If-None-Match`` tag equal to it answers 304 with
        nothing built; ``*`` answers 304 once the body could be built.
        """
        try:
            if route == "/healthz":
                return self._get_only(method, self._handle_healthz, params)
            if route == "/frames":
                return self._get_only(method, self._handle_frames, params)
            if route == "/fleet":
                return self._get_only(method, self._handle_fleet, params)
            planners = {"/report": self._plan_report,
                        "/curves": self._plan_curves,
                        "/pareto": self._plan_pareto,
                        "/summary": self._plan_summary}
            if route == "/query":
                plan = self._plan_query(method, params, body)
            elif route in planners:
                plan = self._get_only(method, planners[route], params)
            else:
                raise _HTTPError(
                    404,
                    f"unknown endpoint {route!r}; try /healthz /frames "
                    "/report /curves /pareto /summary /query /fleet",
                )
            tags = _entity_tags(if_none_match)
            if plan.etag not in tags:
                text = plan.snapshot.bodies.get(plan.etag, plan.build) \
                    if plan.memo else plan.build()
                if "*" not in tags:
                    return _Response(200, text, plan.etag)
            return _Response(304, "", plan.etag)
        except QueryError as exc:
            return _error(400, str(exc))
        except KeyError as exc:
            # a frame-shape mismatch (e.g. /report on a frame without the
            # sweep columns) is the client's request, not a server bug
            detail = exc.args[0] if exc.args else str(exc)
            return _error(400, f"cannot answer against this frame: {detail}")
        except _HTTPError as exc:
            return _error(exc.status, str(exc))

    def _get_only(self, method: str, handler, params):
        if method not in ("GET", "HEAD"):
            raise _HTTPError(405, "method not allowed (use GET)")
        return handler(params)

    def _handle_healthz(self, params: Dict[str, str]) -> _Response:
        self._check_params(params, ())
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        payload = {
            "status": "ok",
            "schema": SERVE_SCHEMA_VERSION,
            "uptime_seconds": uptime,
            "reload_interval": self.reload_interval,
            "frames": [s.describe() for s in self.sources.values()],
            "metrics": self.metrics.to_dict(),
        }
        return _Response(200, json_text(payload))

    def _handle_fleet(self, params: Dict[str, str]) -> _Response:
        """Live fleet health for a queue-dir source: queue stats, the
        launched-worker roster with local PID liveness, the batch plan
        summary, and (``?audit=1``) a full verify pass.

        Always read fresh from disk and served without an ETag — fleet
        health is exactly the thing that changes between identical
        snapshots of the result rows.
        """
        self._check_params(params, ("frame", "audit"))
        source = self._source(params.get("frame"))
        if source.kind != "queue":
            raise _HTTPError(
                400,
                f"frame {source.name!r} is a {source.kind} source; /fleet "
                "reports on work-queue directories only",
            )
        from ..experiment.queue import WorkQueue
        from ..fleet import (
            read_batch_manifest,
            read_fleet_manifest,
            verify_fleet,
            worker_alive,
        )

        payload: Dict[str, Any] = {
            "schema": SERVE_SCHEMA_VERSION,
            "frame": source.name,
            "queue": WorkQueue(source.path).stats(),
        }
        manifest = read_fleet_manifest(source.path)
        if manifest is not None:
            payload["fleet"] = {
                "launches": manifest.get("launches"),
                "updated_at": manifest.get("updated_at"),
                "workers": [
                    {
                        "worker_id": w.get("worker_id"),
                        "host": w.get("host"),
                        "launcher": w.get("launcher"),
                        "pid": w.get("pid"),
                        "launch": w.get("launch"),
                        # PID probe is only meaningful on the launcher's
                        # machine; None = unknown (e.g. remote pid)
                        "alive": worker_alive(w),
                    }
                    for w in manifest.get("workers", [])
                ],
            }
        plan = read_batch_manifest(source.path)
        if plan is not None:
            payload["plan"] = {
                "config_hash": plan.get("config_hash"),
                "batch_size": plan.get("batch_size"),
                "n_cells": plan.get("n_cells"),
                "batches": len(plan.get("batches", [])),
                "created_at": plan.get("created_at"),
            }
        if params.get("audit", "") not in ("", "0", "false", "no"):
            audit, _ = verify_fleet(source.path, cache_dir=source.cache_dir)
            payload["audit"] = audit.to_dict()
        return _Response(200, json_text(payload))

    def _handle_frames(self, params: Dict[str, str]) -> _Response:
        self._check_params(params, ())
        payload = {
            "schema": SERVE_SCHEMA_VERSION,
            "frames": [s.describe(columns=True)
                       for s in self.sources.values()],
        }
        return _Response(200, json_text(payload))

    @staticmethod
    def _check_columns(frame: ResultFrame, names: Sequence[str]) -> None:
        for name in names:
            if len(frame) and name not in frame:
                raise _HTTPError(400, f"unknown column {name!r}; "
                                      f"available: {frame.columns}")

    def _plan_report(self, params: Dict[str, str]) -> _Plan:
        self._check_params(params, ("frame", "y"))
        y = params.get("y", "top1")
        if y not in _Y_METRICS:
            raise _HTTPError(400, f"'y' must be one of {list(_Y_METRICS)}, "
                                  f"got {y!r}")
        source = self._source(params.get("frame"))
        snapshot = source.snapshot()
        return _Plan(snapshot, self._etag(source, snapshot, "/report",
                                          {"y": y}, enveloped=False),
                     lambda: snapshot.report_text(y))

    def _plan_curves(self, params: Dict[str, str]) -> _Plan:
        self._check_params(params, ("frame", "group", "x", "y"))
        source = self._source(params.get("frame"))
        snapshot = source.snapshot()
        group = params.get("group", "strategy")
        x = params.get("x", "compression")
        y = params.get("y", "top1")

        def build() -> str:
            prepared = snapshot.prepared()
            self._check_columns(prepared, (group, x, y))
            curves = prepared.tradeoff_curves(group=group, x=x, y=y)
            return json_text(self._envelope(source, snapshot, {
                "group": group, "x": x, "y": y,
                "curves": {
                    str(key): [
                        {"x": p.x, "mean": p.mean, "std": p.std, "n": p.n}
                        for p in points
                    ]
                    for key, points in curves.items()
                },
            }))

        canonical = {"group": group, "x": x, "y": y}
        return _Plan(snapshot,
                     self._etag(source, snapshot, "/curves", canonical), build)

    def _plan_pareto(self, params: Dict[str, str]) -> _Plan:
        self._check_params(params, ("frame", "x", "y", "limit", "offset"))
        source = self._source(params.get("frame"))
        snapshot = source.snapshot()
        x = params.get("x", "compression")
        y = params.get("y", "top1")
        limit = _int_param(params, "limit", 1)
        offset = _int_param(params, "offset", 0) or 0

        def build() -> str:
            prepared = snapshot.prepared()
            self._check_columns(prepared, (x, y))
            frontier = prepared.pareto_frontier(x=x, y=y) if len(prepared) \
                else prepared
            page = Query(limit=limit, offset=offset).apply(frontier)
            return json_text(self._envelope(source, snapshot,
                                            {"x": x, "y": y, **page}))

        canonical = {"x": x, "y": y, "limit": limit, "offset": offset}
        return _Plan(snapshot,
                     self._etag(source, snapshot, "/pareto", canonical), build)

    def _plan_summary(self, params: Dict[str, str]) -> _Plan:
        self._check_params(
            params, ("frame", "by", "values", "stats", "limit", "offset")
        )
        source = self._source(params.get("frame"))
        snapshot = source.snapshot()
        by = _name_list_param(params, "by") or ["strategy", "compression"]
        values = _name_list_param(params, "values")
        stats = _name_list_param(params, "stats") or ["mean", "std"]
        limit = _int_param(params, "limit", 1)
        offset = _int_param(params, "offset", 0) or 0
        aggregate: Dict[str, Any] = {"by": by, "stats": stats}
        if values is not None:
            aggregate["values"] = values
        query = compile_query({"aggregate": aggregate,
                               **({"limit": limit} if limit else {}),
                               "offset": offset})
        return _Plan(
            snapshot,
            self._etag(source, snapshot, "/summary", query.canonical()),
            lambda: json_text(self._envelope(
                source, snapshot, query.apply(snapshot.prepared()))),
        )

    def _plan_query(self, method: str, params: Dict[str, str],
                    body: bytes) -> _Plan:
        if method in ("GET", "HEAD"):
            self._check_params(params, ("frame", "q"))
            if "q" not in params:
                raise _HTTPError(
                    400, "GET /query needs ?q=<json document> "
                         "(or POST the document as the request body)"
                )
            raw = params["q"]
        elif method == "POST":
            self._check_params(params, ("frame",))
            raw = body.decode("utf-8", errors="replace")
        else:
            raise _HTTPError(405, "method not allowed (use GET or POST)")
        try:
            spec = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"query is not valid JSON: {exc}") from None
        query = compile_query(spec)
        source = self._source(query.frame or params.get("frame"))
        snapshot = source.snapshot()

        def build() -> str:
            result = None
            if snapshot.store is not None:
                try:
                    # zone-map pushdown: skip segments the filter rules out
                    # and load only referenced columns.  QueryError
                    # propagates (it is identical on both paths by
                    # construction); a store torn by a racing compact falls
                    # back to the snapshot frame.
                    result = query.apply_store(
                        snapshot.store, manifest=snapshot.store_manifest
                    )
                except QueryError:
                    raise
                except (OSError, RuntimeError):
                    result = None
            if result is None:
                result = query.apply(snapshot.frame)
            return json_text(self._envelope(source, snapshot, result))

        # not memoized: any filter can be sent, and a select can return
        # every row
        return _Plan(snapshot,
                     self._etag(source, snapshot, "/query", query.canonical()),
                     build, memo=False)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing around :meth:`ResultsServer.dispatch`."""

    #: injected by :meth:`ResultsServer._bind` via subclassing
    server_app: ResultsServer = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"  # keep-alive: many reads per connection
    #: TCP_NODELAY on each accepted socket: a response's body must not
    #: wait for the client's delayed ACK of its header segment
    disable_nagle_algorithm = True

    # -- entry points ----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle("GET")

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle("HEAD")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    # -- plumbing --------------------------------------------------------
    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "request body too large")
        return self.rfile.read(length) if length else b""

    def _handle(self, method: str) -> None:
        app = self.server_app
        started = time.perf_counter()
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        try:
            params = dict(parse_qsl(split.query, keep_blank_values=True))
            body = self._read_body()
            response = app.dispatch(method, route, params, body,
                                    self.headers.get("If-None-Match"))
        except _HTTPError as exc:
            response = _error(exc.status, str(exc))
        except Exception as exc:  # a bug must not kill the thread silently
            response = _error(500, f"internal error: {exc}")
        status = response.status
        payload = response.text.encode("utf-8")
        # counted before a byte leaves, so a client that has read the
        # response finds it in /healthz
        app.metrics.record(route, status, time.perf_counter() - started)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if response.etag is not None:
            self.send_header("ETag", response.etag)
            self.send_header("Cache-Control", "no-cache")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if method != "HEAD" and status != 304:
            self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        log = self.server_app.log if self.server_app else None
        if log:
            log(f"{self.address_string()} {format % args}")
