"""Durable work-queue executor: fault-tolerant multi-machine sweeps.

The experiment matrix is embarrassingly parallel and every cell is
content-addressed (:func:`~repro.experiment.cache.spec_hash`), so the only
missing piece for multi-machine fan-out is a *durable* queue: something
that survives worker crashes, re-runs abandoned cells, and gives up on
poison cells instead of hanging the sweep.  This module provides it with
nothing but a shared directory — NFS, sshfs, or a directory rsync'd between
machines all work, no broker required.

On-disk queue layout
--------------------
::

    <queue-dir>/
      queue.json            lease_timeout / max_retries, written at creation
      pending/<hash>.json   cells waiting to be claimed (spec + attempt log)
      leased/<hash>.json    claimed cells (payload moved here by rename)
      leased/<hash>.lease   lease sidecar: worker id; mtime = last heartbeat
      done/<hash>.json      finished cells (result row lives in the cache)
      failed/<hash>.json    quarantined poison cells (full failure log)

Each payload file holds ``{"schema": 1, "hash": ..., "spec": {...},
"attempts": n, "failures": [{"worker", "attempt", "error"}, ...]}`` — the
spec travels with the cell, so ``ExperimentSpec.from_dict`` is everything a
worker needs.  Results never pass through the queue: workers publish rows
via the shared :class:`~repro.experiment.cache.ResultCache` (by default
``<queue-dir>/cache``) *before* marking a cell done, so a visible ``done/``
marker guarantees a cache hit.

Claiming is a single ``os.rename`` of ``pending/<h>.json`` to
``leased/<h>.json``: rename is atomic on POSIX, and when two workers race
only one rename succeeds — the loser gets ``FileNotFoundError`` and moves
on, so a cell can never be double-claimed.  The winner then writes a
``.lease`` sidecar naming itself and touches it periodically (heartbeat).
Any party — submitter or worker — may call :meth:`WorkQueue.requeue_expired`
to recover cells whose lease went stale (worker crashed, machine lost):
the cell goes back to ``pending/`` with the failure logged, or to
``failed/`` once its retry budget (1 initial run + ``max_retries`` retries)
is exhausted.

Quickstart: the two-terminal flow
---------------------------------
Terminal A (submit; streams progress, assembles the final table)::

    python -m repro run sweep.json --executor queue --queue-dir /shared/q

Terminal B — and any number of other machines that see ``/shared/q`` —
(pull cells until the queue stays empty for 60 s)::

    python -m repro worker /shared/q --idle-timeout 60

Kill a worker mid-cell and nothing is lost: its lease expires, the cell is
re-enqueued, and another worker (or the submitter's own local worker
thread) finishes it.  A cell that *keeps* failing is quarantined after
``max_retries`` retries and surfaced in the assembled results as a row with
``extra["failed"] = True`` instead of hanging the sweep.

:class:`QueueExecutor` is registered in ``EXECUTORS`` under ``"queue"``
with the uniform ``(workers, cache, progress, on_event)`` constructor; for
this executor ``workers`` means *local worker threads* (the submitting
process helps drain its own queue — ``local_workers=0`` makes it a pure
coordinator for remote-only execution).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..kernels import resolve_backend, use_backend
from ..utils import atomic_write_text
from .cache import ResultCache, spec_hash
from .executor import (
    EXECUTORS,
    EventFn,
    ProgressFn,
    _ExecutorBase,
    _run_spec,
    spec_label,
)
from .prune import ExperimentSpec, baseline_spec_for
from .results import PruningResult

__all__ = ["WorkQueue", "QueueClaim", "QueueWorker", "QueueExecutor"]

#: bump when the payload format changes incompatibly
QUEUE_SCHEMA_VERSION = 1

#: default seconds without a heartbeat before a lease is considered dead
DEFAULT_LEASE_TIMEOUT = 60.0

#: default retry budget: a cell runs at most 1 + DEFAULT_MAX_RETRIES times
DEFAULT_MAX_RETRIES = 2


def _check_backend(name: Optional[str], source: str) -> None:
    """Resolve a kernel backend name before any cell is claimed.

    An unknown name would otherwise fail every cell inside ``run_once``,
    each after its full retry budget.  The ``KeyError`` names ``source``
    (the setting the name came from) and the name.
    """
    if name is None:
        return
    try:
        resolve_backend(name)
    except KeyError as exc:
        raise KeyError(f"{source}: {exc.args[0]}") from None


@dataclass
class QueueClaim:
    """One claimed cell: everything a worker needs to run and report it."""

    hash: str
    spec: Dict
    #: 1-based ordinal of this execution (attempts so far + 1)
    attempt: int
    worker: str
    payload: Dict = field(default_factory=dict)


class WorkQueue:
    """File/directory-backed queue of :class:`ExperimentSpec` cells.

    See the module docstring for the on-disk layout and claim protocol.
    ``lease_timeout``/``max_retries`` are persisted to ``queue.json`` when
    the queue directory is first created, so workers constructed with the
    bare directory path (``WorkQueue(path)``) adopt the submitter's
    settings; explicit arguments always win locally.  An explicit
    ``kernel_backend`` must resolve here, so an unknown name never reaches
    ``queue.json``; a stored one is resolved by :class:`QueueWorker`, so
    stats, compaction and reports still open a queue planned under a
    backend this build no longer has.
    """

    def __init__(
        self,
        root,
        lease_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        _check_backend(kernel_backend, f'{self.root / "queue.json"} "kernel_backend"')
        stored = self._load_settings()
        self.lease_timeout = float(
            lease_timeout if lease_timeout is not None
            else stored.get("lease_timeout", DEFAULT_LEASE_TIMEOUT)
        )
        self.max_retries = int(
            max_retries if max_retries is not None
            else stored.get("max_retries", DEFAULT_MAX_RETRIES)
        )
        # The submitter's kernel backend rides in queue.json so that remote
        # ``python -m repro worker <dir>`` processes compute cells with the
        # same kernels; explicit arguments (e.g. the worker CLI flag) win.
        self.kernel_backend = (
            kernel_backend if kernel_backend is not None
            else stored.get("kernel_backend")
        )
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {self.lease_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for d in (self.pending_dir, self.leased_dir, self.done_dir, self.failed_dir):
            d.mkdir(parents=True, exist_ok=True)
        if not stored:
            atomic_write_text(
                self.root / "queue.json",
                json.dumps(
                    {
                        "schema": QUEUE_SCHEMA_VERSION,
                        "lease_timeout": self.lease_timeout,
                        "max_retries": self.max_retries,
                        "kernel_backend": self.kernel_backend,
                    },
                    indent=1,
                ),
            )

    #: queue.json settings older layouts may lack; value = validator for
    #: the stored value (anything else is treated as absent + defaulted)
    _SETTING_CHECKS = {
        "lease_timeout": lambda v: (
            isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
        ),
        "max_retries": lambda v: (
            isinstance(v, int) and not isinstance(v, bool) and v >= 0
        ),
    }

    def _load_settings(self) -> Dict:
        """queue.json settings, with missing/invalid keys dropped.

        Queue directories created by older layouts can lack settings keys
        (or hold ``null`` where a number belongs); dropping those keys
        here lets the constructor's ``.get(..., DEFAULT)`` defaults apply
        instead of crashing on ``float(None)``.  A warning names the
        defaulted keys so a surprising lease timeout is traceable.
        """
        try:
            settings = json.loads((self.root / "queue.json").read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(settings, dict):
            return {}
        defaulted = [
            key for key, valid in self._SETTING_CHECKS.items()
            if key not in settings or not valid(settings[key])
        ]
        if defaulted:
            for key in defaulted:
                settings.pop(key, None)
            warnings.warn(
                f"queue.json at {self.root} is missing or has invalid "
                f"settings for {defaulted} (older queue layout?); "
                "using defaults",
                RuntimeWarning,
                stacklevel=3,
            )
        return settings

    # -- paths -----------------------------------------------------------
    def _paths(self, h: str) -> Dict[str, Path]:
        return {
            "pending": self.pending_dir / f"{h}.json",
            "leased": self.leased_dir / f"{h}.json",
            "done": self.done_dir / f"{h}.json",
            "failed": self.failed_dir / f"{h}.json",
        }

    def _lease_path(self, h: str) -> Path:
        return self.leased_dir / f"{h}.lease"

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- submit ----------------------------------------------------------
    def submit(self, spec: ExperimentSpec) -> str:
        """Enqueue one cell; returns its hash.  Idempotent: a cell already
        pending/leased/done is left alone, and a previously quarantined
        cell is re-enqueued with a fresh retry budget (its failure history
        is kept for the audit trail)."""
        h = spec_hash(spec)
        paths = self._paths(h)
        if paths["pending"].exists() or paths["leased"].exists() or paths["done"].exists():
            return h
        failures: List[Dict] = []
        old = self._read_json(paths["failed"])
        if old is not None:
            failures = list(old.get("failures", []))
        payload = {
            "schema": QUEUE_SCHEMA_VERSION,
            "hash": h,
            "spec": spec.to_dict(),
            "attempts": 0,
            "failures": failures,
        }
        atomic_write_text(paths["pending"], json.dumps(payload, indent=1, default=str))
        paths["failed"].unlink(missing_ok=True)
        return h

    # -- claim / heartbeat ----------------------------------------------
    def claim(self, worker: str) -> Optional[QueueClaim]:
        """Atomically claim one pending cell, or None if nothing is ready.

        Arbitration is the rename itself: of N workers racing on the same
        pending file, exactly one rename succeeds; the others get
        ``FileNotFoundError`` and try the next cell.
        """
        for name in sorted(os.listdir(self.pending_dir)):
            if not name.endswith(".json"):
                continue
            h = name[: -len(".json")]
            src = self.pending_dir / name
            dst = self.leased_dir / name
            try:
                os.rename(src, dst)
            except FileNotFoundError:
                continue  # lost the race for this cell
            payload = self._read_json(dst) or {}
            attempt = int(payload.get("attempts", 0)) + 1
            atomic_write_text(
                self._lease_path(h),
                json.dumps(
                    {"worker": worker, "attempt": attempt, "claimed_at": time.time()}
                ),
            )
            return QueueClaim(
                hash=h,
                spec=payload.get("spec", {}),
                attempt=attempt,
                worker=worker,
                payload=payload,
            )
        return None

    def heartbeat(self, claim: QueueClaim) -> None:
        """Refresh the claim's lease (mtime of the sidecar is the beat)."""
        try:
            os.utime(self._lease_path(claim.hash))
        except OSError:
            pass  # lease was stolen/expired; completion handles the race

    def lease_info(self, h: str) -> Optional[Dict]:
        """The live lease for a cell ({'worker', 'attempt', ...}), or None."""
        return self._read_json(self._lease_path(h))

    # -- worker reports --------------------------------------------------
    def complete(self, claim: QueueClaim, elapsed: float = 0.0) -> None:
        """Mark a claimed cell done.  The worker must have published the
        result to the shared cache *before* calling this — the done marker
        is the signal that a cache hit is guaranteed.

        Tolerates stale claims (the lease expired mid-run and the cell was
        requeued or re-claimed): the work is deterministic, so recording it
        done — and removing any re-queued copy — only saves a re-run.
        """
        paths = self._paths(claim.hash)
        payload = dict(claim.payload)
        payload.update(
            {"attempts": claim.attempt, "worker": claim.worker, "elapsed": elapsed}
        )
        atomic_write_text(paths["done"], json.dumps(payload, indent=1, default=str))
        self._lease_path(claim.hash).unlink(missing_ok=True)
        paths["leased"].unlink(missing_ok=True)
        paths["pending"].unlink(missing_ok=True)
        paths["failed"].unlink(missing_ok=True)

    def fail(self, claim: QueueClaim, error: str) -> str:
        """Record a failed execution; returns the cell's new state.

        The cell is re-enqueued (``"pending"``) while its retry budget
        lasts, then quarantined (``"failed"``) so the sweep can finish and
        surface the failure instead of retrying forever.

        A *stale* claim — the lease expired mid-run and the cell was
        already requeued (that expiry logged this attempt's failure) or
        re-claimed by another worker — must not report: writing its old
        payload snapshot would roll the retry counter back (letting a
        poison cell dodge quarantine forever) and clobber the new owner's
        lease.  Ownership is checked against the live lease sidecar.
        """
        paths = self._paths(claim.hash)
        if paths["done"].exists():  # another worker finished it meanwhile
            self._lease_path(claim.hash).unlink(missing_ok=True)
            paths["leased"].unlink(missing_ok=True)
            return "done"
        lease = self.lease_info(claim.hash)
        stale = (
            lease is None  # expired + requeued/quarantined: already logged
            or lease.get("worker") != claim.worker
            or lease.get("attempt") != claim.attempt
        )
        if stale:
            return self.state(claim.hash) or "pending"
        state = self._record_failure(
            claim.hash, claim.payload, claim.worker, claim.attempt, error
        )
        self._lease_path(claim.hash).unlink(missing_ok=True)
        paths["leased"].unlink(missing_ok=True)
        return state

    def _record_failure(
        self, h: str, payload: Dict, worker: str, attempt: int, error: str
    ) -> str:
        """Write the post-failure payload to pending/ or failed/ (the shared
        tail of a worker-reported failure and a lease-expiry recovery)."""
        payload = dict(payload)
        payload["attempts"] = attempt
        payload["failures"] = list(payload.get("failures", [])) + [
            {"worker": worker, "attempt": attempt, "error": error}
        ]
        state = "failed" if attempt > self.max_retries else "pending"
        atomic_write_text(
            self._paths(h)[state], json.dumps(payload, indent=1, default=str)
        )
        return state

    def reset(self, h: str) -> None:
        """Forget a finished cell's done/failed marker so :meth:`submit` can
        re-enqueue it — used when a done marker outlives its cached row
        (e.g. the shared cache was cleared to force re-execution)."""
        paths = self._paths(h)
        paths["done"].unlink(missing_ok=True)
        paths["failed"].unlink(missing_ok=True)

    # -- lease recovery --------------------------------------------------
    def _lease_age(self, h: str, now: float) -> Optional[float]:
        """Seconds since the cell's last heartbeat, or None if not leased."""
        try:
            beat = self._lease_path(h).stat().st_mtime
        except OSError:
            # claimed-then-crashed before the sidecar landed: fall back to
            # the payload file (rename preserves mtime, so this reads as
            # already-old and the cell is recovered promptly — by design)
            try:
                beat = (self.leased_dir / f"{h}.json").stat().st_mtime
            except OSError:
                return None
        return now - beat

    def requeue_expired(self, now: Optional[float] = None) -> List[Tuple[str, str]]:
        """Recover cells whose lease went stale (crashed/partitioned worker).

        Counts as one failed attempt — a worker that crashes on the *cell*
        (not just bad luck) burns through the same retry budget as one that
        raises.  Returns ``[(hash, new_state), ...]`` for recovered cells.
        """
        now = time.time() if now is None else now
        recovered: List[Tuple[str, str]] = []
        for name in sorted(os.listdir(self.leased_dir)):
            if not name.endswith(".json"):
                continue
            h = name[: -len(".json")]
            age = self._lease_age(h, now)
            if age is None or age <= self.lease_timeout:
                continue
            # Arbitrate recovery the same way claims are arbitrated: rename
            # the leased payload aside.  Of N parties sweeping concurrently
            # exactly one rename succeeds, so an expiry is recorded (and the
            # attempt counted) once — and a worker that crashed before its
            # .lease sidecar even landed is still recovered, because the
            # payload itself is the thing renamed.
            src = self.leased_dir / name
            tmp = self.leased_dir / f"{h}.recovering"
            try:
                os.rename(src, tmp)
            except FileNotFoundError:
                continue  # owner just reported, or another recoverer won
            payload = self._read_json(tmp) or {}
            worker = str((self.lease_info(h) or {}).get("worker", "unknown"))
            state = self._record_failure(
                h,
                payload,
                worker,
                int(payload.get("attempts", 0)) + 1,
                f"lease expired after {age:.1f}s without a heartbeat "
                f"(worker {worker!r} presumed dead)",
            )
            self._lease_path(h).unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
            recovered.append((h, state))
        return recovered

    # -- introspection ---------------------------------------------------
    def state(self, h: str) -> Optional[str]:
        """'pending' | 'leased' | 'done' | 'failed' | None (unknown)."""
        paths = self._paths(h)
        for state in ("done", "failed", "leased", "pending"):
            if paths[state].exists():
                return state
        return None

    def payload(self, h: str) -> Optional[Dict]:
        """The cell's current payload, wherever it lives."""
        paths = self._paths(h)
        for state in ("done", "failed", "leased", "pending"):
            payload = self._read_json(paths[state])
            if payload is not None:
                return payload
        return None

    def counts(self) -> Dict[str, int]:
        """Cells per state (for progress lines and ``worker`` logging)."""
        out = {}
        for state, d in (
            ("pending", self.pending_dir),
            ("leased", self.leased_dir),
            ("done", self.done_dir),
            ("failed", self.failed_dir),
        ):
            try:
                out[state] = sum(1 for n in os.listdir(d) if n.endswith(".json"))
            except OSError:
                out[state] = 0
        return out

    # -- maintenance (python -m repro queue ...) -------------------------
    def stats(self) -> Dict:
        """Health snapshot: per-state counts, live leases with their ages,
        a per-worker rollup, and the quarantine roster — ``python -m repro
        queue stats`` and the ``queue watch`` dashboard."""
        now = time.time()
        leases: List[Dict] = []
        for name in sorted(os.listdir(self.leased_dir)):
            if not name.endswith(".json"):
                continue
            h = name[: -len(".json")]
            age = self._lease_age(h, now)
            if age is None:
                continue  # raced with completion
            # A beat from the "future" (clock skew between the worker's
            # host and ours on a shared filesystem) reads as a negative
            # age; report it as a fresh beat rather than a nonsense
            # negative number.  Expiry math is unaffected either way —
            # negative never exceeds the timeout.
            age = max(0.0, age)
            info = self.lease_info(h) or {}
            leases.append(
                {
                    "hash": h,
                    "worker": str(info.get("worker", "unknown")),
                    "age": age,
                    "expired": age > self.lease_timeout,
                }
            )
        workers: Dict[str, Dict] = {}
        for lease in leases:
            row = workers.setdefault(
                lease["worker"],
                {"worker": lease["worker"], "cells": 0,
                 "freshest_beat": lease["age"], "expired": False},
            )
            row["cells"] += 1
            row["freshest_beat"] = min(row["freshest_beat"], lease["age"])
            row["expired"] = row["expired"] or lease["expired"]
        failed: List[Dict] = []
        for name in sorted(os.listdir(self.failed_dir)):
            if not name.endswith(".json"):
                continue
            payload = self._read_json(self.failed_dir / name) or {}
            failures = payload.get("failures", [])
            # failure entries may predate this layout or be hand-edited:
            # tolerate non-dict entries and absent/empty error strings
            last = ""
            if failures and isinstance(failures[-1], dict):
                error_lines = str(
                    failures[-1].get("error", "")
                ).strip().splitlines()
                last = error_lines[-1] if error_lines else ""
            failed.append(
                {
                    "hash": name[: -len(".json")],
                    "attempts": payload.get("attempts", len(failures)),
                    "error": last,
                }
            )
        return {
            "root": str(self.root),
            "lease_timeout": self.lease_timeout,
            "max_retries": self.max_retries,
            "counts": self.counts(),
            "leases": leases,
            "workers": sorted(workers.values(), key=lambda r: r["worker"]),
            "failed": failed,
        }

    def retry_failed(self) -> List[str]:
        """Re-enqueue every quarantined cell with a fresh retry budget.

        :meth:`submit` already knows how to resurrect a quarantined cell
        (keeping its failure history for the audit trail); this sweeps the
        whole quarantine — ``python -m repro queue retry-failed``.
        Returns the re-enqueued hashes.
        """
        retried: List[str] = []
        for name in sorted(os.listdir(self.failed_dir)):
            if not name.endswith(".json"):
                continue
            payload = self._read_json(self.failed_dir / name)
            if payload is None or not isinstance(payload.get("spec"), dict):
                continue
            retried.append(self.submit(ExperimentSpec.from_dict(payload["spec"])))
        return retried

    def compact(self, max_age: Optional[float] = None) -> int:
        """GC ``done/`` markers; returns how many were removed.

        Done markers exist only to signal "the result is in the cache" to
        a submitter mid-run; once a sweep has been assembled they are pure
        bookkeeping and can be dropped (re-submitting the same cell later
        is still free — it resolves from the cache before enqueueing).
        With ``max_age`` only markers older than that many seconds go —
        ``python -m repro queue compact [--max-age-days]``.
        """
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        now = time.time()
        removed = 0
        for name in sorted(os.listdir(self.done_dir)):
            if not name.endswith(".json"):
                continue
            path = self.done_dir / name
            if max_age is not None:
                try:
                    if now - path.stat().st_mtime <= max_age:
                        continue
                except OSError:
                    continue  # raced with a concurrent delete
            path.unlink(missing_ok=True)
            removed += 1
        return removed


class QueueWorker:
    """Pull cells from a :class:`WorkQueue`, run them, publish via the cache.

    The worker loop is: recover expired leases, claim a cell, run it (with
    a daemon heartbeat thread keeping the lease fresh), publish the result
    row — plus the free synthesized baseline row — to the shared cache, and
    only then mark the cell done.  A cell that raises is reported through
    :meth:`WorkQueue.fail` with its full traceback; a worker that *dies*
    leaves a lease that expires.

    ``python -m repro worker <queue-dir>`` wraps this class; it is also
    directly usable in-process (tests run workers as threads).
    """

    def __init__(
        self,
        queue: WorkQueue,
        cache: ResultCache,
        worker_id: Optional[str] = None,
        heartbeat_interval: Optional[float] = -1.0,
        progress: Optional[ProgressFn] = None,
        kernel_backend: Optional[str] = None,
        store=None,
    ) -> None:
        self.queue = queue
        self.cache = cache
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        if heartbeat_interval is not None and heartbeat_interval == -1.0:
            heartbeat_interval = queue.lease_timeout / 4.0
        self.heartbeat_interval = heartbeat_interval  # None disables beats
        self.progress = progress
        # default to the submitter's backend persisted in queue.json
        if kernel_backend is None:
            kernel_backend = queue.kernel_backend
            source = f'{queue.root / "queue.json"} "kernel_backend"'
        else:
            source = "worker kernel_backend"
        _check_backend(kernel_backend, source)
        self.kernel_backend = kernel_backend
        # optional binary ColumnStore (or path) mirroring every published
        # row; the JSON cache stays the interchange format and is still
        # written first — the store is a serving-side copy
        if store is not None and not hasattr(store, "append_rows"):
            from ..store import ColumnStore

            store = ColumnStore(store)
        self.store = store

    def _say(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    def run_once(self) -> bool:
        """Recover expired leases, then claim and process at most one cell."""
        self.queue.requeue_expired()
        claim = self.queue.claim(self.worker_id)
        if claim is None:
            return False
        self.process(claim)
        return True

    def process(self, claim: QueueClaim) -> bool:
        """Run one claimed cell end-to-end; returns True on success."""
        stop_beat = threading.Event()
        beater = None
        if self.heartbeat_interval is not None:
            def beat():
                while not stop_beat.wait(self.heartbeat_interval):
                    self.queue.heartbeat(claim)

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
        started = time.monotonic()
        try:
            spec = ExperimentSpec.from_dict(claim.spec)
            self._say(f"[{self.worker_id}] {spec_label(spec)} (attempt {claim.attempt})")
            with use_backend(self.kernel_backend):
                row, baseline = _run_spec(spec)
            self.cache.put(spec, row)
            published = [(spec, row)]
            if baseline is not None:
                bspec = baseline_spec_for(spec)
                if not self.cache.contains(bspec):
                    self.cache.put(bspec, baseline)
                    published.append((bspec, baseline))
            if self.store is not None:
                self._publish_to_store(published)
            self.queue.complete(claim, elapsed=time.monotonic() - started)
            self._say(f"[{self.worker_id}] done {claim.hash}")
            return True
        except Exception:
            state = self.queue.fail(claim, traceback.format_exc())
            self._say(f"[{self.worker_id}] cell {claim.hash} failed -> {state}")
            return False
        finally:
            stop_beat.set()
            if beater is not None:
                beater.join(timeout=1.0)

    def _publish_to_store(self, published) -> None:
        """Mirror freshly cached rows into the binary store, keyed by spec
        hash so a re-run supersedes its old row.  Best-effort: the cache
        write already succeeded, so a store hiccup (e.g. lock contention
        with a compact) must not fail the cell — it is reported and the
        row remains ingestable from the cache later."""
        try:
            self.store.append_rows(
                [row for _, row in published],
                keys=[spec_hash(spec) for spec, _ in published],
            )
        except Exception as exc:  # noqa: BLE001 - mirror is best-effort
            self._say(
                f"[{self.worker_id}] store publish failed ({exc}); rows "
                "remain in the cache"
            )

    def run(
        self,
        stop: Optional[threading.Event] = None,
        max_cells: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> int:
        """Process cells until stopped; returns how many were claimed.

        Exits when ``stop`` is set, ``max_cells`` have been claimed, or the
        queue has stayed empty for ``idle_timeout`` seconds (None = wait for
        work forever — the remote-worker default, killed from outside).
        """
        claimed = 0
        idle_since: Optional[float] = None
        while not (stop is not None and stop.is_set()):
            if self.run_once():
                claimed += 1
                idle_since = None
                if max_cells is not None and claimed >= max_cells:
                    break
            else:
                now = time.monotonic()
                if idle_timeout is not None:
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since > idle_timeout:
                        break
                time.sleep(poll_interval)
        return claimed


@EXECUTORS.register("queue")
class QueueExecutor(_ExecutorBase):
    """Run a sweep through a durable :class:`WorkQueue` (see module docstring).

    The submitting side: resolve cache hits, enqueue the misses, stream
    progress as workers report, recover expired leases, and assemble the
    final row list from cache hits.  Quarantined cells become placeholder
    rows with ``extra["failed"] = True`` (and the error log) instead of
    hanging or aborting the sweep — partial results stay usable.

    ``workers`` local worker threads are started for the duration of the
    run (default 1) so a bare ``--executor queue`` invocation completes on
    its own; any number of external ``python -m repro worker`` processes
    sharing the queue directory drain the same cells.  ``local_workers``
    overrides ``workers`` (use 0 for a pure coordinator).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        on_event: Optional[EventFn] = None,
        queue_dir=None,
        lease_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        local_workers: Optional[int] = None,
        poll_interval: float = 0.05,
        wait_timeout: Optional[float] = None,
        kernel_backend: Optional[str] = None,
    ) -> None:
        if queue_dir is None:
            raise ValueError(
                "the queue executor needs a queue directory: pass "
                "queue_dir=... (CLI: --queue-dir PATH, or "
                '"executor_options": {"queue_dir": ...} in the sweep config)'
            )
        if local_workers is None:
            local_workers = 1 if workers is None else workers
        if local_workers < 0:
            raise ValueError(f"local_workers must be >= 0, got {local_workers}")
        super().__init__(
            workers=local_workers, cache=cache, progress=progress,
            on_event=on_event, kernel_backend=kernel_backend,
        )
        self.workers = local_workers  # _ExecutorBase maps 0 -> 1; keep 0
        # Persisting the backend in the queue settings is what lets remote
        # workers inherit it (env < config < CLI precedence ends here).
        self.queue = WorkQueue(
            queue_dir, lease_timeout=lease_timeout, max_retries=max_retries,
            kernel_backend=kernel_backend,
        )
        if self.cache is None:
            # the cache is the result transport: default it into the queue
            # directory so `python -m repro worker <queue-dir>` finds it
            self.cache = ResultCache(self.queue.root / "cache")
        self.poll_interval = poll_interval
        self.wait_timeout = wait_timeout

    @staticmethod
    def _quarantine_row(spec: ExperimentSpec, payload: Dict) -> PruningResult:
        """Placeholder row for a quarantined cell: identifies the cell and
        carries the failure log so assembled tables surface the problem."""
        failures = payload.get("failures", [])
        return PruningResult(
            model=spec.model,
            dataset=spec.dataset,
            strategy=spec.strategy,
            compression=spec.compression,
            seed=spec.seed,
            extra={
                "failed": True,
                "attempts": payload.get("attempts", len(failures)),
                "error": failures[-1]["error"] if failures else "unknown",
                "failures": failures,
            },
        )

    def run(self, specs: Sequence[ExperimentSpec]) -> List[PruningResult]:
        started = time.monotonic()
        total = len(specs)
        rows: List[Optional[PruningResult]] = [None] * total
        waiting: Dict[str, List[int]] = {}
        done = 0
        for h, idxs in self._dedupe(specs).items():
            spec = specs[idxs[0]]
            row = self.cache.get(spec)
            if row is not None:
                done += len(idxs)
                self._emit(
                    spec, " [cache hit]", kind="cache-hit", done=done,
                    total=total, started=started, worker=None,
                )
                self._fill(rows, idxs, row)
            else:
                self.queue.submit(spec)
                waiting[h] = idxs
        if not waiting:
            return rows  # type: ignore[return-value]

        stop = threading.Event()
        threads: List[threading.Thread] = []
        for i in range(self.workers):
            worker = QueueWorker(
                self.queue, self.cache, worker_id=f"local-{os.getpid()}-{i}"
            )
            t = threading.Thread(
                target=worker.run, kwargs=dict(stop=stop), daemon=True
            )
            t.start()
            threads.append(t)

        worker_slots: Dict[str, int] = {}  # worker id -> stable slot
        worker_done: Dict[int, int] = {}  # slot -> cells completed
        announced: set = set()  # hashes whose "start" event went out
        reset_done: set = set()  # stale done markers already reset once

        def slot_for(worker_id: str) -> int:
            return worker_slots.setdefault(worker_id, len(worker_slots))

        deadline = None if self.wait_timeout is None else started + self.wait_timeout
        try:
            while waiting:
                self.queue.requeue_expired()
                for h in list(waiting):
                    idxs = waiting[h]
                    spec = specs[idxs[0]]
                    state = self.queue.state(h)
                    if state == "leased" and h not in announced:
                        lease = self.queue.lease_info(h) or {}
                        announced.add(h)
                        self._emit(
                            spec, kind="start", done=done, total=total,
                            started=started,
                            worker=slot_for(str(lease.get("worker", "?"))),
                        )
                    elif state == "done":
                        row = self.cache.get(spec)
                        if row is None:
                            # A done marker without a cached row: either the
                            # cache was cleared to force re-execution (reset
                            # the marker and re-enqueue, once) or workers
                            # publish to a different cache than we read
                            # (re-running won't help — fail loudly).
                            if h in reset_done:
                                raise RuntimeError(
                                    f"queue cell {h} was re-executed but its "
                                    "done marker still has no row in the "
                                    f"result cache at {self.cache.root} — "
                                    "submitter and workers must share one "
                                    "cache directory"
                                )
                            reset_done.add(h)
                            announced.discard(h)
                            self.queue.reset(h)
                            self.queue.submit(spec)
                            continue
                        payload = self.queue.payload(h) or {}
                        slot = slot_for(str(payload.get("worker", "?")))
                        worker_done[slot] = worker_done.get(slot, 0) + len(idxs)
                        done += len(idxs)
                        self._emit(
                            spec, " [done]", kind="done", done=done, total=total,
                            started=started, worker=slot,
                            worker_done=worker_done[slot],
                        )
                        self._fill(rows, idxs, row)
                        del waiting[h]
                    elif state == "failed":
                        payload = self.queue.payload(h) or {}
                        row = self._quarantine_row(spec, payload)
                        done += len(idxs)
                        self._emit(
                            spec, " [quarantined]", kind="failed", done=done,
                            total=total, started=started,
                            failure=row.extra["error"],
                        )
                        self._fill(rows, idxs, row)
                        del waiting[h]
                    elif state is None:
                        self.queue.submit(spec)  # vanished (external clear)
                if waiting:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"queue sweep timed out after {self.wait_timeout:.0f}s "
                            f"with {len(waiting)} cell(s) unfinished "
                            f"(queue state: {self.queue.counts()})"
                        )
                    time.sleep(self.poll_interval)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
        return rows  # type: ignore[return-value]
