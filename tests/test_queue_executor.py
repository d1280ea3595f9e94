"""Fault-injection tests for the durable work-queue executor.

Fast tests exercise the queue protocol (atomic claims, leases, retries,
quarantine) and the in-process executor/worker loop on crashy micro-cells;
the multi-process versions — real ``python -m repro worker`` subprocesses,
one of them killed mid-run — are marked ``slow`` (run with ``-m slow``).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from exp_fixtures import CrashyError, crashy_grid, crashy_spec, tiny_train
from repro.experiment import (
    ParallelExecutor,
    QueueExecutor,
    QueueWorker,
    ResultCache,
    ResultSet,
    SerialExecutor,
    SweepConfig,
    WorkQueue,
    assemble_results,
    baseline_spec_for,
    spec_hash,
)

REPO = Path(__file__).resolve().parent.parent


def _backdate(path: Path, seconds: float) -> None:
    past = time.time() - seconds
    os.utime(path, (past, past))


class TestWorkQueue:
    """Queue protocol mechanics — no experiment ever executes here."""

    def _specs(self, n=3):
        return [crashy_spec(cell=f"q{i}") for i in range(n)]

    def test_submit_claim_complete_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        spec = self._specs(1)[0]
        h = queue.submit(spec)
        assert h == spec_hash(spec)
        assert queue.state(h) == "pending"
        claim = queue.claim("w1")
        assert claim.hash == h and claim.attempt == 1 and claim.worker == "w1"
        assert queue.state(h) == "leased"
        assert queue.lease_info(h)["worker"] == "w1"
        # the spec travels with the cell, losslessly
        from repro.experiment import ExperimentSpec

        assert spec_hash(ExperimentSpec.from_dict(claim.spec)) == h
        queue.complete(claim, elapsed=0.5)
        assert queue.state(h) == "done"
        assert queue.payload(h)["worker"] == "w1"
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 1, "failed": 0}

    def test_submit_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        spec = self._specs(1)[0]
        assert queue.submit(spec) == queue.submit(spec)
        assert queue.counts()["pending"] == 1
        claim = queue.claim("w1")
        queue.submit(spec)  # leased: still not duplicated
        assert queue.counts()["pending"] == 0
        queue.complete(claim)
        queue.submit(spec)  # done: stays done
        assert queue.state(claim.hash) == "done"

    def test_claim_exhausts_then_none(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        specs = self._specs(3)
        for s in specs:
            queue.submit(s)
        claimed = {queue.claim("w").hash for _ in range(3)}
        assert claimed == {spec_hash(s) for s in specs}
        assert queue.claim("w") is None

    def test_racing_workers_never_double_claim(self, tmp_path):
        """The ISSUE's race criterion: two (here four) workers hammering one
        queue claim every cell exactly once — rename is the arbiter."""
        queue = WorkQueue(tmp_path / "q")
        specs = [crashy_spec(cell=f"race{i}") for i in range(12)]
        for s in specs:
            queue.submit(s)
        claimed = []
        lock = threading.Lock()

        def grab(worker):
            while True:
                claim = queue.claim(worker)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim.hash)

        threads = [
            threading.Thread(target=grab, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(spec_hash(s) for s in specs)
        assert len(set(claimed)) == len(specs)  # no hash claimed twice

    def test_fail_requeues_then_quarantines(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=1)
        spec = self._specs(1)[0]
        h = queue.submit(spec)
        claim = queue.claim("w1")
        assert queue.fail(claim, "boom 1") == "pending"  # retry budget left
        assert queue.state(h) == "pending"
        claim = queue.claim("w2")
        assert claim.attempt == 2
        assert queue.fail(claim, "boom 2") == "failed"  # budget exhausted
        assert queue.state(h) == "failed"
        payload = queue.payload(h)
        assert payload["attempts"] == 2
        assert [f["error"] for f in payload["failures"]] == ["boom 1", "boom 2"]
        assert [f["worker"] for f in payload["failures"]] == ["w1", "w2"]
        assert queue.claim("w3") is None  # quarantined cells are not retried

    def test_expired_lease_recovered_and_counted(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        h = queue.submit(self._specs(1)[0])
        queue.claim("dead-worker")
        assert queue.requeue_expired() == []  # lease still fresh
        _backdate(queue._lease_path(h), 60)
        assert queue.requeue_expired() == [(h, "pending")]
        payload = queue.payload(h)
        assert payload["attempts"] == 1
        assert "lease expired" in payload["failures"][0]["error"]
        assert "dead-worker" in payload["failures"][0]["error"]
        assert queue.claim("w2").attempt == 2  # recovered cell is claimable

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        h = queue.submit(self._specs(1)[0])
        claim = queue.claim("w1")
        _backdate(queue._lease_path(h), 60)
        queue.heartbeat(claim)  # the beat refreshes the stale mtime
        assert queue.requeue_expired() == []
        assert queue.state(h) == "leased"

    def test_expiry_quarantines_once_budget_is_burned(self, tmp_path):
        """A cell that crashes its worker every time must not loop forever."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0, max_retries=1)
        h = queue.submit(self._specs(1)[0])
        states = []
        for _ in range(2):
            queue.claim("crashloop")
            _backdate(queue._lease_path(h), 60)
            states.extend(s for _, s in queue.requeue_expired())
        assert states == ["pending", "failed"]
        assert queue.state(h) == "failed"

    def test_stale_complete_after_steal_is_harmless(self, tmp_path):
        """Worker presumed dead finishes anyway: its (deterministic) result
        is recorded and the re-queued copy is withdrawn."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0)
        h = queue.submit(self._specs(1)[0])
        zombie = queue.claim("zombie")
        _backdate(queue._lease_path(h), 60)
        queue.requeue_expired()
        assert queue.state(h) == "pending"
        zombie_late = zombie  # the zombie wakes up and reports
        queue.complete(zombie_late)
        assert queue.state(h) == "done"
        assert queue.claim("w2") is None  # nothing left to run twice

    def test_stale_fail_after_steal_does_not_clobber(self, tmp_path):
        """Zombie worker raises after its lease expired and the cell was
        re-claimed: its late fail() must not roll the retry counter back,
        spawn a duplicate pending copy, or delete the new owner's lease."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0, max_retries=5)
        h = queue.submit(self._specs(1)[0])
        zombie = queue.claim("zombie")
        _backdate(queue._lease_path(h), 60)
        queue.requeue_expired()  # logs the zombie's attempt as failure #1
        second = queue.claim("w2")
        assert second.attempt == 2
        assert queue.fail(zombie, "late raise") == "leased"  # no-op report
        assert queue.state(h) == "leased"
        assert queue.lease_info(h)["worker"] == "w2"  # lease untouched
        assert queue.payload(h)["attempts"] == 1  # budget not rolled back
        queue.complete(second)
        assert queue.state(h) == "done"

    def test_stale_fail_after_requeue_does_not_duplicate(self, tmp_path):
        """Same, but nobody has re-claimed yet: the expiry sweep already
        logged this attempt, so the zombie's report must not double-log."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0, max_retries=5)
        h = queue.submit(self._specs(1)[0])
        zombie = queue.claim("zombie")
        _backdate(queue._lease_path(h), 60)
        queue.requeue_expired()
        assert queue.fail(zombie, "late raise") == "pending"
        payload = queue.payload(h)
        assert payload["attempts"] == 1
        assert len(payload["failures"]) == 1  # only the expiry record

    def test_fail_after_competitor_finished_stays_done(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0, max_retries=1)
        h = queue.submit(self._specs(1)[0])
        first = queue.claim("w1")
        _backdate(queue._lease_path(h), 60)
        queue.requeue_expired()
        second = queue.claim("w2")
        queue.complete(second)
        assert queue.fail(first, "late failure") == "done"
        assert queue.state(h) == "done"

    def test_settings_persist_in_queue_json(self, tmp_path):
        WorkQueue(tmp_path / "q", lease_timeout=7.5, max_retries=9)
        reopened = WorkQueue(tmp_path / "q")  # bare path, as workers do
        assert reopened.lease_timeout == 7.5
        assert reopened.max_retries == 9
        explicit = WorkQueue(tmp_path / "q", lease_timeout=1.0)
        assert explicit.lease_timeout == 1.0  # explicit args win locally
        assert explicit.max_retries == 9

    def test_resubmitting_quarantined_cell_resets_budget(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=0)
        spec = self._specs(1)[0]
        h = queue.submit(spec)
        queue.fail(queue.claim("w1"), "boom")
        assert queue.state(h) == "failed"
        queue.submit(spec)  # a new sweep gives the cell a fresh chance
        assert queue.state(h) == "pending"
        payload = queue.payload(h)
        assert payload["attempts"] == 0
        assert len(payload["failures"]) == 1  # audit trail survives

    def test_crash_before_lease_sidecar_still_recovered(self, tmp_path):
        """A worker killed between the claim rename and the .lease write
        leaves a bare leased payload; expiry recovery must still move it."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        spec = self._specs(1)[0]
        h = queue.submit(spec)
        # simulate the crash window: rename lands, sidecar never does
        os.rename(queue.pending_dir / f"{h}.json", queue.leased_dir / f"{h}.json")
        _backdate(queue.leased_dir / f"{h}.json", 60)
        assert queue.requeue_expired() == [(h, "pending")]
        payload = queue.payload(h)
        assert payload["attempts"] == 1
        assert "lease expired" in payload["failures"][0]["error"]
        assert queue.claim("w2").attempt == 2

    def test_concurrent_expiry_sweeps_count_one_attempt(self, tmp_path):
        """Racing recoverers (submitter poll + worker run_once) must record
        an expiry exactly once — rename arbitration, same as claims."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=1.0, max_retries=5)
        h = queue.submit(self._specs(1)[0])
        queue.claim("dead")
        _backdate(queue._lease_path(h), 60)
        results = []
        lock = threading.Lock()

        def sweep():
            got = queue.requeue_expired()
            with lock:
                results.extend(got)

        threads = [threading.Thread(target=sweep) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [(h, "pending")]  # exactly one recovery happened
        assert queue.payload(h)["attempts"] == 1
        assert len(queue.payload(h)["failures"]) == 1

    def test_invalid_settings_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path / "a", lease_timeout=0)
        with pytest.raises(ValueError):
            WorkQueue(tmp_path / "b", max_retries=-1)


class TestWorkQueueStats:
    """``stats()`` edge cases: the dashboard must describe a sick queue
    without touching it (no recovery, no crash)."""

    def test_expired_but_unrecovered_lease_is_reported_not_recovered(
            self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        h = queue.submit(crashy_spec(cell="stats-exp"))
        queue.claim("dead-worker")
        _backdate(queue._lease_path(h), 60)
        stats = queue.stats()
        assert stats["leases"] == [
            {"hash": h, "worker": "dead-worker",
             "age": pytest.approx(60, abs=5), "expired": True},
        ]
        assert stats["workers"][0]["expired"] is True
        # stats is read-only: the cell is still leased afterwards
        assert queue.state(h) == "leased"
        assert queue.counts()["leased"] == 1

    def test_future_heartbeat_clamps_to_fresh_not_negative(self, tmp_path):
        """Clock skew on a shared filesystem can put a worker's beat mtime
        ahead of our clock; that must read as a fresh lease, not a
        negative age (and certainly not an expired one)."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        h = queue.submit(crashy_spec(cell="stats-skew"))
        queue.claim("skewed-worker")
        future = time.time() + 120
        os.utime(queue._lease_path(h), (future, future))
        lease = queue.stats()["leases"][0]
        assert lease["age"] == 0.0
        assert lease["expired"] is False
        worker = queue.stats()["workers"][0]
        assert worker["freshest_beat"] == 0.0 and not worker["expired"]

    def test_per_worker_rollup_aggregates_leases(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_timeout=30.0)
        hashes = [queue.submit(crashy_spec(cell=f"roll{i}"))
                  for i in range(3)]
        queue.claim("w-a")
        queue.claim("w-a")
        queue.claim("w-b")
        _backdate(queue._lease_path(hashes[0]), 10)
        stats = queue.stats()
        by_worker = {row["worker"]: row for row in stats["workers"]}
        assert set(by_worker) == {"w-a", "w-b"}
        assert by_worker["w-a"]["cells"] == 2
        # freshest beat wins the rollup: one stale lease doesn't age w-a
        assert by_worker["w-a"]["freshest_beat"] == pytest.approx(0, abs=2)
        assert by_worker["w-b"]["cells"] == 1

    def test_stats_tolerates_mid_recovery_and_sidecar_gaps(self, tmp_path):
        """A `.recovering` rename in flight and a lease payload whose
        sidecar never landed (claim-then-crash) must not crash stats —
        the gap cell falls back to the payload mtime."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        specs = [crashy_spec(cell=f"mid{i}") for i in range(2)]
        gap, racing = [queue.submit(s) for s in specs]
        # claim-then-crash: payload renamed into leased/, no .lease sidecar
        os.rename(queue.pending_dir / f"{gap}.json",
                  queue.leased_dir / f"{gap}.json")
        _backdate(queue.leased_dir / f"{gap}.json", 60)
        # another recoverer mid-sweep: non-.json intermediate in leased/
        (queue.leased_dir / f"{racing}.recovering").write_text("{}")
        stats = queue.stats()
        assert [lease["hash"] for lease in stats["leases"]] == [gap]
        assert stats["leases"][0]["expired"] is True
        assert stats["leases"][0]["worker"] == "unknown"

    def test_stats_tolerates_malformed_failure_entries(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=0)
        h = queue.submit(crashy_spec(cell="mangled"))
        queue.fail(queue.claim("w1"), "boom")
        # hand-edit the quarantine record into legacy/mangled shapes
        path = queue.failed_dir / f"{h}.json"
        payload = json.loads(path.read_text())
        payload["failures"] = ["a bare string", {"no_error_key": 1}]
        path.write_text(json.dumps(payload))
        row = queue.stats()["failed"][0]
        assert row["hash"] == h and row["error"] == ""

    def test_legacy_queue_json_missing_settings_warns_and_defaults(
            self, tmp_path):
        """Older queue layouts lack settings keys (or hold null); opening
        one must warn and default, not KeyError/TypeError."""
        queue_dir = tmp_path / "q"
        WorkQueue(queue_dir).submit(crashy_spec(cell="legacy"))
        (queue_dir / "queue.json").write_text(json.dumps({"schema": 1}))
        with pytest.warns(RuntimeWarning, match="missing or has invalid"):
            reopened = WorkQueue(queue_dir)
        from repro.experiment.queue import (
            DEFAULT_LEASE_TIMEOUT,
            DEFAULT_MAX_RETRIES,
        )

        assert reopened.lease_timeout == DEFAULT_LEASE_TIMEOUT
        assert reopened.max_retries == DEFAULT_MAX_RETRIES
        assert reopened.counts()["pending"] == 1  # cells intact

    def test_legacy_queue_json_null_settings_warn_and_default(self, tmp_path):
        queue_dir = tmp_path / "q"
        WorkQueue(queue_dir)
        (queue_dir / "queue.json").write_text(json.dumps({
            "schema": 1, "lease_timeout": None, "max_retries": None,
        }))
        with pytest.warns(RuntimeWarning):
            reopened = WorkQueue(queue_dir)
        from repro.experiment.queue import DEFAULT_LEASE_TIMEOUT

        assert reopened.lease_timeout == DEFAULT_LEASE_TIMEOUT
        # explicit arguments still win over the defaults
        with pytest.warns(RuntimeWarning):
            explicit = WorkQueue(queue_dir, lease_timeout=7.0)
        assert explicit.lease_timeout == 7.0

    def test_queue_stats_cli_survives_legacy_queue_json(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        queue_dir = tmp_path / "q"
        WorkQueue(queue_dir).submit(crashy_spec(cell="legacy-cli"))
        (queue_dir / "queue.json").write_text(json.dumps({"schema": 1}))
        with pytest.warns(RuntimeWarning):
            assert main(["queue", "stats", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "pending" in out


class TestQueueWorker:
    def test_worker_publishes_row_and_baseline_before_done(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cache = ResultCache(tmp_path / "cache")
        spec = crashy_spec(cell="ok0")
        queue.submit(spec)
        worker = QueueWorker(queue, cache, worker_id="w1")
        assert worker.run_once() is True
        assert queue.state(spec_hash(spec)) == "done"
        row = cache.get(spec)
        assert row is not None and row.compression == 2.0
        # the free synthesized unpruned-control row landed too
        assert cache.contains(baseline_spec_for(spec))
        assert worker.run_once() is False  # queue drained

    def test_failed_cell_records_full_traceback(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=0)
        cache = ResultCache(tmp_path / "cache")
        spec = crashy_spec(cell="boom", behavior="raise")
        h = queue.submit(spec)
        QueueWorker(queue, cache, worker_id="w1").run_once()
        assert queue.state(h) == "failed"
        error = queue.payload(h)["failures"][0]["error"]
        assert "CrashyError" in error
        assert "injected failure in cell 'boom'" in error
        assert "Traceback" in error  # a real traceback, not just str(exc)
        assert cache.get(spec) is None  # nothing half-published

    def test_flaky_cell_retries_until_success(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", max_retries=2)
        cache = ResultCache(tmp_path / "cache")
        spec = crashy_spec(
            cell="flaky0", behavior="flaky", fail_times=2,
            scratch=str(tmp_path / "scratch"),
        )
        h = queue.submit(spec)
        worker = QueueWorker(queue, cache, worker_id="w1")
        worker.run(idle_timeout=0.0, poll_interval=0.01)
        assert queue.state(h) == "done"
        payload = queue.payload(h)
        assert payload["attempts"] == 3  # 2 injected failures + 1 success
        assert len(payload["failures"]) == 2
        assert cache.get(spec) is not None

    def test_abandoned_lease_is_finished_by_another_worker(self, tmp_path):
        """Crash mid-cell → lease expires → another worker finishes it."""
        queue = WorkQueue(tmp_path / "q", lease_timeout=5.0)
        cache = ResultCache(tmp_path / "cache")
        spec = crashy_spec(cell="orphan")
        h = queue.submit(spec)
        queue.claim("w-crashed")  # claims, then "dies" without reporting
        _backdate(queue._lease_path(h), 60)
        rescuer = QueueWorker(queue, cache, worker_id="w-rescue")
        assert rescuer.run_once() is True  # recovers the lease AND runs it
        assert queue.state(h) == "done"
        payload = queue.payload(h)
        assert payload["worker"] == "w-rescue"
        assert "lease expired" in payload["failures"][0]["error"]
        assert cache.get(spec) is not None


class TestQueueExecutor:
    def _run_queue(self, specs, tmp_path, name, workers=1, **kwargs):
        events = []
        executor = QueueExecutor(
            workers=workers,
            cache=ResultCache(tmp_path / name / "cache"),
            on_event=events.append,
            queue_dir=tmp_path / name / "q",
            wait_timeout=120,
            **kwargs,
        )
        return executor.run(specs), events

    def test_queue_matches_serial_with_1_and_2_workers(self, tmp_path):
        """Equivalence satellite: byte-identical tables (same spec hashes,
        same metric values) out of serial, 1-worker, and 2-worker queues."""
        specs = crashy_grid(("global_weight", "random"), (1, 2), (0,))
        serial_rows = SerialExecutor(cache=ResultCache(tmp_path / "s")).run(specs)
        one_rows, _ = self._run_queue(specs, tmp_path, "one", workers=1)
        two_rows, _ = self._run_queue(specs, tmp_path, "two", workers=2)
        reference = [r.to_dict() for r in serial_rows]
        assert [r.to_dict() for r in one_rows] == reference
        assert [r.to_dict() for r in two_rows] == reference
        # and the assembled tables are byte-identical as serialized JSON
        strategies = ["global_weight", "random"]
        blobs = {
            json.dumps(
                [r.to_dict() for r in assemble_results(specs, rows, strategies)],
                sort_keys=True,
            )
            for rows in (serial_rows, one_rows, two_rows)
        }
        assert len(blobs) == 1

    def test_second_run_completes_from_cache_hits(self, tmp_path):
        specs = crashy_grid(("global_weight",), (1, 2), (0,))
        first, _ = self._run_queue(specs, tmp_path, "qq")
        again, events = self._run_queue(specs, tmp_path, "qq")
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert {e.kind for e in events} == {"cache-hit"}

    def test_poison_cell_quarantined_not_hanging(self, tmp_path):
        """Retry budget exhausted → quarantined and *surfaced* in the rows,
        while healthy cells complete normally."""
        good = crashy_spec(cell="good1")
        bad = crashy_spec(cell="bad1", behavior="raise")
        rows, events = self._run_queue(
            [good, bad], tmp_path, "poison", workers=1, max_retries=1,
        )
        assert rows[0].top1 == pytest.approx(
            SerialExecutor().run([good])[0].top1
        )
        assert rows[1].extra["failed"] is True
        assert rows[1].extra["attempts"] == 2  # 1 run + 1 retry
        assert "CrashyError" in rows[1].extra["error"]
        assert (rows[1].strategy, rows[1].compression, rows[1].seed) == (
            bad.strategy, bad.compression, bad.seed
        )
        failed_events = [e for e in events if e.kind == "failed"]
        assert len(failed_events) == 1
        assert "CrashyError" in failed_events[0].failure
        # the sweep still counted every cell exactly once
        assert max(e.done for e in events) == 2

    def test_flaky_cell_heals_within_budget(self, tmp_path):
        spec = crashy_spec(
            cell="flaky-exec", behavior="flaky", fail_times=1,
            scratch=str(tmp_path / "scratch"),
        )
        rows, events = self._run_queue(
            [spec], tmp_path, "flaky", workers=1, max_retries=2,
        )
        assert "failed" not in {e.kind for e in events}
        assert not rows[0].extra.get("failed")
        assert rows[0].to_dict() == SerialExecutor().run([spec])[0].to_dict()

    def test_pure_coordinator_times_out_without_workers(self, tmp_path):
        spec = crashy_spec(cell="nobody")
        with pytest.raises(TimeoutError, match="unfinished"):
            QueueExecutor(
                cache=ResultCache(tmp_path / "cache"),
                queue_dir=tmp_path / "q",
                local_workers=0,
                wait_timeout=0.3,
                poll_interval=0.01,
            ).run([spec])
        # ... but the cell is durably queued for whenever a worker shows up
        assert WorkQueue(tmp_path / "q").state(spec_hash(spec)) == "pending"

    def test_coordinator_assembles_results_from_external_worker(self, tmp_path):
        """Split-brain flow in-process: a pure coordinator submits while an
        'external' worker thread drains the shared directory."""
        specs = crashy_grid(("global_weight",), (1, 2), (0,))
        queue_dir = tmp_path / "q"
        cache = ResultCache(tmp_path / "shared-cache")
        stop = threading.Event()

        def external_worker():
            queue = WorkQueue(queue_dir)
            QueueWorker(queue, cache, worker_id="external").run(
                stop=stop, poll_interval=0.01
            )

        thread = threading.Thread(target=external_worker, daemon=True)
        executor = QueueExecutor(
            cache=cache, queue_dir=queue_dir, local_workers=0,
            wait_timeout=120, poll_interval=0.01,
        )
        thread.start()
        try:
            rows = executor.run(specs)
        finally:
            stop.set()
            thread.join(timeout=10)
        reference = SerialExecutor().run(specs)
        assert [r.to_dict() for r in rows] == [r.to_dict() for r in reference]

    def test_missing_queue_dir_rejected(self):
        with pytest.raises(ValueError, match="queue directory"):
            QueueExecutor(workers=1)

    def test_cleared_cache_with_stale_done_markers_reexecutes(self, tmp_path):
        """The documented force-re-execution path: clear <queue-dir>/cache
        and re-run.  Stale done markers must be reset and the cells re-run,
        not crash the sweep."""
        specs = crashy_grid(("global_weight",), (1, 2), (0,))
        first, _ = self._run_queue(specs, tmp_path, "redo")
        cache = ResultCache(tmp_path / "redo" / "cache")
        assert cache.clear() > 0
        again, events = self._run_queue(specs, tmp_path, "redo")
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert "cache-hit" not in {e.kind for e in events}  # really re-ran
        assert WorkQueue(tmp_path / "redo" / "q").counts()["done"] == len(specs)


class TestExecutorFailureEvents:
    """Satellite: a raising cell's traceback reaches the event stream."""

    def test_serial_failed_event_carries_traceback(self, tmp_path):
        good = crashy_spec(cell="ev-good")
        bad = crashy_spec(cell="ev-bad", behavior="raise")
        events = []
        messages = []
        with pytest.raises(CrashyError):
            SerialExecutor(
                cache=ResultCache(tmp_path / "c"),
                progress=messages.append,
                on_event=events.append,
            ).run([good, bad])
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 1
        assert "CrashyError" in failed[0].failure
        assert "injected failure in cell 'ev-bad'" in failed[0].failure
        assert "Traceback" in failed[0].failure
        assert any(m.endswith("[failed]") for m in messages)
        # non-failure events carry no failure payload
        assert all(e.failure is None for e in events if e.kind != "failed")


class TestQueueCLIFailureSurface:
    """CLI behaviors that need the crashy dataset registered in-process."""

    def test_run_exits_nonzero_on_quarantined_cells(self, tmp_path, capsys):
        from repro.cli import main

        spec = crashy_spec(cell="cli-poison", behavior="raise")
        config = SweepConfig(
            model=spec.model,
            dataset=spec.dataset,
            strategies=(spec.strategy,),
            compressions=(spec.compression,),
            seeds=(spec.seed,),
            model_kwargs=dict(spec.model_kwargs),
            dataset_kwargs=dict(spec.dataset_kwargs),
            pretrain=spec.pretrain,
            finetune=spec.finetune,
            executor="queue",
            executor_options=dict(
                queue_dir=str(tmp_path / "q"), max_retries=0, wait_timeout=60,
            ),
        )
        path = config.save(tmp_path / "poison.json")
        out = tmp_path / "rows.json"
        assert main(["run", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "quarantined cell(s)" in captured.err
        assert "[FAILED]" in captured.out  # the progress stream said why
        assert "CrashyError" in captured.out
        # the partial table was still written for inspection
        rows = ResultSet.load(out)
        assert rows.results[0].extra["failed"] is True

    def test_run_queue_dir_with_all_cores_workers(self, tmp_path):
        """--workers 0 means 'all cores', which for the queue executor must
        still mean at least one local worker — not a coordinator that hangs."""
        from repro.cli import main

        config = SweepConfig(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=("global_weight",),
            compressions=(1, 2),
            seeds=(0,),
            model_kwargs=dict(input_size=4, in_channels=3),
            dataset_kwargs=dict(n_train=32, n_val=16, size=4, noise=0.5),
            pretrain=tiny_train(),
            finetune=tiny_train(),
        )
        path = config.save(tmp_path / "sweep.json")
        out = tmp_path / "rows.json"
        assert main(["run", str(path), "--executor", "queue",
                     "--queue-dir", str(tmp_path / "q"), "--workers", "0",
                     "--out", str(out)]) == 0
        assert len(ResultSet.load(out)) == 2


@pytest.mark.slow
class TestParallelExecutorFailureEvents:
    def test_parallel_failed_event_preserves_remote_traceback(self, tmp_path):
        """The audit fix: before, a worker-process exception surfaced with no
        cell attribution and only fut.result()'s local frames; now the event
        stream carries the remote traceback.  Uses a registry miss (not the
        crashy dataset) so the injected fault exists in worker processes
        under any multiprocessing start method."""
        from dataclasses import replace

        from repro.experiment import expand_sweep

        specs = expand_sweep(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=["global_weight"],
            compressions=[1, 2],
            seeds=[0],
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=64, n_val=32, size=8, noise=0.5),
            pretrain=tiny_train(),
            finetune=tiny_train(),
        )
        bad = replace(specs[-1], strategy="not_a_strategy", compression=16.0)
        events = []
        with pytest.raises(KeyError, match="not_a_strategy"):
            ParallelExecutor(
                workers=2, cache=ResultCache(tmp_path / "c"),
                on_event=events.append,
            ).run(specs + [bad])
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 1
        assert "not_a_strategy" in failed[0].failure
        assert failed[0].label.endswith("not_a_strategy @ 16x")


def _tiny_real_config(queue_dir, **overrides) -> SweepConfig:
    """A ≥12-cell grid of real (non-crashy) micro experiments."""
    base = dict(
        model="lenet-300-100",
        dataset="cifar10",
        strategies=("global_weight", "random"),
        compressions=(1, 2, 4, 8),
        seeds=(0, 1),
        model_kwargs=dict(input_size=8, in_channels=3),
        dataset_kwargs=dict(n_train=64, n_val=32, size=8, noise=0.5),
        pretrain=tiny_train(),
        finetune=tiny_train(),
        executor="queue",
        executor_options=dict(
            queue_dir=str(queue_dir), local_workers=0, lease_timeout=3.0,
        ),
    )
    base.update(overrides)
    return SweepConfig(**base)


def _popen(argv, tmp_path, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_ARTIFACTS"] = str(tmp_path / "artifacts")
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        env=env, cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        **kwargs,
    )


@pytest.mark.slow
class TestQueueMultiProcess:
    """The acceptance flow, with real OS processes and a real kill."""

    def test_submit_two_workers_one_killed_matches_serial(self, tmp_path):
        """`python -m repro run --executor queue` + two `python -m repro
        worker` processes complete a 14-cell sweep even with one worker
        SIGKILLed mid-run, and the table equals the SerialExecutor table."""
        queue_dir = tmp_path / "q"
        config = _tiny_real_config(queue_dir)
        config_path = config.save(tmp_path / "sweep.json")
        specs = config.expand()
        assert len(specs) >= 12  # the acceptance floor: a real grid
        out = tmp_path / "rows.json"

        submit = _popen(
            ["run", str(config_path), "--out", str(out),
             "--wait-timeout", "600"],
            tmp_path,
        )
        workers = [
            _popen(["worker", str(queue_dir), "--idle-timeout", "30",
                    "--worker-id", f"w{i}"], tmp_path)
            for i in range(2)
        ]
        try:
            # let the fleet make progress, then kill one worker mid-run
            done_dir = queue_dir / "done"
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if done_dir.exists() and len(list(done_dir.glob("*.json"))) >= 2:
                    break
                time.sleep(0.2)
            workers[0].send_signal(signal.SIGKILL)
            stdout, _ = submit.communicate(timeout=600)
            assert submit.returncode == 0, stdout
        finally:
            for proc in [submit] + workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

        # no cell was quarantined, every cell landed
        counts = WorkQueue(queue_dir).counts()
        assert counts["failed"] == 0
        assert counts["done"] == len(specs)

        produced = ResultSet.load(out)
        serial_rows = SerialExecutor(cache=ResultCache(tmp_path / "ref")).run(specs)
        reference = assemble_results(specs, serial_rows, config.strategies)
        assert [r.to_dict() for r in produced] == [
            r.to_dict() for r in reference
        ]

    def test_worker_subprocess_survives_hard_crash_cell(self, tmp_path):
        """A crashy 'exit' cell os._exits the first worker (no cleanup, no
        fail report); the lease expires and a relaunched worker — importing
        the fixture module via --import — finishes the healed cell."""
        queue_dir = tmp_path / "q"
        queue = WorkQueue(queue_dir, lease_timeout=1.0, max_retries=2)
        spec = crashy_spec(
            cell="hardcrash", behavior="exit", fail_times=1,
            scratch=str(tmp_path / "scratch"),
        )
        h = queue.submit(spec)

        first = _popen(
            ["worker", str(queue_dir), "--import", "exp_fixtures",
             "--idle-timeout", "10"],
            tmp_path,
        )
        first.communicate(timeout=120)
        assert first.returncode == 17  # died inside the cell, mid-lease
        assert queue.state(h) == "leased"  # the dangling lease it left

        second = _popen(
            ["worker", str(queue_dir), "--import", "exp_fixtures",
             "--idle-timeout", "10"],
            tmp_path,
        )
        stdout, _ = second.communicate(timeout=120)
        assert second.returncode == 0, stdout
        assert queue.state(h) == "done"
        payload = queue.payload(h)
        assert "lease expired" in payload["failures"][0]["error"]
        assert ResultCache(queue_dir / "cache").get(spec) is not None
