"""Tests for the fleet layer: launcher, batch planner, verify audit, watch.

Fast tests cover the hosts-file parser, launcher argv construction (with a
recording in-process launcher so nothing is spawned), plan idempotence,
every verify audit category and its ``--retry`` repair, the watch
renderer/state, and the CLI surfaces.  The fault-injection battery — real
launched worker processes, the launcher SIGKILLed, a worker SIGKILLed
mid-batch, a corrupted done marker — is marked ``slow`` and asserts
``repro fleet verify --retry`` converges the queue to byte-equality with
a SerialExecutor run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from exp_fixtures import (
    corrupt_done_marker,
    crashy_spec,
    tiny_train,
    write_hosts_file,
)
from repro.cli import main as cli_main
from repro.experiment import (
    QueueExecutor,
    QueueWorker,
    ResultCache,
    SerialExecutor,
    SweepConfig,
    WorkQueue,
    assemble_results,
    spec_hash,
)
from repro.experiment.prune import baseline_spec_for
from repro.fleet import (
    LAUNCHERS,
    HostSpec,
    LocalLauncher,
    SshLauncher,
    WatchState,
    batch_manifest_path,
    config_hash,
    fleet_manifest_path,
    fleet_plan,
    launch_fleet,
    parse_hosts_file,
    plan_batches,
    read_batch_manifest,
    read_fleet_manifest,
    render_watch,
    verify_fleet,
    watch_queue,
    worker_alive,
)
from repro.fleet.plan import planned_specs

REPO = Path(__file__).resolve().parent.parent


def _fleet_config(queue_dir, strategies=("global_weight", "random"),
                  compressions=(2, 3), seeds=(0,), cell="fleet",
                  behavior="ok", lease_timeout=3.0, max_retries=2,
                  **behavior_kwargs) -> SweepConfig:
    """A crashy-dataset sweep config wired for the queue executor."""
    return SweepConfig(
        model="lenet-300-100",
        dataset="crashy",
        strategies=list(strategies),
        compressions=list(compressions),
        seeds=list(seeds),
        model_kwargs=dict(input_size=4, in_channels=3),
        dataset_kwargs=dict(cell=cell, behavior=behavior, **behavior_kwargs),
        pretrain=tiny_train(),
        finetune=tiny_train(),
        executor="queue",
        executor_options=dict(
            queue_dir=str(queue_dir), local_workers=0,
            lease_timeout=lease_timeout, max_retries=max_retries,
        ),
    )


def _drain(queue_dir, cache_dir=None) -> WorkQueue:
    """Run an in-process worker until the queue has nothing claimable."""
    queue = WorkQueue(queue_dir)
    cache = ResultCache(cache_dir or Path(queue_dir) / "cache")
    worker = QueueWorker(queue, cache, worker_id="drain",
                         heartbeat_interval=None)
    while worker.run_once():
        pass
    return queue


# -- hosts file -------------------------------------------------------------

class TestHostsFile:
    def test_parse_basic(self, tmp_path):
        path = write_hosts_file(tmp_path / "hosts.txt", [
            "# comment line",
            "local workers=4",
            "",
            "gpu-box-1 workers=8  # trailing comment",
            "gpu-box-2 python=/opt/py3 launcher=ssh",
        ])
        hosts = parse_hosts_file(path)
        assert [h.host for h in hosts] == ["local", "gpu-box-1", "gpu-box-2"]
        assert [h.workers for h in hosts] == [4, 8, 1]
        assert hosts[2].python == "/opt/py3"

    def test_default_workers_applies_when_unspecified(self, tmp_path):
        path = write_hosts_file(tmp_path / "h", ["local", "box workers=3"])
        hosts = parse_hosts_file(path, default_workers=5)
        assert [h.workers for h in hosts] == [5, 3]

    def test_launcher_inference(self):
        assert HostSpec("local").launcher_name() == "local"
        assert HostSpec("localhost").launcher_name() == "local"
        assert HostSpec("127.0.0.1").launcher_name() == "local"
        assert HostSpec("gpu-box-9").launcher_name() == "ssh"
        assert HostSpec("gpu-box-9", launcher="local").launcher_name() == "local"

    @pytest.mark.parametrize("line, fragment", [
        ("local workers", "key=value"),
        ("local frobnicate=2", "unknown option"),
        ("local workers=nope", "must be an integer"),
        ("local workers=0", "must be >= 1"),
        ("local launcher=teleport", "unknown launcher"),
    ])
    def test_malformed_lines_fail_with_lineno(self, tmp_path, line, fragment):
        path = write_hosts_file(tmp_path / "h", ["# header", line])
        with pytest.raises(ValueError, match=fragment) as err:
            parse_hosts_file(path)
        assert ":2:" in str(err.value)  # the offending line number

    def test_empty_file_is_an_error(self, tmp_path):
        path = write_hosts_file(tmp_path / "h", ["# nothing", ""])
        with pytest.raises(ValueError, match="no hosts"):
            parse_hosts_file(path)


# -- launchers --------------------------------------------------------------

class _RecordingLauncher:
    """Registered test backend: records spawns, starts nothing."""

    spawned = []  # (argv, log_path, env) per spawn, shared by design

    def build_argv(self, host, worker_argv):
        return ["rec", host.host] + list(worker_argv)

    def spawn(self, argv, log_path, env=None):
        _RecordingLauncher.spawned.append((list(argv), Path(log_path), env))
        return 40000 + len(_RecordingLauncher.spawned)


if "recording" not in LAUNCHERS:
    LAUNCHERS.register("recording", _RecordingLauncher)


class TestLaunchers:
    def test_registry_has_builtin_backends(self):
        assert "local" in LAUNCHERS and "ssh" in LAUNCHERS
        assert isinstance(LAUNCHERS.create("local"), LocalLauncher)

    def test_local_build_argv_uses_this_interpreter(self):
        argv = LocalLauncher().build_argv(
            HostSpec("local"), ["worker", "/q", "--worker-id", "w0"])
        assert argv[:3] == [sys.executable, "-m", "repro"]
        assert argv[3:] == ["worker", "/q", "--worker-id", "w0"]

    def test_ssh_build_argv_quotes_remote_command(self):
        argv = SshLauncher().build_argv(
            HostSpec("gpu-box", python="/opt/py3"),
            ["worker", "/shared dir/q", "--worker-id", "gpu-box-w0"])
        assert argv[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert argv[3] == "gpu-box"
        remote = argv[4]
        assert remote.startswith("/opt/py3 -m repro worker")
        assert "'/shared dir/q'" in remote  # space-safe quoting

    def test_launch_refuses_a_non_queue_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no work queue"):
            launch_fleet([HostSpec("local")], tmp_path / "nope")

    def test_launch_records_manifest_and_merges(self, tmp_path):
        queue_dir = tmp_path / "q"
        WorkQueue(queue_dir)  # scaffold the layout
        _RecordingLauncher.spawned.clear()
        hosts = [HostSpec("a", workers=2, launcher="recording"),
                 HostSpec("b", workers=1, launcher="recording")]
        manifest = launch_fleet(hosts, queue_dir, imports=("exp_fixtures",),
                                idle_timeout=5.0, kernel_backend="reference")
        assert manifest["launches"] == 1
        ids = [w["worker_id"] for w in manifest["workers"]]
        assert ids == ["a-w0", "a-w1", "b-w2"]
        assert len(_RecordingLauncher.spawned) == 3
        argv0 = _RecordingLauncher.spawned[0][0]
        assert argv0[:2] == ["rec", "a"]
        assert "--import" in argv0 and "exp_fixtures" in argv0
        assert "--idle-timeout" in argv0 and "--kernel-backend" in argv0
        # logs live under the queue dir, recorded relative to it
        assert manifest["workers"][0]["log"] == "fleet/logs/a-w0.log"
        # a second launch merges: worker ids keep counting up
        merged = launch_fleet([HostSpec("c", launcher="recording")], queue_dir)
        assert merged["launches"] == 2
        assert [w["worker_id"] for w in merged["workers"]] == ids + ["c-w3"]
        on_disk = read_fleet_manifest(queue_dir)
        assert on_disk == merged
        assert fleet_manifest_path(queue_dir).exists()

    def test_worker_alive_probes(self):
        assert worker_alive({"pid": os.getpid()}) is True
        assert worker_alive({"pid": 2 ** 22 + 1}) in (False, None)
        assert worker_alive({"pid": None}) is None
        assert worker_alive({}) is None


# -- plan -------------------------------------------------------------------

class TestFleetPlan:
    def test_plan_batches_chunks_and_dedupes(self):
        specs = [crashy_spec(cell=f"p{i}") for i in range(5)]
        batches = plan_batches(specs + specs, batch_size=2)
        assert [len(b) for b in batches] == [2, 2, 1]
        flat = [spec_hash(s) for b in batches for s in b]
        assert flat == [spec_hash(s) for s in specs]  # order kept, no dupes

    def test_plan_batches_rejects_bad_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            plan_batches([], 0)

    def test_config_hash_tracks_content(self, tmp_path):
        a = _fleet_config(tmp_path / "q")
        b = _fleet_config(tmp_path / "q")
        c = _fleet_config(tmp_path / "q", seeds=(1,))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_fleet_plan_submits_and_records(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        specs = config.expand()
        manifest = fleet_plan(config, queue_dir, batch_size=3)
        assert manifest["n_cells"] == len(specs)
        assert sum(b["submitted"] for b in manifest["batches"]) == len(specs)
        assert WorkQueue(queue_dir).counts()["pending"] == len(specs)
        hashes = [h for b in manifest["batches"] for h in b["hashes"]]
        assert hashes == [spec_hash(s) for s in specs]
        assert read_batch_manifest(queue_dir) == manifest
        assert batch_manifest_path(queue_dir).exists()
        # queue settings came from the config's executor_options
        queue = WorkQueue(queue_dir)
        assert queue.lease_timeout == 3.0 and queue.max_retries == 2

    def test_replan_same_config_is_idempotent(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        fleet_plan(config, queue_dir, batch_size=3)
        n = WorkQueue(queue_dir).counts()["pending"]
        again = fleet_plan(config, queue_dir, batch_size=3)
        assert WorkQueue(queue_dir).counts()["pending"] == n  # no dupes
        assert sum(b["already_queued"] for b in again["batches"]) == n
        assert sum(b["submitted"] for b in again["batches"]) == 0

    def test_replan_different_config_refused_unless_forced(self, tmp_path):
        queue_dir = tmp_path / "q"
        fleet_plan(_fleet_config(queue_dir), queue_dir)
        other = _fleet_config(queue_dir, seeds=(7,))
        with pytest.raises(ValueError, match="--force"):
            fleet_plan(other, queue_dir)
        manifest = fleet_plan(other, queue_dir, force=True)
        assert manifest["config_hash"] == config_hash(other)

    def test_dry_run_writes_manifest_submits_nothing(self, tmp_path):
        queue_dir = tmp_path / "q"
        manifest = fleet_plan(_fleet_config(queue_dir), queue_dir,
                              submit=False)
        assert manifest["submitted"] is False
        assert WorkQueue(queue_dir).counts()["pending"] == 0
        assert read_batch_manifest(queue_dir)["n_cells"] > 0

    def test_planned_specs_recovers_cells_from_manifest(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        manifest = fleet_plan(config, queue_dir)
        by_hash = planned_specs(manifest)
        assert set(by_hash) == {spec_hash(s) for s in config.expand()}
        for h, spec in by_hash.items():
            assert spec_hash(spec) == h


# -- verify -----------------------------------------------------------------

class TestFleetVerify:
    def _planned_and_drained(self, tmp_path, **config_kwargs):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir, **config_kwargs)
        fleet_plan(config, queue_dir)
        _drain(queue_dir)
        return queue_dir, config

    def test_clean_after_drain(self, tmp_path):
        queue_dir, config = self._planned_and_drained(tmp_path)
        audit, repairs = verify_fleet(queue_dir)
        assert audit.clean, audit.problems()
        assert audit.done == len(config.expand())
        # baseline rows published by the worker are expected, not orphans
        assert audit.cached > audit.done - 1
        assert not any(repairs.values())

    def test_ghost_done_detected_and_repaired(self, tmp_path):
        queue_dir, config = self._planned_and_drained(tmp_path)
        h = spec_hash(config.expand()[0])
        (queue_dir / "cache" / h[:2] / f"{h}.json").unlink()
        audit, _ = verify_fleet(queue_dir)
        assert audit.ghost_done == [h] and not audit.clean
        audit, repairs = verify_fleet(queue_dir, retry=True)
        assert repairs["reenqueued"] == [h]
        assert WorkQueue(queue_dir).state(h) == "pending"
        _drain(queue_dir)
        final, _ = verify_fleet(queue_dir)
        assert final.clean, final.problems()

    @pytest.mark.parametrize("mode", ["garbage", "swap"])
    def test_corrupt_marker_detected_and_repaired(self, tmp_path, mode):
        queue_dir, config = self._planned_and_drained(tmp_path)
        h = spec_hash(config.expand()[1])
        corrupt_done_marker(queue_dir, h, mode=mode)
        audit, _ = verify_fleet(queue_dir)
        assert h in audit.corrupt_markers and not audit.clean
        # repair recovers the spec from the batch manifest and re-enqueues
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert h in repairs["reenqueued"]
        _drain(queue_dir)
        final, _ = verify_fleet(queue_dir)
        assert final.clean, final.problems()

    def test_orphan_cache_entry_detected_and_removed(self, tmp_path):
        queue_dir, _ = self._planned_and_drained(tmp_path)
        cache = ResultCache(queue_dir / "cache")
        orphan = crashy_spec(cell="never-planned")
        # reuse a real published row's payload under the orphan's key
        some = next(cache._entries())
        row_payload = json.loads(some.read_text())["result"]
        from repro.experiment.results import PruningResult

        cache.put(orphan, PruningResult.from_dict(row_payload))
        oh = spec_hash(orphan)
        audit, _ = verify_fleet(queue_dir)
        assert audit.orphan_cache == [oh]
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert repairs["removed_orphans"] == [oh]
        assert not cache.path_for(orphan).exists()
        final, _ = verify_fleet(queue_dir)
        assert final.clean, final.problems()

    def test_cache_mismatch_detected_and_repaired(self, tmp_path):
        queue_dir, config = self._planned_and_drained(tmp_path)
        spec = config.expand()[0]
        h = spec_hash(spec)
        path = queue_dir / "cache" / h[:2] / f"{h}.json"
        payload = json.loads(path.read_text())
        impostor = crashy_spec(cell="impostor")
        payload["spec"] = impostor.to_dict()
        path.write_text(json.dumps(payload, default=float))
        audit, _ = verify_fleet(queue_dir)
        assert audit.cache_mismatches == [h]
        # the marker at h claims a cache row for h — that claim is broken too
        assert h in audit.ghost_done
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert h in repairs["removed_orphans"] and h in repairs["reenqueued"]
        _drain(queue_dir)
        final, _ = verify_fleet(queue_dir)
        assert final.clean, final.problems()

    def test_missing_planned_cell_resubmitted(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        fleet_plan(config, queue_dir)
        h = spec_hash(config.expand()[0])
        (queue_dir / "pending" / f"{h}.json").unlink()
        audit, _ = verify_fleet(queue_dir)
        assert audit.missing == [h]
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert h in repairs["reenqueued"]
        assert WorkQueue(queue_dir).state(h) == "pending"

    def test_expired_lease_requeued(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir, lease_timeout=1.0)
        fleet_plan(config, queue_dir)
        queue = WorkQueue(queue_dir)
        claim = queue.claim("doomed")
        past = time.time() - 60
        os.utime(queue.leased_dir / f"{claim.hash}.lease", (past, past))
        audit, _ = verify_fleet(queue_dir)
        assert audit.expired == [claim.hash]
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert repairs["requeued_expired"] == [claim.hash]
        assert WorkQueue(queue_dir).state(claim.hash) == "pending"

    def test_quarantined_cells_reported_and_retried(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir, behavior="raise", max_retries=0)
        fleet_plan(config, queue_dir)
        _drain(queue_dir)
        queue = WorkQueue(queue_dir)
        assert queue.counts()["failed"] > 0
        audit, _ = verify_fleet(queue_dir)
        assert sorted(audit.failed) == audit.failed and audit.failed
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert sorted(repairs["retried_failed"]) == audit.failed
        assert WorkQueue(queue_dir).counts()["failed"] == 0

    def test_store_mirror_lag_reported(self, tmp_path):
        queue_dir, config = self._planned_and_drained(tmp_path)
        store_dir = tmp_path / "store"
        audit, _ = verify_fleet(queue_dir, store_dir=store_dir)
        assert len(audit.store_missing) == len(config.expand())
        # ingest the cache into the store: the lag disappears
        from repro.store import ColumnStore

        ColumnStore(store_dir).ingest(queue_dir / "cache")
        audit, _ = verify_fleet(queue_dir, store_dir=store_dir)
        assert audit.store_missing == [] and audit.clean

    def test_unplanned_queue_still_audits(self, tmp_path):
        """No batch manifest: done-vs-cache checks still run (plan=0)."""
        queue_dir = tmp_path / "q"
        queue = WorkQueue(queue_dir)
        spec = crashy_spec(cell="unplanned")
        queue.submit(spec)
        _drain(queue_dir)
        audit, _ = verify_fleet(queue_dir)
        assert audit.planned == 0 and audit.clean
        h = spec_hash(spec)
        (queue_dir / "cache" / h[:2] / f"{h}.json").unlink()
        audit, _ = verify_fleet(queue_dir)
        assert audit.ghost_done == [h]
        # the spec still rides in the done marker, so repair works
        _, repairs = verify_fleet(queue_dir, retry=True)
        assert repairs["reenqueued"] == [h]


# -- watch ------------------------------------------------------------------

class TestWatch:
    def test_state_throughput_and_eta(self):
        state = WatchState(window=60.0)
        state.observe(0, now=1000.0)
        assert state.throughput() is None and state.eta(10) is None
        state.observe(30, now=1030.0)
        assert state.throughput() == pytest.approx(1.0)
        assert state.eta(45) == pytest.approx(45.0)

    def test_state_window_trims_old_samples(self):
        state = WatchState(window=10.0)
        for i in range(20):
            state.observe(i * 5, now=1000.0 + i)
        # rate over the window only (5 cells/s), not since the start
        assert state.throughput() == pytest.approx(5.0)
        assert state.samples[0][0] >= 1000.0 + 19 - 11

    def test_render_includes_counts_bar_workers_and_failures(self):
        stats = {
            "root": "/shared/q",
            "lease_timeout": 30.0,
            "max_retries": 2,
            "counts": {"pending": 5, "leased": 2, "done": 13, "failed": 1},
            "leases": [],
            "workers": [
                {"worker": "a-w0", "cells": 1, "freshest_beat": 2.0,
                 "expired": False},
                {"worker": "b-w1", "cells": 1, "freshest_beat": 99.0,
                 "expired": True},
            ],
            "failed": [{"hash": "f" * 16, "attempts": 3,
                        "error": "CrashyError: injected"}],
        }
        state = WatchState()
        state.observe(3, now=1000.0)
        state.observe(13, now=1010.0)
        text = render_watch(stats, state,
                            fleet={"launches": 2, "workers": [
                                {"worker_id": "a-w0", "pid": os.getpid()},
                                {"worker_id": "b-w1", "pid": 2 ** 22 + 1},
                            ]})
        assert "/shared/q" in text
        assert "pending     5" in text and "done    13" in text
        assert "61.9% of 21" in text
        assert "a-w0" in text and "EXPIRED" in text
        assert "throughput 60.0 cells/min" in text
        assert "eta 7s" in text  # 7 remaining at 1 cell/s
        assert "quarantined (1):" in text and "CrashyError" in text
        assert "fleet: 2 launched, 1 running, 1 exited" in text

    def test_render_on_empty_queue_stats(self, tmp_path):
        stats = WorkQueue(tmp_path / "q").stats()
        text = render_watch(stats, WatchState())
        assert "pending     0" in text

    def test_watch_queue_exits_when_drained(self, tmp_path):
        queue_dir = tmp_path / "q"
        fleet_plan(_fleet_config(queue_dir), queue_dir)
        _drain(queue_dir)
        seen = []
        code = watch_queue(queue_dir, interval=0.01, clear=False,
                           out=seen.append)
        assert code == 0
        assert len(seen) == 1 and "100.0%" in seen[0]
        assert "\x1b" not in seen[0]  # --no-clear: no terminal escapes

    def test_watch_queue_iterations_cap_and_failed_exit_code(self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir, behavior="raise", max_retries=0)
        fleet_plan(config, queue_dir)
        _drain(queue_dir)  # everything quarantined
        seen = []
        code = watch_queue(queue_dir, interval=0.01, iterations=2,
                           clear=False, out=seen.append)
        assert code == 1  # quarantined cells surface in the exit code
        assert len(seen) == 1  # drained on the first refresh


# -- CLI --------------------------------------------------------------------

class TestFleetCLI:
    def test_plan_verify_watch_roundtrip(self, tmp_path, capsys):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        config_path = config.save(tmp_path / "sweep.json")
        assert cli_main(["fleet", "plan", str(config_path),
                         str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "planned" in out and "batch" in out
        # verify on the un-drained queue: clean (nothing done yet)
        assert cli_main(["fleet", "verify", str(queue_dir)]) == 0
        _drain(queue_dir)
        assert cli_main(["queue", "watch", str(queue_dir), "--no-clear",
                         "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "100.0%" in out
        assert cli_main(["fleet", "verify", str(queue_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_json_and_exit_code_on_problems(self, tmp_path, capsys):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        fleet_plan(config, queue_dir)
        _drain(queue_dir)
        h = spec_hash(config.expand()[0])
        (queue_dir / "cache" / h[:2] / f"{h}.json").unlink()
        assert cli_main(["fleet", "verify", str(queue_dir), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["ghost_done"] == [h]
        assert payload["audit"]["clean"] is False
        assert cli_main(["fleet", "verify", str(queue_dir), "--retry"]) == 1
        assert "reenqueued x1" in capsys.readouterr().out
        _drain(queue_dir)
        assert cli_main(["fleet", "verify", str(queue_dir)]) == 0

    def test_plan_conflict_and_launch_errors_exit_2(self, tmp_path, capsys):
        queue_dir = tmp_path / "q"
        config = _fleet_config(queue_dir)
        config_path = config.save(tmp_path / "sweep.json")
        assert cli_main(["fleet", "plan", str(config_path),
                         str(queue_dir)]) == 0
        other = _fleet_config(queue_dir, seeds=(9,))
        other_path = other.save(tmp_path / "other.json")
        assert cli_main(["fleet", "plan", str(other_path),
                         str(queue_dir)]) == 2
        assert "--force" in capsys.readouterr().err
        assert cli_main(["fleet", "plan", str(other_path), str(queue_dir),
                         "--force"]) == 0
        hosts = write_hosts_file(tmp_path / "hosts.txt", ["local workers=0"])
        assert cli_main(["fleet", "launch", str(hosts), str(queue_dir)]) == 2
        assert cli_main(["fleet", "launch", str(tmp_path / "absent.txt"),
                         str(queue_dir)]) == 2
        good = write_hosts_file(tmp_path / "good.txt", ["local"])
        assert cli_main(["fleet", "launch", str(good),
                         str(tmp_path / "not-a-queue")]) == 2

    def test_verify_missing_queue_exits_2(self, tmp_path, capsys):
        assert cli_main(["fleet", "verify", str(tmp_path / "absent")]) == 2
        assert "no work queue" in capsys.readouterr().err


# -- fault-injection battery ------------------------------------------------

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


def _stop_while_leasing(queue_dir, worker) -> list:
    """SIGSTOP a launched worker and return the cells it holds a live lease
    on; if it holds none, SIGCONT it and return [].  A stopped worker can
    finish no cell, so a returned lease is still held when it is killed."""
    os.kill(worker["pid"], signal.SIGSTOP)
    queue = WorkQueue(queue_dir)
    held = [
        lease.stem for lease in sorted((queue_dir / "leased").glob("*.lease"))
        if (queue.lease_info(lease.stem) or {}).get("worker")
        == worker["worker_id"]
        and not (queue_dir / "done" / f"{lease.stem}.json").exists()
    ]
    if not held:
        os.kill(worker["pid"], signal.SIGCONT)
    return held


def _wait_for(predicate, timeout: float, interval: float = 0.2) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.mark.slow
class TestFleetFaultInjection:
    """The headline battery: launched workers killed mid-batch, the
    launcher itself SIGKILLed, a done marker corrupted — and
    ``fleet verify --retry`` converges to SerialExecutor byte-equality."""

    def test_fleet_survives_kills_and_corruption_matches_serial(
            self, tmp_path):
        queue_dir = tmp_path / "q"
        config = _fleet_config(
            queue_dir,
            strategies=("global_weight", "random"),
            compressions=(2, 3, 4, 5),
            seeds=(0, 1),
            cell="battery",
            sleep=0.2,  # slow cells down so kills land mid-batch
            lease_timeout=3.0,
        )
        config_path = config.save(tmp_path / "sweep.json")
        specs = config.expand()
        assert len(specs) >= 12
        hosts = write_hosts_file(tmp_path / "hosts.txt", ["local workers=2"])

        plan = _popen(["fleet", "plan", str(config_path), str(queue_dir),
                       "--batch-size", "6"], tmp_path)
        stdout, _ = plan.communicate(timeout=120)
        assert plan.returncode == 0, stdout
        assert WorkQueue(queue_dir).counts()["pending"] == len(specs)

        # launch 2 workers, then SIGKILL the launcher itself: the workers
        # run in their own sessions and must keep draining the queue
        launcher = _popen(["fleet", "launch", str(hosts), str(queue_dir),
                           "--import", "exp_fixtures",
                           "--idle-timeout", "20"], tmp_path)
        assert _wait_for(
            lambda: (read_fleet_manifest(queue_dir) or {}).get("workers"),
            timeout=60,
        ), "launcher never wrote the fleet manifest"
        launcher.send_signal(signal.SIGKILL)
        launcher.communicate(timeout=60)

        manifest = read_fleet_manifest(queue_dir)
        pids = [w["pid"] for w in manifest["workers"]]
        assert len(pids) == 2
        done_dir = queue_dir / "done"
        try:
            # let the fleet make progress, then SIGKILL one worker mid-batch,
            # stopped while it holds a lease
            assert _wait_for(
                lambda: len(list(done_dir.glob("*.json"))) >= 2, timeout=120
            ), "fleet made no progress after the launcher died"
            held = []
            assert _wait_for(
                lambda: held.extend(
                    _stop_while_leasing(queue_dir, manifest["workers"][0])
                ) or held,
                timeout=60, interval=0.05,
            ), "the worker never held a lease after the fleet's first cells"
            os.kill(pids[0], signal.SIGKILL)

            # the survivor drains the rest (recovering the dead worker's
            # expired lease along the way)
            assert _wait_for(
                lambda: WorkQueue(queue_dir).counts()["pending"]
                + WorkQueue(queue_dir).counts()["leased"] == 0,
                timeout=240,
            ), f"queue never drained: {WorkQueue(queue_dir).counts()}"
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

        counts = WorkQueue(queue_dir).counts()
        assert counts["done"] == len(specs) and counts["failed"] == 0
        # the killed worker's lease expired and the survivor re-ran its cell
        for h in held:
            marker = json.loads((done_dir / f"{h}.json").read_text())
            assert marker["attempts"] >= 2, marker
            assert "lease expired" in marker["failures"][0]["error"], marker

        # injected storage faults: one marker corrupted, one cache row gone
        done_hashes = sorted(p.stem for p in done_dir.glob("*.json"))
        corrupt_done_marker(queue_dir, done_hashes[0], mode="garbage")
        ghost = done_hashes[1]
        (queue_dir / "cache" / ghost[:2] / f"{ghost}.json").unlink()

        verify = _popen(["fleet", "verify", str(queue_dir), "--retry"],
                        tmp_path)
        stdout, _ = verify.communicate(timeout=120)
        assert verify.returncode == 1, stdout  # problems found (and repaired)
        assert "corrupt_markers" in stdout and "ghost_done" in stdout
        assert WorkQueue(queue_dir).counts()["pending"] == 2

        # a relaunched fleet re-runs exactly the repaired cells
        relaunch = _popen(["fleet", "launch", str(hosts), str(queue_dir),
                           "--import", "exp_fixtures",
                           "--idle-timeout", "5"], tmp_path)
        stdout, _ = relaunch.communicate(timeout=120)
        assert relaunch.returncode == 0, stdout
        pids = [w["pid"] for w in read_fleet_manifest(queue_dir)["workers"]]
        try:
            assert _wait_for(
                lambda: WorkQueue(queue_dir).counts()["done"] == len(specs)
                and WorkQueue(queue_dir).counts()["leased"] == 0,
                timeout=240,
            ), f"repaired cells never re-ran: {WorkQueue(queue_dir).counts()}"
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

        final = _popen(["fleet", "verify", str(queue_dir)], tmp_path)
        stdout, _ = final.communicate(timeout=120)
        assert final.returncode == 0, stdout

        # convergence: the queue's assembled table is byte-equal to a
        # fresh SerialExecutor run of the same grid
        rows = QueueExecutor(
            queue_dir=str(queue_dir), local_workers=0,
            cache=ResultCache(queue_dir / "cache"), wait_timeout=60.0,
        ).run(specs)
        produced = assemble_results(specs, rows, config.strategies)
        serial_rows = SerialExecutor(
            cache=ResultCache(tmp_path / "ref")).run(specs)
        reference = assemble_results(specs, serial_rows, config.strategies)
        assert [r.to_dict() for r in produced] == [
            r.to_dict() for r in reference
        ]
