"""Smoke tests for the ``python -m repro`` CLI (run / expand / ls / cache)."""

import json

import pytest

from repro.cli import main
from repro.experiment import (
    ExperimentSpec,
    ResultCache,
    ResultSet,
    SweepConfig,
    OptimizerConfig,
    TrainConfig,
    spec_hash,
)


def tiny_sweep_file(tmp_path, **overrides):
    train = dict(epochs=1, batch_size=32,
                 optimizer=dict(name="adam", lr=2e-3),
                 early_stop_patience=None, restore_best=True)
    payload = dict(
        model="lenet-300-100",
        model_kwargs=dict(input_size=8, in_channels=3),
        dataset="cifar10",
        dataset_kwargs=dict(n_train=128, n_val=64, size=8, noise=0.5),
        strategies=["global_weight", "random"],
        compressions=[1, 2],
        seeds=[0],
        pretrain=train,
        finetune=dict(train, optimizer=dict(name="adam", lr=3e-4)),
    )
    payload.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload))
    return path


class TestLs:
    def test_single_registry(self, capsys):
        assert main(["ls", "models"]) == 0
        out = capsys.readouterr().out
        assert "resnet-20" in out and "lenet-5" in out

    def test_all_registries(self, capsys):
        assert main(["ls"]) == 0
        out = capsys.readouterr().out
        for section in ("models:", "datasets:", "strategies:", "schedules:",
                        "optimizers:", "executors:"):
            assert section in out
        assert "one_shot" in out and "serial" in out

    def test_unknown_registry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["ls", "nonsense"])


class TestExpand:
    def test_lists_cells_and_hashes(self, tmp_path, capsys):
        path = tiny_sweep_file(tmp_path)
        assert main(["expand", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 cell(s)" in out  # 1 deduped baseline + 2 strategies @ 2x
        assert "baseline (compression 1)" in out
        assert "global_weight @ 2x" in out

    def test_json_mode_round_trips_specs(self, tmp_path, capsys):
        path = tiny_sweep_file(tmp_path)
        assert main(["expand", str(path), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 3
        for entry in entries:
            h = entry.pop("hash")
            assert spec_hash(ExperimentSpec.from_dict(entry)) == h


class TestRun:
    def test_run_end_to_end_and_cache_resume(self, tmp_path, capsys):
        path = tiny_sweep_file(tmp_path)
        out_file = tmp_path / "rows.json"
        argv = ["run", str(path), "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out_file)]
        assert main(argv) == 0
        rows = ResultSet.load(out_file)
        assert len(rows) == 4  # 2 baseline clones + 2 strategies @ 2x
        assert rows.strategies() == ["global_weight", "random"]

        # second invocation: pure cache hits, byte-identical output
        before = out_file.read_text()
        assert main(argv) == 0
        assert out_file.read_text() == before
        assert "[cache hit]" in capsys.readouterr().out

    def test_sharded_runs_assemble_from_cache(self, tmp_path, capsys):
        """Two --shard halves fill one cache; the unsharded run then hits
        on every cell and writes the bytes a one-shot run writes."""
        path = tiny_sweep_file(tmp_path)
        cache_dir = str(tmp_path / "cache")
        for shard in ("0/2", "1/2"):
            assert main(["run", str(path), "--shard", shard,
                         "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("[done]") == 3 and "[cache hit]" not in out

        merged = tmp_path / "merged.json"
        assert main(["run", str(path), "--cache-dir", cache_dir,
                     "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert out.count("[cache hit]") == 3 and "[done]" not in out

        one_shot = tmp_path / "one_shot.json"
        assert main(["run", str(path), "--cache-dir", str(tmp_path / "fresh"),
                     "--out", str(one_shot)]) == 0
        assert merged.read_bytes() == one_shot.read_bytes()

    def test_missing_config_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", str(tmp_path / "nope.json")])


class TestQueueCLI:
    """`run --executor queue` + the `worker` subcommand, in-process."""

    def test_run_via_queue_with_local_worker(self, tmp_path, capsys):
        """A bare queue run completes on its own: the submitter's default
        local worker thread drains the queue it just filled, the result
        cache defaults into the queue directory, and the table matches a
        plain serial run of the same config."""
        path = tiny_sweep_file(
            tmp_path, compressions=[1, 2], strategies=["global_weight"]
        )
        queue_dir = tmp_path / "q"
        out_file = tmp_path / "rows.json"
        assert main(["run", str(path), "--executor", "queue",
                     "--queue-dir", str(queue_dir),
                     "--wait-timeout", "120",
                     "--out", str(out_file)]) == 0
        assert (queue_dir / "cache").is_dir()  # cache defaulted into queue
        from repro.experiment import WorkQueue

        counts = WorkQueue(queue_dir).counts()
        assert counts["done"] == 2 and counts["failed"] == 0

        serial_out = tmp_path / "serial.json"
        assert main(["run", str(path), "--cache-dir", str(tmp_path / "ref"),
                     "--out", str(serial_out)]) == 0
        produced = ResultSet.load(out_file)
        reference = ResultSet.load(serial_out)
        assert [r.to_dict() for r in produced] == [
            r.to_dict() for r in reference
        ]

    def test_worker_subcommand_drains_a_queue(self, tmp_path, capsys):
        from repro.experiment import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        config = SweepConfig.load(tiny_sweep_file(
            tmp_path, compressions=[1, 2], strategies=["global_weight"]
        ))
        specs = config.expand()
        for spec in specs:
            queue.submit(spec)
        assert main(["worker", str(tmp_path / "q"),
                     "--idle-timeout", "0", "--worker-id", "cli-w"]) == 0
        out = capsys.readouterr().out
        assert "cli-w" in out and "exiting after 2 cell(s)" in out
        assert queue.counts()["done"] == 2
        cache = ResultCache(tmp_path / "q" / "cache")
        assert all(cache.get(s) is not None for s in specs)

    def test_queue_without_queue_dir_rejected(self, tmp_path):
        path = tiny_sweep_file(tmp_path)
        with pytest.raises(ValueError, match="queue directory"):
            main(["run", str(path), "--executor", "queue"])

    def test_worker_once_exits_on_empty_queue(self, tmp_path, capsys):
        from repro.experiment import WorkQueue

        WorkQueue(tmp_path / "q")  # valid but empty
        assert main(["worker", str(tmp_path / "q"), "--once"]) == 0
        assert "exiting after 0 cell(s)" in capsys.readouterr().out

    def test_no_cache_with_queue_rejected(self, tmp_path):
        path = tiny_sweep_file(tmp_path)
        with pytest.raises(ValueError, match="no-cache"):
            main(["run", str(path), "--executor", "queue",
                  "--queue-dir", str(tmp_path / "q"), "--no-cache"])

    def test_queue_flags_on_other_executor_rejected(self, tmp_path):
        path = tiny_sweep_file(tmp_path)
        with pytest.raises(ValueError, match="--executor queue"):
            main(["run", str(path), "--lease-timeout", "30"])

    def test_executor_override_drops_config_executor_options(self, tmp_path):
        """A queue config replayed with --executor serial must not forward
        queue-only constructor options to SerialExecutor."""
        path = tiny_sweep_file(
            tmp_path, compressions=[1, 2], strategies=["global_weight"],
            executor="queue",
            executor_options={"queue_dir": str(tmp_path / "q"),
                              "lease_timeout": 3.0},
        )
        out_file = tmp_path / "rows.json"
        assert main(["run", str(path), "--executor", "serial",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_file)]) == 0
        assert len(ResultSet.load(out_file)) == 2
        assert not (tmp_path / "q").exists()  # the queue was never touched


class TestCacheCommands:
    def _populate(self, tmp_path, n=3):
        cache = ResultCache(tmp_path / "cache")
        cfg = SweepConfig(
            model="lenet-300-100", dataset="cifar10",
            strategies=("global_weight",), compressions=(1, 2, 4), seeds=(0,),
            pretrain=TrainConfig(epochs=1, optimizer=OptimizerConfig("adam", 2e-3)),
        )
        from repro.experiment.results import PruningResult

        for spec in cfg.expand()[:n]:
            cache.put(spec, PruningResult(
                model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
                compression=spec.compression, seed=spec.seed, top1=0.5,
            ))
        return cache

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries       : 3" in out
        assert "stale entries : 0" in out

    def test_gc_removes_stale_schema_orphans(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        # hand-craft an entry from an older schema version
        orphan = cache.root / "ff" / "ff00000000000000.json"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text(json.dumps({"schema": 1, "result": {}}))
        assert main(["cache", "gc",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "stale-schema orphans removed : 1" in out
        assert "entries kept                 : 3" in out
        assert not orphan.exists()

    def test_gc_max_entries(self, tmp_path, capsys):
        self._populate(tmp_path, n=3)
        assert main(["cache", "gc", "--max-entries", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "evicted (count) removed      : 2" in out
        assert "entries kept                 : 1" in out

    def test_clear(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "clear",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "removed 3 entries" in capsys.readouterr().out


class TestReportJson:
    def test_stdout_document_is_the_file_document(self, tmp_path, capsysbinary):
        """``--json -`` writes the bytes ``--json PATH`` writes (and the
        served ``/report`` sends): no trailing newline."""
        from repro.experiment.results import PruningResult

        rows = [
            PruningResult(model="m", dataset="d", strategy=strategy,
                          compression=float(c), seed=0, top1=0.9 - 0.1 * c,
                          baseline_top1=0.9, actual_compression=float(c))
            for strategy in ("global_weight", "random") for c in (1, 2, 4)
        ]
        source = tmp_path / "results.json"
        ResultSet(rows).save(source)
        assert main(["report", str(source), "--json", "-"]) == 0
        stdout = capsysbinary.readouterr().out
        path = tmp_path / "report.json"
        assert main(["report", str(source), "--json", str(path)]) == 0
        assert stdout == path.read_bytes()
        assert not stdout.endswith(b"\n")
