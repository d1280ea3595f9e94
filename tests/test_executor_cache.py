"""Spec expansion, result cache, and executor tests.

Fast tests cover the pure layers (expansion, hashing, cache I/O) and the
serial executor on a micro-sweep; multi-process equivalence tests are marked
``slow`` and excluded from the tier-1 suite (run with ``-m slow``).
"""

import numpy as np
import pytest

from repro.experiment import (
    OptimizerConfig,
    ParallelExecutor,
    PruningExperiment,
    ResultCache,
    SerialExecutor,
    SweepConfig,
    TrainConfig,
    assemble_results,
    expand_sweep,
    run_config,
    shard_specs,
    spec_hash,
)
from repro.experiment.results import PruningResult


def tiny_train(epochs=1):
    return TrainConfig(
        epochs=epochs,
        batch_size=32,
        optimizer=OptimizerConfig("adam", 2e-3),
        early_stop_patience=None,
    )


def tiny_specs(strategies=("global_weight",), compressions=(1, 2), seeds=(0,)):
    """A genuinely tiny but real grid: MLP on an 8px synthetic CIFAR."""
    return expand_sweep(
        model="lenet-300-100",
        dataset="cifar10",
        strategies=list(strategies),
        compressions=list(compressions),
        seeds=list(seeds),
        model_kwargs=dict(input_size=8, in_channels=3),
        dataset_kwargs=dict(n_train=128, n_val=64, size=8, noise=0.5),
        pretrain=tiny_train(),
        finetune=tiny_train(),
    )


class TestSpecHash:
    def test_deterministic(self):
        a, b = tiny_specs(), tiny_specs()
        assert [spec_hash(s) for s in a] == [spec_hash(s) for s in b]

    def test_unique_within_grid(self):
        specs = tiny_specs(("global_weight", "random"), (1, 2, 4), (0, 1))
        hashes = [spec_hash(s) for s in specs]
        assert len(set(hashes)) == len(hashes)

    def test_sensitive_to_every_axis(self):
        from dataclasses import replace

        base = tiny_specs()[1]  # the compression-2 cell
        for change in (
            dict(strategy="random"),
            dict(compression=4.0),
            dict(seed=9),
            dict(model="lenet-5"),
            dict(dataset="mnist"),
            dict(pretrain_seed=1),
            dict(finetune=tiny_train(epochs=2)),
            dict(model_kwargs=dict(input_size=8, in_channels=3, hidden=7)),
        ):
            assert spec_hash(replace(base, **change)) != spec_hash(base)

    def test_insensitive_to_kwargs_key_order(self):
        from dataclasses import replace

        base = tiny_specs()[0]
        flipped = replace(
            base, model_kwargs=dict(in_channels=3, input_size=8)
        )
        assert spec_hash(flipped) == spec_hash(base)

    def test_non_canonical_kwargs_fail_fast(self):
        # A tuple kwarg used to be stringified by json's default=str hook,
        # which made ``(8, 8)`` and ``[8, 8]`` alias iff their str() forms
        # matched whatever the hook emitted.  Now: lists hash, tuples raise.
        from dataclasses import replace

        base = tiny_specs()[0]
        listy = replace(base, dataset_kwargs=dict(shape=[8, 8]))
        assert spec_hash(listy)  # JSON-native: fine
        with pytest.raises(TypeError, match="dataset_kwargs"):
            spec_hash(replace(base, dataset_kwargs=dict(shape=(8, 8))))
        with pytest.raises(TypeError):
            spec_hash(replace(base, model_kwargs=dict(seeds={1, 2})))

    def test_tuple_and_list_kwargs_do_not_alias(self):
        # The regression guaranteed by fail-fast: no silent collision
        # between a tuple-carrying spec and its list twin.
        from dataclasses import replace

        base = tiny_specs()[0]
        listy = replace(base, dataset_kwargs=dict(shape=[8, 8]))
        tupley = replace(base, dataset_kwargs=dict(shape=(8, 8)))
        try:
            tuple_hash = spec_hash(tupley)
        except TypeError:
            tuple_hash = None  # fail-fast is the fix; aliasing is the bug
        assert tuple_hash != spec_hash(listy)

    def test_hash_values_unchanged_from_legacy_encoder(self):
        # canonical_json must be byte-identical to the old
        # ``json.dumps(..., sort_keys=True, default=str)`` for JSON-native
        # specs, or every existing cache entry would orphan.
        import hashlib
        import json
        from dataclasses import asdict

        from repro.experiment.cache import SCHEMA_VERSION

        for spec in tiny_specs(("global_weight", "random"), (1, 4), (0,)):
            legacy = hashlib.sha256(
                json.dumps(
                    {"schema": SCHEMA_VERSION, "spec": asdict(spec)},
                    sort_keys=True,
                    default=str,
                ).encode()
            ).hexdigest()[:16]
            assert spec_hash(spec) == legacy


class TestExpandSweep:
    def test_grid_shape_and_order(self):
        specs = tiny_specs(("global_weight", "random"), (1, 2, 4), (0, 1))
        # per seed: 1 deduped baseline + 2 compressions x 2 strategies
        assert len(specs) == 2 * (1 + 4)
        assert [s.seed for s in specs[:5]] == [0] * 5
        assert specs[0].compression == 1.0
        assert [(s.compression, s.strategy) for s in specs[1:5]] == [
            (2.0, "global_weight"), (2.0, "random"),
            (4.0, "global_weight"), (4.0, "random"),
        ]

    def test_duplicate_baseline_entries_deduped(self):
        """Regression: each duplicate compression<=1 entry used to re-run
        (and re-emit) the baseline."""
        once = tiny_specs(("global_weight", "random"), (1, 2), (0,))
        duped = tiny_specs(("global_weight", "random"), (1, 0.5, 1.0, 2), (0,))
        assert len(duped) == len(once) == 3
        assert [spec_hash(s) for s in duped] == [spec_hash(s) for s in once]

    def test_baseline_once_per_seed(self):
        from repro.experiment.runner import BASELINE_STRATEGY

        specs = tiny_specs(("global_weight", "random"), (1, 2), (0, 1, 2))
        baselines = [s for s in specs if s.compression <= 1.0]
        assert len(baselines) == 3
        assert {s.strategy for s in baselines} == {BASELINE_STRATEGY}

    def test_baseline_hash_independent_of_strategy_list(self):
        """Baseline cells are shared across sweeps with different strategy
        sets: same hash → same cache entry."""
        a = tiny_specs(("global_weight", "random"), (1,), (0,))
        b = tiny_specs(("random",), (1,), (0,))
        assert spec_hash(a[0]) == spec_hash(b[0])

    def test_no_dedupe_keeps_per_strategy_baselines(self):
        specs = expand_sweep(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=["global_weight", "random"],
            compressions=[1, 2],
            seeds=[0],
            dedupe_baselines=False,
        )
        assert len(specs) == 4
        assert [s.strategy for s in specs if s.compression <= 1.0] == [
            "global_weight", "random",
        ]

    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError):
            expand_sweep(model="m", dataset="d", strategies=[])


class TestAssembleResults:
    def _row(self, spec):
        return PruningResult(
            model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
            compression=spec.compression, seed=spec.seed, top1=0.5,
        )

    def test_baseline_replicated_per_strategy(self):
        strategies = ["global_weight", "random"]
        specs = tiny_specs(strategies, (1, 2), (0,))
        rs = assemble_results(specs, [self._row(s) for s in specs], strategies)
        assert len(rs) == 4  # 2 baseline clones + 2 pruned rows
        clones = [r for r in rs if r.compression == 1.0]
        assert [r.strategy for r in clones] == strategies
        assert clones[0] is not clones[1]

    def test_no_replication_passthrough(self):
        specs = expand_sweep(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=["global_weight"],
            compressions=[1, 2],
            seeds=[0],
            dedupe_baselines=False,
        )
        rows = [self._row(s) for s in specs]
        rs = assemble_results(specs, rows, ["global_weight"], replicate_baselines=False)
        assert [r.strategy for r in rs] == ["global_weight"] * 2
        assert rs.results[0] is rows[0]


class TestShardSpecs:
    def test_shards_partition_the_grid(self):
        specs = tiny_specs(("global_weight", "random"), (1, 2, 4), (0, 1))
        shards = [shard_specs(specs, i, 3) for i in range(3)]
        merged = [spec_hash(s) for shard in shards for s in shard]
        assert sorted(merged) == sorted(spec_hash(s) for s in specs)
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_single_shard_is_identity(self):
        specs = tiny_specs()
        assert shard_specs(specs, 0, 1) == list(specs)

    def test_invalid_shards_rejected(self):
        specs = tiny_specs()
        with pytest.raises(ValueError):
            shard_specs(specs, 2, 2)
        with pytest.raises(ValueError):
            shard_specs(specs, 0, 0)
        with pytest.raises(ValueError):
            shard_specs(specs, -1, 2)


class TestResultCache:
    def _row(self):
        return PruningResult(
            model="lenet-300-100", dataset="cifar10", strategy="global_weight",
            compression=2.0, seed=0, top1=0.625, actual_compression=1.98,
            extra={"note": "x"},
        )

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_specs()[0]
        assert cache.get(spec) is None
        assert not cache.contains(spec)
        assert len(cache) == 0

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_specs()[1]
        row = self._row()
        path = cache.put(spec, row)
        assert path.exists() and path.stem == spec_hash(spec)
        again = cache.get(spec)
        assert again is not row
        assert again.to_dict() == row.to_dict()
        assert cache.contains(spec) and spec in cache
        assert len(cache) == 1

    def test_hit_is_keyed_by_content(self, tmp_path):
        from dataclasses import replace

        cache = ResultCache(tmp_path / "cache")
        spec = tiny_specs()[1]
        cache.put(spec, self._row())
        assert cache.get(replace(spec, seed=5)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_specs()[0]
        cache.put(spec, self._row())
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = tiny_specs(("global_weight",), (1, 2, 4), (0,))
        for s in specs:
            cache.put(s, self._row())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_nonfinite_round_trip_stays_strict_json(self, tmp_path):
        # inf/NaN used to serialize as bare Infinity/NaN tokens (via
        # ``default=float`` + ``allow_nan`` defaults), which strict JSON
        # parsers reject.  They now ride in __nonfinite__ sentinels.
        import json
        import math

        cache = ResultCache(tmp_path / "cache")
        spec = tiny_specs()[1]
        row = self._row()
        row.actual_compression = float("inf")
        row.top1 = float("nan")
        row.extra = {"worst": float("-inf"), "list": [float("nan"), 1.0]}
        path = cache.put(spec, row)

        def reject(token):
            raise AssertionError(f"bare {token} token in cache entry")

        on_disk = json.loads(path.read_text(), parse_constant=reject)
        assert on_disk["result"]["actual_compression"] == {
            "__nonfinite__": "inf"
        }

        again = cache.get(spec)
        assert again.actual_compression == float("inf")
        assert math.isnan(again.top1)
        assert again.extra["worst"] == float("-inf")
        assert math.isnan(again.extra["list"][0])
        assert again.extra["list"][1] == 1.0

    def test_stray_files_excluded_from_iteration(self, tmp_path):
        # _entries() used to glob ``??/*.json`` blind, so editor temp
        # files and junk under shard dirs inflated len()/stats and could
        # crash gc/iteration.  Plant every flavour of stray and assert
        # none are counted, iterated, or deleted.
        cache = ResultCache(tmp_path / "cache")
        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        for s in specs:
            cache.put(s, self._row())
        shard = cache.path_for(specs[0]).parent
        strays = [
            shard / "orphan.json",                   # not a 16-hex name
            shard / "0123456789abcdef.json",         # hash not in this shard
            shard / (cache.path_for(specs[0]).name + ".tmp-123"),
        ]
        # a mis-sharded but otherwise well-formed hash: force a shard
        # prefix mismatch unless it accidentally matches
        if strays[1].name[:2] == shard.name:
            strays[1] = shard / "ffffffffffffffff.json"
        for stray in strays:
            stray.write_text("{}")

        assert len(cache) == 2
        from repro.experiment.cache import iter_cache_entries

        hashes = {h for h, _ in iter_cache_entries(cache.root)}
        assert hashes == {spec_hash(s) for s in specs}
        stats = cache.stats()
        assert stats["entries"] == 2
        for stray in strays:
            assert stray.exists()  # never deleted out from under the user


def _count_runs(monkeypatch):
    """Patch PruningExperiment.run to count invocations (still executing)."""
    calls = []
    original = PruningExperiment.run

    def counting(self):
        calls.append(self.spec)
        return original(self)

    monkeypatch.setattr(PruningExperiment, "run", counting)
    return calls


class TestSerialExecutor:
    def test_rows_align_with_specs(self, tmp_path):
        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        rows = SerialExecutor(cache=ResultCache(tmp_path / "c")).run(specs)
        assert len(rows) == 2
        for spec, row in zip(specs, rows):
            assert (row.strategy, row.compression, row.seed) == (
                spec.strategy, spec.compression, spec.seed
            )

    def test_second_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        cache = ResultCache(tmp_path / "c")
        first = SerialExecutor(cache=cache).run(specs)

        def boom(self):
            raise AssertionError("cache hit expected — experiment re-ran")

        monkeypatch.setattr(PruningExperiment, "run", boom)
        messages = []
        second = SerialExecutor(cache=cache, progress=messages.append).run(specs)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
        assert all(m.endswith("[cache hit]") for m in messages)

    def test_duplicate_specs_run_once(self, tmp_path, monkeypatch):
        calls = _count_runs(monkeypatch)
        specs = tiny_specs(("global_weight",), (2,), (0,))
        doubled = specs + [specs[0]]
        rows = SerialExecutor(cache=ResultCache(tmp_path / "c")).run(doubled)
        assert len(calls) == 1
        assert rows[0].to_dict() == rows[1].to_dict()
        assert rows[0] is not rows[1]

    def test_uncached_executor_still_works(self):
        specs = tiny_specs(("global_weight",), (2,), (0,))
        rows = SerialExecutor().run(specs)
        assert rows[0].actual_compression == pytest.approx(2.0, rel=0.03)


class TestExecutorFor:
    def test_worker_count_mapping(self):
        from repro.experiment import executor_for

        assert isinstance(executor_for(1), SerialExecutor)
        assert isinstance(executor_for(2), ParallelExecutor)
        assert executor_for(2).workers == 2
        assert executor_for(0).workers >= 1  # all cores
        assert executor_for(None).workers >= 1

    def test_negative_workers_rejected(self):
        from repro.experiment import executor_for

        with pytest.raises(ValueError):
            executor_for(-1)


class TestRunConfig:
    def test_matrix_and_baseline_replication(self, tmp_path):
        config = SweepConfig(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=("global_weight", "random"),
            compressions=(1, 1, 2),  # duplicate baseline entry on purpose
            seeds=(0,),
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=128, n_val=64, size=8, noise=0.5),
            pretrain=tiny_train(),
            finetune=tiny_train(),
        )
        results = run_config(config, cache=ResultCache(tmp_path / "c"))
        # 2 baseline clones + 2 strategies @ 2x; the duplicate "1" adds nothing
        assert len(results) == 4
        b = results.to_frame().filter(compression=1.0)
        assert b.unique("strategy") == ["global_weight", "random"]
        assert b["top1"][0] == b["top1"][1]

    def test_explicit_executor_plus_cache_rejected(self, tmp_path):
        config = SweepConfig(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=("global_weight",),
            compressions=(1, 2),
            seeds=(0,),
        )
        with pytest.raises(ValueError, match="not both"):
            run_config(
                config,
                executor=SerialExecutor(),
                cache=ResultCache(tmp_path / "c"),
            )


@pytest.mark.slow
class TestParallelExecutor:
    GRID = dict(
        strategies=("global_weight", "random"),
        compressions=(1, 2, 4),
        seeds=(0, 1),
    )

    def test_parallel_matches_serial_row_for_row(self, tmp_path):
        """Acceptance: 2 strategies x 3 compressions x 2 seeds, identical
        ResultSet rows in both modes; second parallel invocation completes
        purely from cache."""
        specs = tiny_specs(**self.GRID)
        serial_rows = SerialExecutor(cache=ResultCache(tmp_path / "serial")).run(specs)
        par_cache = ResultCache(tmp_path / "parallel")
        parallel_rows = ParallelExecutor(workers=2, cache=par_cache).run(specs)
        assert [r.to_dict() for r in parallel_rows] == [
            r.to_dict() for r in serial_rows
        ]

        strategies = list(self.GRID["strategies"])
        rs_serial = assemble_results(specs, serial_rows, strategies)
        rs_parallel = assemble_results(specs, parallel_rows, strategies)
        assert [r.to_dict() for r in rs_parallel] == [
            r.to_dict() for r in rs_serial
        ]

        # second invocation: all hits, no experiment executes
        import repro.experiment.prune as prune_mod

        def boom(self):
            raise AssertionError("cache hit expected — experiment re-ran")

        original = prune_mod.PruningExperiment.run
        prune_mod.PruningExperiment.run = boom
        try:
            again = ParallelExecutor(workers=2, cache=par_cache).run(specs)
        finally:
            prune_mod.PruningExperiment.run = original
        assert [r.to_dict() for r in again] == [r.to_dict() for r in parallel_rows]

    def test_partial_cache_resume(self, tmp_path):
        """Crash-resume: pre-populate half the cells, parallel run fills in
        only the rest and the assembled rows match an uncached serial run."""
        specs = tiny_specs(**self.GRID)
        cache = ResultCache(tmp_path / "resume")
        half = specs[: len(specs) // 2]
        for spec, row in zip(half, SerialExecutor().run(half)):
            cache.put(spec, row)
        rows = ParallelExecutor(workers=2, cache=cache).run(specs)
        reference = SerialExecutor().run(specs)
        assert [r.to_dict() for r in rows] == [r.to_dict() for r in reference]
        assert len(cache) == len(specs)

    def test_failed_cell_keeps_completed_results_cached(self, tmp_path):
        """One bad spec must not discard the good cells' work: the executor
        re-raises, but everything that finished is in the cache and a rerun
        without the bad spec completes from hits + the remainder."""
        from dataclasses import replace

        good = tiny_specs(**self.GRID)
        bad = replace(good[-1], strategy="not_a_strategy", compression=16.0)
        cache = ResultCache(tmp_path / "fail")
        with pytest.raises(KeyError, match="not_a_strategy"):
            ParallelExecutor(workers=2, cache=cache).run(good + [bad])
        assert len(cache) >= 1  # completed cells were persisted, not dropped
        rows = ParallelExecutor(workers=2, cache=cache).run(good)
        reference = SerialExecutor(cache=ResultCache(tmp_path / "ref")).run(good)
        assert [r.to_dict() for r in rows] == [r.to_dict() for r in reference]

    def test_sharded_runs_merge_via_cache(self, tmp_path):
        specs = tiny_specs(**self.GRID)
        cache = ResultCache(tmp_path / "shards")
        for i in range(2):
            ParallelExecutor(workers=2, cache=cache).run(shard_specs(specs, i, 2))
        assert len(cache) == len(specs)
        # merge invocation: everything is a hit
        merged = SerialExecutor(cache=cache, progress=None).run(specs)
        reference = SerialExecutor(cache=ResultCache(tmp_path / "ref")).run(specs)
        assert [r.to_dict() for r in merged] == [r.to_dict() for r in reference]


@pytest.mark.slow
class TestRunCLI:
    def test_cli_runs_and_caches(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiment import ResultSet

        config = SweepConfig(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=("global_weight", "random"),
            compressions=(1, 2),
            seeds=(0,),
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=128, n_val=64, size=8, noise=0.5),
            pretrain=tiny_train(),
            finetune=tiny_train(),
        )
        path = config.save(tmp_path / "sweep.json")
        out = tmp_path / "rows.json"
        argv = ["run", str(path), "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out)]
        assert main(argv) == 0
        rows = ResultSet.load(out)
        assert len(rows) == 4  # 2 baseline clones + 2 strategies @ 2x
        assert rows.strategies() == ["global_weight", "random"]

        # re-run across 2 processes: pure cache hits, identical output bytes
        before = out.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--workers", "2"]) == 0
        assert out.read_bytes() == before
        assert "[cache hit]" in capsys.readouterr().out


class TestResultCacheGC:
    def _fill(self, cache, n=4):
        specs = tiny_specs(("global_weight", "random"), (1, 2, 4), (0,))[:n]
        for spec in specs:
            cache.put(spec, PruningResult(
                model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
                compression=spec.compression, seed=spec.seed, top1=0.5,
            ))
        return specs

    def test_orphan_sweep_removes_stale_schema(self, tmp_path):
        import json as _json

        cache = ResultCache(tmp_path / "c")
        self._fill(cache, n=2)
        orphan = cache.root / "aa" / "aa00000000000000.json"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text(_json.dumps({"schema": 1, "result": {"top1": 0.1}}))
        torn = cache.root / "bb" / "bb00000000000000.json"
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text("{not json")
        removed = cache.gc()
        assert removed["stale"] == 2  # the old-schema entry and the torn file
        assert removed["kept"] == 2
        assert not orphan.exists() and not torn.exists()

    def test_age_based_eviction(self, tmp_path):
        import os as _os
        import time as _time

        cache = ResultCache(tmp_path / "c")
        specs = self._fill(cache, n=3)
        old = cache.path_for(specs[0])
        past = _time.time() - 1000
        _os.utime(old, (past, past))
        removed = cache.gc(max_age=500)
        assert removed["expired"] == 1
        assert removed["kept"] == 2
        assert not old.exists()

    def test_count_based_eviction_drops_oldest(self, tmp_path):
        import os as _os
        import time as _time

        cache = ResultCache(tmp_path / "c")
        specs = self._fill(cache, n=3)
        oldest = cache.path_for(specs[0])
        past = _time.time() - 1000
        _os.utime(oldest, (past, past))
        removed = cache.gc(max_entries=2)
        assert removed["evicted"] == 1
        assert not oldest.exists()
        assert len(cache) == 2

    def test_invalid_args_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(ValueError):
            cache.gc(max_age=-1)
        with pytest.raises(ValueError):
            cache.gc(max_entries=-1)

    def test_stats(self, tmp_path):
        from repro.experiment.cache import SCHEMA_VERSION

        cache = ResultCache(tmp_path / "c")
        self._fill(cache, n=2)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["size_bytes"] > 0
        assert stats["by_schema"] == {str(SCHEMA_VERSION): 2}
        assert stats["stale_entries"] == 0


class TestBaselineReplication:
    """Satellite: pruned cells leave the baseline row in the cache, so a
    shard holding only pruned cells still contributes baselines."""

    def test_pruned_cell_caches_baseline_row(self, tmp_path):
        from repro.experiment import baseline_spec_for

        baseline_spec, pruned_spec = tiny_specs(("global_weight",), (1, 2), (0,))
        cache = ResultCache(tmp_path / "c")
        SerialExecutor(cache=cache).run([pruned_spec])  # baseline never ran
        assert cache.contains(baseline_spec)
        assert baseline_spec_for(pruned_spec) == baseline_spec

    def test_synthesized_baseline_matches_executed_baseline(self, tmp_path):
        baseline_spec, pruned_spec = tiny_specs(("global_weight",), (1, 2), (0,))
        cache = ResultCache(tmp_path / "c")
        SerialExecutor(cache=cache).run([pruned_spec])
        synthesized = cache.get(baseline_spec)
        executed = SerialExecutor().run([baseline_spec])[0]
        assert synthesized.to_dict() == executed.to_dict()

    def test_merge_completes_from_hits_without_baseline_shard(self, tmp_path, monkeypatch):
        """A shard of only-pruned cells + a merge run over the full grid:
        the merge's baseline cells are cache hits, nothing re-executes."""
        specs = tiny_specs(("global_weight", "random"), (1, 2), (0,))
        pruned_only = [s for s in specs if s.compression > 1.0]
        cache = ResultCache(tmp_path / "c")
        SerialExecutor(cache=cache).run(pruned_only)

        def boom(self):
            raise AssertionError("cache hit expected — experiment re-ran")

        monkeypatch.setattr(PruningExperiment, "run", boom)
        rows = SerialExecutor(cache=cache).run(specs)
        assert [r.strategy for r in rows if r.compression <= 1.0]


class TestProgressEvents:
    """Satellite: executors report structured (done, total, elapsed)."""

    def test_serial_event_stream(self, tmp_path):
        from repro.experiment import ProgressEvent

        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        events = []
        SerialExecutor(
            cache=ResultCache(tmp_path / "c"), on_event=events.append
        ).run(specs)
        assert all(isinstance(e, ProgressEvent) for e in events)
        starts = [e for e in events if e.kind == "start"]
        dones = [e for e in events if e.kind == "done"]
        assert len(starts) == len(dones) == len(specs)
        assert [e.done for e in dones] == [1, 2]
        assert all(e.total == len(specs) for e in events)
        assert all(e.elapsed >= 0.0 for e in events)
        assert all(e.worker == 0 for e in dones)
        assert [e.worker_done for e in dones] == [1, 2]

    def test_cache_hits_reported_as_events(self, tmp_path):
        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        cache = ResultCache(tmp_path / "c")
        SerialExecutor(cache=cache).run(specs)
        events = []
        SerialExecutor(cache=cache, on_event=events.append).run(specs)
        assert [e.kind for e in events] == ["cache-hit", "cache-hit"]
        assert events[-1].done == len(specs)
        assert all(e.worker is None for e in events)

    def test_legacy_string_progress_still_works(self, tmp_path):
        specs = tiny_specs(("global_weight",), (1, 2), (0,))
        messages = []
        SerialExecutor(
            cache=ResultCache(tmp_path / "c"), progress=messages.append
        ).run(specs)
        assert len(messages) == len(specs)
        assert all("seed 0" in m for m in messages)


@pytest.mark.slow
class TestParallelProgressEvents:
    def test_parallel_event_stream_tracks_workers(self, tmp_path):
        specs = tiny_specs(("global_weight", "random"), (1, 2, 4), (0,))
        events = []
        ParallelExecutor(
            workers=2, cache=ResultCache(tmp_path / "c"),
            on_event=events.append,
        ).run(specs)
        dones = [e for e in events if e.kind == "done"]
        assert len(dones) == len(specs)
        assert sorted(e.done for e in dones) == list(range(1, len(specs) + 1))
        assert all(e.total == len(specs) for e in dones)
        assert all(e.worker is not None for e in dones)
        # per-worker completion counts sum to the total
        per_worker = {}
        for e in dones:
            per_worker[e.worker] = max(per_worker.get(e.worker, 0), e.worker_done)
        assert sum(per_worker.values()) == len(specs)
