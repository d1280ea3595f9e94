"""A warm per-process memo changes no row.

Each process memoizes the dataset, the decoded checkpoint and the unpruned
control that its cells share, and a cell takes its final Top-1/Top-5 from
the fine-tune's own evaluation.  The reference twin of every cell is the
same cell run after every memo is cleared, plus an explicit ``evaluate`` of
the model it leaves behind.
"""

import json
import shutil
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DataLoader, SyntheticCIFAR10
from repro.experiment import (
    ExperimentSpec,
    OptimizerConfig,
    PruningExperiment,
    QueueWorker,
    ResultCache,
    TrainConfig,
    WorkQueue,
    baseline_spec_for,
    expand_sweep,
)
from repro.experiment import prune as prune_module
from repro.experiment.datasets import DATASETS
from repro.experiment.train import EVAL_BATCH_SIZE
from repro.metrics import evaluate
from repro.metrics import flops as flops_module
from repro.models import pretrained
from repro.models.pretrained import load_checkpoint, save_checkpoint
from repro.utils import BoundedMemo

PRETRAIN = TrainConfig(
    epochs=1, batch_size=32, optimizer=OptimizerConfig("adam", 2e-3),
    early_stop_patience=None,
)
DATASET_KWARGS = (
    {"n_train": 96, "n_val": 48, "size": 8, "noise": 0.5},
    {"n_train": 96, "n_val": 48, "size": 8, "noise": 0.5, "seed": 1},
)


def clear_memos():
    prune_module._DATASETS.clear()
    prune_module._CONTROLS.clear()
    pretrained._STATES.clear()


def finetune(**overrides):
    config = dict(
        epochs=1, batch_size=32, optimizer=OptimizerConfig("adam", 3e-4),
        early_stop_patience=None,
    )
    config.update(overrides)
    return TrainConfig(**config)


def cell(strategy="global_gradient", compression=4.0, seed=0, data=0,
         dataset="cifar10", **finetune_overrides):
    return ExperimentSpec(
        model="lenet-300-100",
        dataset=dataset,
        strategy=strategy,
        compression=compression,
        seed=seed,
        model_kwargs={"input_size": 8, "in_channels": 3},
        dataset_kwargs=dict(DATASET_KWARGS[data]),
        pretrain=PRETRAIN,
        finetune=finetune(**finetune_overrides),
    )


SIZE_FIELDS = (
    "total_params", "nonzero_params", "dense_flops", "effective_flops",
    "theoretical_speedup",
)


def row_json(row):
    return json.dumps(row.to_dict(), sort_keys=True)


def eval_loader_for(experiment):
    """The loader ``PruningExperiment.run`` takes its final metrics on."""
    return DataLoader(
        experiment.dataset.val, batch_size=EVAL_BATCH_SIZE, shuffle=False,
        seed=experiment.spec.seed, transform=experiment.dataset.eval_transform(),
    )


def run_cold(spec):
    """The reference twin: every memo cleared, final metrics re-evaluated."""
    clear_memos()
    experiment = PruningExperiment(spec)
    row = experiment.run()
    final = evaluate(experiment.model, eval_loader_for(experiment))
    assert (row.top1, row.top5) == (final["top1"], final["top5"])
    return row, experiment.baseline_result


@pytest.fixture
def count_evaluate(monkeypatch):
    """Calls ``PruningExperiment.run`` makes to ``evaluate`` itself (the
    fine-tune's per-epoch evaluations are not counted)."""
    calls = []

    def counting(model, loader, *args, **kwargs):
        calls.append(loader.batch_size)
        return evaluate(model, loader, *args, **kwargs)

    monkeypatch.setattr(prune_module, "evaluate", counting)
    return calls


@pytest.fixture
def own_artifacts(tmp_path, monkeypatch):
    """A private checkpoint store, so a test may rewrite a checkpoint."""
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "artifacts"))
    clear_memos()
    yield tmp_path / "artifacts"
    clear_memos()


CELLS = [
    cell(strategy, compression, seed, data)
    for strategy in ("global_gradient", "random")
    for compression in (1.0, 4.0)
    for seed in (0, 1)
    for data in (0, 1)
]
_COLD = {}


def cold_rows(index):
    if index not in _COLD:
        row, baseline = run_cold(CELLS[index])
        _COLD[index] = (
            row_json(row), None if baseline is None else row_json(baseline))
    return _COLD[index]


class TestWarmMemoTwin:
    @settings(max_examples=12, deadline=None)
    @given(order=st.lists(st.integers(0, len(CELLS) - 1), min_size=1, max_size=8))
    def test_any_order_of_cells_gives_the_cold_rows(self, order):
        expected = [cold_rows(i) for i in order]
        clear_memos()
        for i, (row, baseline) in zip(order, expected):
            experiment = PruningExperiment(CELLS[i])
            assert row_json(experiment.run()) == row, CELLS[i]
            got = experiment.baseline_result
            assert (None if got is None else row_json(got)) == baseline

    def test_wide_finetune_batches_still_evaluate(self, count_evaluate):
        spec = cell(batch_size=256)
        cold, _ = run_cold(spec)
        PruningExperiment(spec).run()  # warm every memo
        del count_evaluate[:]
        row = PruningExperiment(spec).run()
        # pre-fine-tune and final: the fine-tune's val batches are 256 wide
        assert count_evaluate == [EVAL_BATCH_SIZE, EVAL_BATCH_SIZE]
        assert row_json(row) == row_json(cold)

        del count_evaluate[:]
        PruningExperiment(cell(batch_size=EVAL_BATCH_SIZE)).run()
        assert count_evaluate == [EVAL_BATCH_SIZE]  # pre-fine-tune only


class _Recorded(prune_module.Trainer):
    """A Trainer that keeps every instance a cell fine-tunes with."""

    made = []

    def run(self):
        history = super().run()
        _Recorded.made.append(self)
        return history


class TestFinalMetrics:
    @pytest.mark.parametrize("case, overrides", [
        ("restore_best", dict(epochs=3)),
        ("last_epoch", dict(epochs=3, restore_best=False)),
        # sgd at 1e-5 leaves top1 flat: epoch 0 is best, every later one ties
        ("tied_best", dict(epochs=4, optimizer=OptimizerConfig("sgd", 1e-5))),
        ("early_stop", dict(epochs=8, early_stop_patience=1,
                            optimizer=OptimizerConfig("sgd", 1e-5))),
        ("no_epochs", dict(epochs=0)),
    ])
    def test_final_metrics_equal_an_explicit_evaluate(
            self, case, overrides, monkeypatch, count_evaluate):
        monkeypatch.setattr(prune_module, "Trainer", _Recorded)
        spec = cell(strategy="random", **overrides)
        PruningExperiment(spec).run()  # warm the control
        _Recorded.made.clear()
        del count_evaluate[:]
        experiment = PruningExperiment(spec)
        row = experiment.run()
        loader = eval_loader_for(experiment)
        final = evaluate(experiment.model, loader)
        assert (row.top1, row.top5) == (final["top1"], final["top5"])

        trainer, = _Recorded.made
        history = trainer.history
        if case == "no_epochs":
            assert history == [] and trainer.final_eval is None
            assert len(count_evaluate) == 2  # pre-fine-tune, then the final
            return
        assert len(count_evaluate) == 1  # pre-fine-tune only
        # the whole dict, loss included, is that of the weights kept
        assert trainer.final_eval == final
        tops = [record["val_top1"] for record in history]
        kept = len(history) - 1 if case == "last_epoch" else tops.index(max(tops))
        assert trainer.final_eval["loss"] == history[kept]["val_loss"]
        if case == "tied_best":
            assert kept == 0 and tops.count(tops[0]) == len(tops) > 1
            assert history[-1]["val_loss"] != history[0]["val_loss"]
        if case == "early_stop":
            assert len(history) < spec.finetune.epochs


class TestSizeFields:
    # an untrained model pruned 8x, then its control: SIZE_FIELDS as the
    # implementation that traced once per FLOPs field computed them
    PINNED = [
        ("lenet-5", {"input_size": 16, "in_channels": 3}, 16, "random",
         (21686, 2475, 172200.0, 17040.0, 10.105633802816902),
         (21686, 21450, 172200.0, 172200.0, 1.0)),
        ("lenet-5", {"input_size": 16, "in_channels": 3}, 16, "global_weight",
         (21686, 2475, 172200.0, 15060.0, 11.434262948207172),
         (21686, 21450, 172200.0, 172200.0, 1.0)),
        ("resnet-20", {"width_scale": 0.25}, 8, "global_weight",
         (17534, 1986, 164768.0, 31832.0, 5.176174918321186),
         (17534, 17328, 164768.0, 164768.0, 1.0)),
    ]

    @pytest.mark.parametrize("model, model_kwargs, size, strategy, row, control",
                             PINNED)
    def test_one_trace_per_row_gives_the_pinned_fields(
            self, model, model_kwargs, size, strategy, row, control,
            monkeypatch):
        untrained = finetune(epochs=0)
        spec = ExperimentSpec(
            model=model, dataset="cifar10", strategy=strategy, compression=8.0,
            seed=0, model_kwargs=model_kwargs,
            dataset_kwargs={"n_train": 64, "n_val": 32, "size": size},
            pretrain=untrained, finetune=untrained,
        )
        traced = []
        real_trace = flops_module.trace_layers

        def counting(*args):
            traced.append(args)
            return real_trace(*args)

        monkeypatch.setattr(flops_module, "trace_layers", counting)
        clear_memos()
        for expected_traces in (2, 1):  # control and row, then the row only
            del traced[:]
            experiment = PruningExperiment(spec)
            got = experiment.run().to_dict()
            assert len(traced) == expected_traces
            assert tuple(got[name] for name in SIZE_FIELDS) == row
            baseline = experiment.baseline_result.to_dict()
            assert tuple(baseline[name] for name in SIZE_FIELDS) == control


class TestFaultFixture:
    """The crashy dataset's ``sleep`` fires per execution, although the
    dataset is built once per process."""

    def test_sleep_fires_in_every_execution(self, monkeypatch, tmp_path):
        import exp_fixtures

        slept = []
        monkeypatch.setattr(exp_fixtures, "time", SimpleNamespace(sleep=slept.append))
        spec = exp_fixtures.crashy_spec(cell="memo-slow", sleep=0.25)
        first = PruningExperiment(spec)
        first.run()  # pretrains, if the checkpoint is new
        del slept[:]
        for seed in (0, 1):
            experiment = PruningExperiment(replace(spec, seed=seed))
            assert experiment.dataset is first.dataset
            experiment.run()
        assert slept == [0.25, 0.25]  # one fine-tune each

        once = exp_fixtures.crashy_spec(
            cell="memo-hang-once", sleep=0.25, fail_times=1, scratch=str(tmp_path))
        for seed in (0, 1, 0):
            PruningExperiment(replace(once, seed=seed)).run()
        assert slept == [0.25] * 3  # only the first trainer built on it


class TestHits:
    def test_interleaved_seeds_measure_each_control_once(self, count_evaluate):
        # a queue claims cells in hash order, which interleaves the seeds
        clear_memos()
        for _ in range(2):
            for seed in range(4):
                PruningExperiment(cell(compression=1.0, seed=seed)).run()
        assert count_evaluate == [EVAL_BATCH_SIZE] * 4


class TestInvalidation:
    def test_rewritten_checkpoint_is_read_and_measured_again(
            self, own_artifacts, count_evaluate):
        spec = cell(compression=1.0)
        experiment = PruningExperiment(spec)
        experiment.run()
        assert count_evaluate == [EVAL_BATCH_SIZE]  # the control, once
        PruningExperiment(spec).run()
        assert count_evaluate == [EVAL_BATCH_SIZE]  # a hit

        state = load_checkpoint(experiment.pretrained_key)
        save_checkpoint(
            experiment.pretrained_key, {k: v * 0.5 for k, v in state.items()})
        reloaded = load_checkpoint(experiment.pretrained_key)
        assert reloaded is not state
        assert reloaded.identity != state.identity
        row = PruningExperiment(spec).run()
        assert count_evaluate == [EVAL_BATCH_SIZE] * 2
        cold, _ = run_cold(spec)
        assert row_json(row) == row_json(cold)

    def test_switched_artifacts_dir_misses(
            self, own_artifacts, monkeypatch, count_evaluate):
        spec = cell(compression=1.0)
        first = PruningExperiment(spec)
        row = first.run()
        moved = own_artifacts.parent / "moved"
        shutil.copytree(own_artifacts, moved)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(moved))
        second = PruningExperiment(spec)
        assert row_json(second.run()) == row_json(row)
        assert count_evaluate == [EVAL_BATCH_SIZE] * 2
        assert second.checkpoint[0].startswith(str(moved))
        assert second.checkpoint[1:] != first.checkpoint[1:]

    def test_reregistered_dataset_is_built_and_measured_again(
            self, own_artifacts, count_evaluate):
        builds = []

        def probe(**kwargs):
            builds.append(kwargs)
            return SyntheticCIFAR10(**kwargs)

        def probe_again(**kwargs):
            return probe(**kwargs)

        DATASETS.register("memo-probe", probe)
        try:
            spec = cell(compression=1.0, dataset="memo-probe")
            row = PruningExperiment(spec).run()
            PruningExperiment(spec).run()
            assert len(builds) == 1 and count_evaluate == [EVAL_BATCH_SIZE]
            DATASETS.register("memo-probe", probe_again, override=True)
            assert row_json(PruningExperiment(spec).run()) == row_json(row)
            assert len(builds) == 2
            assert count_evaluate == [EVAL_BATCH_SIZE] * 2
        finally:
            DATASETS.unregister("memo-probe")


class TestReadOnlyValues:
    def test_memoized_arrays_refuse_writes(self):
        clear_memos()
        experiment = PruningExperiment(cell())
        experiment.run()
        with pytest.raises(ValueError):
            experiment.dataset.train.x[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            experiment.dataset.val.y[0] = 1
        state = load_checkpoint(experiment.pretrained_key)
        assert state is load_checkpoint(experiment.pretrained_key)
        with pytest.raises(ValueError):
            state["fc1.weight"][...] = 0.0
        with pytest.raises(TypeError):
            state["fc1.weight"] = np.zeros_like(state["fc1.weight"])

    def test_a_fine_tuned_model_never_aliases_the_memo(self):
        experiment = PruningExperiment(cell())
        experiment.run()
        state = load_checkpoint(experiment.pretrained_key)
        for name, param in experiment.model.named_parameters():
            assert not np.shares_memory(param.data, state[name])
        # pruning zeroed weights in the model, not in the memoized state
        assert np.count_nonzero(experiment.model.fc1.weight.data) < np.count_nonzero(
            state["fc1.weight"])


class TestWorkerThreads:
    def _drain(self, tmp_path, name, specs, n_threads):
        clear_memos()
        queue = WorkQueue(tmp_path / f"q-{name}")
        cache = ResultCache(tmp_path / f"cache-{name}")
        for spec in specs:
            queue.submit(spec)
        threads = [
            threading.Thread(
                target=QueueWorker(queue, cache, worker_id=f"{name}-{i}").run,
                kwargs=dict(idle_timeout=0.2, poll_interval=0.01),
            )
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' memo lookups
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert queue.counts().get("done", 0) == len(specs)
        rows = {}
        for spec in specs:
            for s in (spec, baseline_spec_for(spec)):
                row = cache.get(s)
                if row is not None:
                    rows[(s.strategy, s.compression, s.seed)] = row_json(row)
        return rows

    def test_two_threads_leave_the_rows_one_worker_does(self, tmp_path):
        specs = expand_sweep(
            model="lenet-300-100", dataset="cifar10",
            strategies=["global_gradient", "random"], compressions=[1, 2, 4],
            seeds=[0, 1], model_kwargs={"input_size": 8, "in_channels": 3},
            dataset_kwargs=dict(DATASET_KWARGS[0]), pretrain=PRETRAIN,
            finetune=finetune(),
        )
        one = self._drain(tmp_path, "one", specs, n_threads=1)
        two = self._drain(tmp_path, "two", specs, n_threads=2)
        assert len(one) == len(specs) and one == two


class TestBoundedMemo:
    def _hammer(self, memo, n_keys, n_threads=8, rounds=3000):
        seen = [dict() for _ in range(n_threads)]
        errors = []

        def worker(i):
            try:
                for j in range(rounds):
                    key = (i + j) % n_keys
                    value = memo.get(key, lambda: object())
                    seen[i].setdefault(key, set()).add(id(value))
                    assert len(memo) <= memo._size
            except Exception as exc:  # reported below, with the thread's key
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        return seen

    def test_threads_that_miss_together_share_the_first_value(self):
        memo = BoundedMemo(4)
        seen = self._hammer(memo, n_keys=4)
        for key in range(4):
            ids = set().union(*(s.get(key, set()) for s in seen))
            assert len(ids) == 1, key  # nothing evicted: one value per key

    def test_eviction_under_contention_keeps_the_bound(self):
        memo = BoundedMemo(2)
        self._hammer(memo, n_keys=7)
        assert len(memo) == 2
        memo.clear()
        assert len(memo) == 0
