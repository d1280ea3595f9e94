"""Unit tests for the experiment harness: configs, trainer, results."""

import numpy as np
import pytest

from repro.analysis import ResultFrame
from repro.experiment import (
    DATASETS,
    ExperimentSpec,
    OptimizerConfig,
    PruningExperiment,
    PruningResult,
    ResultSet,
    TrainConfig,
    Trainer,
    build_optimizer,
    cifar_finetune_config,
    fix_seeds,
    imagenet_finetune_config,
)
from repro.models import MODELS
from repro.optim import SGD, Adam
from repro.pruning import GlobalMagWeight, Pruner


class TestConfigs:
    def test_cifar_defaults_match_appendix_c(self):
        cfg = cifar_finetune_config()
        assert cfg.optimizer.name == "adam"
        assert cfg.optimizer.lr == pytest.approx(3e-4)
        assert cfg.batch_size == 64
        assert cfg.epochs == 30

    def test_imagenet_defaults_match_appendix_c(self):
        cfg = imagenet_finetune_config()
        assert cfg.optimizer.name == "sgd"
        assert cfg.optimizer.nesterov
        assert cfg.optimizer.momentum == pytest.approx(0.9)
        assert cfg.optimizer.lr == pytest.approx(1e-3)
        assert cfg.batch_size == 256

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(name="rmsprop")
        with pytest.raises(ValueError):
            OptimizerConfig(lr=-1.0)

    def test_build_optimizer_dispatch(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        assert isinstance(build_optimizer(m, cifar_finetune_config()), Adam)
        assert isinstance(build_optimizer(m, imagenet_finetune_config()), SGD)

    def test_config_to_dict(self):
        d = cifar_finetune_config().to_dict()
        assert d["optimizer"]["name"] == "adam"


class TestDatasetRegistry:
    def test_known_datasets(self):
        ds = DATASETS.create("cifar10", n_train=32, n_val=16, size=8)
        assert len(ds.train) == 32

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            DATASETS.create("cifar11")


class TestTrainer:
    def _config(self, epochs=3):
        return TrainConfig(
            epochs=epochs,
            batch_size=32,
            optimizer=OptimizerConfig("adam", 2e-3),
            early_stop_patience=None,
        )

    def test_loss_decreases(self, tiny_cifar):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=3)
        trainer = Trainer(m, tiny_cifar, self._config(), seed=0)
        history = trainer.run()
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_history_schema(self, tiny_cifar):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=3)
        history = Trainer(m, tiny_cifar, self._config(epochs=1), seed=0).run()
        assert set(history[0]) >= {"epoch", "train_loss", "val_loss", "val_top1"}

    def test_early_stopping_halts(self, tiny_cifar):
        cfg = TrainConfig(
            epochs=50,
            batch_size=32,
            optimizer=OptimizerConfig("sgd", lr=1e-8),  # no progress -> stop
            early_stop_patience=2,
        )
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=3)
        history = Trainer(m, tiny_cifar, cfg, seed=0).run()
        assert len(history) < 50

    def test_masked_training_keeps_masks(self, tiny_cifar):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=3)
        registry = Pruner(m, GlobalMagWeight()).prune(4)
        trainer = Trainer(m, tiny_cifar, self._config(epochs=2), seed=0, masks=registry)
        trainer.run()
        registry.validate()

    def test_determinism_given_seed(self, tiny_cifar):
        def run():
            fix_seeds(0)
            m = MODELS.create("lenet-300-100", input_size=8, in_channels=3, seed=0)
            Trainer(m, tiny_cifar, self._config(epochs=1), seed=7).run()
            return m.fc3.weight.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestResults:
    def _result(self, **kw):
        base = dict(
            model="resnet-56", dataset="cifar10", strategy="global_weight",
            compression=4.0, seed=0, top1=0.8, baseline_top1=0.9,
        )
        base.update(kw)
        return PruningResult(**base)

    def test_delta_top1(self):
        assert self._result().delta_top1 == pytest.approx(-0.1)

    def test_roundtrip_dict(self):
        r = self._result()
        r2 = PruningResult.from_dict(r.to_dict())
        assert r2.to_dict() == r.to_dict()

    def test_resultset_filter(self):
        rs = ResultSet([self._result(seed=s, strategy=st)
                        for s in (0, 1) for st in ("a", "b")])
        frame = rs.to_frame()
        assert len(frame.filter(strategy="a")) == 2
        assert len(frame.filter(strategy="a", seed=1)) == 1
        assert rs.strategies() == ["a", "b"]
        assert rs.seeds() == [0, 1]

    def test_save_load_roundtrip(self, tmp_path):
        rs = ResultSet([self._result(seed=s) for s in range(3)])
        path = tmp_path / "results.json"
        rs.save(path)
        rs2 = ResultSet.load(path)
        assert len(rs2) == 3
        assert rs2.results[0].model == "resnet-56"

    def test_curve_mean_std(self):
        rs = [
            self._result(seed=0, compression=2.0, top1=0.8),
            self._result(seed=1, compression=2.0, top1=0.9),
            self._result(seed=0, compression=4.0, top1=0.7),
        ]
        pts = ResultFrame.from_results(rs).curve()
        assert len(pts) == 2
        assert pts[0].x == 2.0
        assert pts[0].mean == pytest.approx(0.85)
        assert pts[0].std == pytest.approx(np.std([0.8, 0.9], ddof=1))
        assert pts[1].std == 0.0
        assert pts[0].n == 2


class TestPruningExperimentIntegration:
    @pytest.fixture(scope="class")
    def mini_result(self):
        spec = ExperimentSpec(
            model="lenet-300-100",
            dataset="cifar10",
            strategy="global_weight",
            compression=4.0,
            seed=0,
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=192, n_val=96, size=8),
            pretrain=TrainConfig(epochs=2, batch_size=32,
                                 optimizer=OptimizerConfig("adam", 2e-3),
                                 early_stop_patience=None),
            finetune=TrainConfig(epochs=1, batch_size=32,
                                 optimizer=OptimizerConfig("adam", 3e-4),
                                 early_stop_patience=None),
        )
        return PruningExperiment(spec).run()

    def test_metrics_populated(self, mini_result):
        r = mini_result
        assert r.actual_compression == pytest.approx(4.0, rel=0.02)
        assert r.theoretical_speedup > 1.0
        assert r.total_params > r.nonzero_params > 0
        assert r.dense_flops > r.effective_flops > 0
        assert 0 <= r.top1 <= 1
        assert r.pretrained_key != ""

    def test_finetune_recovers_accuracy(self, mini_result):
        assert mini_result.top1 >= mini_result.pre_finetune_top1 - 0.02

    def test_baseline_no_prune_path(self):
        spec = ExperimentSpec(
            model="lenet-300-100",
            dataset="cifar10",
            strategy="global_weight",
            compression=1.0,
            seed=0,
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=192, n_val=96, size=8),
            pretrain=TrainConfig(epochs=2, batch_size=32,
                                 optimizer=OptimizerConfig("adam", 2e-3),
                                 early_stop_patience=None),
        )
        r = PruningExperiment(spec).run()
        assert r.actual_compression == 1.0
        assert r.top1 == pytest.approx(r.baseline_top1)

    def test_checkpoint_cache_reused(self, mini_result):
        # same pretraining config -> same checkpoint key
        spec = ExperimentSpec(
            model="lenet-300-100",
            dataset="cifar10",
            strategy="random",
            compression=2.0,
            seed=1,
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=192, n_val=96, size=8),
            pretrain=TrainConfig(epochs=2, batch_size=32,
                                 optimizer=OptimizerConfig("adam", 2e-3),
                                 early_stop_patience=None),
            finetune=TrainConfig(epochs=1, batch_size=32,
                                 optimizer=OptimizerConfig("adam", 3e-4),
                                 early_stop_patience=None),
        )
        r = PruningExperiment(spec).run()
        assert r.pretrained_key == mini_result.pretrained_key
        assert r.baseline_top1 == pytest.approx(mini_result.baseline_top1)
