"""Integration: a miniature Figure-7-style sweep reproducing the paper's
qualitative findings end-to-end through the public API."""

import pytest

from repro.experiment import (
    OptimizerConfig,
    SweepConfig,
    TrainConfig,
    run_config,
)
from repro.meta import audit_results
from repro.plotting import curves_from_results, export_curves_csv, render_curves


@pytest.fixture(scope="module")
def sweep():
    """2 strategies x {1,4,8}x x 2 seeds on a tiny LeNet-5/CIFAR-surrogate."""
    pre = TrainConfig(epochs=5, batch_size=32,
                      optimizer=OptimizerConfig("adam", 2e-3),
                      early_stop_patience=None)
    ft = TrainConfig(epochs=2, batch_size=32,
                     optimizer=OptimizerConfig("adam", 3e-4),
                     early_stop_patience=None)
    return run_config(SweepConfig(
        model="lenet-5",
        dataset="cifar10",
        strategies=("global_weight", "random"),
        compressions=(1, 4, 8),
        seeds=(0, 1),
        model_kwargs=dict(input_size=16, in_channels=3),
        dataset_kwargs=dict(n_train=512, n_val=192, size=16, noise=0.45),
        pretrain=pre,
        finetune=ft,
    ))


@pytest.fixture(scope="module")
def frame(sweep):
    return sweep.to_frame()


class TestSweepStructure:
    def test_full_matrix_produced(self, sweep):
        # 2 strategies x 3 compressions x 2 seeds
        assert len(sweep) == 12
        assert sweep.strategies() == ["global_weight", "random"]
        assert sweep.compressions() == [1.0, 4.0, 8.0]
        assert sweep.seeds() == [0, 1]

    def test_baseline_shared_across_strategies(self, frame):
        b_gw = frame.filter(strategy="global_weight", compression=1.0, seed=0)
        b_rd = frame.filter(strategy="random", compression=1.0, seed=0)
        assert b_gw["top1"][0] == b_rd["top1"][0]

    def test_same_initial_model_everywhere(self, sweep):
        keys = {r.pretrained_key for r in sweep}
        assert len(keys) == 1  # §7.3: one shared checkpoint

    def test_compressions_hit_targets(self, sweep):
        for r in sweep:
            assert r.actual_compression == pytest.approx(r.compression, rel=0.03)


class TestPaperFindings:
    def test_magnitude_beats_random_at_high_compression(self, frame):
        """§3.2: 'many pruning methods outperform random pruning' —
        clearest at large amounts of pruning."""
        gw = frame.filter(strategy="global_weight", compression=4.0).curve()
        rd = frame.filter(strategy="random", compression=4.0).curve()
        assert gw[0].mean > rd[0].mean

    def test_accuracy_degrades_with_compression(self, frame):
        gw = {p.x: p.mean for p in frame.filter(strategy="global_weight").curve()}
        assert gw[8.0] <= gw[1.0] + 0.02

    def test_tradeoff_exists(self, frame):
        """§4.3: 'the existence of a tradeoff between efficiency and
        accuracy' is the one consistent trend."""
        rd = {p.x: p.mean for p in frame.filter(strategy="random").curve()}
        assert rd[8.0] < rd[1.0]


class TestReportingPipeline:
    def test_curves_and_rendering(self, sweep):
        curves = curves_from_results(list(sweep))
        out = render_curves(curves, title="mini sweep")
        assert "global_weight" in out

    def test_csv_export(self, sweep, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        curves = curves_from_results(list(sweep))
        path = export_curves_csv(curves, "integration_mini")
        assert path.exists()

    def test_checklist_audit_mostly_passes(self, sweep):
        items = audit_results(sweep)
        # this mini-sweep intentionally violates two items (only 3 operating
        # points, 2 seeds); everything else must pass
        failed = [i.item for i in items if not i.passed]
        assert len(failed) <= 2, failed
        passed = [i.item for i in items if i.passed]
        assert any("magnitude" in p for p in passed)
        assert any("random" in p for p in passed)

    def test_persistence_roundtrip(self, sweep, tmp_path):
        from repro.experiment import ResultSet

        path = tmp_path / "sweep.json"
        sweep.save(path)
        again = ResultSet.load(path)
        assert len(again) == len(sweep)
        assert again.strategies() == sweep.strategies()
