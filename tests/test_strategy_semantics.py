"""Deeper semantic tests of pruning strategies and the experiment contract."""

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticCIFAR10
from repro.models import MODELS
from repro.pruning import (
    PAPER_LABELS,
    STRATEGIES,
    GlobalMagGrad,
    GlobalMagWeight,
    LayerMagWeight,
    Pruner,
    PruningContext,
    prunable_parameters,
)


class TestRegistryConsistency:
    def test_every_strategy_has_a_label(self):
        for key in STRATEGIES:
            assert key in PAPER_LABELS, f"missing display label for {key}"

    def test_names_match_keys(self):
        for key, cls in STRATEGIES.items():
            assert cls.name == key

    def test_paper_baselines_all_registered(self):
        # §7.2 lists exactly these five baselines
        for key in ("global_weight", "layer_weight", "global_gradient",
                    "layer_gradient", "random"):
            assert key in STRATEGIES


class TestAllocationSemantics:
    def test_global_prunes_layers_unevenly(self, tiny_vgg):
        masks = GlobalMagWeight().compute_masks(tiny_vgg, 0.3)
        fractions = sorted(m.mean() for m in masks.values())
        # early layers keep far more than late wide layers
        assert fractions[-1] - fractions[0] > 0.3

    def test_layerwise_is_uniform_by_construction(self, tiny_vgg):
        masks = LayerMagWeight().compute_masks(tiny_vgg, 0.3)
        fractions = [m.mean() for m in masks.values()]
        assert max(fractions) - min(fractions) < 0.05

    def test_global_and_layer_keep_same_total(self, tiny_vgg):
        g = GlobalMagWeight().compute_masks(tiny_vgg, 0.3)
        l = LayerMagWeight().compute_masks(tiny_vgg, 0.3)
        kept_g = sum(m.sum() for m in g.values())
        kept_l = sum(m.sum() for m in l.values())
        total = sum(m.size for m in g.values())
        assert abs(kept_g - kept_l) < 0.02 * total


class TestGradientScoringContract:
    def test_scoring_does_not_perturb_bn_stats(self, tiny_resnet, tiny_cifar):
        loader = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=0)
        xb, yb = loader.one_batch()
        before = tiny_resnet.bn.running_mean.copy()
        GlobalMagGrad().compute_masks(
            tiny_resnet, 0.5, PruningContext(inputs=xb, targets=yb)
        )
        np.testing.assert_array_equal(before, tiny_resnet.bn.running_mean)

    def test_scoring_does_not_leave_gradients(self, tiny_resnet, tiny_cifar):
        loader = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=0)
        xb, yb = loader.one_batch()
        GlobalMagGrad().compute_masks(
            tiny_resnet, 0.5, PruningContext(inputs=xb, targets=yb)
        )
        assert all(p.grad is None for p in tiny_resnet.parameters())

    def test_scoring_restores_training_mode(self, tiny_resnet, tiny_cifar):
        loader = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=0)
        xb, yb = loader.one_batch()
        tiny_resnet.train()
        GlobalMagGrad().compute_masks(
            tiny_resnet, 0.5, PruningContext(inputs=xb, targets=yb)
        )
        assert tiny_resnet.training

    def test_different_minibatch_different_masks(self, tiny_resnet, tiny_cifar):
        l1 = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=0)
        l2 = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=9)
        m1 = GlobalMagGrad().compute_masks(
            tiny_resnet, 0.3, PruningContext(*l1.one_batch())
        )
        m2 = GlobalMagGrad().compute_masks(
            tiny_resnet, 0.3, PruningContext(*l2.one_batch())
        )
        assert any(not np.array_equal(m1[n], m2[n]) for n in m1)


class TestClassifierHandling:
    def test_prune_classifier_raises_achievable_cap(self):
        m1 = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        m2 = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        cap_default = Pruner(m1, GlobalMagWeight()).achievable_compression()
        cap_with_clf = Pruner(
            m2, GlobalMagWeight(prune_classifier=True)
        ).achievable_compression()
        assert cap_with_clf > cap_default

    def test_classifier_weights_untouched_by_default(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        before = m.fc3.weight.data.copy()
        Pruner(m, GlobalMagWeight()).prune(8)
        np.testing.assert_array_equal(before, m.fc3.weight.data)

    def test_classifier_pruned_when_requested(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        Pruner(m, GlobalMagWeight(prune_classifier=True)).prune(8)
        assert (m.fc3.weight.data == 0).any()


class TestSeedIsolation:
    def test_pretrain_seed_controls_init_not_data_order(self, tiny_cifar):
        a = MODELS.create("resnet-20", width_scale=0.25, seed=1)
        b = MODELS.create("resnet-20", width_scale=0.25, seed=2)
        assert not np.array_equal(a.stem.weight.data, b.stem.weight.data)

    def test_prunable_params_stable_order(self, tiny_resnet):
        names1 = [n for n, _ in prunable_parameters(tiny_resnet)]
        names2 = [n for n, _ in prunable_parameters(tiny_resnet)]
        assert names1 == names2
