"""Unit tests for the pruning core: discovery, scores, mask construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import MODELS
from repro.nn import BatchNorm2d, Conv2d, Linear, Module, Sequential
from repro.pruning import (
    STRATEGIES,
    GlobalMagGrad,
    GlobalMagWeight,
    LayerMagGrad,
    LayerMagWeight,
    LayerRandomPruning,
    PruningContext,
    RandomPruning,
    find_classifier,
    magnitude_scores,
    masks_from_scores_global,
    masks_from_scores_layerwise,
    prunable_parameters,
    random_scores,
)


class TestPrunableDiscovery:
    def test_excludes_bias_and_bn(self, tiny_resnet):
        names = [n for n, _ in prunable_parameters(tiny_resnet)]
        assert all(n.endswith(".weight") for n in names)
        assert not any("bn" in n for n in names)

    def test_excludes_classifier_by_default(self, tiny_resnet):
        names = [n for n, _ in prunable_parameters(tiny_resnet)]
        assert "fc.weight" not in names

    def test_classifier_included_on_request(self, tiny_resnet):
        names = [n for n, _ in prunable_parameters(tiny_resnet, prune_classifier=True)]
        assert "fc.weight" in names

    def test_find_classifier_property(self, tiny_resnet):
        assert find_classifier(tiny_resnet) is tiny_resnet.fc

    def test_find_classifier_fallback_last_linear(self):
        m = Sequential(Linear(4, 8), Linear(8, 2))
        assert find_classifier(m) is m[1]

    def test_no_prunable_raises(self):
        m = Sequential(BatchNorm2d(3))
        with pytest.raises(ValueError):
            GlobalMagWeight().compute_masks(m, 0.5)


class TestMaskConstruction:
    def _scores(self, sizes, rng):
        return {f"p{i}": rng.random(s) for i, s in enumerate(sizes)}

    def test_global_exact_count(self, rng):
        scores = self._scores([(10, 10), (30,), (5, 5, 2, 2)], rng)
        masks = masks_from_scores_global(scores, 0.3)
        total = sum(s.size for s in scores.values())
        kept = sum(m.sum() for m in masks.values())
        assert kept == round(total * 0.3)

    def test_global_keeps_highest(self, rng):
        scores = {"a": np.array([1.0, 5.0, 3.0, 4.0, 2.0])}
        masks = masks_from_scores_global(scores, 0.4)
        np.testing.assert_array_equal(masks["a"], [0, 1, 0, 1, 0])

    def test_global_handles_ties_exactly(self):
        scores = {"a": np.ones(10)}
        masks = masks_from_scores_global(scores, 0.5)
        assert masks["a"].sum() == 5

    def test_layerwise_exact_count_per_layer(self, rng):
        scores = self._scores([(20,), (40,)], rng)
        masks = masks_from_scores_layerwise(scores, 0.25)
        assert masks["p0"].sum() == 5
        assert masks["p1"].sum() == 10

    def test_layerwise_never_empties_layer(self, rng):
        scores = {"a": rng.random(7)}
        masks = masks_from_scores_layerwise(scores, 0.01)
        assert masks["a"].sum() >= 1

    def test_full_keep_is_all_ones(self, rng):
        scores = self._scores([(4, 4)], rng)
        for fn in (masks_from_scores_global, masks_from_scores_layerwise):
            masks = fn(scores, 1.0)
            np.testing.assert_array_equal(masks["p0"], np.ones((4, 4)))

    def test_zero_keep_raises_global(self, rng):
        with pytest.raises(ValueError):
            masks_from_scores_global({"a": rng.random(5)}, 0.0)

    @given(frac=st.floats(0.05, 1.0), n=st.integers(10, 300))
    @settings(max_examples=30, deadline=None)
    def test_global_count_property(self, frac, n):
        rng = np.random.default_rng(n)
        scores = {"a": rng.random(n), "b": rng.random((n // 2, 2))}
        masks = masks_from_scores_global(scores, frac)
        total = n + (n // 2) * 2
        kept = int(sum(m.sum() for m in masks.values()))
        assert kept == round(total * frac) or kept == max(1, round(total * frac))

    @given(frac=st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_masks_binary_property(self, frac):
        rng = np.random.default_rng(int(frac * 1e6))
        scores = {"a": rng.random((8, 8))}
        for fn in (masks_from_scores_global, masks_from_scores_layerwise):
            for m in fn(scores, frac).values():
                assert set(np.unique(m)) <= {0.0, 1.0}


class TestScoring:
    def test_magnitude_scores_are_abs(self, tiny_resnet):
        params = prunable_parameters(tiny_resnet)
        scores = magnitude_scores(params)
        name, p = params[0]
        np.testing.assert_allclose(scores[name], np.abs(p.data))

    def test_random_scores_deterministic(self, tiny_resnet):
        params = prunable_parameters(tiny_resnet)
        s1 = random_scores(params, np.random.default_rng(1))
        s2 = random_scores(params, np.random.default_rng(1))
        name = params[0][0]
        np.testing.assert_array_equal(s1[name], s2[name])


class TestStrategies:
    @pytest.fixture
    def context(self, tiny_cifar):
        from repro.data import DataLoader

        dl = DataLoader(tiny_cifar.train, batch_size=32, shuffle=True, seed=0,
                        transform=tiny_cifar.eval_transform())
        x, y = dl.one_batch()
        return PruningContext(inputs=x, targets=y, rng=np.random.default_rng(0))

    def _kept_fraction(self, masks):
        total = sum(m.size for m in masks.values())
        return sum(m.sum() for m in masks.values()) / total

    @pytest.mark.parametrize("name", ["global_weight", "layer_weight", "random", "layer_random"])
    def test_data_free_strategies_hit_fraction(self, name, tiny_resnet):
        strat = STRATEGIES.create(name)
        ctx = PruningContext(rng=np.random.default_rng(0))
        masks = strat.compute_masks(tiny_resnet, 0.25, ctx)
        assert self._kept_fraction(masks) == pytest.approx(0.25, abs=0.02)

    @pytest.mark.parametrize("name", ["global_gradient", "layer_gradient"])
    def test_gradient_strategies_hit_fraction(self, name, tiny_resnet, context):
        masks = STRATEGIES.create(name).compute_masks(tiny_resnet, 0.25, context)
        assert self._kept_fraction(masks) == pytest.approx(0.25, abs=0.02)

    def test_gradient_strategy_requires_data(self, tiny_resnet):
        with pytest.raises(ValueError):
            GlobalMagGrad().compute_masks(tiny_resnet, 0.5, PruningContext())
        with pytest.raises(ValueError):
            LayerMagGrad().compute_masks(tiny_resnet, 0.5, None)

    def test_global_magnitude_keeps_largest(self, tiny_resnet):
        masks = GlobalMagWeight().compute_masks(tiny_resnet, 0.5)
        params = dict(prunable_parameters(tiny_resnet))
        all_scores = np.concatenate([np.abs(p.data).ravel() for p in params.values()])
        thresh = np.quantile(all_scores, 0.5)
        for name, mask in masks.items():
            kept_scores = np.abs(params[name].data)[mask == 1]
            if kept_scores.size:
                assert kept_scores.min() >= thresh * 0.9

    def test_layerwise_uniform_fraction(self, tiny_resnet):
        masks = LayerMagWeight().compute_masks(tiny_resnet, 0.3)
        for name, mask in masks.items():
            assert mask.mean() == pytest.approx(0.3, abs=0.05)

    def test_global_concentrates_unlike_layerwise(self, tiny_vgg):
        g = GlobalMagWeight().compute_masks(tiny_vgg, 0.2)
        fractions = [m.mean() for m in g.values()]
        assert max(fractions) - min(fractions) > 0.2  # very uneven

    def test_random_seeds_differ(self, tiny_resnet):
        m1 = RandomPruning().compute_masks(tiny_resnet, 0.5, PruningContext(rng=np.random.default_rng(1)))
        m2 = RandomPruning().compute_masks(tiny_resnet, 0.5, PruningContext(rng=np.random.default_rng(2)))
        name = next(iter(m1))
        assert not np.array_equal(m1[name], m2[name])

    def test_gradient_differs_from_magnitude(self, tiny_resnet, context):
        mg = GlobalMagWeight().compute_masks(tiny_resnet, 0.3)
        gg = GlobalMagGrad().compute_masks(tiny_resnet, 0.3, context)
        diff = sum((mg[n] != gg[n]).sum() for n in mg)
        assert diff > 0

    def test_invalid_fraction_rejected(self, tiny_resnet):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                GlobalMagWeight().compute_masks(tiny_resnet, bad)

    def test_unknown_strategy_key(self):
        with pytest.raises(KeyError):
            STRATEGIES.create("definitely-not-a-strategy")

    def test_layer_random_uniform_proportions(self, tiny_resnet):
        masks = LayerRandomPruning().compute_masks(
            tiny_resnet, 0.4, PruningContext(rng=np.random.default_rng(0))
        )
        for m in masks.values():
            assert m.mean() == pytest.approx(0.4, abs=0.05)


class TestStructured:
    def test_filter_masks_are_filter_aligned(self, tiny_resnet):
        from repro.pruning import LayerFilterL1

        masks = LayerFilterL1().compute_masks(tiny_resnet, 0.5)
        for name, mask in masks.items():
            if mask.ndim == 4:
                per_filter = mask.reshape(mask.shape[0], -1)
                # each filter slab is all-kept or all-dropped
                assert np.all((per_filter.min(axis=1) == per_filter.max(axis=1)))

    def test_structured_gives_higher_speedup_at_same_params(self, tiny_vgg):
        from repro.metrics import theoretical_speedup
        from repro.pruning import GlobalFilterL1, GlobalMagWeight, Pruner

        import copy

        m_unstruct = MODELS.create("cifar-vgg", width_scale=0.125, input_size=8, seed=0)
        m_struct = MODELS.create("cifar-vgg", width_scale=0.125, input_size=8, seed=0)
        Pruner(m_unstruct, GlobalMagWeight()).prune(4)
        Pruner(m_struct, GlobalFilterL1()).prune(4)
        su = theoretical_speedup(m_unstruct, (3, 8, 8))
        ss = theoretical_speedup(m_struct, (3, 8, 8))
        # same parameter budget; structured removes whole filters and their
        # spatial work, so its speedup is at least comparable
        assert ss > 1.0 and su > 1.0
