"""Unit tests for MaskRegistry, Pruner bookkeeping and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, cross_entropy
from repro.models import MODELS
from repro.optim import SGD, Adam
from repro.pruning import (
    GlobalMagWeight,
    MaskRegistry,
    Pruner,
    compression_to_sparsity,
    fraction_to_keep_for_compression,
    iterative_linear,
    one_shot,
    polynomial_decay,
    sparsity_to_compression,
)


class TestMaskRegistry:
    def test_set_mask_validates_name(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        with pytest.raises(KeyError):
            reg.set_mask("nope.weight", np.ones(3))

    def test_set_mask_validates_shape(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        with pytest.raises(ValueError):
            reg.set_mask("stem.weight", np.ones((1, 1)))

    def test_set_mask_validates_binary(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        bad = np.full(tiny_resnet.stem.weight.shape, 0.5, dtype=np.float32)
        with pytest.raises(ValueError):
            reg.set_mask("stem.weight", bad)

    def test_apply_zeroes_masked(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        mask = np.ones(tiny_resnet.stem.weight.shape, dtype=np.float32)
        mask[0] = 0
        reg.set_mask("stem.weight", mask)
        reg.apply()
        assert np.all(tiny_resnet.stem.weight.data[0] == 0)
        reg.validate()  # must not raise

    def test_intersect_is_monotonic(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        shape = tiny_resnet.stem.weight.shape
        m1 = np.ones(shape, dtype=np.float32)
        m1.reshape(-1)[::2] = 0
        m2 = np.ones(shape, dtype=np.float32)
        m2.reshape(-1)[::3] = 0
        reg.intersect({"stem.weight": m1})
        reg.intersect({"stem.weight": m2})
        want = m1 * m2
        np.testing.assert_array_equal(reg.masks["stem.weight"], want)

    def test_sparsity_and_counts(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        shape = tiny_resnet.stem.weight.shape
        mask = np.zeros(shape, dtype=np.float32)
        mask.reshape(-1)[: mask.size // 2] = 1
        reg.set_mask("stem.weight", mask)
        assert reg.sparsity() == pytest.approx(0.5, abs=0.01)
        assert reg.total_kept() == int(mask.sum())
        assert "stem.weight" in reg
        assert len(reg) == 1

    def test_validate_catches_resurrection(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        mask = np.zeros(tiny_resnet.stem.weight.shape, dtype=np.float32)
        mask.reshape(-1)[0] = 1
        reg.set_mask("stem.weight", mask)
        reg.apply()
        tiny_resnet.stem.weight.data += 1.0  # corrupt
        with pytest.raises(AssertionError):
            reg.validate()

    def test_optimizer_cannot_resurrect_with_momentum(self):
        # momentum would push mass back into pruned weights without the hook
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        pruner = Pruner(m, GlobalMagWeight())
        reg = pruner.prune(4)
        opt = SGD(list(m.parameters()), lr=0.1, momentum=0.9)
        reg.attach(opt)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 1, 8, 8)).astype(np.float32))
        y = rng.integers(0, 10, 8)
        for _ in range(5):
            loss = cross_entropy(m(x), y)
            m.zero_grad()
            loss.backward()
            opt.step()
        reg.validate()  # masks still enforced after momentum steps

    def test_adam_cannot_resurrect(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        pruner = Pruner(m, GlobalMagWeight())
        reg = pruner.prune(8)
        opt = Adam(list(m.parameters()), lr=1e-2)
        reg.attach(opt)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 1, 8, 8)).astype(np.float32))
        y = rng.integers(0, 10, 8)
        for _ in range(3):
            loss = cross_entropy(m(x), y)
            m.zero_grad()
            loss.backward()
            opt.step()
        reg.validate()

    def test_state_dict_copies(self, tiny_resnet):
        reg = MaskRegistry(tiny_resnet)
        mask = np.ones(tiny_resnet.stem.weight.shape, dtype=np.float32)
        reg.set_mask("stem.weight", mask)
        sd = reg.state_dict()
        sd["stem.weight"][...] = 0
        assert reg.masks["stem.weight"].sum() > 0


class TestFractionMath:
    def test_identity_at_compression_one(self):
        assert fraction_to_keep_for_compression(1.0, 1000, 900) == 1.0

    def test_accounts_for_nonprunable(self):
        # total 1000, prunable 800, nonprunable 200; target c=2 -> budget 300
        frac = fraction_to_keep_for_compression(2.0, 1000, 800)
        assert frac == pytest.approx(300 / 800)

    def test_unreachable_compression_raises(self):
        with pytest.raises(ValueError):
            fraction_to_keep_for_compression(10.0, 1000, 200)

    def test_compression_below_one_rejected(self):
        with pytest.raises(ValueError):
            fraction_to_keep_for_compression(0.5, 100, 50)

    @given(c=st.floats(1.0, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_pruner_hits_target_property(self, c):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        pruner = Pruner(m, GlobalMagWeight())
        if c > pruner.achievable_compression():
            return
        pruner.prune(c)
        assert pruner.actual_compression() == pytest.approx(c, rel=0.02)

    def test_achievable_compression_bound(self, tiny_resnet):
        pruner = Pruner(tiny_resnet, GlobalMagWeight())
        bound = pruner.achievable_compression()
        with pytest.raises(ValueError):
            pruner.prune(bound * 1.5)

    def test_prune_to_fraction(self, tiny_resnet):
        pruner = Pruner(tiny_resnet, GlobalMagWeight())
        reg = pruner.prune_to_fraction(0.5)
        assert reg.sparsity() == pytest.approx(0.5, abs=0.01)

    def test_actual_compression_everything_pruned_is_inf(self):
        """Regression: all-zero masks used to raise ZeroDivisionError."""
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        pruner = Pruner(m, GlobalMagWeight())
        pruner.registry.update(
            {name: np.zeros_like(p.data) for name, p in m.named_parameters()}
        )
        pruner.registry.apply()
        assert pruner.actual_compression() == float("inf")


class TestSchedules:
    def test_one_shot(self):
        assert one_shot(8.0) == [8.0]
        with pytest.raises(ValueError):
            one_shot(0.5)

    def test_iterative_reaches_target_monotonically(self):
        steps = iterative_linear(16.0, 4)
        assert len(steps) == 4
        assert steps[-1] == pytest.approx(16.0)
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_iterative_linear_in_sparsity(self):
        steps = iterative_linear(4.0, 3)
        sparsities = [compression_to_sparsity(c) for c in steps]
        diffs = np.diff(sparsities)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-6)

    def test_polynomial_front_loads_pruning(self):
        steps = polynomial_decay(16.0, 4)
        sparsities = [compression_to_sparsity(c) for c in steps]
        diffs = np.diff(sparsities)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))  # decelerating
        assert steps[-1] == pytest.approx(16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            iterative_linear(4.0, 0)
        with pytest.raises(ValueError):
            polynomial_decay(4.0, 0)

    @given(c=st.floats(1.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_sparsity_compression_roundtrip(self, c):
        assert sparsity_to_compression(compression_to_sparsity(c)) == pytest.approx(c, rel=1e-9)

    def test_conversion_validation(self):
        with pytest.raises(ValueError):
            compression_to_sparsity(0.9)
        with pytest.raises(ValueError):
            sparsity_to_compression(1.0)
