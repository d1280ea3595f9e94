"""Unit tests for the model zoo."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.models import MODELS, CifarResNet
from repro.nn import Linear


def fwd(model, channels=3, size=16, batch=2):
    x = Tensor(np.random.default_rng(0).normal(size=(batch, channels, size, size)).astype(np.float32))
    return model(x)


class TestRegistry:
    def test_all_models_listed(self):
        names = MODELS.available()
        for expected in ["resnet-20", "resnet-56", "resnet-110", "resnet-18",
                         "cifar-vgg", "lenet-5", "lenet-300-100", "mobilenet-small"]:
            assert expected in names

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            MODELS.create("resnet-9000")

    def test_register_custom_and_reject_duplicate(self):
        MODELS.register("custom-test-model", lambda **kw: Linear(2, 2))
        try:
            assert "custom-test-model" in MODELS.available()
            with pytest.raises(ValueError):
                MODELS.register("custom-test-model", lambda **kw: Linear(2, 2))
        finally:
            MODELS.unregister("custom-test-model")
        assert "custom-test-model" not in MODELS

    @pytest.mark.parametrize("name", ["resnet-20", "resnet-56", "cifar-vgg", "mobilenet-small"])
    def test_forward_shapes_cifar_style(self, name):
        kw = dict(width_scale=0.25)
        if name == "cifar-vgg":
            kw["input_size"] = 16
        m = MODELS.create(name, **kw)
        out = fwd(m)
        assert out.shape == (2, 10)

    def test_resnet18_shape(self):
        m = MODELS.create("resnet-18", width_scale=0.25, num_classes=20)
        assert fwd(m).shape == (2, 20)

    def test_lenets(self):
        m5 = MODELS.create("lenet-5", input_size=28, in_channels=1)
        m3 = MODELS.create("lenet-300-100", input_size=28, in_channels=1)
        assert fwd(m5, channels=1, size=28).shape == (2, 10)
        assert fwd(m3, channels=1, size=28).shape == (2, 10)

    def test_lenet_300_100_param_count(self):
        # the canonical 784-300-100-10 network
        m = MODELS.create("lenet-300-100", input_size=28, in_channels=1)
        want = 784 * 300 + 300 + 300 * 100 + 100 + 100 * 10 + 10
        assert m.num_parameters() == want


class TestResNetStructure:
    def test_depth_formula(self):
        for depth, blocks in [(20, 9), (56, 27), (110, 54)]:
            m = CifarResNet(depth, width_scale=0.25)
            assert len(list(m.blocks)) == blocks

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            CifarResNet(21)

    def test_width_scale_shrinks_params(self):
        big = MODELS.create("resnet-20", width_scale=1.0).num_parameters()
        small = MODELS.create("resnet-20", width_scale=0.5).num_parameters()
        assert small < big / 3  # ~quadratic in width

    def test_classifier_property(self):
        for name in ["resnet-20", "cifar-vgg", "lenet-5", "resnet-18", "mobilenet-small"]:
            kw = {"width_scale": 0.25} if name != "lenet-5" else {}
            m = MODELS.create(name, **kw)
            assert isinstance(m.classifier, Linear)

    def test_seed_determinism(self):
        a = MODELS.create("resnet-20", width_scale=0.25, seed=3)
        b = MODELS.create("resnet-20", width_scale=0.25, seed=3)
        np.testing.assert_array_equal(a.stem.weight.data, b.stem.weight.data)
        c = MODELS.create("resnet-20", width_scale=0.25, seed=4)
        assert not np.array_equal(a.stem.weight.data, c.stem.weight.data)

    def test_state_dict_roundtrip_resnet(self):
        a = MODELS.create("resnet-20", width_scale=0.25, seed=0)
        b = MODELS.create("resnet-20", width_scale=0.25, seed=9)
        b.load_state_dict(a.state_dict())
        xa = fwd(a.eval()).data
        xb = fwd(b.eval()).data
        np.testing.assert_allclose(xa, xb, rtol=1e-5)

    def test_trainable_end_to_end(self):
        # single overfit step reduces loss on one batch
        from repro.optim import Adam

        m = MODELS.create("resnet-20", width_scale=0.25)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(16, 3, 8, 8)).astype(np.float32))
        y = rng.integers(0, 10, 16)
        opt = Adam(list(m.parameters()), lr=1e-2)
        losses = []
        for _ in range(12):
            loss = cross_entropy(m(x), y)
            m.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.7


class TestVGGStructure:
    def test_small_input_skips_excess_pools(self):
        m = MODELS.create("cifar-vgg", width_scale=0.125, input_size=8)
        assert fwd(m, size=8).shape == (2, 10)

    def test_imagenet_stem_for_large_inputs(self):
        m = MODELS.create("resnet-18", width_scale=0.125, input_size=64)
        out = fwd(m, size=64)
        assert out.shape == (2, 20)
