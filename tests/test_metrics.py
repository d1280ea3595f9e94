"""Unit tests for size, FLOPs and accuracy metrics."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import ArrayDataset, DataLoader
from repro.metrics import (
    FlopsConvention,
    compression_ratio,
    compression_ratio_misused,
    dense_flops,
    effective_flops,
    evaluate,
    flops_by_layer,
    flops_totals,
    fraction_pruned,
    fraction_remaining,
    model_size_bytes,
    nonzero_params,
    per_layer_nonzero,
    theoretical_speedup,
    topk_accuracy,
    total_params,
    trace_layers,
)
from repro.metrics import flops as flops_module
from repro.models import MODELS, create_model
from repro.nn import Conv2d, Flatten, Linear, Module, Sequential
from repro.pruning import (
    STRATEGIES,
    GlobalMagWeight,
    LayerMagWeight,
    Pruner,
    PruningContext,
)


class SmallConvNet(Module):
    """Known-by-hand FLOPs: conv 2->4 k3 p1 on 8x8, then linear 256->10."""

    def __init__(self):
        super().__init__()
        self.conv = Conv2d(2, 4, 3, padding=1, bias=True)
        self.flatten = Flatten()
        self.fc = Linear(4 * 8 * 8, 10)

    def forward(self, x):
        return self.fc(self.flatten(self.conv(x)))


class TestSizeMetrics:
    def test_total_and_nonzero(self):
        m = Linear(4, 2)
        assert total_params(m) == 10
        m.weight.data[:] = 0
        assert nonzero_params(m) == 0  # bias initialized to zero too

    def test_compression_ratio_definitions(self):
        assert compression_ratio(100, 25) == 4.0
        assert compression_ratio_misused(100, 25) == 0.75
        assert fraction_pruned(100, 25) == 0.75
        assert fraction_remaining(100, 25) == 0.25

    def test_compression_validation(self):
        with pytest.raises(ValueError):
            compression_ratio(100, 0)
        with pytest.raises(ValueError):
            compression_ratio(0, 10)

    def test_model_size_bytes(self):
        m = Linear(4, 2)
        assert model_size_bytes(m) == 10 * 4
        m.weight.data[:] = 0
        assert model_size_bytes(m, sparse=True) == 0

    def test_per_layer_nonzero(self):
        m = Sequential(Linear(3, 3), Linear(3, 2))
        table = per_layer_nonzero(m)
        assert table["0.weight"]["size"] == 9
        assert table["1.weight"]["size"] == 6


class TestFlops:
    def test_trace_records_conv_and_linear(self):
        traces = trace_layers(SmallConvNet(), (2, 8, 8))
        assert [t.name for t in traces] == ["conv", "fc"]
        assert traces[0].output_shape == (1, 4, 8, 8)

    def test_dense_flops_by_hand(self):
        m = SmallConvNet()
        # conv MACs = weights (4*2*3*3=72) * positions (64) = 4608
        # fc MACs   = 256*10 = 2560
        assert dense_flops(m, (2, 8, 8)) == 4608 + 2560

    def test_ops_per_mac_convention(self):
        m = SmallConvNet()
        one = dense_flops(m, (2, 8, 8), FlopsConvention(ops_per_mac=1))
        two = dense_flops(m, (2, 8, 8), FlopsConvention(ops_per_mac=2))
        assert two == 2 * one

    def test_conv_only_convention(self):
        m = SmallConvNet()
        conv_only = dense_flops(m, (2, 8, 8), FlopsConvention(include_linear=False))
        assert conv_only == 4608

    def test_bias_convention(self):
        m = SmallConvNet()
        with_bias = dense_flops(m, (2, 8, 8), FlopsConvention(include_bias=True))
        # bias adds: conv 4*64 outputs + fc 10 outputs
        assert with_bias == 4608 + 2560 + 4 * 64 + 10

    def test_convention_validation(self):
        with pytest.raises(ValueError):
            FlopsConvention(ops_per_mac=3)

    def test_effective_counts_nonzero_only(self):
        m = SmallConvNet()
        m.conv.weight.data[0] = 0.0  # remove one filter: 18 weights
        eff = effective_flops(m, (2, 8, 8))
        assert eff == (72 - 18) * 64 + 2560

    def test_speedup_after_pruning(self):
        m = SmallConvNet()
        m.conv.weight.data.reshape(-1)[::2] = 0.0
        m.fc.weight.data.reshape(-1)[::2] = 0.0
        sp = theoretical_speedup(m, (2, 8, 8))
        assert sp == pytest.approx(2.0, rel=0.01)

    def test_stride_affects_flops(self):
        a = Sequential(Conv2d(3, 4, 3, stride=1, padding=1))
        b = Sequential(Conv2d(3, 4, 3, stride=2, padding=1))
        fa = dense_flops(a, (3, 8, 8))
        fb = dense_flops(b, (3, 8, 8))
        assert fa == 4 * fb  # stride 2 quarters the output positions

    def test_global_pruning_gives_lower_speedup_than_layerwise(self):
        """The Figure 6 mechanism: at equal compression, global pruning
        removes cheap FC/late weights, yielding a smaller FLOPs reduction."""
        mg = create_model("cifar-vgg", width_scale=0.25, input_size=16, seed=0)
        ml = create_model("cifar-vgg", width_scale=0.25, input_size=16, seed=0)
        Pruner(mg, GlobalMagWeight()).prune(8)
        Pruner(ml, LayerMagWeight()).prune(8)
        assert theoretical_speedup(mg, (3, 16, 16)) < theoretical_speedup(ml, (3, 16, 16))

    def test_flops_by_layer_keys(self):
        table = flops_by_layer(SmallConvNet(), (2, 8, 8))
        assert set(table) == {"conv", "fc"}

    def test_zero_effective_flops_raises(self):
        m = SmallConvNet()
        m.conv.weight.data[:] = 0
        m.fc.weight.data[:] = 0
        with pytest.raises(ValueError):
            theoretical_speedup(m, (2, 8, 8))

    # (dense, effective, speedup) of each model randomly pruned 8x, as the
    # two-trace implementation of theoretical_speedup computed them
    PINNED = [
        ("lenet-5", dict(input_size=16, in_channels=3), (3, 16, 16),
         172200.0, 13095.0, 13.150057273768613),
        ("resnet-20", dict(width_scale=0.25), (3, 8, 8),
         164768.0, 15512.0, 10.62197008767406),
        ("lenet-300-100", dict(input_size=8, in_channels=3), (3, 8, 8),
         88600.0, 10716.0, 8.268010451661068),
    ]

    @pytest.mark.parametrize("name, kwargs, shape, dense, eff, speedup", PINNED)
    def test_one_trace_gives_the_pinned_values(
            self, name, kwargs, shape, dense, eff, speedup, monkeypatch):
        m = MODELS.create(name, seed=0, **kwargs)
        assert dense_flops(m, shape) == effective_flops(m, shape) == dense
        Pruner(m, STRATEGIES.create("random")).prune(
            8, PruningContext(rng=np.random.default_rng(3)))
        traced = []
        real_trace = flops_module.trace_layers

        def counting(*args):
            traced.append(args)
            return real_trace(*args)

        monkeypatch.setattr(flops_module, "trace_layers", counting)
        assert flops_totals(m, shape) == (dense, eff)
        assert theoretical_speedup(m, shape) == speedup
        assert len(traced) == 2  # one pass per call
        assert dense_flops(m, shape) == dense
        assert effective_flops(m, shape) == eff


class TestAccuracy:
    def test_topk_by_hand(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.15, 0.1]])
        targets = np.array([1, 2])
        assert topk_accuracy(logits, targets, 1) == 0.5
        assert topk_accuracy(logits, targets, 2) == 0.5
        assert topk_accuracy(logits, targets, 3) == 1.0

    def test_topk_k_at_least_one(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), 0)

    def test_topk_k_geq_classes_is_one(self):
        assert topk_accuracy(np.zeros((4, 3)), np.zeros(4, dtype=int), 5) == 1.0

    def test_evaluate_perfect_model(self):
        class Oracle(Module):
            def forward(self, x):
                n = x.shape[0]
                flat = x.flatten()
                return flat[:, :10] * 0 + Tensor(np.eye(10)[self.answers])

        x = np.random.default_rng(0).normal(size=(20, 1, 4, 4)).astype(np.float32)
        y = np.arange(20) % 10
        oracle = Oracle()
        oracle.answers = y
        loader = DataLoader(ArrayDataset(x, y), batch_size=20)
        out = evaluate(oracle, loader)
        assert out["top1"] == 1.0
        assert out["top5"] == 1.0

    def test_evaluate_restores_training_mode(self, tiny_resnet, tiny_cifar):
        loader = DataLoader(tiny_cifar.val, batch_size=48)
        tiny_resnet.train()
        evaluate(tiny_resnet, loader)
        assert tiny_resnet.training

    def test_evaluate_reports_loss(self, tiny_resnet, tiny_cifar):
        loader = DataLoader(tiny_cifar.val, batch_size=48)
        out = evaluate(tiny_resnet, loader)
        assert out["loss"] > 0
        assert 0 <= out["top1"] <= 1
