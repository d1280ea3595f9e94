"""§5.2 metrics ambiguity: the same network's "FLOPs" varies by up to ~4x
across counting conventions (the paper's AlexNet example: 371 vs 724 vs
1500 MFLOPs).  Demonstrated with explicit conventions on one model."""

from repro.metrics import FlopsConvention, dense_flops
from repro.models import MODELS


CONVENTIONS = {
    "multiply-adds, conv only": FlopsConvention(ops_per_mac=1, include_linear=False),
    "multiply-adds, all layers": FlopsConvention(ops_per_mac=1),
    "mul+add separate, all layers": FlopsConvention(ops_per_mac=2),
    "mul+add separate, with bias": FlopsConvention(ops_per_mac=2, include_bias=True),
}

#: AlexNet/LeNet-style FC-heavy nets show the largest convention spread —
#: which is exactly the regime of the paper's AlexNet example.
BENCH_MODELS = {
    "cifar-vgg (conv-heavy)": ("cifar-vgg", dict(width_scale=0.25, input_size=16), (3, 16, 16)),
    "lenet-5 (fc-heavy)": ("lenet-5", dict(input_size=28, in_channels=1), (1, 28, 28)),
}


def _generate():
    out = {}
    for label, (name, kw, shape) in BENCH_MODELS.items():
        model = MODELS.create(name, **kw)
        out[label] = {
            cname: dense_flops(model, shape, conv)
            for cname, conv in CONVENTIONS.items()
        }
    return out


def test_flops_conventions(benchmark):
    tables = benchmark(_generate)
    print("\n== FLOPs of the SAME model under different conventions (§5.2) ==")
    worst = 1.0
    for label, table in tables.items():
        print(f"  {label}:")
        for name, val in table.items():
            print(f"    {name:30s}: {val/1e6:8.3f} MFLOPs")
        ratio = max(table.values()) / min(table.values())
        worst = max(worst, ratio)
        print(f"    max/min ratio: {ratio:.2f}x")
    print(f"  worst-case ratio: {worst:.2f}x (paper found up to 4x for AlexNet)")
    assert worst >= 2.0, "conventions must differ by at least 2x"
