"""Model registry: name → factory, with keyword passthrough.

Gives experiments and benchmarks a single string-keyed entry point, which is
also how results are tagged on disk (the paper's recommendation to "identify
the exact sets of architectures ... in a structured way").

``MODELS`` is the shared :class:`repro.registry.Registry` instance; register
custom architectures with ``@MODELS.register("my-net")`` and instantiate
them with ``MODELS.create("my-net", **kwargs)``.
"""

from __future__ import annotations

from ..registry import Registry
from .lenet import lenet5, lenet_300_100
from .mobilenet import mobilenet_small
from .resnet import resnet18, resnet20, resnet32, resnet56, resnet110
from .vgg import cifar_vgg

__all__ = ["MODELS"]

MODELS = Registry(
    "model",
    {
        "lenet-300-100": lenet_300_100,
        "lenet-5": lenet5,
        "cifar-vgg": cifar_vgg,
        "resnet-20": resnet20,
        "resnet-32": resnet32,
        "resnet-56": resnet56,
        "resnet-110": resnet110,
        "resnet-18": resnet18,
        "mobilenet-small": mobilenet_small,
    },
)
