"""Dataset registry for experiments.

Experiments and benchmarks reference datasets by name + kwargs so that a
result row fully identifies its data — the paper's first recommendation
("identify the exact sets of architectures, datasets, and metrics used ...
in a structured way").

``DATASETS`` is the shared :class:`repro.registry.Registry` instance;
register custom bundles with ``@DATASETS.register("my-data")`` and
instantiate them with ``DATASETS.create("my-data", **kwargs)``.
"""

from __future__ import annotations

from ..data import SyntheticCIFAR10, SyntheticImageNet, SyntheticMNIST
from ..registry import Registry

__all__ = ["DATASETS"]

DATASETS = Registry(
    "dataset",
    {
        "cifar10": SyntheticCIFAR10,
        "imagenet": SyntheticImageNet,
        "mnist": SyntheticMNIST,
    },
)
