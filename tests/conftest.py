"""Shared fixtures: isolated artifact cache, small models and datasets."""

import os
import shutil
import tempfile

# Route all checkpoint/figure artifacts produced by tests to a fresh
# per-session directory BEFORE repro is imported anywhere, so no checkpoint
# or cached row from an earlier session (or older code) can serve this one.
# An explicitly set REPRO_ARTIFACTS is respected and left in place.
_SESSION_ARTIFACTS = None
if "REPRO_ARTIFACTS" not in os.environ:
    _SESSION_ARTIFACTS = tempfile.mkdtemp(prefix="repro-test-artifacts-")
    os.environ["REPRO_ARTIFACTS"] = _SESSION_ARTIFACTS

import numpy as np
import pytest

from repro.data import SyntheticCIFAR10
from repro.models import create_model


def pytest_sessionfinish(session, exitstatus):
    if _SESSION_ARTIFACTS is not None:
        shutil.rmtree(_SESSION_ARTIFACTS, ignore_errors=True)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_cifar():
    """A very small CIFAR-10 surrogate for fast integration tests."""
    return SyntheticCIFAR10(n_train=256, n_val=96, size=8, seed=0)


@pytest.fixture
def tiny_resnet():
    """Smallest CIFAR ResNet at reduced width."""
    return create_model("resnet-20", width_scale=0.25, seed=0)


@pytest.fixture
def tiny_vgg():
    return create_model("cifar-vgg", width_scale=0.125, input_size=8, seed=0)
