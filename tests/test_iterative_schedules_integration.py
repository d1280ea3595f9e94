"""Integration tests for pruning schedules driven through the Pruner."""

import numpy as np
import pytest

from repro.models import MODELS
from repro.pruning import (
    GlobalMagWeight,
    Pruner,
    iterative_linear,
    one_shot,
    polynomial_decay,
)


@pytest.mark.parametrize("schedule_fn,steps", [
    (lambda c: one_shot(c), 1),
    (lambda c: iterative_linear(c, 4), 4),
    (lambda c: polynomial_decay(c, 4), 4),
])
def test_schedule_reaches_target(schedule_fn, steps):
    target = 8.0
    model = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
    pruner = Pruner(model, GlobalMagWeight())
    targets = schedule_fn(target)
    assert len(targets) == steps
    for t in targets:
        pruner.prune(t)
    assert pruner.actual_compression() == pytest.approx(target, rel=0.02)
    pruner.registry.validate()


def test_iterative_intermediate_compressions_monotone():
    model = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
    pruner = Pruner(model, GlobalMagWeight())
    seen = []
    for t in iterative_linear(16.0, 5):
        pruner.prune(t)
        seen.append(pruner.actual_compression())
    assert all(b > a for a, b in zip(seen, seen[1:]))
    assert seen[-1] == pytest.approx(16.0, rel=0.02)


def test_iterative_keeps_top_weights_of_final_oneshot():
    """With magnitude scoring and no retraining between steps, iterative
    pruning selects the same surviving set as one-shot (scores unchanged)."""
    m1 = MODELS.create("lenet-300-100", input_size=8, in_channels=1, seed=0)
    m2 = MODELS.create("lenet-300-100", input_size=8, in_channels=1, seed=0)
    p1 = Pruner(m1, GlobalMagWeight())
    p1.prune(8.0)
    p2 = Pruner(m2, GlobalMagWeight())
    for t in iterative_linear(8.0, 3):
        p2.prune(t)
    for name, mask in p1.registry.masks.items():
        np.testing.assert_array_equal(mask, p2.registry.masks[name])
