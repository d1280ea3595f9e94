"""The paper's five baseline pruning strategies (§7.2), plus extras.

================================  =========================================
Strategy                          Rule
================================  =========================================
``GlobalMagWeight``               keep largest ``|w|`` anywhere in the net
``LayerMagWeight``                keep largest ``|w|`` within each layer
``GlobalMagGrad``                 keep largest ``|w·g|`` anywhere
``LayerMagGrad``                  keep largest ``|w·g|`` within each layer
``RandomPruning``                 drop weights uniformly at random
``LayerRandomPruning``            random with per-layer proportions fixed
                                  (Appendix B checklist baseline)
================================  =========================================

These are *baselines inspired by* Han et al. (2015) / Lee et al. (2019), not
reproductions of those methods — exactly as the paper frames them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Module
from ..registry import Registry
from .base import (
    PruningContext,
    PruningStrategy,
    masks_from_scores_global,
    masks_from_scores_layerwise,
)
from .scoring import gradient_magnitude_scores, magnitude_scores, random_scores

__all__ = [
    "GlobalMagWeight",
    "LayerMagWeight",
    "GlobalMagGrad",
    "LayerMagGrad",
    "RandomPruning",
    "LayerRandomPruning",
    "STRATEGIES",
]

#: shared registry of pruning strategies; classes register themselves via
#: ``@STRATEGIES.register`` under their ``name`` attribute
STRATEGIES = Registry("strategy")


@STRATEGIES.register
class GlobalMagWeight(PruningStrategy):
    """Global Magnitude Pruning: lowest ``|w|`` anywhere is pruned."""

    name = "global_weight"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        scores = magnitude_scores(self._params(model))
        return masks_from_scores_global(scores, fraction_to_keep)


@STRATEGIES.register
class LayerMagWeight(PruningStrategy):
    """Layerwise Magnitude Pruning: lowest ``|w|`` within each layer."""

    name = "layer_weight"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        scores = magnitude_scores(self._params(model))
        return masks_from_scores_layerwise(scores, fraction_to_keep)


class _GradStrategy(PruningStrategy):
    requires_data = True

    def _scores(self, model: Module, context: Optional[PruningContext]):
        if context is None or context.inputs is None or context.targets is None:
            raise ValueError(
                f"{self.__class__.__name__} requires a minibatch in the "
                "PruningContext (inputs and targets)"
            )
        return gradient_magnitude_scores(
            model, self._params(model), context.inputs, context.targets
        )


@STRATEGIES.register
class GlobalMagGrad(_GradStrategy):
    """Global Gradient Magnitude Pruning: lowest ``|w·g|`` anywhere."""

    name = "global_gradient"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        return masks_from_scores_global(self._scores(model, context), fraction_to_keep)


@STRATEGIES.register
class LayerMagGrad(_GradStrategy):
    """Layerwise Gradient Magnitude Pruning: lowest ``|w·g|`` per layer."""

    name = "layer_gradient"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        return masks_from_scores_layerwise(
            self._scores(model, context), fraction_to_keep
        )


@STRATEGIES.register
class RandomPruning(PruningStrategy):
    """Uniform random pruning across the whole network (straw man)."""

    name = "random"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        rng = context.rng if context is not None else np.random.default_rng(0)
        scores = random_scores(self._params(model), rng)
        return masks_from_scores_global(scores, fraction_to_keep)


@STRATEGIES.register
class LayerRandomPruning(PruningStrategy):
    """Random pruning with the same fraction in every layer.

    The Appendix B checklist distinguishes "global random" from "random with
    the same layerwise proportions as the proposed technique"; this is the
    uniform-proportion member of that family.
    """

    name = "layer_random"

    def compute_masks(self, model, fraction_to_keep, context=None):
        self._validate_fraction(fraction_to_keep)
        rng = context.rng if context is not None else np.random.default_rng(0)
        scores = random_scores(self._params(model), rng)
        return masks_from_scores_layerwise(scores, fraction_to_keep)


#: Display names matching the paper's figure legends.
PAPER_LABELS = {
    "global_weight": "Global Weight",
    "layer_weight": "Layer Weight",
    "global_gradient": "Global Gradient",
    "layer_gradient": "Layer Gradient",
    "random": "Random",
    "layer_random": "Layer Random",
}

