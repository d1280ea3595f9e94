"""ShrinkBench pruning core: masks, scores, strategies, schedules."""

from .base import (
    PruningContext,
    PruningStrategy,
    find_classifier,
    masks_from_scores_global,
    masks_from_scores_layerwise,
    prunable_parameters,
)
from .mask import MaskRegistry
from .pruner import Pruner, fraction_to_keep_for_compression
from .scoring import (
    compute_weight_gradients,
    gradient_magnitude_scores,
    magnitude_scores,
    random_scores,
)
from .strategies import (
    PAPER_LABELS,
    STRATEGIES,
    GlobalMagGrad,
    GlobalMagWeight,
    LayerMagGrad,
    LayerMagWeight,
    LayerRandomPruning,
    RandomPruning,
)
from .structured import GlobalFilterL1, LayerFilterL1
from .schedule import (
    SCHEDULES,
    compression_to_sparsity,
    iterative_linear,
    one_shot,
    polynomial_decay,
    schedule_targets,
    sparsity_to_compression,
)

# Register the structured strategies alongside the unstructured baselines.
STRATEGIES.setdefault(GlobalFilterL1.name, GlobalFilterL1)
STRATEGIES.setdefault(LayerFilterL1.name, LayerFilterL1)
PAPER_LABELS.setdefault("global_filter_l1", "Global Filter L1")
PAPER_LABELS.setdefault("layer_filter_l1", "Layer Filter L1")

__all__ = [
    "PruningContext",
    "PruningStrategy",
    "prunable_parameters",
    "find_classifier",
    "masks_from_scores_global",
    "masks_from_scores_layerwise",
    "MaskRegistry",
    "Pruner",
    "fraction_to_keep_for_compression",
    "magnitude_scores",
    "gradient_magnitude_scores",
    "random_scores",
    "compute_weight_gradients",
    "GlobalMagWeight",
    "LayerMagWeight",
    "GlobalMagGrad",
    "LayerMagGrad",
    "RandomPruning",
    "LayerRandomPruning",
    "GlobalFilterL1",
    "LayerFilterL1",
    "STRATEGIES",
    "SCHEDULES",
    "PAPER_LABELS",
    "schedule_targets",
    "one_shot",
    "iterative_linear",
    "polynomial_decay",
    "compression_to_sparsity",
    "sparsity_to_compression",
]
