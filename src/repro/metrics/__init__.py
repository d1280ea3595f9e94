"""Metrics: model size, FLOPs/theoretical speedup, Top-1/Top-5 accuracy."""

from .size import (
    compression_ratio,
    compression_ratio_misused,
    fraction_pruned,
    fraction_remaining,
    model_size_bytes,
    nonzero_params,
    per_layer_nonzero,
    total_params,
)
from .flops import (
    DEFAULT_CONVENTION,
    FlopsConvention,
    LayerTrace,
    dense_flops,
    effective_flops,
    flops_by_layer,
    flops_totals,
    speedup_from_totals,
    theoretical_speedup,
    trace_layers,
)
from .accuracy import evaluate, topk_accuracy

__all__ = [
    "total_params",
    "nonzero_params",
    "compression_ratio",
    "compression_ratio_misused",
    "fraction_pruned",
    "fraction_remaining",
    "model_size_bytes",
    "per_layer_nonzero",
    "FlopsConvention",
    "DEFAULT_CONVENTION",
    "LayerTrace",
    "trace_layers",
    "dense_flops",
    "effective_flops",
    "flops_by_layer",
    "flops_totals",
    "speedup_from_totals",
    "theoretical_speedup",
    "topk_accuracy",
    "evaluate",
]
