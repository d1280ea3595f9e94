"""FLOPs (multiply-add) counting and theoretical speedup.

§2.4: "in convolutional layers, filters applied to spatially larger inputs
are associated with more computation" — so FLOPs must be counted per layer
with the actual spatial output shape, which we obtain by tracing a forward
pass with module hooks.

§5.2 documents that papers disagree on the convention (up to 4× for the
same network: 371 vs 724 vs 1500 MFLOPs for AlexNet).  We therefore expose
an explicit :class:`FlopsConvention` covering the main axes of disagreement:
multiply-adds vs 2-ops-per-MAC, and conv-only vs all layers.  The default
matches the paper's recommendation: multiply-adds over all parameterized
layers.

**Effective (pruned) FLOPs**: each conv MAC is attributed to one weight, so
a layer's effective MACs = (nonzero weights) × (spatial output positions);
for linear layers, = nonzero weights.  Theoretical speedup = dense MACs /
effective MACs (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import Conv2d, Linear, Module

__all__ = [
    "FlopsConvention",
    "LayerTrace",
    "trace_layers",
    "dense_flops",
    "effective_flops",
    "flops_totals",
    "speedup_from_totals",
    "theoretical_speedup",
    "flops_by_layer",
]


@dataclass(frozen=True)
class FlopsConvention:
    """Counting convention (the §5.2 ambiguity, made explicit).

    Attributes
    ----------
    ops_per_mac:
        1 counts multiply-adds (the paper's recommendation); 2 counts
        multiply and add separately.
    include_linear:
        Include fully-connected layers (some papers count conv only).
    include_bias:
        Count one add per output element for biased layers.
    """

    ops_per_mac: int = 1
    include_linear: bool = True
    include_bias: bool = False

    def __post_init__(self):
        if self.ops_per_mac not in (1, 2):
            raise ValueError("ops_per_mac must be 1 or 2")


#: The convention used everywhere unless stated otherwise.
DEFAULT_CONVENTION = FlopsConvention()


@dataclass
class LayerTrace:
    """One parameterized layer observed during a traced forward pass."""

    name: str
    module: Module
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]


def trace_layers(model: Module, input_shape: Tuple[int, ...]) -> List[LayerTrace]:
    """Run a dummy forward pass, recording conv/linear layer shapes.

    ``input_shape`` excludes the batch dimension, e.g. ``(3, 32, 32)``.
    """
    traces: List[LayerTrace] = []
    removers = []
    name_of = {id(m): n for n, m in model.named_modules()}

    def make_hook(module: Module):
        def hook(mod, args, out):
            traces.append(
                LayerTrace(
                    name=name_of.get(id(mod), "?"),
                    module=mod,
                    input_shape=tuple(args[0].shape),
                    output_shape=tuple(out.shape),
                )
            )

        return hook

    for n, m in model.named_modules():
        if isinstance(m, (Conv2d, Linear)):
            removers.append(m.register_forward_hook(make_hook(m)))
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            dummy = Tensor(np.zeros((1,) + tuple(input_shape), dtype=np.float32))
            model(dummy)
    finally:
        model.train(was_training)
        for remove in removers:
            remove()
    return traces


def _layer_macs(trace: LayerTrace, nonzero_weights: Optional[int]) -> float:
    """MACs for one layer; ``nonzero_weights=None`` means dense count."""
    m = trace.module
    if isinstance(m, Conv2d):
        out_positions = trace.output_shape[2] * trace.output_shape[3]
        weights = m.weight.size if nonzero_weights is None else nonzero_weights
        return float(weights) * out_positions
    if isinstance(m, Linear):
        weights = m.weight.size if nonzero_weights is None else nonzero_weights
        return float(weights)
    raise TypeError(f"unsupported layer {type(m).__name__}")


def _bias_ops(trace: LayerTrace) -> float:
    m = trace.module
    if getattr(m, "bias", None) is None:
        return 0.0
    out = trace.output_shape
    return float(np.prod(out[1:]))


def flops_by_layer(
    model: Module,
    input_shape: Tuple[int, ...],
    convention: FlopsConvention = DEFAULT_CONVENTION,
    effective: bool = False,
) -> Dict[str, float]:
    """Per-layer FLOPs.  ``effective=True`` counts only nonzero weights."""
    return _per_layer(trace_layers(model, input_shape), convention, effective)


def _per_layer(
    traces: List[LayerTrace], convention: FlopsConvention, effective: bool
) -> Dict[str, float]:
    result: Dict[str, float] = {}
    for trace in traces:
        if isinstance(trace.module, Linear) and not convention.include_linear:
            continue
        nz = (
            int(np.count_nonzero(trace.module.weight.data)) if effective else None
        )
        ops = _layer_macs(trace, nz) * convention.ops_per_mac
        if convention.include_bias:
            ops += _bias_ops(trace)
        result[trace.name] = result.get(trace.name, 0.0) + ops
    return result


def dense_flops(
    model: Module,
    input_shape: Tuple[int, ...],
    convention: FlopsConvention = DEFAULT_CONVENTION,
) -> float:
    """Total FLOPs of the dense (unpruned) model for one input."""
    return sum(flops_by_layer(model, input_shape, convention).values())


def effective_flops(
    model: Module,
    input_shape: Tuple[int, ...],
    convention: FlopsConvention = DEFAULT_CONVENTION,
) -> float:
    """Total FLOPs counting only nonzero weights (pruned model cost)."""
    return sum(
        flops_by_layer(model, input_shape, convention, effective=True).values()
    )


def flops_totals(
    model: Module,
    input_shape: Tuple[int, ...],
    convention: FlopsConvention = DEFAULT_CONVENTION,
) -> Tuple[float, float]:
    """``(dense_flops, effective_flops)`` from one traced forward pass."""
    traces = trace_layers(model, input_shape)
    return (
        sum(_per_layer(traces, convention, effective=False).values()),
        sum(_per_layer(traces, convention, effective=True).values()),
    )


def theoretical_speedup(
    model: Module,
    input_shape: Tuple[int, ...],
    convention: FlopsConvention = DEFAULT_CONVENTION,
) -> float:
    """§6 definition: original multiply-adds / pruned multiply-adds."""
    return speedup_from_totals(*flops_totals(model, input_shape, convention))


def speedup_from_totals(dense: float, effective: float) -> float:
    """``dense / effective``, the theoretical speedup of :func:`flops_totals`."""
    if effective <= 0:
        raise ValueError("model has zero effective FLOPs (fully pruned?)")
    return dense / effective
