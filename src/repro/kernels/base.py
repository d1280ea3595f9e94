"""Shared infrastructure for kernel backends: saved-forward contexts and
the backend base class.

A *kernel backend* is an object exposing the hot compute primitives the
autograd layer dispatches through (see :mod:`repro.kernels`).  Every
primitive operates on plain ``numpy.ndarray`` values — backends know nothing
about :class:`~repro.autograd.tensor.Tensor` or the tape, which is what lets
a Numba/C backend drop in later without touching autograd.

Forward kernels that have a matching backward return an opaque *context*
object carrying whatever the backward needs (the im2col matrix, the reshaped
weight, the ReLU mask).  The autograd op closes over the context; when the
tape node is garbage-collected the context goes with it.
"""

from __future__ import annotations

__all__ = [
    "ConvCtx",
    "LinearCtx",
    "KernelBackend",
]


class ConvCtx:
    """Saved-forward state for ``conv2d_backward`` (and the fused variant)."""

    __slots__ = (
        "cols",
        "w_mat",
        "x_shape",
        "w_shape",
        "stride",
        "padding",
        "has_bias",
        "mask",
    )

    def __init__(self, **kw) -> None:
        self.mask = None
        for k, v in kw.items():
            setattr(self, k, v)


class LinearCtx:
    """Saved-forward state for ``linear_backward``."""

    __slots__ = ("x", "w", "has_bias")

    def __init__(self, x, w, has_bias) -> None:
        self.x = x
        self.w = w
        self.has_bias = has_bias


class KernelBackend:
    """Base class for kernel backends: names the protocol.

    Subclasses implement the primitives (see :class:`ReferenceKernels` for
    the canonical signatures):

    * ``gemm(a, b, out=None)``
    * ``conv2d_forward(x, w, b, stride, padding, want_ctx)`` /
      ``conv2d_backward(g, ctx)``
    * ``fused_conv_bias_relu_forward(...)`` / ``..._backward(g, ctx)``
    * ``maxpool_forward(x, kernel, stride)`` /
      ``maxpool_backward(x_shape, arg, g, kernel, stride, dtype)``
    * ``linear_forward(x, w, b, want_ctx)`` / ``linear_backward(g, ctx)``
    * elementwise train-step ops: ``relu_forward(x)``, ``relu_backward(g, x)``
      and the in-place ``sgd_update(param, grad, velocity, ...)``
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
