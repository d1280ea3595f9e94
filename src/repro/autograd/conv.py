"""Convolution and pooling ops for the NumPy autograd engine.

Implements im2col-based 2-D convolution (with stride/padding/groups), a fast
dedicated depthwise convolution, and max/avg pooling — all as differentiable
ops on :class:`repro.autograd.tensor.Tensor`.

The heavy array math for the dense conv, the fused conv+bias+ReLU, and max
pooling is *not* implemented here: those ops dispatch through the active
kernel backend (:func:`repro.kernels.active_backend`), one seam where every
kernel call can be timed or swapped.  The backend's forward returns an
opaque context that the backward closure hands back — the tape never sees
backend internals.

The max-pool scatter variants live in :mod:`repro.kernels.reference` and
are re-exported here under their historical private names.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..kernels import active_backend
from ..kernels.reference import (
    conv_output_shape,
    max_pool2d_backward_add_at as _max_pool2d_backward_add_at,
    max_pool2d_backward_scatter as _max_pool2d_backward_scatter,
)
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "conv2d_bias_relu",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "conv_output_shape",
]


def _wants_grad(*tensors: Optional[Tensor]) -> bool:
    """Whether a backward pass can reach any of the given (optional) tensors."""
    return is_grad_enabled() and any(
        t is not None and t.requires_grad for t in tensors
    )


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    Parameters
    ----------
    x: input of shape ``(N, C_in, H, W)``.
    weight: filters of shape ``(C_out, C_in // groups, KH, KW)``.
    bias: optional per-output-channel bias of shape ``(C_out,)``.
    groups: number of filter groups; ``groups == C_in`` with matching
        ``C_out`` dispatches to the fast depthwise path.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in % groups or c_out % groups:
        raise ValueError(f"groups={groups} must divide C_in={c_in}, C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_g} input channels/group, got {c_in // groups}"
        )
    if groups > 1 and groups == c_in and c_out == c_in:
        return depthwise_conv2d(x, weight, bias, stride=stride, padding=padding)
    if groups == 1:
        return _conv2d_dense(x, weight, bias, stride, padding)
    # General grouped conv: run the dense path per group and concatenate.
    from .tensor import cat

    cg_in, cg_out = c_in // groups, c_out // groups
    outs = []
    for g in range(groups):
        xg = x[:, g * cg_in : (g + 1) * cg_in]
        wg = weight[g * cg_out : (g + 1) * cg_out]
        bg = bias[g * cg_out : (g + 1) * cg_out] if bias is not None else None
        outs.append(_conv2d_dense(xg, wg, bg, stride, padding))
    return cat(outs, axis=1)


def _conv2d_dense(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: int,
    padding: int,
) -> Tensor:
    kb = active_backend()
    want_ctx = _wants_grad(x, weight, bias)
    out, ctx = kb.conv2d_forward(
        x.data,
        weight.data,
        None if bias is None else bias.data,
        stride,
        padding,
        want_ctx,
    )
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        return kb.conv2d_backward(g, ctx)

    return Tensor._make(out, parents, backward)


def conv2d_bias_relu(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Fused dense conv2d + bias + ReLU (byte-equal to the composed ops).

    One backend kernel instead of three tape nodes: the ReLU mask is saved
    at forward time and applied to the incoming gradient before the conv
    backward, so the intermediate pre-activation never hits the tape.
    Requires ``bias`` and ``groups == 1`` (that is the shape of every
    conv+ReLU block in the model zoo's hot paths).
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d_bias_relu expects NCHW input and OIHW weights")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"conv2d_bias_relu is dense-only (groups=1); input has "
            f"{x.shape[1]} channels, weight expects {weight.shape[1]}"
        )
    kb = active_backend()
    want_ctx = _wants_grad(x, weight, bias)
    out, ctx = kb.fused_conv_bias_relu_forward(
        x.data, weight.data, bias.data, stride, padding, want_ctx
    )

    def backward(g: np.ndarray):
        return kb.fused_conv_bias_relu_backward(g, ctx)

    return Tensor._make(out, (x, weight, bias), backward)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution: one filter per input channel.

    ``weight`` has shape ``(C, 1, KH, KW)``; output has C channels.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n, c, h, w = x.shape
    c_out, one, kh, kw = weight.shape
    if c_out != c or one != 1:
        raise ValueError(f"depthwise weight must be (C,1,KH,KW); got {weight.shape}")
    xp = (
        np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        if padding
        else x.data
    )
    oh, ow = conv_output_shape((h, w), (kh, kw), stride, padding)
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[
        :, :, ::stride, ::stride
    ]  # (N,C,OH,OW,kh,kw)
    wk = weight.data.reshape(c, kh, kw)
    out = np.einsum("nchwij,cij->nchw", windows, wk, optimize=True)
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        gw = np.einsum("nchwij,nchw->cij", windows, g, optimize=True).reshape(
            weight.shape
        )
        # Input grad: scatter g*w back via the K×K loop.
        dxp = np.zeros_like(xp)
        for i in range(kh):
            hi = i + stride * oh
            for j in range(kw):
                wj = j + stride * ow
                dxp[:, :, i:hi:stride, j:wj:stride] += (
                    g * wk[None, :, i, j, None, None]
                )
        gx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows (NCHW)."""
    x = as_tensor(x)
    stride = stride or kernel
    kb = active_backend()
    out, arg = kb.maxpool_forward(x.data, kernel, stride)

    def backward(g: np.ndarray):
        return (kb.maxpool_backward(x.shape, arg, g, kernel, stride, x.data.dtype),)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over windows (NCHW)."""
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    oh, ow = conv_output_shape((h, w), (kernel, kernel), stride, 0)
    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))[
        :, :, ::stride, ::stride
    ]
    out = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray):
        dx = np.zeros_like(x.data)
        gs = g * scale
        for i in range(kernel):
            hi = i + stride * oh
            for j in range(kernel):
                wj = j + stride * ow
                dx[:, :, i:hi:stride, j:wj:stride] += gs
        return (dx,)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims: (N,C,H,W) -> (N,C)."""
    return x.mean(axis=(2, 3))
