"""The kernel backend: the engine's NumPy hot-path code.

The module-level functions here (:func:`im2col`, :func:`col2im`, the two
max-pool scatter variants, :func:`conv_output_shape`) are plain-ndarray
building blocks; :class:`ReferenceKernels` wraps them in the backend
protocol and is registered as ``reference``, the one backend.

Byte-equality rule for the conv path: the GEMM call shapes and operand
layouts are fixed (``cols`` is always a C-contiguous ``(N*OH*OW,
C*kh*kw)`` matrix), and only the schedule that fills ``cols`` and empties
``dcols`` may change.  Each output element then sums the same products
in the same order, so a new schedule changes no result byte.  A gather
that hands BLAS a transposed operand breaks the rule: BLAS takes another
path and rounds differently.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import ConvCtx, KernelBackend, LinearCtx

__all__ = [
    "ReferenceKernels",
    "conv_output_shape",
    "im2col",
    "col2im",
    "max_pool2d_backward_scatter",
    "max_pool2d_backward_add_at",
]

#: bytes of ``cols`` (or ``dcols``) one batch tile covers.  The gather and
#: the scatter pass over a tile once per kernel offset, so a tile is sized
#: to stay in the L2 cache between passes.
TILE_BYTES = 1 << 19


def conv_output_shape(
    in_hw: Tuple[int, int], kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output shape of a conv/pool with the given geometry."""
    h = (in_hw[0] + 2 * padding - kernel[0]) // stride + 1
    w = (in_hw[1] + 2 * padding - kernel[1]) // stride + 1
    if h <= 0 or w <= 0:
        raise ValueError(
            f"Non-positive conv output {h}x{w} for input {in_hw}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return h, w


def _batch_tiles(n: int, image_bytes: int) -> List[slice]:
    """Slices of the batch axis that each cover about ``TILE_BYTES``."""
    step = max(1, TILE_BYTES // max(1, image_bytes))
    return [slice(n0, n0 + step) for n0 in range(0, n, step)]


def _slab(a: np.ndarray, i: int, j: int, stride: int, oh: int, ow: int):
    """The ``(N, OH, OW, C)`` view of NHWC ``a`` under kernel offset (i, j)."""
    return a[:, i : i + stride * oh : stride, j : j + stride * ow : stride]


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding patches as a GEMM-ready matrix.

    Returns ``cols`` of shape ``(N*OH*OW, C*kh*kw)``, always C-contiguous,
    so that the forward pass and the two backward passes are single large
    BLAS GEMMs rather than batched small ones.  The input is staged once in
    NHWC (a view when ``padding == 0``); then, per batch tile, each kernel
    offset (i, j) fills its column of the ``(N, OH, OW, C, kh, kw)`` cols
    with one strided slab copy.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_shape((h, w), (kh, kw), stride, padding)
    xt = x.transpose(0, 2, 3, 1)
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + w] = xt
        xt = xp
    cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.dtype)
    for tile in _batch_tiles(n, cols[:1].nbytes):
        src, dst = xt[tile], cols[tile]
        for i in range(kh):
            for j in range(kw):
                dst[..., i, j] = _slab(src, i, j, stride, oh, ow)
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter patch grads back to the image.

    ``dcols`` has shape ``(N*OH*OW, C*kh*kw)``.  Per batch tile, each
    kernel offset (i, j) scatter-adds its slab into a zeroed, padded NHWC
    buffer in (i, j) order, so every element sums the same addends in the
    same order whatever the layout; the tile's unpadded interior is then
    copied out.  Returns a C-contiguous NCHW array.
    """
    n, c, h, w = x_shape
    oh, ow = conv_output_shape((h, w), (kh, kw), stride, padding)
    d6 = dcols.reshape(n, oh, ow, c, kh, kw)
    dx = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=dcols.dtype)
    gx = np.empty(x_shape, dtype=dcols.dtype)
    for tile in _batch_tiles(n, d6[:1].nbytes):
        src, acc = d6[tile], dx[tile]
        for i in range(kh):
            for j in range(kw):
                slab = _slab(acc, i, j, stride, oh, ow)
                slab += src[..., i, j]
        gx[tile] = acc[:, padding : padding + h, padding : padding + w].transpose(
            0, 3, 1, 2
        )
    return gx


def max_pool2d_backward_scatter(
    x_shape: Tuple[int, int, int, int],
    arg: np.ndarray,
    g: np.ndarray,
    kernel: int,
    stride: int,
    dtype,
) -> np.ndarray:
    """Max-pool input gradient for *non-overlapping* windows (stride ≥ kernel).

    Each input cell then receives at most one window's gradient, so the
    scatter-add degenerates to a pure scatter: a fancy-index *assignment*,
    which is several times faster than :func:`np.add.at`'s unbuffered
    accumulation.  ``g + 0.0`` normalizes ``-0.0`` gradients to ``+0.0`` so
    the result stays byte-identical to adding into a zeroed buffer.
    """
    n, c, _, _ = x_shape
    oh, ow = arg.shape[2], arg.shape[3]
    dx = np.zeros(x_shape, dtype=dtype)
    ki, kj = np.divmod(arg, kernel)
    oi, oj = np.ogrid[0:oh, 0:ow]
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    dx[ni, ci, oi * stride + ki, oj * stride + kj] = g + 0.0
    return dx


def max_pool2d_backward_add_at(
    x_shape: Tuple[int, int, int, int],
    arg: np.ndarray,
    g: np.ndarray,
    kernel: int,
    stride: int,
    dtype,
) -> np.ndarray:
    """Reference max-pool input gradient via ``np.add.at``.

    Correct for any stride/kernel combination (overlapping windows
    accumulate); :func:`max_pool2d_backward_scatter` is equivalence-tested
    against this and used on the non-overlapping hot path.
    """
    dx = np.zeros(x_shape, dtype=dtype)
    ki, kj = np.divmod(arg, kernel)
    ni, ci, oi, oj = np.indices(arg.shape, sparse=False)
    rows = oi * stride + ki
    cols_ = oj * stride + kj
    np.add.at(dx, (ni, ci, rows, cols_), g)
    return dx


class ReferenceKernels(KernelBackend):
    """Dtype-preserving backend built on the module's functions.

    Every primitive produces results bit-identical to the pre-kernels
    autograd code paths, with one exception: for a batch-1 1x1 stride-1
    conv the NCHW gather's ``reshape`` handed BLAS a Fortran-ordered view,
    and ``im2col`` hands it a C-ordered copy like every other geometry.
    ``tests/test_kernel_properties.py`` pins the conv gather and scatter
    against the NCHW originals.
    """

    # -- GEMM -----------------------------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None):
        """Single large BLAS matmul (batched via numpy's stacked matmul)."""
        return np.matmul(a, b, out=out)

    # -- dense conv2d ---------------------------------------------------
    def conv2d_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        b: Optional[np.ndarray],
        stride: int,
        padding: int,
        want_ctx: bool,
    ) -> Tuple[np.ndarray, Optional[ConvCtx]]:
        """im2col + one GEMM.  Returns ``(out, ctx)``; ctx is None when the
        caller will not run a backward pass."""
        n = x.shape[0]
        c_out = w.shape[0]
        kh, kw_ = w.shape[2], w.shape[3]
        cols, (oh, ow) = im2col(x, kh, kw_, stride, padding)  # (N*P, K)
        w_mat = w.reshape(c_out, -1)  # (F, K)
        out2d = cols @ w_mat.T  # single GEMM -> (N*P, F)
        out = np.moveaxis(out2d.reshape(n, oh, ow, c_out), 3, 1)
        if b is not None:
            out = out + b.reshape(1, c_out, 1, 1)
        else:
            out = np.ascontiguousarray(out)
        if not want_ctx:
            return out, None
        ctx = ConvCtx(
            cols=cols,
            w_mat=w_mat,
            x_shape=x.shape,
            w_shape=w.shape,
            stride=stride,
            padding=padding,
            has_bias=b is not None,
        )
        return out, ctx

    def conv2d_backward(self, g: np.ndarray, ctx: ConvCtx):
        """Two GEMMs + col2im scatter.  Returns ``(gx, gw[, gb])``."""
        n = ctx.x_shape[0]
        c_out, _, kh, kw_ = ctx.w_shape
        oh, ow = g.shape[2], g.shape[3]
        # (N,F,OH,OW) -> (N*P, F); one materializing copy.
        g2d = np.moveaxis(g, 1, 3).reshape(n * oh * ow, c_out)
        gw = (g2d.T @ ctx.cols).reshape(ctx.w_shape)  # single GEMM
        dcols = g2d @ ctx.w_mat  # single GEMM -> (N*P, K)
        gx = col2im(dcols, ctx.x_shape, kh, kw_, ctx.stride, ctx.padding)
        if not ctx.has_bias:
            return gx, gw
        gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    # -- fused conv + bias + relu ---------------------------------------
    def fused_conv_bias_relu_forward(
        self, x, w, b, stride: int, padding: int, want_ctx: bool
    ):
        """conv2d + bias + ReLU as one kernel (byte-equal to the composed ops)."""
        out, ctx = self.conv2d_forward(x, w, b, stride, padding, want_ctx)
        if ctx is not None:
            ctx.mask = out > 0
        return np.maximum(out, 0), ctx

    def fused_conv_bias_relu_backward(self, g: np.ndarray, ctx: ConvCtx):
        """ReLU mask then the conv backward; gb sees the masked gradient."""
        return self.conv2d_backward(g * ctx.mask, ctx)

    # -- max pooling ----------------------------------------------------
    def maxpool_forward(self, x: np.ndarray, kernel: int, stride: int):
        """Windowed argmax; returns ``(out, arg)`` with arg kept for backward."""
        n, c, h, w = x.shape
        oh, ow = conv_output_shape((h, w), (kernel, kernel), stride, 0)
        windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[
            :, :, ::stride, ::stride
        ]  # (N,C,OH,OW,k,k)
        flat = windows.reshape(n, c, oh, ow, kernel * kernel)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(out), arg

    def maxpool_backward(self, x_shape, arg, g, kernel: int, stride: int, dtype):
        """Scatter (non-overlapping fast path) or add.at (general) input grad."""
        scatter = (
            max_pool2d_backward_scatter
            if stride >= kernel
            else max_pool2d_backward_add_at
        )
        return scatter(x_shape, arg, g, kernel, stride, dtype)

    # -- linear (2-D affine) --------------------------------------------
    def linear_forward(
        self, x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray], want_ctx: bool
    ):
        """``x @ w.T + b`` for 2-D ``x`` with PyTorch ``(out, in)`` weights."""
        out = x @ w.T
        if b is not None:
            out = out + b
        ctx = LinearCtx(x=x, w=w, has_bias=b is not None) if want_ctx else None
        return out, ctx

    def linear_backward(self, g: np.ndarray, ctx: LinearCtx):
        gx = g @ ctx.w
        gw = g.T @ ctx.x
        if not ctx.has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=0)

    # -- elementwise train-step ops -------------------------------------
    def relu_forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)

    def relu_backward(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        return g * (x > 0)

    def sgd_update(
        self,
        param: np.ndarray,
        grad: np.ndarray,
        velocity: Optional[np.ndarray],
        lr: float,
        momentum: float,
        nesterov: bool,
        weight_decay: float,
    ) -> Optional[np.ndarray]:
        """In-place SGD step on one parameter; returns the velocity buffer,
        which keeps the parameter's dtype."""
        g = grad
        if weight_decay:
            g = g + weight_decay * param
        if momentum:
            if velocity is None:
                velocity = np.zeros_like(param)
            velocity *= momentum
            velocity += g
            g = g + momentum * velocity if nesterov else velocity
        param -= lr * g
        return velocity
