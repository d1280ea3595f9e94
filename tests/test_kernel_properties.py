"""Property tests of the conv kernels' byte-equality contract.

The oracle is the NCHW gather and scatter the engine shipped before the
streaming NHWC versions, kept here verbatim: a 6-D ``transpose().reshape()``
gather and a scatter that stages ``dcols`` as ``(kh, kw, N, C, OH, OW)``.
On generated geometries (N, C, H and W from 1 to 13, odd sizes included,
kernels 1-5 per side, stride 1-3, padding 0-2, float32 and float64, with
``-0.0`` values and non-contiguous inputs):

* ``im2col``'s ``cols`` and ``col2im``'s input gradient ≡ the oracle's,
  compared as ``tobytes()``;
* ``conv2d_forward``/``conv2d_backward`` and the fused conv+bias+ReLU pair
  ≡ an oracle composition that makes the same GEMM calls on the same
  operand layouts;
* ``cols`` is always C-contiguous.  The oracle's ``reshape`` returned a
  Fortran-ordered view of the input for batch-1 1x1 stride-1 convs, which
  handed BLAS a transposed operand; the composition below therefore
  copies the oracle's ``cols`` to C order before its GEMMs.
"""

from typing import Tuple

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.kernels import resolve_backend
from repro.kernels.reference import col2im, conv_output_shape, im2col


# -- the oracle ------------------------------------------------------------
def oracle_im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    # windows: strided view (N, C, OH, OW, kh, kw)
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[
        :, :, ::stride, ::stride, :, :
    ]
    # -> (N, OH, OW, C, kh, kw) -> (N*OH*OW, C*kh*kw); one materializing copy.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return cols, (oh, ow)


def oracle_col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    n, c, h, w = x_shape
    oh, ow = conv_output_shape((h, w), (kh, kw), stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    dx = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    # One sequential materializing copy into (kh, kw, N, C, OH, OW) so each
    # scatter-add below reads a contiguous source block.
    d6 = np.ascontiguousarray(
        dcols.reshape(n, oh, ow, c, kh, kw).transpose(4, 5, 0, 3, 1, 2)
    )
    for i in range(kh):
        hi = i + stride * oh
        for j in range(kw):
            wj = j + stride * ow
            dx[:, :, i:hi:stride, j:wj:stride] += d6[i, j]
    if padding:
        dx = dx[:, :, padding:-padding, padding:-padding]
    return dx


def oracle_conv2d_forward(x, w, b, stride, padding):
    """The reference composition around the oracle gather: same GEMMs."""
    n, c_out, kh, kw = x.shape[0], w.shape[0], w.shape[2], w.shape[3]
    cols, (oh, ow) = oracle_im2col(x, kh, kw, stride, padding)
    cols = np.ascontiguousarray(cols)
    w_mat = w.reshape(c_out, -1)
    out2d = cols @ w_mat.T
    out = np.moveaxis(out2d.reshape(n, oh, ow, c_out), 3, 1)
    if b is not None:
        out = out + b.reshape(1, c_out, 1, 1)
    else:
        out = np.ascontiguousarray(out)
    return out, cols, w_mat


def oracle_conv2d_backward(g, cols, w_mat, x_shape, w_shape, stride, padding,
                           has_bias):
    n, (c_out, _, kh, kw) = x_shape[0], w_shape
    oh, ow = g.shape[2], g.shape[3]
    g2d = np.moveaxis(g, 1, 3).reshape(n * oh * ow, c_out)
    gw = (g2d.T @ cols).reshape(w_shape)
    dcols = g2d @ w_mat
    gx = oracle_col2im(dcols, x_shape, kh, kw, stride, padding)
    if not has_bias:
        return gx, gw
    return gx, gw, g.sum(axis=(0, 2, 3))


# -- generated cases -------------------------------------------------------
@st.composite
def geometries(draw):
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    return {
        "n": draw(st.integers(1, 13)),
        "c": draw(st.integers(1, 13)),
        "h": draw(st.integers(max(1, kh - 2 * padding), 13)),
        "w": draw(st.integers(max(1, kw - 2 * padding), 13)),
        "kh": kh,
        "kw": kw,
        "stride": draw(st.integers(1, 3)),
        "padding": padding,
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        # how the input is laid out: C order, a channel slice of a wider
        # array (what grouped convs pass), or Fortran order
        "layout": draw(st.sampled_from(["c", "slice", "f"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def values(rng, shape, dtype):
    """Normal values with about one in eight set to ``-0.0``."""
    a = rng.standard_normal(shape).astype(dtype)
    a[rng.random(shape) < 0.125] = -0.0
    return a


def make_input(geo, rng):
    shape = (geo["n"], geo["c"], geo["h"], geo["w"])
    if geo["layout"] == "slice":
        wide = values(rng, (shape[0], 2 * shape[1]) + shape[2:], geo["dtype"])
        return wide[:, 1::2]
    x = values(rng, shape, geo["dtype"])
    return np.asfortranarray(x) if geo["layout"] == "f" else x


def assert_bytes_equal(a, b):
    __tracebackhide__ = True
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestGatherScatterOracle:
    @settings(max_examples=300, deadline=None)
    @given(geo=geometries())
    def test_im2col_matches_oracle(self, geo):
        rng = np.random.default_rng(geo["seed"])
        x = make_input(geo, rng)
        args = (geo["kh"], geo["kw"], geo["stride"], geo["padding"])
        cols, out_hw = im2col(x, *args)
        want, want_hw = oracle_im2col(x, *args)
        assert out_hw == want_hw
        assert cols.flags.c_contiguous
        assert_bytes_equal(cols, want)

    @settings(max_examples=300, deadline=None)
    @given(geo=geometries())
    def test_col2im_matches_oracle(self, geo):
        rng = np.random.default_rng(geo["seed"])
        x_shape = (geo["n"], geo["c"], geo["h"], geo["w"])
        kh, kw, stride, padding = geo["kh"], geo["kw"], geo["stride"], geo["padding"]
        oh, ow = conv_output_shape(x_shape[2:], (kh, kw), stride, padding)
        dcols = values(rng, (geo["n"] * oh * ow, geo["c"] * kh * kw), geo["dtype"])
        gx = col2im(dcols, x_shape, kh, kw, stride, padding)
        assert gx.flags.c_contiguous
        assert_bytes_equal(gx, oracle_col2im(dcols, x_shape, kh, kw, stride, padding))

    def test_batch_one_pointwise_cols_are_c_ordered(self):
        # the one geometry where the oracle's reshape returns a view of the
        # input: the new gather still hands the GEMM a C-ordered copy
        x = np.arange(2 * 3 * 4, dtype=np.float32).reshape(1, 2, 3, 4)
        want, _ = oracle_im2col(x, 1, 1, 1, 0)
        assert want.flags.f_contiguous and not want.flags.c_contiguous
        cols, _ = im2col(x, 1, 1, 1, 0)
        assert cols.flags.c_contiguous
        assert_bytes_equal(cols, want)


class TestConvCompositionOracle:
    @settings(max_examples=150, deadline=None)
    @given(geo=geometries(), c_out=st.integers(1, 9), bias=st.booleans())
    def test_conv2d_forward_backward(self, geo, c_out, bias):
        kb = resolve_backend("reference")
        rng = np.random.default_rng(geo["seed"])
        x = make_input(geo, rng)
        w = values(rng, (c_out, geo["c"], geo["kh"], geo["kw"]), geo["dtype"])
        b = values(rng, (c_out,), geo["dtype"]) if bias else None
        stride, padding = geo["stride"], geo["padding"]
        out, ctx = kb.conv2d_forward(x, w, b, stride, padding, True)
        want, cols, w_mat = oracle_conv2d_forward(x, w, b, stride, padding)
        assert_bytes_equal(out, want)
        g = values(rng, out.shape, geo["dtype"])
        got = kb.conv2d_backward(g, ctx)
        expected = oracle_conv2d_backward(
            g, cols, w_mat, x.shape, w.shape, stride, padding, bias
        )
        assert len(got) == len(expected) == (3 if bias else 2)
        for a, e in zip(got, expected):
            assert_bytes_equal(a, e)

    @settings(max_examples=100, deadline=None)
    @given(geo=geometries(), c_out=st.integers(1, 9))
    def test_fused_conv_bias_relu(self, geo, c_out):
        kb = resolve_backend("reference")
        rng = np.random.default_rng(geo["seed"])
        x = make_input(geo, rng)
        w = values(rng, (c_out, geo["c"], geo["kh"], geo["kw"]), geo["dtype"])
        b = values(rng, (c_out,), geo["dtype"])
        stride, padding = geo["stride"], geo["padding"]
        out, ctx = kb.fused_conv_bias_relu_forward(x, w, b, stride, padding, True)
        pre, cols, w_mat = oracle_conv2d_forward(x, w, b, stride, padding)
        assert_bytes_equal(out, np.maximum(pre, 0))
        g = values(rng, out.shape, geo["dtype"])
        got = kb.fused_conv_bias_relu_backward(g, ctx)
        expected = oracle_conv2d_backward(
            g * (pre > 0), cols, w_mat, x.shape, w.shape, stride, padding, True
        )
        for a, e in zip(got, expected):
            assert_bytes_equal(a, e)
