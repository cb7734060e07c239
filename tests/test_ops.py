import math
import tracemalloc

import numpy as np
import pytest

from cordseg import ops
from cordseg.errors import DomainError, ShapeError
from cordseg.ops import ConvParams
from cordseg.rng import SplitMix64

from reference import (conv2d_backward_reference, conv2d_reference, finite_diff_check,
                       maxpool2_backward_reference, maxpool2_reference, relu, sigmoid_backward,
                       sigmoid_two_branch, upconv2_backward_reference, upconv2_reference)


def random_tensor(rng, shape, lo=-1.0, hi=1.0):
    span = hi - lo
    return (lo + span * rng.f64_array(int(np.prod(shape)))).astype(np.float32).reshape(shape)


def conv_params(rng, c_out, c_in, k):
    w = random_tensor(rng, (c_out, c_in, k, k))
    b = random_tensor(rng, (c_out,))
    return ConvParams(w, b)


# --- conv2d -------------------------------------------------------------------

def test_conv2d_identity_kernel():
    x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
    kernel = np.zeros((1, 1, 3, 3), np.float32)
    kernel[0, 0, 1, 1] = 1.0
    out = ops.conv2d(x, ConvParams(kernel, np.zeros(1, np.float32)))
    assert np.array_equal(out, x)


def test_conv2d_all_ones_kernel_hand_values():
    x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
    out = ops.conv2d(x, ConvParams(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32)))
    assert out[0, 0, 1, 1] == 45.0
    assert out[0, 0, 0, 0] == 12.0
    expected = conv2d_reference(x, np.ones((1, 1, 3, 3)), np.zeros(1))
    np.testing.assert_allclose(out, expected, atol=1e-5)


def test_conv2d_zero_input_gives_bias_planes():
    rng = SplitMix64(3)
    p = conv_params(rng, 3, 2, 3)
    out = ops.conv2d(np.zeros((2, 2, 4, 4), np.float32), p)
    for k in range(3):
        assert np.allclose(out[:, k], p.bias[k])


def test_conv2d_rejects_even_kernel():
    p = ConvParams(np.zeros((1, 1, 2, 2), np.float32), np.zeros(1, np.float32))
    with pytest.raises(ShapeError):
        ops.conv2d(np.zeros((1, 1, 4, 4), np.float32), p)


def random_conv_cases():
    rng = SplitMix64(100)
    for trial in range(30):
        n, ci, co = (1 + rng.randbelow(4) for _ in range(3))
        h, w = 1 + rng.randbelow(8), 1 + rng.randbelow(8)
        k = 1 if rng.randbelow(4) == 0 else 3
        yield random_tensor(rng, (n, ci, h, w)), conv_params(rng, co, ci, k)


def test_conv2d_matches_loop_oracle_on_random_shapes():
    for x, p in random_conv_cases():
        got = ops.conv2d(x, p)
        want = conv2d_reference(x, p.weights, p.bias)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_banded_conv2d_matches_loop_oracle_on_random_shapes(monkeypatch):
    # budgets of a few columns split every 3x3 layer into many bands of
    # whole rows or part of a row
    kinds = set()
    for budget in (256, 512, 4096):
        monkeypatch.setattr(ops, "_BAND_BYTES", budget)
        for x, p in random_conv_cases():
            n, ic, h, w = x.shape
            oc, _, kh, kw = p.weights.shape
            if kh > 1:
                column_bytes = (ic * kw + kh * oc) * x.itemsize
                bands = ops._row_bands(n, h, w, column_bytes, kh - 1)
                if len(bands) > 1:
                    kinds.add("n > 1" if n > 1 else "n = 1")
                covered = np.zeros((h, n, w), int)
                for rows, images, xs in bands:
                    covered[rows, images, xs] += 1
                    nr, ni, nx = (s.stop - s.start for s in (rows, images, xs))
                    assert (nr + kh - 1) * ni * nx * column_bytes <= max(budget,
                                                                         kh * column_bytes)
                    if nr > 1:
                        kinds.add("several rows")
                        if h % nr:
                            kinds.add("h not divisible by band height")
                    if nx < w:
                        kinds.add("part of a row")
                assert np.all(covered == 1)
            np.testing.assert_allclose(ops.conv2d(x, p), conv2d_reference(x, p.weights, p.bias),
                                       atol=1e-5)
    assert kinds == {"n > 1", "n = 1", "several rows", "h not divisible by band height",
                     "part of a row"}


def test_conv2d_is_bitwise_independent_of_memory_layout():
    # the same values stored NCHW-contiguous, as (c, n, h, w) and as (c, h, n, w)
    def layouts(t):
        return [np.ascontiguousarray(t),
                np.ascontiguousarray(t.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
                np.ascontiguousarray(t.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3)]

    rng = SplitMix64(330)
    for k in (3, 1):
        x = random_tensor(rng, (3, 4, 6, 5))
        p = conv_params(rng, 2, 4, k)
        g = random_tensor(rng, (3, 2, 6, 5))
        want = ops.conv2d(x, p), *ops.conv2d_backward(x, p, g)
        for xs in layouts(x):
            got = ops.conv2d(xs, p), *ops.conv2d_backward(xs, p, g)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for gs in layouts(g):
            grad_x, grad_w, grad_b = ops.conv2d_backward(x, p, gs)
            assert np.array_equal(grad_x, want[1]) and np.array_equal(grad_w, want[2])
            # numpy's sum order follows the layout, so the bias gradient only rounds alike
            np.testing.assert_allclose(grad_b, want[3], atol=1e-5)


def test_conv2d_columns_stay_bounded_on_a_wide_tile():
    # whole-tile columns of this layer alone would take 128*9*256*256*4 B = 288 MiB
    rng = SplitMix64(110)
    x = random_tensor(rng, (1, 128, 256, 256))
    p = conv_params(rng, 64, 128, 3)
    tracemalloc.start()
    try:
        out = ops.conv2d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 64, 256, 256)
    assert peak < 96 * 2**20, peak


def test_narrow_conv_bands_fit_one_core_cache():
    for n, ic, oc, side in ((1, 8, 8, 256), (1, 16, 8, 256), (4, 8, 8, 64)):
        column_bytes = (ic * 3 + 3 * oc) * 4
        bands = ops._row_bands(n, side, side, column_bytes, 2)
        assert len(bands) > 1
        for rows, images, xs in bands:
            assert (images, xs) == (slice(0, n), slice(0, side))
            assert (rows.stop - rows.start + 2) * n * side * column_bytes <= ops._CACHE_BYTES
        # at least 8 output rows per halo row, so the halo is redone at most a quarter over
        assert all(rows.stop - rows.start >= 16 for rows, _, _ in bands[:-1])


def test_wide_conv_bands_keep_the_band_budget():
    for n, ic, oc, side in ((1, 64, 64, 256), (1, 128, 64, 256)):
        column_bytes = (ic * 3 + 3 * oc) * 4
        k = ops._BAND_BYTES // column_bytes // (n * side) - 2
        want = [(slice(r, min(r + k, side)), slice(0, n), slice(0, side))
                for r in range(0, side, k)]
        assert ops._row_bands(n, side, side, column_bytes, 2) == want


def test_narrow_conv2d_scratch_fits_the_cache_budget():
    rng = SplitMix64(120)
    x = random_tensor(rng, (1, 8, 256, 256))
    p = conv_params(rng, 8, 8, 3)
    tracemalloc.start()
    try:
        out = ops.conv2d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 3 * 2**20, peak


def nan_alloc(taken):
    """An alloc that hands out NaN-filled buffers and keeps each in taken."""
    def alloc(shape, dtype):
        taken.append(np.full(shape, np.nan, dtype))
        return taken[-1]
    return alloc


def test_kernels_write_given_buffers_bitwise_as_their_own_results():
    # an inference workspace hands conv2d and upconv2 their outputs and
    # scratch through alloc; the numbers must not depend on where they live
    rng = SplitMix64(130)
    x = random_tensor(rng, (2, 6, 12, 10))
    skip = random_tensor(rng, (2, 4, 12, 10))
    for parts, p in (((x,), conv_params(rng, 5, 6, 3)), ((x, skip), conv_params(rng, 5, 10, 3)),
                     ((x,), conv_params(rng, 5, 6, 1))):
        want, taken = ops.conv2d(parts, p), []
        got = ops.conv2d(parts, p, nan_alloc(taken))
        scratch = [(ops.conv2d_scratch_size((2, p.weights.shape[1], 12, 10), p.weights.shape, 4),)]
        assert [t.shape for t in taken] == [(5, 12, 2, 10)] + scratch * (p.weights.shape[2] == 3)
        assert np.shares_memory(got, taken[0]) and got.tobytes() == want.tobytes()
    up = ConvParams(random_tensor(rng, (6, 3, 2, 2)), random_tensor(rng, (3,)))
    taken = []
    got = ops.upconv2(x, up, nan_alloc(taken))
    assert [t.shape for t in taken] == [(2, 3, 24, 20), (12, 12, 2, 10)]
    assert got is taken[0] and got.tobytes() == ops.upconv2(x, up).tobytes()


def test_conv2d_linear_in_input():
    rng = SplitMix64(200)
    p = conv_params(rng, 2, 3, 3)
    p0 = ConvParams(p.weights, np.zeros(2, np.float32))
    x = random_tensor(rng, (1, 3, 6, 6))
    y = random_tensor(rng, (1, 3, 6, 6))
    lhs = ops.conv2d(2.0 * x + 3.0 * y, p0)
    rhs = 2.0 * ops.conv2d(x, p0) + 3.0 * ops.conv2d(y, p0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)
    # with bias, f(x+y) - f(x) - f(y) equals the negated bias map
    diff = ops.conv2d(x + y, p) - ops.conv2d(x, p) - ops.conv2d(y, p)
    np.testing.assert_allclose(diff, -p.bias[None, :, None, None] * np.ones_like(diff), atol=1e-4)


def assert_conv2d_backward_matches_oracle(rng, n, ci, co, h, w, k):
    x = random_tensor(rng, (n, ci, h, w))
    p = conv_params(rng, co, ci, k)
    g = random_tensor(rng, (n, co, h, w))
    got = ops.conv2d_backward(x, p, g)
    want = conv2d_backward_reference(x, p.weights, g)
    for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5, err_msg=name)


def test_conv2d_backward_matches_loop_oracle_on_random_shapes():
    rng = SplitMix64(300)
    for trial in range(20):
        n, ci, co = (1 + rng.randbelow(3) for _ in range(3))
        h, w = 1 + rng.randbelow(7), 1 + rng.randbelow(7)
        k = 1 if rng.randbelow(4) == 0 else 3
        assert_conv2d_backward_matches_oracle(rng, n, ci, co, h, w, k)


def test_conv2d_backward_input_gradient_is_adjoint_of_forward():
    # <conv2d(x), g> == <x, grad_x> for a zero-bias conv, which is linear in x
    rng = SplitMix64(310)
    for x, p in random_conv_cases():
        x = x.astype(np.float64)
        p0 = ConvParams(p.weights.astype(np.float64), np.zeros(p.bias.shape))
        g = random_tensor(rng, (x.shape[0], p.weights.shape[0]) + x.shape[2:]).astype(np.float64)
        grad_x = ops.conv2d_backward(x, p0, g)[0]
        lhs = float(np.vdot(ops.conv2d(x, p0), g))
        assert lhs == pytest.approx(float(np.vdot(x, grad_x)), rel=1e-12, abs=1e-12)


def test_conv2d_backward_holds_one_column_array():
    # the columns of grad_out are 8*9*4*64*64*4 B = 4.5 MiB; those of x would be 9 MiB
    rng = SplitMix64(320)
    x = random_tensor(rng, (4, 16, 64, 64))
    p = conv_params(rng, 8, 16, 3)
    g = random_tensor(rng, (4, 8, 64, 64))
    tracemalloc.start()
    try:
        grad_x, _, _ = ops.conv2d_backward(x, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad_x.shape == x.shape
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("n, ci, co, h, w, k", [
    (3, 2, 2, 5, 5, 3),   # batch > 1
    (2, 1, 3, 4, 6, 3),   # single input channel
    (1, 2, 2, 3, 7, 3),   # non-square, h < w
    (2, 2, 2, 7, 2, 3),   # non-square, h > w
    (2, 3, 2, 5, 4, 1),   # 1x1 kernel
    (2, 3, 1, 6, 5, 3),   # single output channel
    (2, 4, 1, 4, 4, 1),   # the U-Net head: 1x1 kernel to one logit plane
])
def test_conv2d_backward_matches_loop_oracle_on_edge_shapes(n, ci, co, h, w, k):
    assert_conv2d_backward_matches_oracle(SplitMix64(n * 1000 + ci * 100 + co * 10 + k),
                                          n, ci, co, h, w, k)


# --- maxpool2 -----------------------------------------------------------------

def test_maxpool2_hand_window():
    x = np.array([[[[1, 3], [2, 4]]]], np.float32)
    out = ops.maxpool2(x)
    assert out[0, 0, 0, 0] == 4.0
    grad = ops.maxpool2_backward(x, out, np.ones_like(out))
    assert grad[0, 0, 1, 1] == 1.0 and grad.sum() == 1.0  # row-major position 3


def test_maxpool2_constant_ties_to_first():
    x = np.full((1, 1, 4, 4), 7.0, np.float32)
    out = ops.maxpool2(x)
    assert np.all(out == 7.0)
    grad = ops.maxpool2_backward(x, out, np.ones_like(out))
    assert np.all(grad[:, :, ::2, ::2] == 1.0) and grad.sum() == out.size


def test_maxpool2_rejects_odd_dims():
    with pytest.raises(ShapeError):
        ops.maxpool2(np.zeros((1, 1, 3, 4), np.float32))
    with pytest.raises(ShapeError):
        ops.maxpool2(np.zeros((1, 1, 4, 5), np.float32))


def test_maxpool2_matches_enumeration_oracle():
    rng = SplitMix64(300)
    for trial in range(30):
        n, c = 1 + rng.randbelow(3), 1 + rng.randbelow(4)
        h, w = 2 * (1 + rng.randbelow(4)), 2 * (1 + rng.randbelow(4))
        x = random_tensor(rng, (n, c, h, w))
        out = ops.maxpool2(x)
        want_out, want_idx = maxpool2_reference(x)
        np.testing.assert_allclose(out, want_out, atol=0)
        g = 1.0 + np.arange(out.size, dtype=np.float32).reshape(out.shape)
        got = ops.maxpool2_backward(x, out, g)
        assert np.array_equal(got, maxpool2_backward_reference(want_idx, g))


def tie_heavy(rng, shape, values, trial, spread):
    """Entries values[int(u * spread)] for uniform u, stored NCHW or, on odd
    trials, channel-major."""
    x = values[(rng.f64_array(math.prod(shape)) * spread).astype(int)].reshape(shape)
    if trial % 2:
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return x


def test_maxpool2_writes_the_allocated_buffer_bitwise_as_its_own_result():
    rng = SplitMix64(310)
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan], np.float32)
    for trial in range(20):
        # few distinct values, signed zeros and a rare NaN
        x, taken = tie_heavy(rng, (2, 3, 6, 8), values, trial, 5.02), []
        got = ops.maxpool2(x, nan_alloc(taken))
        assert [t.shape for t in taken] == [(3, 3, 2, 4)] and np.shares_memory(got, taken[0])
        assert got.tobytes() == ops.maxpool2(x).tobytes()


def test_maxpool2_backward_routes_ties_as_the_reference_index():
    # repeated values and signed zeros: the first entry equal to the max is
    # the reference's first maximum, bitwise
    rng = SplitMix64(311)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0], np.float32)
    for trial in range(240):
        shape = (1 + rng.randbelow(3), 1 + rng.randbelow(3), 2 + 2 * rng.randbelow(3),
                 2 + 2 * rng.randbelow(3))
        x = tie_heavy(rng, shape, values, trial, 2 + rng.randbelow(4))
        out = ops.maxpool2(x)
        g = 1.0 + np.arange(out.size, dtype=np.float32).reshape(out.shape)
        want = maxpool2_backward_reference(maxpool2_reference(x)[1], g)
        assert ops.maxpool2_backward(x, out, g).tobytes() == want.tobytes(), trial


def test_maxpool2_backward_gives_a_window_holding_nan_no_gradient():
    x = np.array([[[[1, 3, 5, 1], [np.nan, 0, 2, 0]]]], np.float32)
    out = ops.maxpool2(x)
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 5.0
    grad = ops.maxpool2_backward(x, out, np.ones_like(out))
    assert grad[..., :2].sum() == 0.0 and grad[0, 0, 0, 2] == 1.0


def test_maxpool2_backward_routes_to_argmax():
    x = np.array([[[[1, 3], [2, 4]]]], np.float32)
    out = ops.maxpool2(x)
    g = np.full((1, 1, 1, 1), 5.0, np.float32)
    gx = ops.maxpool2_backward(x, out, g)
    assert gx[0, 0, 1, 1] == 5.0
    assert gx.sum() == 5.0
    with pytest.raises(ShapeError):
        ops.maxpool2_backward(x, out, np.ones((1, 1, 1, 2), np.float32))


def test_maxpool2_backward_conserves_gradient_mass():
    rng = SplitMix64(301)
    for trial in range(10):
        x = random_tensor(rng, (2, 3, 8, 6))
        out = ops.maxpool2(x)
        g = random_tensor(rng, out.shape)
        gx = ops.maxpool2_backward(x, out, g)
        assert math.isclose(float(gx.sum()), float(g.sum()), rel_tol=1e-5, abs_tol=1e-5)


# --- upconv2 ------------------------------------------------------------------

def test_upconv2_single_pixel_scatter():
    w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)  # (in=1, out=1, 2, 2)
    x = np.full((1, 1, 1, 1), 5.0, np.float32)
    out = ops.upconv2(x, ConvParams(w, np.zeros(1, np.float32)))
    np.testing.assert_array_equal(out[0, 0], [[5.0, 10.0], [15.0, 20.0]])


def test_upconv2_two_by_two_blocks():
    w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)
    out = ops.upconv2(x, ConvParams(w, np.zeros(1, np.float32)))
    want = upconv2_reference(x, w, np.zeros(1))
    np.testing.assert_allclose(out, want, atol=1e-6)
    # blocks are disjoint scaled copies of the kernel
    np.testing.assert_array_equal(out[0, 0, :2, :2], w[0, 0])
    np.testing.assert_array_equal(out[0, 0, 2:, 2:], 4.0 * w[0, 0])


def test_upconv2_zero_kernel_gives_constant_bias():
    p = ConvParams(np.zeros((2, 3, 2, 2), np.float32), np.array([1.5, -2.0, 0.25], np.float32))
    out = ops.upconv2(np.ones((1, 2, 4, 4), np.float32), p)
    for k, beta in enumerate(p.bias):
        assert np.all(out[:, k] == beta)


def test_upconv2_rejects_non_2x2_kernel():
    p = ConvParams(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
    with pytest.raises(ShapeError):
        ops.upconv2(np.zeros((1, 1, 4, 4), np.float32), p)


def random_upconv_cases():
    rng = SplitMix64(400)
    for trial in range(30):
        n, ci, co = (1 + rng.randbelow(4) for _ in range(3))
        h, w = 1 + rng.randbelow(8), 1 + rng.randbelow(8)
        x = random_tensor(rng, (n, ci, h, w))
        weights = random_tensor(rng, (ci, co, 2, 2))
        yield x, ConvParams(weights, random_tensor(rng, (co,)))


def test_upconv2_matches_scatter_oracle_on_random_shapes():
    for x, p in random_upconv_cases():
        got = ops.upconv2(x, p)
        want = upconv2_reference(x, p.weights, p.bias)
        n, _, h, w = x.shape
        assert got.shape == (n, p.weights.shape[1], 2 * h, 2 * w)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_banded_upconv2_matches_scatter_oracle_on_random_shapes(monkeypatch):
    # the 1x1 conv inside upconv2 lowers nothing, so a budget of a few
    # columns leaves it one GEMM on the input planes with the same result
    monkeypatch.setattr(ops, "_BAND_BYTES", 256)
    for x, p in random_upconv_cases():
        np.testing.assert_allclose(ops.upconv2(x, p),
                                   upconv2_reference(x, p.weights, p.bias), atol=1e-5)


def test_upconv2_holds_one_output_sized_buffer_besides_its_output():
    # the output is 1*64*256*256*4 B = 16 MiB; besides it, only conv2d's
    # 4*oc planes of the same size, which are then moved into the output
    rng = SplitMix64(410)
    x = random_tensor(rng, (1, 128, 128, 128))
    p = ConvParams(random_tensor(rng, (128, 64, 2, 2)), random_tensor(rng, (64,)))
    tracemalloc.start()
    try:
        out = ops.upconv2(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 64, 256, 256)
    assert peak < 2.5 * out.nbytes, peak / out.nbytes


def assert_upconv2_backward_matches_oracle(rng, n, ci, co, h, w):
    x = random_tensor(rng, (n, ci, h, w)).astype(np.float64)
    p = ConvParams(random_tensor(rng, (ci, co, 2, 2)).astype(np.float64), np.zeros(co))
    g = random_tensor(rng, (n, co, 2 * h, 2 * w)).astype(np.float64)
    got = ops.upconv2_backward(x, p, g)
    want = upconv2_backward_reference(x, p.weights, g)
    for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == b.shape and a.dtype == np.float64, name
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


def test_upconv2_backward_holds_one_output_sized_copy():
    # space-to-depth moves grad_out once, into the order the 1x1 backward reads
    # as a view; besides that copy it holds x's channel-major copy, then
    # grad_x, each half the size
    rng = SplitMix64(430)
    x = random_tensor(rng, (4, 16, 32, 32))
    p = ConvParams(random_tensor(rng, (16, 8, 2, 2)), random_tensor(rng, (8,)))
    g = random_tensor(rng, (4, 8, 64, 64))
    tracemalloc.start()
    try:
        grad_x, _, _ = ops.upconv2_backward(x, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad_x.shape == x.shape
    assert peak <= 2.0 * g.nbytes, peak / g.nbytes


def test_upconv2_backward_matches_loop_oracle_on_random_shapes():
    rng = SplitMix64(420)
    for trial in range(20):
        n, ci, co = (1 + rng.randbelow(3) for _ in range(3))
        h, w = 1 + rng.randbelow(7), 1 + rng.randbelow(7)
        assert_upconv2_backward_matches_oracle(rng, n, ci, co, h, w)


@pytest.mark.parametrize("n, ci, co, h, w", [
    (3, 2, 2, 4, 4),   # batch > 1
    (2, 1, 3, 3, 5),   # single input channel
    (2, 3, 1, 5, 3),   # single output channel
    (1, 2, 3, 2, 6),   # non-square
    (2, 3, 2, 1, 1),   # one input pixel
])
def test_upconv2_backward_matches_loop_oracle_on_edge_shapes(n, ci, co, h, w):
    assert_upconv2_backward_matches_oracle(SplitMix64(n * 1000 + ci * 100 + co * 10 + h),
                                           n, ci, co, h, w)


def test_upconv2_linear_in_input():
    rng = SplitMix64(401)
    w = random_tensor(rng, (3, 2, 2, 2))
    p0 = ConvParams(w, np.zeros(2, np.float32))
    x = random_tensor(rng, (2, 3, 4, 4))
    y = random_tensor(rng, (2, 3, 4, 4))
    lhs = ops.upconv2(0.5 * x - 2.0 * y, p0)
    rhs = 0.5 * ops.upconv2(x, p0) - 2.0 * ops.upconv2(y, p0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


# --- relu / sigmoid -----------------------------------------------------------

def test_relu_clamps_negatives():
    x = np.array([[[[-1.0, 0.0, 2.0, -0.5]]]], np.float32)
    np.testing.assert_array_equal(relu(x), [[[[0.0, 0.0, 2.0, 0.0]]]])


def test_relu_identity_on_positive():
    x = np.abs(np.arange(1, 9, dtype=np.float32)).reshape(1, 1, 2, 4)
    assert np.array_equal(relu(x), x)


def test_relu_backward_zero_at_zero():
    x = np.array([[[[0.0, 1.0, -1.0, 0.5]]]], np.float32)
    g = np.full_like(x, 5.0)
    np.testing.assert_array_equal(ops.relu_backward(x, g), [[[[0.0, 5.0, 0.0, 5.0]]]])


def test_sigmoid_values_and_saturation():
    x = np.array([[[[0.0, 40.0, -40.0]]]], np.float32)
    y = ops.sigmoid(x)
    assert y[0, 0, 0, 0] == 0.5
    assert y[0, 0, 0, 1] == 1.0           # saturates cleanly, no overflow
    assert y[0, 0, 0, 2] == pytest.approx(0.0, abs=1e-17)
    assert np.isfinite(y).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_two_branch_form(dtype):
    # random logits over both tails, then zeros of both signs, infinities,
    # the edge of float32's exp range and the smallest subnormal
    x = (SplitMix64(71).normal_array(10**6) * 30).astype(dtype)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 1e-45, -1e-45], dtype)
    for values in (x, special, x.reshape(10, 1, 100, 1000)):
        got, want = ops.sigmoid(values), sigmoid_two_branch(values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    got = ops.sigmoid(np.array([np.nan, 1.0], dtype))
    assert np.isnan(got[0]) and got[1] == sigmoid_two_branch(np.array([1.0], dtype))[0]


def test_sigmoid_holds_under_4_inputs_of_temporaries():
    # exp(-|x|) and 1 + exp(-|x|) in one buffer each, the x >= 0 mask and
    # the output: 3.25 times the input's bytes
    x = SplitMix64(72).normal_array(256 * 256).astype(np.float32).reshape(1, 1, 256, 256)
    tracemalloc.start()
    try:
        ops.sigmoid(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes, peak / x.nbytes


def test_sigmoid_backward_quarter_at_zero():
    y = ops.sigmoid(np.zeros((1, 1, 1, 1), np.float32))
    g = np.ones_like(y)
    assert sigmoid_backward(y, g)[0, 0, 0, 0] == pytest.approx(0.25)


# --- conv inputs in channel parts ---------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("budget", [None, 256])
def test_conv2d_reads_channel_parts_bitwise_as_their_concatenation(monkeypatch, dtype, budget):
    if budget:  # bands of one output pixel, each lowered with its halo rows
        monkeypatch.setattr(ops, "_BAND_BYTES", budget)
        monkeypatch.setattr(ops, "_CACHE_BYTES", budget)
    rng = SplitMix64(510)
    for n, ca, cb, h, w, k in ((2, 3, 5, 6, 5, 3), (1, 1, 2, 4, 7, 3), (3, 2, 2, 5, 4, 1)):
        a, b, g = (random_tensor(rng, s).astype(dtype)
                   for s in ((n, ca, h, w), (cb, h, n, w), (n, 4, h, w)))
        b = b.transpose(2, 0, 1, 3)  # a skip as conv2d returns it
        p = conv_params(rng, 4, ca + cb, k)
        p = ConvParams(p.weights.astype(dtype), p.bias.astype(dtype))
        joined = np.concatenate([a, b], axis=1)
        got, want = ops.conv2d((a, b), p), ops.conv2d(joined, p)
        assert got.dtype == dtype
        if k == 1:  # one array's planes are multiplied in place, parts are lowered
            np.testing.assert_allclose(got, want, rtol=1e-6)
        else:
            assert got.tobytes() == want.tobytes()
        for backward in (ops.conv2d_backward, ops.conv2d_weight_grads):
            for x, y in zip(backward((a, b), p, g), backward(joined, p, g)):
                assert x.dtype == dtype and x.tobytes() == y.tobytes()


def test_conv2d_rejects_inputs_that_do_not_fit_its_kernel():
    p = conv_params(SplitMix64(0), 3, 5, 3)
    a, g = np.zeros((2, 2, 4, 4), np.float32), np.zeros((2, 3, 4, 4), np.float32)
    with pytest.raises(ShapeError) as err:
        ops.conv2d(np.zeros((2, 4, 4, 4), np.float32), p)
    assert "(2, 4, 4, 4)" in str(err.value) and "(3, 5, 3, 3)" in str(err.value)
    # 1 or 4 channels where the kernel takes 5, as one tensor or two; parts whose
    # batch or spatial size differ; an empty part; no part; a part not of rank 4
    for x in (a[:, :1], (a, a), (a, np.zeros((1, 3, 4, 4))), (a, np.zeros((2, 3, 4, 6))),
              (a, np.zeros((2, 0, 4, 4))), (), (a, np.zeros(3))):
        for call in (lambda: ops.conv2d(x, p), lambda: ops.conv2d_backward(x, p, g),
                     lambda: ops.conv2d_weight_grads(x, p, g)):
            with pytest.raises(ShapeError):
                call()


# --- bce ------------------------------------------------------------------------

def test_bce_at_zero_logit_is_ln2():
    z = np.zeros((1, 1, 1, 1), np.float32)
    y = np.ones_like(z)
    assert ops.bce_with_logits(z, y) == pytest.approx(math.log(2.0), rel=1e-6)


def test_bce_large_logit_stays_finite():
    z = np.full((1, 1, 1, 1), 50.0, np.float32)
    y = np.ones_like(z)
    loss = ops.bce_with_logits(z, y)
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert math.isfinite(loss)


def test_bce_gradient_at_zero():
    z = np.zeros((1, 1, 1, 1), np.float32)
    y = np.ones_like(z)
    g = ops.bce_with_logits_backward(z, y)
    assert g[0, 0, 0, 0] == pytest.approx(-0.5)


def test_bce_rejects_bad_targets_and_shapes():
    z = np.zeros((1, 1, 2, 2), np.float32)
    with pytest.raises(DomainError):
        ops.bce_with_logits(z, np.full_like(z, 0.5))
    with pytest.raises(ShapeError):
        ops.bce_with_logits(z, np.zeros((1, 1, 2, 3), np.float32))


# --- finite_diff_check ----------------------------------------------------------

def test_finite_diff_check_quadratic():
    def f(theta):
        return float(theta[0] ** 2), np.array([2.0 * theta[0]])

    err = finite_diff_check(f, np.array([3.0]))
    assert err < 1e-9


def test_finite_diff_check_constant_function():
    def f(theta):
        return 1.0, np.zeros_like(theta)

    assert finite_diff_check(f, np.zeros(5)) == 0.0


def test_finite_diff_check_flags_wrong_gradient():
    def f(theta):
        return float(theta[0] ** 2), np.array([-2.0 * theta[0]])

    assert finite_diff_check(f, np.array([3.0])) > 0.5


def test_finite_diff_check_rejects_bad_step_and_nan():
    def f(theta):
        return float("nan"), np.zeros_like(theta)

    with pytest.raises(DomainError):
        finite_diff_check(lambda t: (0.0, t), np.zeros(2), step=0.0)
    with pytest.raises(ops.NumericError):
        finite_diff_check(f, np.zeros(2))
