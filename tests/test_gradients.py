"""Reverse-mode outputs of every kernel checked against central differences.

Each test builds a scalar loss L = sum(r * op(...)) with a fixed random
projection r, computes the analytic gradient through the op's backward, and
compares with the finite-difference checker in float64.  Inputs for the
non-smooth ops (relu, maxpool) are kept a safe margin away from their kinks
so the comparison happens where the loss is differentiable.
"""

import numpy as np
import pytest

from cordseg import ops
from cordseg.ops import ConvParams
from cordseg.rng import SplitMix64

from reference import finite_diff_check, relu, sigmoid_backward

TOL = 1e-3


def rand(rng, shape):
    return 2.0 * rng.f64_array(int(np.prod(shape))).reshape(shape) - 1.0


@pytest.mark.parametrize("parts", [1, 2])  # the input as one tensor or two channel parts
def test_conv2d_gradients(parts):
    rng = SplitMix64(10)
    n, ci, co, h, w, k = 2, 3, 2, 5, 4, 3
    x0 = rand(rng, (n, ci, h, w))
    w0 = rand(rng, (co, ci, k, k))
    b0 = rand(rng, (co,))
    r = rand(rng, (n, co, h, w))
    sizes = [x0.size, w0.size, b0.size]

    def f(theta):
        x, wt, b = np.split(theta, np.cumsum(sizes)[:-1])
        p = ConvParams(wt.reshape(w0.shape), b)
        x = x.reshape(x0.shape)
        x = x if parts == 1 else (x[:, :1], x[:, 1:])  # grad_x covers both parts
        out = ops.conv2d(x, p)
        gx, gw, gb = ops.conv2d_backward(x, p, r)
        return float((r * out).sum()), np.concatenate([gx.ravel(), gw.ravel(), gb])

    theta = np.concatenate([x0.ravel(), w0.ravel(), b0.ravel()])
    assert finite_diff_check(f, theta) < TOL


def test_upconv2_gradients():
    rng = SplitMix64(11)
    n, ci, co, h, w = 2, 2, 3, 3, 4
    x0 = rand(rng, (n, ci, h, w))
    w0 = rand(rng, (ci, co, 2, 2))
    b0 = rand(rng, (co,))
    r = rand(rng, (n, co, 2 * h, 2 * w))
    sizes = [x0.size, w0.size, b0.size]

    def f(theta):
        x, wt, b = np.split(theta, np.cumsum(sizes)[:-1])
        p = ConvParams(wt.reshape(w0.shape), b)
        x = x.reshape(x0.shape)
        out = ops.upconv2(x, p)
        gx, gw, gb = ops.upconv2_backward(x, p, r)
        return float((r * out).sum()), np.concatenate([gx.ravel(), gw.ravel(), gb])

    theta = np.concatenate([x0.ravel(), w0.ravel(), b0.ravel()])
    assert finite_diff_check(f, theta) < TOL


def test_maxpool2_gradients_away_from_ties():
    # distinct window entries with gaps far beyond the step size
    rng = SplitMix64(12)
    x0 = rand(rng, (2, 2, 4, 6))
    x0 += 0.05 * np.arange(x0.size).reshape(x0.shape)  # break near-ties
    r = rand(rng, (2, 2, 2, 3))

    def f(theta):
        x = theta.reshape(x0.shape)
        out = ops.maxpool2(x)
        gx = ops.maxpool2_backward(x, out, r)
        return float((r * out).sum()), gx.ravel()

    assert finite_diff_check(f, x0.ravel(), step=1e-4) < TOL


def test_relu_gradients_away_from_kink():
    rng = SplitMix64(13)
    x0 = rand(rng, (2, 3, 4, 4))
    x0 = np.where(np.abs(x0) < 0.05, 0.1, x0)  # keep a margin from zero
    r = rand(rng, x0.shape)

    def f(theta):
        x = theta.reshape(x0.shape)
        return float((r * relu(x)).sum()), (ops.relu_backward(x, r)).ravel()

    assert finite_diff_check(f, x0.ravel(), step=1e-4) < TOL


def test_sigmoid_gradients():
    rng = SplitMix64(14)
    x0 = 3.0 * rand(rng, (2, 2, 3, 3))
    r = rand(rng, x0.shape)

    def f(theta):
        x = theta.reshape(x0.shape)
        y = ops.sigmoid(x)
        return float((r * y).sum()), sigmoid_backward(y, r).ravel()

    assert finite_diff_check(f, x0.ravel()) < TOL


def test_bce_gradients():
    rng = SplitMix64(16)
    z0 = 2.0 * rand(rng, (2, 1, 4, 4))
    y = (rng.f64_array(z0.size) < 0.5).astype(np.float64).reshape(z0.shape)

    def f(theta):
        z = theta.reshape(z0.shape)
        return ops.bce_with_logits(z, y), ops.bce_with_logits_backward(z, y).ravel()

    assert finite_diff_check(f, z0.ravel()) < TOL
