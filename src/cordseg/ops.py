"""Forward and reverse-mode kernels on rank-4 tensors.

A tensor here is a plain numpy floating array of shape
(batch, channels, height, width).  Kernels accept any memory layout; conv2d
returns a (batch, channels) transposed view of a channel-major buffer, which
is the order the next convolution reads.  Network math runs in float32;
every kernel preserves the dtype of its inputs so the finite-difference
checker can drive the same code in float64.

Convolution is unrolled into GEMMs over tap-major columns: a
(channels*kh*kw, columns) array is filled from a tensor's (channels,
batch, height, width) view with one slice copy per kernel tap, each tap
writing its own zero padding.  The reduction axis keeps the (channel, kh,
kw) order of the weight tensor.  The forward pass builds the
batch*height*width columns in bands that each stay under a fixed byte
budget (whole images, whole rows of one image, or part of one row) and
runs weights.reshape(oc, -1) @ band straight into that band's slice of
the output, so a wide tile never holds its whole column array; a layer
whose columns fit the budget is one GEMM.  The backward pass fills one
whole-tile column array, of grad_out, and both gradients are GEMMs on it
(see conv2d_backward).  It is not banded, because banding the weight
gradient would change its summation order and so the trained weights.
The 2x2 stride-2 up-convolution runs through the same two functions: its
output blocks do not overlap, so it is a 1x1 conv2d to four planes per
output channel followed by a depth-to-space move (see upconv2).

Each forward kernel has a reverse-mode counterpart that maps the upstream
gradient to gradients w.r.t. its inputs.  All kernels are pure functions:
reductions happen in a fixed order (numpy vectorization), so results do not
depend on thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError


@dataclass(frozen=True)
class ConvParams:
    """One layer's learnable tensors.

    weights: (out_channels, in_channels, kh, kw) for conv2d,
             (in_channels, out_channels, 2, 2) for upconv2.
    bias:    (out_channels,)
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must be rank 4, got shape {self.weights.shape}")
        if self.bias.ndim != 1:
            raise ShapeError(f"bias must be rank 1, got shape {self.bias.shape}")


def _check_tensor4(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a rank-4 array (n, c, h, w), got "
                         f"{getattr(x, 'shape', type(x).__name__)}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")


# Forward column buffers stay under this many bytes; a larger column array is
# built and multiplied one band at a time.  A depth-4 base-64 256-pixel tile
# forward ran equally fast with 4 to 32 MiB bands (1.6x faster than with
# whole-tile columns).  12 MiB keeps every training-batch layer of the
# acceptance model (at most 9 MiB of columns) a single GEMM, and a two-thread
# predict with the small model peaked at 118 MB RSS, against 161 MB at 16 MiB.
_BAND_BYTES = 12 << 20


def _fill_columns(cols: np.ndarray, x: np.ndarray, kh: int, kw: int,
                  images: slice, rows: slice, xs: slice) -> np.ndarray:
    """Fill cols, a (c*kh*kw, band) array, with the tap-major columns of a
    same kh x kw convolution over x, an unpadded (c, n, h, w) array, for the
    band images x rows x xs of the output grid: one slice copy per tap of
    the input it overlaps, and zeros where the tap reads the padding."""
    c, _, h, w = x.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    nr, nx = rows.stop - rows.start, xs.stop - xs.start
    taps = cols.reshape(c, kh, kw, images.stop - images.start, nr, nx)
    for u in range(kh):
        top = rows.start + u - ph
        r0 = max(-top, 0)
        r1 = max(min(h - top, nr), r0)
        for v in range(kw):
            left = xs.start + v - pw
            x0 = max(-left, 0)
            x1 = max(min(w - left, nx), x0)
            tap = taps[:, u, v]
            if r0:
                tap[:, :, :r0] = 0
            if r1 < nr:
                tap[:, :, r1:] = 0
            if x0:
                tap[..., :x0] = 0
            if x1 < nx:
                tap[..., x1:] = 0
            tap[:, :, r0:r1, x0:x1] = x[:, images, top + r0:top + r1, left + x0:left + x1]
    return cols


def _bands(n: int, h: int, w: int, column_bytes: int):
    """Split the n*h*w column axis, in order, into (images, rows, xs) slices
    of at most _BAND_BYTES of columns each (at least one column): whole
    images if one fits, else whole rows of one image, else parts of a row."""
    per = max(1, _BAND_BYTES // column_bytes)
    if per >= h * w:
        k = per // (h * w)
        return [(slice(i, min(i + k, n)), slice(0, h), slice(0, w))
                for i in range(0, n, k)]
    if per >= w:
        k = per // w
        return [(slice(i, i + 1), slice(r, min(r + k, h)), slice(0, w))
                for i in range(n) for r in range(0, h, k)]
    return [(slice(i, i + 1), slice(r, r + 1), slice(x, min(x + per, w)))
            for i in range(n) for r in range(h) for x in range(0, w, per)]


def conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """3x3 / 1x1 convolution, stride 1, zero same-padding.

    Output spatial size equals input spatial size; each output pixel is the
    kernel dotted with the zero-padded input window, plus the channel bias.
    """
    _check_tensor4(x)
    oc, ic, kh, kw = p.weights.shape
    if x.shape[1] != ic:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} expects "
                         f"{ic} channels for kernel {p.weights.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d needs odd kernel sides for same-padding, got {(kh, kw)}")
    n, _, h, w = x.shape
    kernel = p.weights.reshape(oc, -1)
    k = kernel.shape[1]
    planes = x.transpose(1, 0, 2, 3)
    out = np.empty((oc, n, h, w), dtype=np.result_type(kernel, x))
    bands = _bands(n, h, w, k * x.itemsize)
    widest = max((i.stop - i.start) * (r.stop - r.start) * (s.stop - s.start)
                 for i, r, s in bands)
    buffer = np.empty(k * widest, dtype=x.dtype)
    for images, rows, xs in bands:
        # a view, since every band is whole images, whole rows or part of one row
        target = out[:, images, rows, xs].reshape(oc, -1)
        cols = buffer[:target.size // oc * k].reshape(k, -1)
        np.matmul(kernel, _fill_columns(cols, planes, kh, kw, images, rows, xs), out=target)
    out += p.bias[:, None, None, None]
    return out.transpose(1, 0, 2, 3)


def conv2d_backward(x: np.ndarray, p: ConvParams, grad_out: np.ndarray):
    """Gradients of conv2d w.r.t. (input, weights, bias): with cols the
    tap-major columns of grad_out, grad_x = W'.reshape(ic, -1) @ cols with
    W'[c, o, u, v] = W[o, c, kh-1-u, kw-1-v], and grad_w[o, c, u, v] =
    (cols @ x.reshape(ic, -1).T)[o, kh-1-u, kw-1-v, c], x channel-major."""
    n, _, h, w = x.shape
    oc, ic, kh, kw = p.weights.shape
    if grad_out.shape != (n, oc, h, w):
        raise ShapeError(f"conv2d upstream gradient {grad_out.shape} does not match "
                         f"output shape {(n, oc, h, w)}")
    cols = _fill_columns(np.empty((oc * kh * kw, n * h * w), dtype=grad_out.dtype),
                         grad_out.transpose(1, 0, 2, 3), kh, kw,
                         slice(0, n), slice(0, h), slice(0, w))
    flipped = p.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ic, -1)
    grad_x = (flipped @ cols).reshape(ic, n, h, w).transpose(1, 0, 2, 3)
    taps = cols @ x.transpose(1, 0, 2, 3).reshape(ic, -1).T
    grad_w = taps.reshape(oc, kh, kw, ic)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def maxpool2(x: np.ndarray):
    """2x2 max-pool with stride 2.

    Returns the pooled tensor and the argmax index of each window in
    row-major window order (0..3); ties resolve to the first maximum.
    """
    _check_tensor4(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    hp, wp = h // 2, w // 2
    windows = x.reshape(n, c, hp, 2, wp, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, hp, wp, 4)
    idx = windows.argmax(axis=4)
    out = np.take_along_axis(windows, idx[..., None], axis=4)[..., 0]
    return out, idx


def maxpool2_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route the upstream gradient to each window's recorded argmax."""
    if idx.shape != grad_out.shape:
        raise ShapeError(f"pool indices {idx.shape} do not match upstream "
                         f"gradient {grad_out.shape}")
    n, c, hp, wp = idx.shape
    spread = np.zeros((n, c, hp, wp, 4), dtype=grad_out.dtype)
    np.put_along_axis(spread, idx[..., None], grad_out[..., None], axis=4)
    windows = spread.reshape(n, c, hp, wp, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return windows.reshape(n, c, 2 * hp, 2 * wp)


def upconv2(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """2x2 transposed convolution with stride 2, no padding.

    Each input pixel scatters value*kernel into its own 2x2 output block,
    plus bias; spatial size doubles.  The blocks do not overlap, so this runs
    as a 1x1 conv2d to 4*oc planes in (o, u, v) order and a depth-to-space move.
    """
    _check_tensor4(x)
    ic, oc, kh, kw = p.weights.shape
    if (kh, kw) != (2, 2):
        raise ShapeError(f"upconv2 kernel must be 2x2, got {(kh, kw)}")
    if x.shape[1] != ic:
        raise ShapeError(f"upconv2 channel mismatch: input {x.shape} expects "
                         f"{ic} channels for kernel {p.weights.shape}")
    n, _, h, w = x.shape
    kernel = p.weights.transpose(1, 2, 3, 0).reshape(4 * oc, ic, 1, 1)
    planes = conv2d(x, ConvParams(kernel, np.repeat(p.bias, 4))).reshape(n, oc, 2, 2, h, w)
    return planes.transpose(0, 1, 4, 2, 5, 3).reshape(n, oc, 2 * h, 2 * w)


def upconv2_backward(x: np.ndarray, p: ConvParams, grad_out: np.ndarray):
    """Gradients of upconv2 w.r.t. (input, weights, bias): conv2d_backward of
    its 1x1 conv, on grad_out moved space-to-depth into the 4*oc planes."""
    ic, oc, _, _ = p.weights.shape
    n, _, h, w = x.shape
    if grad_out.shape != (n, oc, 2 * h, 2 * w):
        raise ShapeError(f"upconv2 upstream gradient {grad_out.shape} does not match "
                         f"output shape {(n, oc, 2 * h, 2 * w)}")
    kernel = p.weights.transpose(1, 2, 3, 0).reshape(4 * oc, ic, 1, 1)
    g = grad_out.reshape(n, oc, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4).reshape(n, 4 * oc, h, w)
    grad_x, grad_w, _ = conv2d_backward(x, ConvParams(kernel, p.bias), g)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w.reshape(oc, 2, 2, ic).transpose(3, 0, 1, 2), grad_b


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass the gradient where x > 0; the derivative at exactly 0 is 0."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, branch on sign so neither tail overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack b's channels after a's; batch and spatial dims must agree."""
    _check_tensor4(a, "first operand")
    _check_tensor4(b, "second operand")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels operands disagree outside the channel "
                         f"axis: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(x: np.ndarray, channels: int):
    """Undo concat_channels: split at a channel index into two views."""
    _check_tensor4(x)
    if not 1 <= channels < x.shape[1]:
        raise ShapeError(f"split point {channels} outside channel range of {x.shape}")
    return x[:, :channels], x[:, channels:]


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy on logits, in the numerically stable form
    max(z, 0) - z*y + log(1 + exp(-|z|))."""
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} and targets {targets.shape} differ")
    if not np.all((targets == 0) | (targets == 1)):
        raise DomainError("targets must be exactly 0 or 1")
    terms = np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(terms.mean())


def bce_with_logits_backward(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-element gradient (sigmoid(z) - y) / count."""
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} and targets {targets.shape} differ")
    return (sigmoid(logits) - targets) / logits.size


def finite_diff_errors(f, theta: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Per-coordinate relative error between analytic and central-difference
    gradients.

    f maps a float64 parameter vector to (scalar loss, analytic gradient);
    all checker arithmetic runs in 64-bit.  The error at coordinate i is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    loss, grad = f(theta)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite at the base point: {loss}")
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient length {grad.shape} does not match "
                         f"parameters {theta.shape}")
    numeric = np.empty_like(theta)
    probe = theta.copy()
    for i in range(theta.size):
        probe[i] = theta[i] + step
        hi = float(f(probe)[0])
        probe[i] = theta[i] - step
        lo = float(f(probe)[0])
        probe[i] = theta[i]
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"loss is not finite near coordinate {i}")
        numeric[i] = (hi - lo) / (2.0 * step)
    return np.abs(grad - numeric) / np.maximum(1e-8, np.abs(grad) + np.abs(numeric))


def finite_diff_check(f, theta: np.ndarray, step: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients."""
    errors = finite_diff_errors(f, theta, step)
    return float(errors.max()) if errors.size else 0.0
