"""Forward and reverse-mode kernels on rank-4 tensors.

A tensor here is a plain numpy floating array of shape (batch, channels,
height, width).  Kernels accept any memory layout; conv2d returns a (batch,
channels) view of a (channels, height, batch, width) buffer, the order the
next convolution reads.  A conv input may also be a tuple of tensors, read
as their channel concatenation, which is never built (Channels).  Network
math runs in float32; every kernel preserves the dtype of its inputs so the
finite-difference checker can drive the same code in float64.

Convolution is lowered along one axis only (the memory-efficient
convolution of Cho & Brand 2017, arXiv:1706.06873): L holds the kw
horizontal taps of the zero-padded input in (channel, tap v, padded row,
image, column) order, a kh-th of im2col, and one GEMM of the stacked
(kh*oc, ic*kw) kernel on L gives every tap row at once; row block u, read
u padded rows on, is tap row u's share of the output.  The forward pass
runs in bands of whole output rows, their kh-1 halo rows lowered again,
so that L and the product P stay under a byte budget.  A narrow layer
takes the per-core cache budget, so that L and P are still in cache when
the tap rows are summed and the bias added, as long as its bands keep at
least 8 output rows per halo row; a wider layer would lower and multiply
its halo rows again too often, and takes the larger band budget, as one
GEMM if it fits.  Each part of a tuple input fills its own channel rows of
L.  For a 1x1 kernel on one tensor L is its planes, a view where the
layout allows.  The backward pass lowers grad_out once, unbanded, so the
weight gradient's summation order is fixed (see conv2d_backward).
The 2x2 stride-2 up-convolution is a 1x1 conv2d to four planes per output
channel plus a depth-to-space move, since its output blocks do not overlap.
The forward kernels conv2d, upconv2 and maxpool2 get every buffer they
write, outputs and scratch, from alloc(shape, dtype), np.empty by default,
in their own layout and a fixed order, so that an inference forward can cut
them from one block (unet.Workspace); the numbers do not depend on where
the buffers live.

Each forward kernel has a reverse-mode counterpart that maps the upstream
gradient to gradients w.r.t. its inputs; conv2d_weight_grads is
conv2d_backward without the input gradient, which a first layer's caller
never reads, and maxpool2_backward routes by the pool's input and output,
so a pool keeps no index.  All kernels are pure functions:
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


class Channels(tuple):
    """A conv input: rank-4 tensors, one or more, read as their channel
    concatenation, which is never built; shape is the concatenation's."""

    def __new__(cls, x):
        parts = super().__new__(cls, x if isinstance(x, tuple) else (x,))
        for t in parts:
            _check_tensor4(t)
        if len({(t.shape[0], *t.shape[2:]) for t in parts}) != 1:
            raise ShapeError(f"a conv input needs tensors that agree outside the "
                             f"channel axis, got {[t.shape for t in parts]}")
        n, _, h, w = parts[0].shape
        parts.shape = n, sum(t.shape[1] for t in parts), h, w
        return parts


# Each band's lowering and GEMM product stay under _BAND_BYTES together, and
# under _CACHE_BYTES, one core's L2, where that leaves enough rows per band.
# The L2 size is a constant: os.sysconf("SC_LEVEL2_CACHE_SIZE") is not
# available on every platform.
_BAND_BYTES = 12 << 20
_CACHE_BYTES = 2 << 20


def _row_bands(n: int, h: int, w: int, column_bytes: int, halo: int):
    """Split the (h, n, w) output grid, in order, into (rows, images, xs)
    bands whose columns, halo rows included, take at most the budget at
    column_bytes each (or one output pixel): whole rows across all images if
    one fits, else part of one image's row (several images of one row need
    whole rows to fit for the at most 2 images of every conv run).  The
    budget is _CACHE_BYTES (if smaller) when its whole-row bands hold at
    least 8 output rows per halo row, else _BAND_BYTES."""
    cache = min(_CACHE_BYTES, _BAND_BYTES)
    fits = cache // (column_bytes * n * w) - halo >= max(1, 8 * halo)
    per = (cache if fits else _BAND_BYTES) // column_bytes
    if per >= (1 + halo) * n * w:
        k = per // (n * w) - halo
        return [(slice(r, min(r + k, h)), slice(0, n), slice(0, w)) for r in range(0, h, k)]
    k = max(1, per // (1 + halo))
    return [(slice(r, r + 1), slice(i, i + 1), slice(s, min(s + k, w)))
            for r in range(h) for i in range(n) for s in range(0, w, k)]


def _lower(lowered: np.ndarray, planes: list[np.ndarray], kh: int, kw: int,
           rows: slice, images: slice, xs: slice) -> np.ndarray:
    """Fill lowered, a (c*kw, padded rows*images*columns) array, with the
    horizontal taps of a same kh x kw convolution over planes, unpadded
    (c_i, h, n, w) arrays stacked along c, for the output band rows x images
    x xs and its kh-1 halo rows; strips outside the frame are zeroed."""
    _, h, _, w = planes[0].shape
    nr, nx = rows.stop - rows.start + kh - 1, xs.stop - xs.start
    taps = lowered.reshape(-1, kw, nr, images.stop - images.start, nx)
    starts = [sum(map(len, planes[:i])) for i in range(len(planes))]  # first channel of each
    top = rows.start - (kh - 1) // 2
    r0 = max(-top, 0)
    r1 = max(min(h - top, nr), r0)
    taps[:, :, :r0] = 0
    taps[:, :, r1:] = 0
    for v in range(kw):
        left = xs.start + v - (kw - 1) // 2
        x0 = max(-left, 0)
        x1 = max(min(w - left, nx), x0)
        tap = taps[:, v, r0:r1]
        tap[..., :x0] = 0
        tap[..., x1:] = 0
        for part, c in zip(planes, starts):
            tap[c:c + len(part), ..., x0:x1] = part[:, top + r0:top + r1, images, left + x0:left + x1]
    return lowered


def _stacked_gemm(kernel: np.ndarray, lowered: np.ndarray, stride: int,
                  out: np.ndarray, product: np.ndarray | None = None) -> np.ndarray:
    """out = the sum, in u order, of row block u of kernel @ lowered (held in
    product) shifted u*stride columns on: a same convolution from the
    stacked kernel and a lowering whose padded rows are stride columns apart."""
    oc, m = out.shape
    if kernel.shape[0] == oc:
        return np.matmul(kernel, lowered, out=out)
    product = np.matmul(kernel, lowered, out=product)
    np.add(product[:oc, :m], product[oc:2 * oc, stride:stride + m], out=out)
    for u in range(2, kernel.shape[0] // oc):
        out += product[u * oc:(u + 1) * oc, u * stride:u * stride + m]
    return out


def _bands(n: int, h: int, w: int, ic: int, oc: int, kh: int, kw: int, itemsize: int):
    """conv2d's output bands and the scratch elements its widest band takes."""
    rows = ic * kw + kh * oc
    bands = _row_bands(n, h, w, rows * itemsize, kh - 1)
    widest = max((r.stop - r.start + kh - 1) * (i.stop - i.start) * (s.stop - s.start)
                 for r, i, s in bands)
    return bands, rows * widest


def conv2d_scratch_size(shape: tuple, weights_shape: tuple, itemsize: int) -> int:
    """Elements of the band scratch conv2d takes for an input of the given
    (n, c, h, w) shape and kernel shape, when it lowers that input in bands
    (a 1x1 kernel on one tensor is multiplied unlowered and takes none)."""
    n, _, h, w = shape
    oc, ic, kh, kw = weights_shape
    return _bands(n, h, w, ic, oc, kh, kw, itemsize)[1]


def conv2d(x, p: ConvParams, alloc=np.empty) -> np.ndarray:
    """3x3 / 1x1 convolution, stride 1, zero same-padding.

    Output spatial size equals input spatial size; each output pixel is the
    kernel dotted with the zero-padded input window, plus the channel bias.
    x is a tensor or a tuple of tensors read as one (see Channels).  alloc
    gives the (oc, h, n, w) output, returned as its (n, oc, h, w) view, then,
    unless a 1x1 kernel reads one tensor, the (conv2d_scratch_size,) scratch
    that the bands' lowering and product use.
    """
    parts = Channels(x)
    oc, ic, kh, kw = p.weights.shape
    if parts.shape[1] != ic:
        raise ShapeError(f"conv2d channel mismatch: input {parts.shape} expects "
                         f"{ic} channels for kernel {p.weights.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d needs odd kernel sides for same-padding, got {(kh, kw)}")
    n, _, h, w = parts.shape
    kernel = p.weights.transpose(2, 0, 1, 3).reshape(kh * oc, ic * kw)
    planes = [t.transpose(1, 2, 0, 3) for t in parts]
    dtype = np.result_type(kernel, *parts)
    out = alloc((oc, h, n, w), dtype)
    if kh * kw == 1 and len(planes) == 1:
        np.matmul(kernel, planes[0].reshape(ic, -1), out=out.reshape(oc, -1))
        out += p.bias[:, None, None, None]
    else:
        bands, need = _bands(n, h, w, ic, oc, kh, kw, out.itemsize)
        # one allocation: two separate ones raised a two-thread predict's peak RSS
        scratch = alloc((need,), dtype)
        split = need // (ic * kw + kh * oc) * ic * kw
        lowered, product = scratch[:split], scratch[split:]
        for rows, images, xs in bands:
            # a view, since every band is whole rows, images of one row or part of one
            target = out[:, rows, images, xs].reshape(oc, -1)
            stride = target.shape[1] // (rows.stop - rows.start)
            size = target.shape[1] + (kh - 1) * stride
            band = _lower(lowered[:ic * kw * size].reshape(-1, size), planes, kh, kw, rows, images, xs)
            _stacked_gemm(kernel, band, stride, target, product[:kh * oc * size].reshape(-1, size))
            target += p.bias[:, None]  # while the band is still in cache
    return out.transpose(2, 0, 1, 3)


def _weight_grads(parts: Channels, p: ConvParams, grad_out: np.ndarray):
    """(lowering of grad_out, grad_w, grad_b) of conv2d; see conv2d_backward."""
    n, c, h, w = parts.shape
    oc, ic, kh, kw = p.weights.shape
    if c != ic or grad_out.shape != (n, oc, h, w):
        raise ShapeError(f"conv2d input {parts.shape} and upstream gradient {grad_out.shape} "
                         f"do not fit kernel {p.weights.shape}")
    nw, m = n * w, h * n * w
    planes = grad_out.transpose(1, 2, 0, 3)
    if kh * kw == 1:
        lowered = planes.reshape(oc, m)
    else:
        lowered = _lower(np.empty((oc * kw, m + (kh - 1) * nw), grad_out.dtype), [planes], kh, kw,
                         slice(0, h), slice(0, n), slice(0, w))
    inputs = [t.transpose(1, 2, 0, 3) for t in parts]  # one part is read as a view if it can be
    inputs = (inputs[0] if len(inputs) == 1 else np.concatenate(inputs)).reshape(ic, m)
    taps = np.stack([np.matmul(lowered[:, u * nw:u * nw + m], inputs.T) for u in range(kh)])
    grad_w = taps.reshape(kh, oc, kw, ic)[::-1, :, ::-1].transpose(1, 3, 0, 2)
    return lowered, grad_w, grad_out.sum(axis=(0, 2, 3))


def conv2d_backward(x, p: ConvParams, grad_out: np.ndarray):
    """Gradients of conv2d w.r.t. (input, weights, bias).  With L the
    lowering of grad_out, nw = n*w and m = h*nw: grad_x is the stacked GEMM
    of the flipped kernel W'[c, o, u, v] = W[o, c, kh-1-u, kw-1-v] on L, and
    grad_w[o, c, kh-1-u, kw-1-v] = (L[:, u*nw:u*nw + m] @ X.T)[o*kw + v, c],
    with X x in (ic, h, n, w) order.  For a tuple x, grad_x is the gradient
    of the concatenation, whose channel slices belong to the parts."""
    parts = Channels(x)
    lowered, grad_w, grad_b = _weight_grads(parts, p, grad_out)
    n, ic, h, w = parts.shape
    oc, _, kh, kw = p.weights.shape
    flipped = p.weights[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(kh * ic, oc * kw)
    grad_x = np.empty((ic, h, n, w), dtype=np.result_type(flipped, grad_out))
    _stacked_gemm(flipped, lowered, n * w, grad_x.reshape(ic, -1))
    return grad_x.transpose(2, 0, 1, 3), grad_w, grad_b


def conv2d_weight_grads(x, p: ConvParams, grad_out: np.ndarray):
    """conv2d_backward without the input gradient: (grad_w, grad_b), for a
    first layer, whose input gradient nothing reads."""
    return _weight_grads(Channels(x), p, grad_out)[1:]


def _pool_windows(x: np.ndarray) -> list[np.ndarray]:
    """The four strided views of x's 2x2 windows, in row-major window order."""
    _check_tensor4(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    return [x[:, :, k // 2::2, k % 2::2] for k in range(4)]


def maxpool2(x: np.ndarray, alloc=np.empty) -> np.ndarray:
    """2x2 max-pool with stride 2: each window's largest entry (NaN if it
    holds one).  alloc gives the (c, h/2, n, w/2) output, returned as its
    (n, c, h/2, w/2) view."""
    first, *rest = _pool_windows(x)
    n, c, hp, wp = first.shape
    out = alloc((c, hp, n, wp), x.dtype).transpose(2, 0, 1, 3)
    np.copyto(out, first)
    for entry in rest:
        np.maximum(entry, out, out=out)
    return out


def maxpool2_backward(x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route the upstream gradient of each window to its first entry, in
    row-major window order, that equals the pooled value: the first maximum.
    A window holding NaN has no such entry and gets no gradient."""
    windows = _pool_windows(x)
    if not pooled.shape == grad_out.shape == windows[0].shape:
        raise ShapeError(f"pool input {x.shape}, output {pooled.shape} and upstream "
                         f"gradient {grad_out.shape} do not fit")
    grad = np.zeros(x.shape, dtype=grad_out.dtype)
    routed = np.zeros(pooled.shape, bool)
    for k, entry in enumerate(windows):
        hit = (entry == pooled) & ~routed
        np.copyto(grad[:, :, k // 2::2, k % 2::2], grad_out, where=hit)
        routed |= hit
    return grad


def upconv2(x: np.ndarray, p: ConvParams, alloc=np.empty) -> np.ndarray:
    """2x2 transposed convolution with stride 2, no padding.

    Each input pixel scatters value*kernel into its own 2x2 output block,
    plus bias; spatial size doubles.  The blocks do not overlap, so this runs
    as a 1x1 conv2d to 4*oc planes in (o, u, v) order and a depth-to-space
    move.  alloc gives the C-ordered (n, oc, 2h, 2w) output, then the 1x1
    conv's (4*oc, h, n, w) planes.
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
    out = alloc((n, oc, 2 * h, 2 * w), np.result_type(kernel, x))
    planes = conv2d(x, ConvParams(kernel, np.repeat(p.bias, 4)), alloc).reshape(n, oc, 2, 2, h, w)
    # depth to space as four strided copies, each with rows of w elements
    for u in range(2):
        for v in range(2):
            np.copyto(out[:, :, u::2, v::2], planes[:, :, u, v])
    return out


def upconv2_backward(x: np.ndarray, p: ConvParams, grad_out: np.ndarray):
    """Gradients of upconv2 w.r.t. (input, weights, bias): conv2d_backward of
    its 1x1 conv, on grad_out moved space-to-depth into the 4*oc planes."""
    ic, oc, _, _ = p.weights.shape
    n, _, h, w = x.shape
    if grad_out.shape != (n, oc, 2 * h, 2 * w):
        raise ShapeError(f"upconv2 upstream gradient {grad_out.shape} does not match "
                         f"output shape {(n, oc, 2 * h, 2 * w)}")
    kernel = p.weights.transpose(1, 2, 3, 0).reshape(4 * oc, ic, 1, 1)
    # one copy, straight into the (4*oc, h, n, w) order the 1x1 lowering reads as a view
    g = np.ascontiguousarray(grad_out.reshape(n, oc, h, 2, w, 2).transpose(1, 3, 5, 2, 0, 4))
    grad_x, grad_w, _ = conv2d_backward(x, ConvParams(kernel, p.bias),
                                        g.reshape(4 * oc, h, n, w).transpose(2, 0, 1, 3))
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w.reshape(oc, 2, 2, ic).transpose(3, 0, 1, 2), grad_b


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass the gradient where x > 0; the derivative at exactly 0 is 0."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function from e = exp(-|x|), which never
    overflows: 1 / (1 + e) where x >= 0, e / (1 + e) elsewhere.  Both
    branches are computed in place, in e's and 1 + e's own buffers."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1 + e
    np.divide(e, d, out=e)
    np.divide(1, d, out=d)
    return np.where(x >= 0, d, e)


def bce_with_logits(logits: np.ndarray, targets: np.ndarray,
                    count: int | None = None) -> float:
    """Binary cross-entropy on logits, in the numerically stable form
    max(z, 0) - z*y + log(1 + exp(-|z|)), summed and divided by count
    (default: the element count, giving the mean)."""
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} and targets {targets.shape} differ")
    if not np.all((targets == 0) | (targets == 1)):
        raise DomainError("targets must be exactly 0 or 1")
    terms = np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float(terms.sum() / (terms.size if count is None else count))


def bce_with_logits_backward(logits: np.ndarray, targets: np.ndarray,
                             count: int | None = None) -> np.ndarray:
    """Per-element gradient (sigmoid(z) - y) / count of bce_with_logits with
    the same count (default: the element count)."""
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} and targets {targets.shape} differ")
    return (sigmoid(logits) - targets) / (logits.size if count is None else count)


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
