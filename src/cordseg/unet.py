"""U-Net assembly: configuration, deterministic init, forward/backward, and
a bit-exact binary checkpoint format.

The network is the classic contracting/expansive shape: each encoder level
is two (conv 3x3 -> relu) then a 2x2 max-pool; the bottleneck is two
(conv -> relu); each decoder level is a 2x2 transposed conv, then two
(conv -> relu), the first reading its output and the matching encoder skip
as one channel concatenation that is never built; a final 1x1 conv makes
the logit plane.  It reads one channel and emits one, and same-padding keeps
the output the input's spatial size everywhere, so masks align with tiles.

Parameters live in one canonical order: encoder blocks top-down (conv1,
conv2 per level), bottleneck (conv1, conv2), decoder blocks bottom-up
(upconv, conv1, conv2 per level), final 1x1 conv.  A `Model` is the
network's one form: its `UNetConfig`, the flat vector `theta` of every
layer's weights then bias in that order, and `layers`, the per-layer views
that `unflatten_params` cuts from theta once, when the model is built.
`init_params` and `load_checkpoint` return a Model; `forward`, `backward`
and `save_checkpoint` take one.  `backward` returns the gradient as a
vector laid out like theta, Adam updates theta in place, the gradient
checker builds Models over a float64 copy of it, and checkpoints store its
tensors in the same order.

Each weight view has its checkpoint shape, (oc, ic, kh, kw) for a conv and
(ic, oc, 2, 2) for an upconv, over a block of the vector stored in the
order the kernels in `ops` multiply by: (kh, oc, ic, kw) for a conv and
(oc, 2, 2, ic) for an upconv.  Their GEMM kernels are then views of the
vector, not copies made on every call.  Only the vector's order follows
this rule: checkpoints, the init draws and the gradient checker's
`worst_index` count in checkpoint order.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import CordsegError, DomainError, NumericError, ShapeError
from .ops import ConvParams
from .rng import SplitMix64, derive


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 4
    base_channels: int = 64

    def __post_init__(self):
        for name in ("depth", "base_channels"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        # base_channels << depth is a stored dimension; bit lengths build no huge int
        if self.base_channels.bit_length() + self.depth >= _MAX_DIM.bit_length():
            raise DomainError(f"bottleneck width {self.base_channels} << {self.depth} "
                              f"does not fit a stored dimension")
        if 4 * _parameter_total(self) > np.iinfo(np.intp).max:
            raise DomainError(f"{self} has more float32 parameter bytes than numpy "
                              f"can index")


def layer_plan(cfg: UNetConfig) -> list[tuple[str, int, int, int]]:
    """Canonical layer list as (kind, in_channels, out_channels, kernel_side)."""
    plan: list[tuple[str, int, int, int]] = []
    base = cfg.base_channels
    prev = 1
    for i in range(cfg.depth):
        c = base << i
        plan.append(("conv", prev, c, 3))
        plan.append(("conv", c, c, 3))
        prev = c
    c = base << cfg.depth
    plan.append(("conv", prev, c, 3))
    plan.append(("conv", c, c, 3))
    prev = c
    for i in range(cfg.depth - 1, -1, -1):
        c = base << i
        plan.append(("upconv", prev, c, 2))
        plan.append(("conv", 2 * c, c, 3))
        plan.append(("conv", c, c, 3))
        prev = c
    plan.append(("conv", base, 1, 1))
    return plan


def param_shapes(cfg: UNetConfig) -> list[tuple[tuple[int, ...], tuple[int]]]:
    """(weights, bias) shapes of every layer, in canonical order."""
    return [((c_in, c_out, k, k) if kind == "upconv" else (c_out, c_in, k, k), (c_out,))
            for kind, c_in, c_out, k in layer_plan(cfg)]


def check_divisible(what: str, sides: tuple[int, ...], depth: int) -> None:
    """Raise ShapeError unless every side survives depth 2x2 poolings."""
    divisor = 1 << depth
    if any(side % divisor for side in sides):
        raise ShapeError(f"{what} {'x'.join(map(str, sides))} must be divisible by "
                         f"{divisor} (2^depth for depth {depth})")


def _parameter_total(cfg: UNetConfig) -> int:
    return sum(math.prod(w) + math.prod(b) for w, b in param_shapes(cfg))


# Box-Muller pairs per block of init draws: each block's float64 temporaries
# take a few hundred KiB, where a whole layer's took several copies of it.
_INIT_BLOCK_PAIRS = 4096


def init_params(cfg: UNetConfig, seed: int) -> Model:
    """He-initialized model, bit-reproducible for a given (cfg, seed).

    Weights are normal draws with std sqrt(2/fan_in) consumed from one
    splitmix64 stream in canonical parameter order; biases start at zero.
    fan_in counts the inputs feeding one output unit: in_channels*kh*kw for
    a convolution, in_channels for the non-overlapping transposed
    convolution.  theta is float32.
    """
    stream = SplitMix64(seed)
    model = Model(cfg, np.zeros(_parameter_total(cfg), dtype=np.float32))
    for (kind, c_in, _, k), p in zip(layer_plan(cfg), model.layers):
        fan_in = c_in if kind == "upconv" else c_in * k * k
        pos = 0  # in the weights' checkpoint (row-major) order
        for draws in stream.normal_blocks(p.weights.size, _INIT_BLOCK_PAIRS):
            p.weights.flat[pos:pos + draws.size] = draws * np.sqrt(2.0 / fan_in)
            pos += draws.size
    return model


def unflatten_params(vector: np.ndarray, cfg: UNetConfig) -> list[ConvParams]:
    """Per-layer views into a flat canonical-order vector; nothing is copied.
    Each weight's block is stored in the order its `ops` kernel reads it (see
    the module docstring)."""
    if vector.size != _parameter_total(cfg):
        raise ShapeError(f"vector of length {vector.size} does not match "
                         f"parameter count {_parameter_total(cfg)}")
    params, pos = [], 0
    for (kind, *_), (w, b) in zip(layer_plan(cfg), param_shapes(cfg)):
        # the block's axes as a permutation of the checkpoint axes
        axes = (1, 2, 3, 0) if kind == "upconv" else (2, 0, 1, 3)
        n_w, n_b = math.prod(w), math.prod(b)
        block = vector[pos:pos + n_w].reshape([w[a] for a in axes])
        params.append(ConvParams(block.transpose(np.argsort(axes)),
                                 vector[pos + n_w:pos + n_w + n_b]))
        pos += n_w + n_b
    return params


@dataclass(frozen=True, eq=False)
class Model:
    """A U-Net: its config, its flat parameter vector, and that vector's
    per-layer views.  Building one cuts the views, so a theta of the wrong
    length raises ShapeError here; updates to theta in place reach them."""

    cfg: UNetConfig
    theta: np.ndarray = field(repr=False)
    layers: list[ConvParams] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", unflatten_params(self.theta, self.cfg))


@dataclass
class ActivationCache:
    """Intermediates recorded by one forward pass, consumed by one backward."""

    records: list = field(repr=False)
    logits_shape: tuple


class _FirstFit:
    """Offsets in one block, by first fit, of buffers taken and freed in order."""

    def __init__(self):
        self.live = {}    # index of each taken buffer not yet freed -> (offset, size)
        self.placed = []  # (offset, shape) of every buffer, in order
        self.size = 0

    def take(self, shape: tuple) -> int:
        need, offset = math.prod(shape), 0
        for start, size in sorted(self.live.values()):
            if start - offset >= need:
                break
            offset = max(offset, start + size)
        self.live[len(self.placed)] = offset, need
        self.placed.append((offset, shape))
        self.size = max(self.size, offset + need)
        return len(self.placed) - 1

    def free(self, *indices: int) -> None:
        for i in indices:
            del self.live[i]


def _inference_layout(cfg: UNetConfig, shape: tuple, itemsize: int) -> _FirstFit:
    """First fit of the buffers an inference forward on a batch of the given
    shape asks for, with the shapes the kernels ask for them, in the order it
    takes and frees them: each conv's (c, h, n, w) output and its band
    scratch, each pool's (c, h/2, n, w/2) output, each upconv's (n, c, 2h, 2w)
    output and its 1x1 conv's (4c, h, n, w) planes; a layer's input goes once
    the layer has run, a skip once its decoder level's first conv has.  The
    head's logits are not in it."""
    fit, layers = _FirstFit(), iter(layer_plan(cfg))
    n, c, h, w = shape
    reads, skips = [], []  # buffers the next layer reads (the batch is none), and skips

    def conv():
        nonlocal reads, c
        _, c_in, c, k = next(layers)
        out = fit.take((c, h, n, w))
        fit.free(fit.take((ops.conv2d_scratch_size((n, c_in, h, w), (c, c_in, k, k), itemsize),)))
        fit.free(*reads)
        reads = [out]

    for _ in range(cfg.depth):
        conv()
        conv()
        skips.append(reads[0])
        h, w = h // 2, w // 2
        reads = [fit.take((c, h, n, w))]
    conv()
    conv()
    for _ in range(cfg.depth):
        _, _, c, _ = next(layers)
        out = fit.take((n, c, 2 * h, 2 * w))
        fit.free(fit.take((4 * c, h, n, w)))
        fit.free(*reads)
        h, w = 2 * h, 2 * w
        reads = [out, skips.pop()]
        conv()
        conv()
    return fit


class Workspace:
    """Where every inference forward runs: its buffers are cut from one
    block, every activation, pool output, upconv output and conv scratch at
    offsets fixed by first fit (Pisarchyk & Lee 2020, "Efficient Memory
    Management for Deep Neural Net Inference").  The layout is planned, and
    the block allocated, when a forward first brings a new (config, batch
    shape, dtype), such as a partial last batch; forwards of the same shape
    then take the planned buffers in order and reuse the same pages.  Each
    kernel request must match its planned buffer's shape and dtype, or
    ShapeError names both.  A workspace serves one forward at a time: each
    worker process uses its own.
    """

    def __init__(self):
        self._key = None
        self._buffers: list[np.ndarray] = []

    def _allocator(self, cfg: UNetConfig, shape: tuple, dtype: np.dtype):
        """The alloc(shape, dtype) that hands a forward of this batch shape
        its planned buffers in order."""
        if (cfg, shape, dtype) != self._key:
            self._buffers = []  # the old block goes before the new one is allocated
            fit = _inference_layout(cfg, shape, dtype.itemsize)
            block = np.empty(fit.size, dtype)
            self._buffers = [block[o:o + math.prod(s)].reshape(s) for o, s in fit.placed]
            self._key = cfg, shape, dtype
        planned = iter(self._buffers)

        def alloc(shape: tuple, dtype) -> np.ndarray:
            buf = next(planned, None)
            if buf is None or buf.shape != shape or buf.dtype != dtype:
                held = "nothing more" if buf is None else f"{buf.dtype} {buf.shape}"
                raise ShapeError(f"a kernel asked the workspace for {np.dtype(dtype)} {shape}, "
                                 f"but its plan holds {held}")
            return buf
        return alloc


def forward(model: Model, batch: np.ndarray, workspace: Workspace | None = None):
    """Run the network; returns (logits, cache for the matching backward).

    Without a workspace the pass records for backward, and the kernels
    allocate with np.empty.  relu runs in place on each conv output, so a
    conv_relu record holds the layer's input and its activated output, which
    is also the next layer's input; relu_backward reads the same mask from
    it, since the output is positive exactly where the pre-activation was.
    A pool record holds the pool's input and output, the neighbouring
    conv_relu records' arrays.  A decoder level's first input is (upconv
    output, skip), the skip being an encoder record's output.

    Given a workspace the pass is inference: the kernels take every buffer
    but the logits from the workspace's plan, which checks each request
    (see Workspace), and the cache keeps no records (backward rejects it).
    The logits are bitwise the same either way.
    """
    cfg, params = model.cfg, model.layers
    ops._check_tensor4(batch, "batch")
    n, c, h, w = batch.shape
    if c != 1:
        raise ShapeError(f"batch has {c} channels, model expects 1")
    check_divisible("spatial size", (h, w), cfg.depth)
    records = []
    keep = records.append if workspace is None else (lambda _: None)
    alloc = np.empty if workspace is None else workspace._allocator(
        cfg, batch.shape, np.result_type(model.theta, batch))
    k = 0

    def conv_relu(t):
        nonlocal k
        z = ops.conv2d(t, params[k], alloc)
        np.maximum(z, 0, out=z)
        k += 1
        keep(("conv_relu", t, z))
        return z

    skips = []
    t = batch
    for _ in range(cfg.depth):
        t = conv_relu(t)
        t = conv_relu(t)
        skips.append(t)
        t = ops.maxpool2(t, alloc)
        keep(("pool", skips[-1], t))
    t = conv_relu(t)
    t = conv_relu(t)
    for _ in range(cfg.depth):
        keep(("upconv", t))
        t = ops.upconv2(t, params[k], alloc)
        k += 1
        t = conv_relu(ops.Channels((t, skips.pop())))
        t = conv_relu(t)
    logits = ops.conv2d(t, params[k])
    keep(("conv", t))
    return logits, ActivationCache(records, logits.shape)


def backward(model: Model, cache: ActivationCache, grad_logits: np.ndarray) -> np.ndarray:
    """Exact reverse traversal of forward; returns the gradient as one flat
    vector laid out like model.theta and in its dtype."""
    if not cache.records:
        raise DomainError("activation cache holds no records: forward ran in a "
                          "workspace, or a backward pass already consumed it")
    if grad_logits.shape != cache.logits_shape:
        raise ShapeError(f"grad_logits {grad_logits.shape} does not match the "
                         f"cached logits shape {cache.logits_shape}")
    params = model.layers
    grad = np.empty_like(model.theta)
    grads = unflatten_params(grad, model.cfg)
    k = len(params) - 1
    g = grad_logits
    skip_grads = []  # the decoders' shares, read by the pools in reverse order
    while cache.records:  # popping frees each activation once it is used
        record = cache.records.pop()
        tag = record[0]
        if tag == "pool":
            g = ops.maxpool2_backward(record[1], record[2], g) + skip_grads.pop()
        else:  # conv, conv_relu or upconv: one parameter layer
            if tag == "conv_relu":
                g = ops.relu_backward(record[2], g)
            if k == 0:  # the image's gradient: nothing reads it
                grads[k].weights[...], grads[k].bias[...] = ops.conv2d_weight_grads(
                    record[1], params[k], g)
                break
            if tag == "upconv":  # g is the gradient of (upconv output, skip)
                g, skip = np.split(g, [params[k].weights.shape[1]], axis=1)
                skip_grads.append(skip)
            kernel = ops.upconv2_backward if tag == "upconv" else ops.conv2d_backward
            g, grads[k].weights[...], grads[k].bias[...] = kernel(record[1], params[k], g)
            k -= 1
    return grad


def _kink_margin(model: Model, cache: ActivationCache) -> float:
    """Distance from the nearest non-smooth point of the forward pass.

    Covers the two kink sources: relu pre-activations near 0 (recomputed
    from each conv_relu record's input, since the record keeps only the
    activated output), and pool windows whose top two values nearly tie
    (which would flip the gradient routing under perturbation).
    """
    margin = np.inf
    layers = iter(model.layers)
    for record in cache.records:
        tag = record[0]
        if tag in ("conv_relu", "upconv", "conv"):
            layer = next(layers)
        if tag == "conv_relu":
            margin = min(margin, float(np.abs(ops.conv2d(record[1], layer)).min()))
        elif tag == "pool":
            windows = np.stack(ops._pool_windows(record[1]), axis=-1).reshape(-1, 4)
            top2 = np.sort(windows, axis=1)[:, -2:]
            gaps = top2[:, 1] - top2[:, 0]
            live = top2[:, 1] > 0  # all-zero windows stay flat under small nudges
            if live.any():
                margin = min(margin, float(gaps[live].min()))
    return margin


_GRADCHECK_SHAPE = (1, 1, 8, 8)  # the gradient check's one input and target


def gradient_check(cfg: UNetConfig | None = None, seed: int = 42, step: float = 1e-5):
    """Finite-difference sweep over every parameter of a small model.

    Builds a seeded model, evaluates loss and analytic gradients in
    float64, and compares against central differences.  The seeded 8x8
    input is drawn by deterministic rejection until the forward pass sits at
    least a small margin away from every relu/pool kink, so the comparison
    happens where the loss is actually differentiable; with the margin in
    place the small step cannot cross a kink.  Returns (max relative error,
    index of the worst coordinate in checkpoint order).
    """
    cfg = cfg or UNetConfig(depth=1, base_channels=2)
    theta = init_params(cfg, seed).theta.astype(np.float64)
    model = Model(cfg, theta)
    margin_needed = 200.0 * step
    for attempt in range(500):
        stream = SplitMix64(derive(seed, 0xDA7A, attempt))
        x = stream.normal_array(math.prod(_GRADCHECK_SHAPE)).reshape(_GRADCHECK_SHAPE)
        y = (stream.f64_array(x.size) < 0.5).astype(np.float64).reshape(x.shape)
        _, cache = forward(model, x)
        if _kink_margin(model, cache) >= margin_needed:
            break
    else:
        raise NumericError("no seeded input found with a safe differentiability margin")

    def f(theta):
        probe = Model(cfg, theta)
        logits, cache = forward(probe, x)
        loss = ops.bce_with_logits(logits, y)
        return loss, backward(probe, cache, ops.bce_with_logits_backward(logits, y))

    # the worst index counts in checkpoint order, the order the tensors are saved in
    errors = np.concatenate([t.ravel() for p in unflatten_params(
        ops.finite_diff_errors(f, theta, step), cfg) for t in (p.weights, p.bias)])
    worst = int(errors.argmax())
    return float(errors[worst]), worst


# --- checkpoint format -------------------------------------------------------
#
# Little-endian throughout: magic "UNET"; u32 version = 1; u32 depth,
# base_channels, in_channels = 1, out_channels = 1; then each tensor of the
# canonical stream as u32 rank, rank * u32 dims, row-major float32 values, unpadded.

CHECKPOINT_MAGIC = b"UNET"
CHECKPOINT_VERSION = 1
_MAX_DIM = 1 << 31


class CheckpointError(CordsegError):
    """Base class for checkpoint file problems."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """File declares a version this code does not read."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the declared data."""


class CheckpointDimError(CheckpointError):
    """A declared rank or dimension is out of range."""


def save_checkpoint(model: Model, path) -> None:
    cfg = model.cfg
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<5I", CHECKPOINT_VERSION, cfg.depth, cfg.base_channels, 1, 1)
    for tensor in (t for p in model.layers for t in (p.weights, p.bias)):
        if any(d >= _MAX_DIM for d in tensor.shape):
            raise CheckpointDimError(f"dimension too large to store: {tensor.shape}")
        blob += struct.pack("<I", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    """Reads a file in order, never past the size it had when opened."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _advance(self, count: int, what: str) -> None:
        if self.pos + count > self.size:
            raise CheckpointTruncatedError(f"file ends inside {what}")
        self.pos += count

    def take(self, count: int, what: str) -> bytes:
        """The next count bytes."""
        self._advance(count, what)
        chunk = self.fh.read(count)
        if len(chunk) != count:
            raise CheckpointTruncatedError(f"file ends inside {what}")
        return chunk

    def fill(self, buffer: np.ndarray, what: str) -> None:
        """Read the next buffer.nbytes bytes into the contiguous buffer."""
        self._advance(buffer.nbytes, what)
        if self.fh.readinto(buffer) != buffer.nbytes:
            raise CheckpointTruncatedError(f"file ends inside {what}")

    def skip(self, count: int, what: str) -> None:
        """Seek past the next count bytes."""
        self._advance(count, what)
        self.fh.seek(self.pos)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> Model:
    """Read a checkpoint into a float32 Model. Round trip is bitwise exact.

    A header must declare 1 input and 1 output channel, and each tensor must
    have the dims its config implies and finite values.  The file is read one
    tensor at a time, through one scratch array the size of the largest, into
    the model's vector; both are allocated only when the file holds exactly
    the bytes its header declares.  Any other file is walked without reading
    its data, to name what is wrong with it.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        magic = reader.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version = reader.u32("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(f"unsupported version {version}")
        header = [reader.u32(f) for f in ("depth", "base_channels", "in_channels",
                                          "out_channels")]
        if any(v < 1 or v > 0xFFFF for v in header) or header[2:] != [1, 1]:
            raise CheckpointDimError(f"config fields out of range: {header}; depth and base_channels "
                                     f"lie in [1, 65535], in_channels and out_channels are 1")
        try:
            cfg = UNetConfig(*header[:2])
        except DomainError as exc:
            raise CheckpointDimError(str(exc)) from None
        shapes = [shape for pair in param_shapes(cfg) for shape in pair]
        declared = reader.pos + sum(4 * (1 + len(s) + math.prod(s)) for s in shapes)
        model, views = None, [None] * len(shapes)
        if reader.size == declared:  # no other file can hold a model
            model = Model(cfg, np.empty(_parameter_total(cfg), np.float32))
            views = [t for p in model.layers for t in (p.weights, p.bias)]
            scratch = np.empty(max(map(math.prod, shapes)), "<f4")
        for i, (expect, view) in enumerate(zip(shapes, views)):
            rank = reader.u32(f"tensor {i} rank")
            if rank != len(expect):
                raise CheckpointDimError(f"tensor {i} has rank {rank}, expected {len(expect)}")
            dims = tuple(reader.u32(f"tensor {i} dims") for _ in range(rank))
            if dims != expect:
                raise CheckpointDimError(f"tensor {i} has dims {dims}, expected {expect} "
                                         f"for the declared config")
            if view is None:
                reader.skip(4 * math.prod(dims), f"tensor {i} data")
            else:
                data = scratch[:view.size]
                reader.fill(data, f"tensor {i} data")
                if not np.isfinite([data.min(), data.max()]).all():  # NaN spreads to both
                    raise CheckpointError(f"tensor {i} holds a non-finite value")
                view[...] = data.reshape(dims)
        if reader.pos != reader.size:
            raise CheckpointError(f"{reader.size - reader.pos} trailing bytes after the "
                                  f"last tensor")
    return model
