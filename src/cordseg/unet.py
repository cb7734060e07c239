"""U-Net assembly: configuration, deterministic init, forward/backward, and
a bit-exact binary checkpoint format.

The network is the classic contracting/expansive shape: each encoder level
is two (conv 3x3 -> relu) then a 2x2 max-pool; the bottleneck is two
(conv -> relu); each decoder level is a 2x2 transposed conv, then two
(conv -> relu), the first reading its output and the matching encoder skip
as one channel concatenation that is never built; a final 1x1 conv makes
the logit plane.  It reads one channel and emits one, and same-padding keeps
the output the input's spatial size everywhere, so masks align with tiles.

`schedule` writes it down once, as steps that forward, backward, the
workspace plan (whose free order comes from them) and the canonical
parameter order follow: encoder blocks top-down (conv1, conv2 per level),
bottleneck (conv1, conv2), decoder blocks bottom-up (upconv, conv1, conv2
per level), final 1x1 conv.  A `Model` is the network's one form: its
`UNetConfig`, the flat vector `theta` of every layer's weights then bias in
that order, its `steps`, and `layers`, the per-layer views cut from theta.
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

import itertools
import math
import os
import struct
from collections import namedtuple
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


Step = namedtuple("Step", "kind layer c_in c_out k reads frees", defaults=((),))


def schedule(cfg: UNetConfig) -> list[Step]:
    """The forward pass as steps in the order they run: the network's one
    description.  A step has a kind ("conv_relu", "pool", "upconv", or
    "conv" for the 1x1 head), its layer in canonical parameter order (None
    for a pool), channels in and out, kernel side k, the values it reads as
    one conv input (see ops.Channels; value 0 is the batch, value i step
    i-1's output) and frees, those of them no later step reads."""
    steps, layers = [], itertools.count()

    def add(kind, c_in, c_out, k, reads=None) -> int:
        """Append a step reading reads (default: the last output); return its output."""
        layer = None if kind == "pool" else next(layers)
        steps.append(Step(kind, layer, c_in, c_out, k, reads or (len(steps),)))
        return len(steps)

    widths = [cfg.base_channels << level for level in range(cfg.depth + 1)]
    skips = []  # each encoder level's output, read again by its decoder level
    for c_in, width in zip([1, *widths], widths[:-1]):  # a level reads the one above
        add("conv_relu", c_in, width, 3)
        skips.append(add("conv_relu", width, width, 3))
        add("pool", width, width, 2)
    add("conv_relu", widths[-2], widths[-1], 3)
    add("conv_relu", widths[-1], widths[-1], 3)
    for width in reversed(widths[:-1]):  # each reads the level below, twice as wide
        up = add("upconv", 2 * width, width, 2)
        add("conv_relu", 2 * width, width, 3, (up, skips.pop()))
        add("conv_relu", width, width, 3)
    add("conv", widths[0], 1, 1)
    last = {v: i for i, step in enumerate(steps) for v in step.reads}  # later readers win
    return [step._replace(frees=tuple(v for v in step.reads if last[v] == i))
            for i, step in enumerate(steps)]


def layer_plan(cfg: UNetConfig) -> list[tuple[str, int, int, int]]:
    """Canonical layer list as (kind, in_channels, out_channels, kernel_side):
    the schedule's parameter steps, a conv_relu and the head both "conv"."""
    return [("upconv" if s.kind == "upconv" else "conv", s.c_in, s.c_out, s.k)
            for s in schedule(cfg) if s.layer is not None]


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
    """Per-layer views into a flat canonical-order vector, cut as a Model cuts them."""
    return Model(cfg, vector).layers


def _views(vector: np.ndarray, steps: list[Step]) -> list[ConvParams]:
    """Per-layer views into a flat canonical-order vector of the steps'
    parameter count; nothing is copied.  Each weight's block is stored in
    the order its `ops` kernel reads it (see the module docstring)."""
    params, pos = [], 0
    for s in (s for s in steps if s.layer is not None):
        size = s.c_in * s.c_out * s.k * s.k
        block = vector[pos:pos + size]
        if s.kind == "upconv":  # stored (oc, 2, 2, ic), viewed (ic, oc, 2, 2)
            weights = block.reshape(s.c_out, 2, 2, s.c_in).transpose(3, 0, 1, 2)
        else:  # stored (kh, oc, ic, kw), viewed (oc, ic, kh, kw)
            weights = block.reshape(s.k, s.c_out, s.c_in, s.k).transpose(1, 2, 0, 3)
        params.append(ConvParams(weights, vector[pos + size:pos + size + s.c_out]))
        pos += size + s.c_out
    return params


@dataclass(frozen=True, eq=False)
class Model:
    """A U-Net: its config, flat parameter vector, schedule and the vector's
    per-layer views.  Building one cuts the views, so a theta of the wrong
    length raises ShapeError here; updates to theta in place reach them."""

    cfg: UNetConfig
    theta: np.ndarray = field(repr=False)
    steps: list[Step] = field(init=False, repr=False)
    layers: list[ConvParams] = field(init=False, repr=False)

    def __post_init__(self):
        if self.theta.size != _parameter_total(self.cfg):
            raise ShapeError(f"vector of length {self.theta.size} does not match "
                             f"parameter count {_parameter_total(self.cfg)}")
        object.__setattr__(self, "steps", schedule(self.cfg))
        object.__setattr__(self, "layers", _views(self.theta, self.steps))


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
    shape asks for, in the order it takes and frees them: each step of the
    schedule takes its kernel's output and scratch, in the shapes the kernel
    asks for, frees the scratch, then frees the values it reads last.  The
    batch and the head's logits are not in it."""
    fit, held = _FirstFit(), {}  # each value's buffer; the batch and the logits have none
    n, _, h, w = shape  # then the sides of the latest value, every step's first read
    for i, step in enumerate(schedule(cfg), start=1):  # step i outputs value i
        c = step.c_out
        if step.kind == "conv_relu":
            held[i] = fit.take((c, h, n, w))
            weights = (c, step.c_in, step.k, step.k)
            fit.free(fit.take((ops.conv2d_scratch_size((n, step.c_in, h, w), weights, itemsize),)))
        elif step.kind == "pool":
            h, w = h // 2, w // 2
            held[i] = fit.take((c, h, n, w))
        elif step.kind == "upconv":
            held[i] = fit.take((n, c, 2 * h, 2 * w))
            fit.free(fit.take((4 * c, h, n, w)))
            h, w = 2 * h, 2 * w
        fit.free(*(held.pop(v) for v in step.frees if v in held))
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
    values = [batch]  # value 0 is the batch, value i step i-1's output
    for step in model.steps:
        parts = [values[v] for v in step.reads]
        x = parts[0] if len(parts) == 1 else ops.Channels(tuple(parts))
        if step.kind == "conv_relu":
            y = ops.conv2d(x, params[step.layer], alloc)
            np.maximum(y, 0, out=y)
            keep(("conv_relu", x, y))
        elif step.kind == "pool":
            y = ops.maxpool2(x, alloc)
            keep(("pool", x, y))
        elif step.kind == "upconv":
            y = ops.upconv2(x, params[step.layer], alloc)
            keep(("upconv", x))
        else:  # the head, whose logits are the caller's, not the workspace's
            y = ops.conv2d(x, params[step.layer])
            keep(("conv", x))
        values.append(y)
    return y, ActivationCache(records, y.shape)


def backward(model: Model, cache: ActivationCache, grad_logits: np.ndarray) -> np.ndarray:
    """Exact reverse traversal of forward; returns the gradient as one flat
    vector laid out like model.theta and in its dtype."""
    if not cache.records:
        raise DomainError("activation cache holds no records: forward ran in a "
                          "workspace, or a backward pass already consumed it")
    if grad_logits.shape != cache.logits_shape:
        raise ShapeError(f"grad_logits {grad_logits.shape} does not match the "
                         f"cached logits shape {cache.logits_shape}")
    grad = np.empty_like(model.theta)
    grads = _views(grad, model.steps)
    value_grads = {len(model.steps): grad_logits}  # summed over the readers walked so far
    for i, step in reversed(list(enumerate(model.steps))):
        record = cache.records.pop()  # popping frees each activation once it is used
        g = value_grads.pop(i + 1)
        if step.kind == "pool":
            parts = [ops.maxpool2_backward(record[1], record[2], g)]
        else:  # conv, conv_relu or upconv: one parameter layer
            p, dp = model.layers[step.layer], grads[step.layer]
            if step.kind == "conv_relu":
                g = ops.relu_backward(record[2], g)
            if step.reads == (0,):  # the batch's gradient: nothing reads it
                dp.weights[...], dp.bias[...] = ops.conv2d_weight_grads(record[1], p, g)
                continue
            kernel = ops.upconv2_backward if step.kind == "upconv" else ops.conv2d_backward
            g, dp.weights[...], dp.bias[...] = kernel(record[1], p, g)
            parts = [g]
            if len(step.reads) > 1:  # g is the gradient of the reads' channel concatenation
                parts = np.split(g, np.cumsum([t.shape[1] for t in record[1]])[:-1], axis=1)
        for v, part in zip(step.reads, parts):
            value_grads[v] = part + value_grads[v] if v in value_grads else part
    return grad


def _kink_margin(model: Model, cache: ActivationCache) -> float:
    """Distance from the nearest non-smooth point of the forward pass.

    Covers the two kink sources: relu pre-activations near 0 (recomputed
    from each conv_relu record's input, since the record keeps only the
    activated output), and pool windows whose top two values nearly tie
    (which would flip the gradient routing under perturbation).
    """
    margin = np.inf
    for step, record in zip(model.steps, cache.records):
        if step.kind == "conv_relu":
            margin = min(margin, float(np.abs(ops.conv2d(record[1], model.layers[step.layer])).min()))
        elif step.kind == "pool":
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
