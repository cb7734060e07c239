"""U-Net assembly: configuration, deterministic init, forward/backward, and
a bit-exact binary checkpoint format.

The network is the classic contracting/expansive shape: each encoder level
is two (conv 3x3 -> relu) then a 2x2 max-pool; the bottleneck is two
(conv -> relu); each decoder level is a 2x2 transposed conv, channel-concat
with the matching encoder skip, then two (conv -> relu); a final 1x1 conv
produces one logit plane per output channel.  Same-padding keeps the output
spatial size equal to the input everywhere, so masks align with tiles.

Parameters live in one canonical order: encoder blocks top-down (conv1,
conv2 per level), bottleneck (conv1, conv2), decoder blocks bottom-up
(upconv, conv1, conv2 per level), final 1x1 conv.  The model is a
list[ConvParams] whose one other form is a flat vector of every layer's
weights then bias in that order; `unflatten_params` cuts it into per-layer
views.  `backward` returns the gradient as such a vector, Adam updates the
parameter vector in place, the gradient checker perturbs a float64 copy of
it, and checkpoints store its tensors in the same order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import ops
from .errors import CordsegError, DomainError, NumericError, ShapeError
from .ops import ConvParams
from .rng import SplitMix64, derive


@dataclass(frozen=True)
class UNetConfig:
    depth: int = 4
    base_channels: int = 64
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        for name in ("depth", "base_channels", "in_channels", "out_channels"):
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
    prev = cfg.in_channels
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
    plan.append(("conv", base, cfg.out_channels, 1))
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


@cache  # every forward and backward builds its config again
def _parameter_total(cfg: UNetConfig) -> int:
    return sum(math.prod(w) + math.prod(b) for w, b in param_shapes(cfg))


def init_params(cfg: UNetConfig, seed: int) -> list[ConvParams]:
    """He-initialized parameters, bit-reproducible for a given (cfg, seed).

    Weights are normal draws with std sqrt(2/fan_in) consumed from one
    splitmix64 stream in canonical parameter order; biases start at zero.
    fan_in counts the inputs feeding one output unit: in_channels*kh*kw for
    a convolution, in_channels for the non-overlapping transposed
    convolution.  The layers are views into one float32 vector.
    """
    stream = SplitMix64(seed)
    params = unflatten_params(np.zeros(_parameter_total(cfg), dtype=np.float32), cfg)
    for (kind, c_in, _, k), p in zip(layer_plan(cfg), params):
        fan_in = c_in if kind == "upconv" else c_in * k * k
        draws = stream.normal_array(p.weights.size) * np.sqrt(2.0 / fan_in)
        p.weights[...] = draws.reshape(p.weights.shape)
    return params


def parameter_count(params: list[ConvParams]) -> int:
    return sum(p.weights.size + p.bias.size for p in params)


def config_from_params(params: list[ConvParams]) -> UNetConfig:
    """Recover the structural config from a canonical parameter list."""
    n = len(params)
    if n < 8 or (n - 3) % 5:
        raise ShapeError(f"parameter list of length {n} does not match any "
                         f"U-Net plan (expected 5*depth + 3 layers)")
    depth = (n - 3) // 5
    cfg = UNetConfig(
        depth=depth,
        base_channels=params[0].weights.shape[0],
        in_channels=params[0].weights.shape[1],
        out_channels=params[-1].weights.shape[0],
    )
    for i, ((w, b), p) in enumerate(zip(param_shapes(cfg), params)):
        if p.weights.shape != w or p.bias.shape != b:
            raise ShapeError(f"layer {i} has shapes {p.weights.shape}/{p.bias.shape}, "
                             f"expected {w}/{b} for the canonical plan")
    return cfg


def flatten_params(params: list[ConvParams]) -> np.ndarray:
    """All parameters as one vector in canonical order, in their own dtype."""
    return np.concatenate([t.ravel() for p in params for t in (p.weights, p.bias)])


def unflatten_params(vector: np.ndarray, cfg: UNetConfig) -> list[ConvParams]:
    """Per-layer views into a flat canonical-order vector; nothing is copied."""
    params, pos = [], 0
    for w, b in param_shapes(cfg):
        n_w, n_b = math.prod(w), math.prod(b)
        params.append(ConvParams(vector[pos:pos + n_w].reshape(w),
                                 vector[pos + n_w:pos + n_w + n_b]))
        pos += n_w + n_b
    if pos != vector.size:
        raise ShapeError(f"vector of length {vector.size} does not match "
                         f"parameter count {pos}")
    return params


@dataclass
class ActivationCache:
    """Intermediates recorded by one forward pass, consumed by one backward."""

    records: list = field(repr=False)
    logits_shape: tuple


def forward(params: list[ConvParams], batch: np.ndarray, record: bool = True):
    """Run the network; returns (logits, cache for the matching backward).

    With record=False the pass is inference only: the cache keeps no
    per-layer records (its records list is empty and backward rejects it),
    so every activation except the encoder skips is freed as soon as the
    next layer has read it, and the pools compute no argmax index.  The
    logits are bitwise the same in both modes.
    """
    cfg = config_from_params(params)
    ops._check_tensor4(batch, "batch")
    n, c, h, w = batch.shape
    if c != cfg.in_channels:
        raise ShapeError(f"batch has {c} channels, model expects {cfg.in_channels}")
    check_divisible("spatial size", (h, w), cfg.depth)

    records = []
    keep = records.append if record else lambda _: None
    k = 0

    def conv_relu(t):
        nonlocal k
        z = ops.conv2d(t, params[k])
        keep(("conv_relu", t, z))
        k += 1
        return ops.relu(z)

    skips = []
    t = batch
    for level in range(cfg.depth):
        t = conv_relu(conv_relu(t))
        skips.append(t)
        if record:
            t, idx = ops.maxpool2(t)
            keep(("pool", level, idx))
        else:
            t = ops.maxpool2_values(t)
    t = conv_relu(conv_relu(t))
    for level in range(cfg.depth - 1, -1, -1):
        up = ops.upconv2(t, params[k])
        keep(("upconv", t))
        k += 1
        t = ops.concat_channels(up, skips[level])
        keep(("concat", level, up.shape[1]))
        t = conv_relu(conv_relu(t))
    logits = ops.conv2d(t, params[k])
    keep(("conv", t))
    return logits, ActivationCache(records, logits.shape)


def backward(params: list[ConvParams], cache: ActivationCache,
             grad_logits: np.ndarray) -> np.ndarray:
    """Exact reverse traversal of forward; returns the gradient as one flat
    vector in canonical order and in the parameters' dtype."""
    if not cache.records:
        raise DomainError("activation cache holds no records: forward ran with "
                          "record=False, or a backward pass already consumed it")
    if grad_logits.shape != cache.logits_shape:
        raise ShapeError(f"grad_logits {grad_logits.shape} does not match the "
                         f"cached logits shape {cache.logits_shape}")
    grad = np.empty(parameter_count(params), dtype=params[0].weights.dtype)
    grads = unflatten_params(grad, config_from_params(params))
    k = len(params) - 1
    g = grad_logits
    skip_grads: dict[int, np.ndarray] = {}
    while cache.records:  # popping frees each activation once it is used
        record = cache.records.pop()
        tag = record[0]
        if tag == "concat":
            _, level, up_channels = record
            g, skip_grads[level] = ops.split_channels(g, up_channels)
        elif tag == "pool":
            _, level, idx = record
            g = ops.maxpool2_backward(idx, g) + skip_grads.pop(level)
        else:  # conv, conv_relu or upconv: one parameter layer
            if tag == "conv_relu":
                g = ops.relu_backward(record[2], g)
            if k == 0:  # the image's gradient: nothing reads it
                grads[k].weights[...], grads[k].bias[...] = ops.conv2d_weight_grads(
                    record[1], params[k], g)
                break
            kernel = ops.upconv2_backward if tag == "upconv" else ops.conv2d_backward
            g, grads[k].weights[...], grads[k].bias[...] = kernel(record[1], params[k], g)
            k -= 1
    return grad


def _kink_margin(cache: ActivationCache) -> float:
    """Distance from the nearest non-smooth point of the forward pass.

    Covers the two kink sources: relu pre-activations near 0, and pool
    windows whose top two values nearly tie (which would flip the argmax
    routing under perturbation).
    """
    margin = np.inf
    prev_z = None
    for record in cache.records:
        if record[0] == "conv_relu":
            prev_z = record[2]
            margin = min(margin, float(np.abs(prev_z).min()))
        elif record[0] == "pool":
            pooled_in = ops.relu(prev_z)
            n, c, h, w = pooled_in.shape
            windows = pooled_in.reshape(n, c, h // 2, 2, w // 2, 2)
            windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
            top2 = np.sort(windows, axis=1)[:, -2:]
            gaps = top2[:, 1] - top2[:, 0]
            live = top2[:, 1] > 0  # all-zero windows stay flat under small nudges
            if live.any():
                margin = min(margin, float(gaps[live].min()))
    return margin


def gradient_check(cfg: UNetConfig | None = None, side: int = 8, seed: int = 42,
                   step: float = 1e-5):
    """Finite-difference sweep over every parameter of a small model.

    Builds a seeded model, evaluates loss and analytic gradients in
    float64, and compares against central differences.  The seeded input is
    drawn by deterministic rejection until the forward pass sits at least a
    small margin away from every relu/pool kink, so the comparison happens
    where the loss is actually differentiable; with the margin in place the
    small step cannot cross a kink.  Returns (max relative error, flat
    index of the worst coordinate).
    """
    cfg = cfg or UNetConfig(depth=1, base_channels=2)
    theta = flatten_params(init_params(cfg, seed)).astype(np.float64)
    params = unflatten_params(theta, cfg)
    margin_needed = 200.0 * step
    for attempt in range(500):
        stream = SplitMix64(derive(seed, 0xDA7A, attempt))
        x = stream.normal_array(cfg.in_channels * side * side)
        x = x.reshape(1, cfg.in_channels, side, side)
        y = (stream.f64_array(cfg.out_channels * side * side) < 0.5).astype(np.float64)
        y = y.reshape(1, cfg.out_channels, side, side)
        _, cache = forward(params, x)
        if _kink_margin(cache) >= margin_needed:
            break
    else:
        raise NumericError("no seeded input found with a safe differentiability margin")

    def f(theta):
        ps = unflatten_params(theta, cfg)
        logits, cache = forward(ps, x)
        loss = ops.bce_with_logits(logits, y)
        return loss, backward(ps, cache, ops.bce_with_logits_backward(logits, y))

    errors = ops.finite_diff_errors(f, theta, step)
    worst = int(errors.argmax())
    return float(errors[worst]), worst


# --- checkpoint format -------------------------------------------------------
#
# Little-endian throughout: magic "UNET"; u32 version = 1; u32 depth,
# base_channels, in_channels, out_channels; then each tensor of the canonical
# stream as u32 rank, rank * u32 dims, row-major float32 values.  No padding.

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


def save_checkpoint(params: list[ConvParams], cfg: UNetConfig, path) -> None:
    if config_from_params(params) != cfg:
        raise ShapeError(f"parameters do not match config {cfg}")
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<5I", CHECKPOINT_VERSION, cfg.depth, cfg.base_channels,
                        cfg.in_channels, cfg.out_channels)
    for tensor in (t for p in params for t in (p.weights, p.bias)):
        if any(d >= _MAX_DIM for d in tensor.shape):
            raise CheckpointDimError(f"dimension too large to store: {tensor.shape}")
        blob += struct.pack("<I", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        if self.pos + count > len(self.data):
            raise CheckpointTruncatedError(f"file ends inside {what}")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path):
    """Read a checkpoint; returns (params, cfg). Round trip is bitwise exact.

    Each tensor's dims must be the ones the header's config implies; the
    returned layers are views into one float32 vector.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic = bytes(reader.take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported version {version}")
    header = [reader.u32(f) for f in ("depth", "base_channels", "in_channels", "out_channels")]
    if any(v < 1 or v > 0xFFFF for v in header):
        raise CheckpointDimError(f"config fields out of range: {header}")
    try:
        cfg = UNetConfig(*header)
    except DomainError as exc:
        raise CheckpointDimError(str(exc)) from None
    values = []
    for i, expect in enumerate(shape for pair in param_shapes(cfg) for shape in pair):
        rank = reader.u32(f"tensor {i} rank")
        if rank != len(expect):
            raise CheckpointDimError(f"tensor {i} has rank {rank}, expected {len(expect)}")
        dims = tuple(reader.u32(f"tensor {i} dims") for _ in range(rank))
        if dims != expect:
            raise CheckpointDimError(f"tensor {i} has dims {dims}, expected {expect} "
                                     f"for the declared config")
        values.append(np.frombuffer(reader.take(4 * math.prod(dims), f"tensor {i} data"),
                                    dtype="<f4"))
    if reader.pos != len(reader.data):
        extra = len(reader.data) - reader.pos
        raise CheckpointError(f"{extra} trailing bytes after the last tensor")
    return unflatten_params(np.concatenate(values).astype(np.float32, copy=False), cfg), cfg
