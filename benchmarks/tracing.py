"""Span tracing of the cordseg layers from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span.  This reaches every call the package makes,
because the modules call each other through module attributes
(`ops.conv2d`, `unet.forward`, ...), and a module's own functions look each
other up in the same namespace.  Nothing under src/ changes; `uninstall`
puts the originals back.

A span holds its name, start, end, parent span and thread.  Each thread
keeps its own span stack; a span opened on a pool thread with an empty
stack takes the open `pipeline.predict_frame` span as its parent.  Spans
stay in memory until `write_chrome_trace` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("ops", "unet", "training", "tiling", "data", "metrics", "pipeline", "cli")
POOL_ANCHOR = "pipeline.predict_frame"
GEMM_KERNELS = ("conv2d", "conv2d_backward", "upconv2", "upconv2_backward")
OPS_KERNELS = ("conv2d", "conv2d_backward", "maxpool2", "maxpool2_backward",
               "upconv2", "upconv2_backward", "relu", "relu_backward", "sigmoid",
               "bce_with_logits", "bce_with_logits_backward", "concat_channels",
               "split_channels")


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "info", "self_s")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.info = None
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- what each traced call records besides its span ---------------------------
#
# A GEMM shape is (m, k, n) for an (m, k) @ (k, n) product.  The conv shapes
# are the products the im2col kernels run; the upconv shapes are the same
# products written as matmuls.

def _conv_gemms(args, _result):
    x, p = args[0], args[1]
    n, _, h, w = x.shape
    oc, ic, kh, kw = p.weights.shape
    return {"gemms": [(n * h * w, ic * kh * kw, oc)], "shape": (n, ic, oc, h, w, kh)}


def _conv_backward_gemms(args, _result):
    x, p = args[0], args[1]
    n, _, h, w = x.shape
    oc, ic, kh, kw = p.weights.shape
    m = n * h * w
    return {"gemms": [(oc, m, ic * kh * kw), (m, oc * kh * kw, ic)],
            "shape": (n, ic, oc, h, w, kh)}


def _upconv_gemms(args, _result):
    x, p = args[0], args[1]
    n, ic, h, w = x.shape
    oc = p.weights.shape[1]
    return {"gemms": [(n * h * w, ic, 4 * oc)], "shape": (n, ic, oc, h, w, 2)}


def _upconv_backward_gemms(args, _result):
    x, p = args[0], args[1]
    n, ic, h, w = x.shape
    oc = p.weights.shape[1]
    m = n * h * w
    return {"gemms": [(m, 4 * oc, ic), (ic, m, 4 * oc)], "shape": (n, ic, oc, h, w, 2)}


def _cache_bytes(_args, result):
    seen, total = set(), 0
    for record in result[1].records:
        for item in record:
            if isinstance(item, np.ndarray) and id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
    return {"cache_bytes": total}


def _grid(args, _result):
    grid = args[1]
    return {"tiles": grid.tile_count, "tile": grid.tile_size,
            "frame_px": grid.width * grid.height}


def _pixels(_args, result):
    return {"pixels": int(result.size)}


DESCRIBE = {
    "ops.conv2d": _conv_gemms,
    "ops.conv2d_backward": _conv_backward_gemms,
    "ops.upconv2": _upconv_gemms,
    "ops.upconv2_backward": _upconv_backward_gemms,
    "unet.forward": _cache_bytes,
    "tiling.split_image": _grid,
    "data.load_grayscale": _pixels,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._anchor: Span | None = None
        self._patched = []

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            thread = threading.get_ident()
            parent = stack[-1] if stack else (self._anchor if thread != self._main else None)
            span = Span(name, parent, thread)
            self.spans.append(span)
            stack.append(span)
            if name == POOL_ANCHOR:
                self._anchor = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span is self._anchor:
                    self._anchor = None
            if describe is not None:
                span.info = describe(args, result)
            return result
        return traced

    def install(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, DESCRIBE.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write_chrome_trace(self, path) -> None:
        """All spans as Chrome trace events (load in chrome://tracing or Perfetto)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 1, "tid": s.thread,
                   "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                   "args": {"id": index[id(s)],
                            "parent": index.get(id(s.parent)),
                            "self_us": s.self_s * 1e6}}
                  for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def assign_self_times(spans) -> None:
    """Self time = duration minus the union of the children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    for s in spans:
        s.self_s = s.duration - _covered(children[id(s)], s.start, s.end)


def gemm_seconds(shapes, repeats: int = 3) -> dict:
    """Median time of a bare float32 np.matmul for each (m, k, n) shape."""
    times = {}
    for m, k, n in sorted(set(shapes)):
        a = np.full((m, k), 0.5, dtype=np.float32)
        b = np.full((k, n), 0.25, dtype=np.float32)
        np.matmul(a, b)
        runs = []
        for _ in range(repeats):
            started = time.perf_counter()
            np.matmul(a, b)
            runs.append(time.perf_counter() - started)
        times[(m, k, n)] = statistics.median(runs)
        del a, b
    return times


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, (100 * (count - 10)) // count) if count else 50


def percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), pct))


def layer_metrics(tracer: Tracer, pool_threads: int, untraced_wall: float):
    """Per-layer metrics from one traced command.

    Returns (metrics as name -> (value, unit), per-shape GEMM table rows,
    per-span-name (name, calls, inclusive s, self s) rows, tile count).
    """
    spans = tracer.spans
    assign_self_times(spans)
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += s.self_s
    out = {}

    for k in OPS_KERNELS:
        out[f"ops.{k}.calls"] = (calls[f"ops.{k}"], "count")
        out[f"ops.{k}.self_s"] = (own[f"ops.{k}"], "s")

    ceilings = gemm_seconds(g for s in spans
                            if s.name in {f"ops.{k}" for k in GEMM_KERNELS}
                            for g in s.info["gemms"])
    rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "gemm_s": 0.0, "flop": 0})
    for s in spans:
        kernel = s.name.split(".", 1)[-1]
        if not s.name.startswith("ops.") or kernel not in GEMM_KERNELS:
            continue
        row = rows[(kernel, s.info["shape"])]
        row["calls"] += 1
        row["self_s"] += s.self_s
        row["gemm_s"] += sum(ceilings[g] for g in s.info["gemms"])
        row["flop"] += sum(2 * m * k * n for m, k, n in s.info["gemms"])
    for k in GEMM_KERNELS:
        mine = [r for (kernel, _), r in rows.items() if kernel == k]
        flop = sum(r["flop"] for r in mine)
        busy = own[f"ops.{k}"]
        out[f"ops.{k}.gflop"] = (flop / 1e9, "GFLOP")
        out[f"ops.{k}.gflops"] = (flop / 1e9 / busy if busy else 0.0, "GFLOP/s")
        out[f"ops.{k}.gemm_frac"] = (sum(r["gemm_s"] for r in mine) / busy if busy else 0.0,
                                     "frac")

    forwards = [s for s in spans if s.name == "unet.forward"]
    out["unet.forward.calls"] = (calls["unet.forward"], "count")
    out["unet.forward.self_s"] = (own["unet.forward"], "s")
    out["unet.backward.self_s"] = (own["unet.backward"], "s")
    out["unet.config_from_params.s"] = (total["unet.config_from_params"], "s")
    out["unet.cache_mb"] = (max((s.info["cache_bytes"] for s in forwards), default=0) / 2**20,
                            "MB")

    out["training.adam_step.self_s"] = (own["training.adam_step"], "s")
    out["training.evaluate.calls"] = (calls["training.evaluate"], "count")
    out["training.evaluate.s"] = (total["training.evaluate"], "s")
    out["training.dihedral_augment.s"] = (total["training.dihedral_augment"], "s")
    out["training.train.self_s"] = (own["training.train"], "s")

    grids = [s.info for s in spans if s.name == "tiling.split_image"]
    run_px = sum(g["tiles"] * g["tile"] ** 2 for g in grids)
    for name in ("pad_image", "split_image", "stitch"):
        out[f"tiling.{name}.s"] = (total[f"tiling.{name}"], "s")
    out["tiling.tiles"] = (sum(g["tiles"] for g in grids), "count")
    out["tiling.useful_frac"] = (sum(g["frame_px"] for g in grids) / run_px if run_px else 0.0,
                                 "frac")

    loads = total["data.load_grayscale"]
    pixels = sum(s.info["pixels"] for s in spans if s.name == "data.load_grayscale")
    out["data.load_grayscale.s"] = (loads, "s")
    out["data.load_grayscale.mpix_per_s"] = (pixels / 1e6 / loads if loads else 0.0, "Mpx/s")
    out["data.save_mask.s"] = (total["data.save_mask"], "s")
    out["data.load_dataset.s"] = (total["data.load_dataset"], "s")

    out["metrics.binarize.s"] = (total["metrics.binarize"], "s")
    out["metrics.confusion.s"] = (total["metrics.confusion"], "s")

    frames = [s for s in spans if s.name == POOL_ANCHOR]
    in_frame = [s for s in spans if s.parent is not None and s.parent.name == POOL_ANCHOR]
    tile_ms = [s.duration * 1e3 for s in in_frame if s.name == "unet.forward"]
    busy = sum(s.duration for s in in_frame if s.name in ("unet.forward", "ops.sigmoid"))
    frame_s = sum(s.duration for s in frames)
    out["pipeline.predict_frame.s"] = (frame_s, "s")
    out["pipeline.tile_ms.p50"] = (percentile(tile_ms, 50), "ms")
    out["pipeline.tile_ms.tail"] = (percentile(tile_ms, tail_percentile(len(tile_ms))), "ms")
    out["pipeline.pool_util"] = (busy / (frame_s * pool_threads) if frame_s else 0.0, "frac")

    out["cli.train.self_s"] = (own["cli.run_train"], "s")
    out["cli.predict.self_s"] = (own["cli.run_predict"], "s")

    wall = total["cli.main"]
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - untraced_wall, "s")
    out["trace.coverage"] = (sum(s.self_s for s in spans) / wall if wall else 0.0, "frac")

    table = []
    for (kernel, shape), r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        table.append({"kernel": kernel, "shape": shape, "calls": r["calls"],
                      "ms_per_call": r["self_s"] / r["calls"] * 1e3,
                      "gemm_ms_per_call": r["gemm_s"] / r["calls"] * 1e3,
                      "gflops": r["flop"] / 1e9 / r["self_s"] if r["self_s"] else 0.0,
                      "gemm_frac": r["gemm_s"] / r["self_s"] if r["self_s"] else 0.0})
    layers = sorted(((name, calls[name], total[name], own[name])
                     for name in calls if calls[name]), key=lambda row: -row[3])
    return out, table, layers, len(tile_ms)
