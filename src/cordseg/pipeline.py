"""Full-frame segmentation: pad the frame once, segment each tile's window
of it, and threshold each window straight into one uint8 mask.

Tiles are independent, so per-tile inference fans out over a thread pool,
with OpenBLAS given its share of the cores (see parallel.py).  A tile size
the model cannot pool is rejected before the frame is padded: the pool
would otherwise run every queued tile before the first failure surfaced.
Each worker runs its tiles' forwards in its own unet.Workspace, as every
inference pass runs, and thresholds each tile's probabilities into its
window of one uint8 mask of the frame, allocated before the pool starts,
which makes the output identical for any worker count.  Thresholding is
pointwise and windows never overlap, so tile boundaries cannot shift it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, ops, parallel, tiling, unet
from .data import to_unit
from .errors import ShapeError


def predict_frame(model: unet.Model, frame: np.ndarray,
                  tile_size: int = 256, threshold: float = 0.5,
                  threads: int | None = None) -> np.ndarray:
    """Segment one grayscale frame into a binary uint8 mask of its shape.
    threads caps the tile workers (default: parallel.default_workers());
    there are never more workers than tiles."""
    if frame.ndim != 2:
        raise ShapeError(f"frame must be a 2-D grayscale image, got shape {frame.shape}")
    grid = tiling.compute_grid(frame.shape[1], frame.shape[0], tile_size)
    unet.check_divisible("tile size", (tile_size,), model.cfg.depth)
    padded = tiling.pad_image(frame, grid)
    mask = np.empty(frame.shape, np.uint8)
    windows = tiling.windows(grid)
    worker = threading.local()  # each pool thread's own workspace

    def segment(window) -> None:
        if not hasattr(worker, "workspace"):
            worker.workspace = unet.Workspace()
        logits, _ = unet.forward(model, to_unit(padded[window])[None, None], worker.workspace)
        h, w = mask[window].shape  # the window clipped to the frame
        mask[window] = metrics.binarize(ops.sigmoid(logits)[0, 0, :h, :w], threshold)

    workers = min(parallel.default_workers() if threads is None else threads, len(windows))
    with parallel.share_cores(workers), ThreadPoolExecutor(workers) as pool:
        list(pool.map(segment, windows))  # reads every result, so raises any error
    return mask
