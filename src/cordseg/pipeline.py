"""Full-frame segmentation: pad the frame once, segment each tile's window
of it, and threshold each window straight into one uint8 mask.

The windows split into contiguous runs, one per worker, and one
parallel.Helpers.map call runs them: the main process segments the first,
and helpers forked for the call the others, reading the padded frame and
the model inherited at the fork; only runs and errors cross the pipes, and
without os.fork every window runs in the main process.  A tile size the
model cannot pool is rejected before the frame is padded or a helper
forked.  Each process runs its forwards in one unet.Workspace and
thresholds each tile's probabilities into its window of one uint8 mask of
the frame, a shared mapping made before the fork, so the output is the
same for any worker count.  Thresholding is pointwise and windows never
overlap, so tile boundaries cannot shift it.
"""

from __future__ import annotations

import os

import numpy as np

from . import metrics, ops, parallel, tiling, unet
from .data import to_unit
from .errors import ShapeError


def predict_frame(model: unet.Model, frame: np.ndarray,
                  tile_size: int = 256, threshold: float = 0.5,
                  threads: int | None = None) -> np.ndarray:
    """Segment one grayscale frame into a binary uint8 mask of its shape.
    threads caps the tile workers (default: parallel.default_workers());
    there are never more workers than tiles or available cores.  Every
    helper is reaped before this returns, and a helper's error is raised
    here."""
    if frame.ndim != 2:
        raise ShapeError(f"frame must be a 2-D grayscale image, got shape {frame.shape}")
    grid = tiling.compute_grid(frame.shape[1], frame.shape[0], tile_size)
    unet.check_divisible("tile size", (tile_size,), model.cfg.depth)
    padded = tiling.pad_image(frame, grid)
    mask = parallel.shared_array(frame.shape, np.uint8)
    windows = tiling.windows(grid)

    def segment(run: slice) -> None:
        workspace = unet.Workspace()
        for window in windows[run]:
            logits, _ = unet.forward(model, to_unit(padded[window])[None, None], workspace)
            h, w = mask[window].shape  # the window clipped to the frame
            mask[window] = metrics.binarize(ops.sigmoid(logits)[0, 0, :h, :w], threshold)

    workers = min(threads or parallel.default_workers(), parallel.available_cores())
    runs = parallel.runs(len(windows), workers if hasattr(os, "fork") else 1)
    with parallel.Helpers(len(runs) - 1, lambda index, run: segment(run)) as helpers:
        helpers.map(segment, runs)
    return mask
