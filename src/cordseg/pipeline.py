"""Full-frame segmentation: pad the frame once, segment each tile's window
of it, and threshold each window straight into one uint8 mask.

The windows split into contiguous runs, one per worker, and one call of
the map_tasks that a parallel.helpers block yields runs them: the main
process segments the first, and helpers forked for the block the others,
reading the padded frame and the model inherited at the fork; only runs
and errors cross the pipes.  parallel.workers sets the worker count, one
without os.fork, so that every window runs in the main process.  A tile
size the model cannot pool is rejected before any window is listed, and a
worker count below one before the frame is padded or a helper forked.
Each process runs its forwards in one unet.Workspace and thresholds each
tile's probabilities into its window of one uint8 mask of the frame, a
shared mapping made before the fork, so the output is the same for any
worker count.  Thresholding is pointwise and windows never overlap, so
tile boundaries cannot shift it.
"""

from __future__ import annotations

import numpy as np

from . import metrics, ops, parallel, tiling, unet
from .data import to_unit
from .errors import ShapeError


def predict_frame(model: unet.Model, frame: np.ndarray,
                  tile_size: int = 256, threshold: float = 0.5,
                  threads: int | None = None) -> np.ndarray:
    """Segment one grayscale frame into a binary uint8 mask of its shape.
    threads is the tile workers' count, parallel.workers(threads): by
    default one per core the user's BLAS count leaves, DomainError below
    one; there are never more workers than tiles or available cores.
    Every helper is reaped before this returns, and a helper's error is
    raised here."""
    if frame.ndim != 2:
        raise ShapeError(f"frame must be a 2-D grayscale image, got shape {frame.shape}")
    unet.check_divisible("tile size", (tile_size,), model.cfg.depth)
    windows = tiling.windows(*frame.shape, tile_size)
    runs = parallel.runs(len(windows), parallel.workers(threads))
    padded = tiling.pad_image(frame, tile_size)
    mask = parallel.shared_array(frame.shape, np.uint8)

    def segment(run: slice) -> None:
        workspace = unet.Workspace()
        for window in windows[run]:
            logits, _ = unet.forward(model, to_unit(padded[window])[None, None], workspace)
            h, w = mask[window].shape  # the window clipped to the frame
            mask[window] = metrics.binarize(ops.sigmoid(logits)[0, 0, :h, :w], threshold)

    with parallel.helpers(len(runs) - 1, lambda index, run: segment(run)) as map_tasks:
        map_tasks(segment, runs)
    return mask
