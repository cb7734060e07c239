"""Frame geometry: pad a full frame out to a whole number of fixed-size
tiles, and name each tile's window on the padded canvas.

Images and masks are 2-D numpy arrays indexed (row, column); any dtype
works, so the same windows read the padded uint8 frame and write a uint8
mask of the frame, which numpy clips them to.  Windows are non-overlapping,
ordered row-major, and cover the padded canvas exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class TileGrid:
    """Padding and tile-coordinate plan for one frame size."""

    width: int
    height: int
    tile_size: int
    cols: int
    rows: int

    @property
    def padded_width(self) -> int:
        return self.cols * self.tile_size

    @property
    def padded_height(self) -> int:
        return self.rows * self.tile_size

    @property
    def tile_count(self) -> int:
        return self.cols * self.rows


def compute_grid(width: int, height: int, tile_size: int) -> TileGrid:
    """Smallest grid of tile_size squares covering a width x height frame."""
    if width < 1 or height < 1 or tile_size < 1:
        raise DomainError(f"frame {width}x{height} and tile size {tile_size} "
                          f"must all be positive")
    return TileGrid(width, height, tile_size,
                    cols=math.ceil(width / tile_size),
                    rows=math.ceil(height / tile_size))


def pad_image(img: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Reflect-pad the right and bottom edges out to the grid's padded size.

    Reflection mirrors without repeating the border pixel, so a row
    [a, b, c] padded by 2 becomes [a, b, c, b, a]; the original region is
    returned unchanged.
    """
    if img.shape != (grid.height, grid.width):
        raise ShapeError(f"image {img.shape} does not match grid frame "
                         f"{(grid.height, grid.width)}")
    pad_h = grid.padded_height - grid.height
    pad_w = grid.padded_width - grid.width
    if pad_h == 0 and pad_w == 0:
        return img
    if pad_h >= grid.height or pad_w >= grid.width:
        raise DomainError(f"padding {(pad_h, pad_w)} meets or exceeds the image "
                          f"size {(grid.height, grid.width)}; the tile is at least "
                          f"twice the image")
    return np.pad(img, ((0, pad_h), (0, pad_w)), mode="reflect")


def windows(grid: TileGrid) -> list[tuple[slice, slice]]:
    """Each tile's (rows, cols) slices of the padded canvas, row-major."""
    t = grid.tile_size
    return [(slice(r * t, (r + 1) * t), slice(c * t, (c + 1) * t))
            for r in range(grid.rows) for c in range(grid.cols)]
