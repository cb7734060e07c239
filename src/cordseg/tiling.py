"""Frame geometry: pad a full frame out to a whole number of fixed-size
tiles, and name each tile's window on the padded canvas.

Both take the frame's shape and the tile side as they are: the canvas is
ceil(height / tile) x ceil(width / tile) tiles.  Images and masks are 2-D
numpy arrays indexed (row, column); any dtype works, so the same windows
read the padded uint8 frame and write a uint8 mask of the frame, which
numpy clips them to.  Windows are non-overlapping, ordered row-major, and
cover the padded canvas exactly once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_positive(height: int, width: int, tile: int) -> None:
    if height < 1 or width < 1 or tile < 1:
        raise DomainError(f"frame {width}x{height} and tile size {tile} "
                          f"must all be positive")


def pad_image(img: np.ndarray, tile: int) -> np.ndarray:
    """Reflect-pad the right and bottom edges of a 2-D image out to whole tiles.

    Reflection mirrors without repeating the border pixel, so a row
    [a, b, c] padded by 2 becomes [a, b, c, b, a]; the original region is
    returned unchanged.
    """
    height, width = img.shape
    _check_positive(height, width, tile)
    pad_h, pad_w = -height % tile, -width % tile
    if pad_h == 0 and pad_w == 0:
        return img
    if pad_h >= height or pad_w >= width:
        raise DomainError(f"padding {(pad_h, pad_w)} meets or exceeds the image "
                          f"size {(height, width)}; the tile is at least "
                          f"twice the image")
    return np.pad(img, ((0, pad_h), (0, pad_w)), mode="reflect")


def windows(height: int, width: int, tile: int) -> list[tuple[slice, slice]]:
    """Each tile's (rows, cols) slices of a height x width frame's padded
    canvas, row-major."""
    _check_positive(height, width, tile)
    return [(slice(r, r + tile), slice(c, c + tile))
            for r in range(0, height, tile) for c in range(0, width, tile)]
