import numpy as np
import pytest

from cordseg import tiling
from cordseg.errors import DomainError
from cordseg.rng import SplitMix64


def random_frame(rng, h, w):
    return (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)


def test_grid_full_frame_geometry():
    grid = tiling.compute_grid(3840, 2700, 256)
    assert (grid.cols, grid.rows) == (15, 11)
    assert grid.tile_count == 165
    assert (grid.padded_width, grid.padded_height) == (3840, 2816)


def test_grid_exact_divisibility_needs_no_padding():
    grid = tiling.compute_grid(512, 512, 256)
    assert (grid.cols, grid.rows) == (2, 2)
    assert (grid.padded_width, grid.padded_height) == (512, 512)


def test_grid_100x70_tile64():
    grid = tiling.compute_grid(100, 70, 64)
    assert (grid.cols, grid.rows) == (2, 2)
    assert (grid.padded_width, grid.padded_height) == (128, 128)


def test_grid_rejects_zero_dims():
    with pytest.raises(DomainError):
        tiling.compute_grid(0, 10, 4)
    with pytest.raises(DomainError):
        tiling.compute_grid(10, 10, 0)


def test_grid_bracket_arithmetic():
    rng = SplitMix64(21)
    for _ in range(200):
        w = 1 + rng.randbelow(5000)
        h = 1 + rng.randbelow(5000)
        t = 1 + rng.randbelow(512)
        g = tiling.compute_grid(w, h, t)
        assert g.cols * t >= w and (g.cols - 1) * t < w
        assert g.rows * t >= h and (g.rows - 1) * t < h


def test_pad_returns_unpadded_image_unchanged():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    grid = tiling.compute_grid(8, 8, 4)
    assert tiling.pad_image(img, grid) is img


def test_pad_reflects_without_border_repeat():
    img = np.array([[1, 2, 3]], np.uint8)
    grid = tiling.TileGrid(width=3, height=1, tile_size=5, cols=1, rows=1)
    # height padding would exceed the 1-pixel height; test width-only via a taller image
    img = np.tile(np.array([[1, 2, 3]], np.uint8), (5, 1))
    grid = tiling.compute_grid(3, 5, 5)
    padded = tiling.pad_image(img, grid)
    assert padded.shape == (5, 5)
    np.testing.assert_array_equal(padded[0], [1, 2, 3, 2, 1])


def test_pad_preserves_original_region():
    rng = SplitMix64(22)
    img = random_frame(rng, 70, 100)
    grid = tiling.compute_grid(100, 70, 64)
    padded = tiling.pad_image(img, grid)
    assert np.array_equal(padded[:70, :100], img)
    assert padded[:70, :100].mean() == img.mean()


def test_pad_rejects_tile_larger_than_twice_image():
    # a tile of exactly twice the image is rejected too; one pixel more is padded
    for side in (10, 32):
        grid = tiling.compute_grid(side, side, 64)
        with pytest.raises(DomainError, match="at least twice"):
            tiling.pad_image(np.zeros((side, side), np.uint8), grid)
    padded = tiling.pad_image(np.zeros((33, 33), np.uint8), tiling.compute_grid(33, 33, 64))
    assert padded.shape == (64, 64)


def through_windows(img, grid):
    """Pad, copy each window of the padded frame into a fresh canvas, crop."""
    padded = tiling.pad_image(img, grid)
    canvas = np.zeros_like(padded)
    for win in tiling.windows(grid):
        canvas[win] = padded[win]
    return canvas[:grid.height, :grid.width]


def test_windows_basic_order():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    grid = tiling.compute_grid(4, 4, 2)
    wins = tiling.windows(grid)
    assert len(wins) == 4
    np.testing.assert_array_equal(img[wins[0]], img[:2, :2])
    np.testing.assert_array_equal(img[wins[1]], img[:2, 2:])
    np.testing.assert_array_equal(img[wins[3]], img[2:, 2:])


def test_windows_row_concatenation_rebuilds_strip():
    rng = SplitMix64(23)
    img = random_frame(rng, 6, 9)
    grid = tiling.compute_grid(9, 6, 3)
    strip = np.concatenate([img[win] for win in tiling.windows(grid)[:grid.cols]], axis=1)
    np.testing.assert_array_equal(strip, img[:3, :])


def test_windows_written_with_ones_fill_the_frame():
    grid = tiling.compute_grid(5, 3, 2)
    canvas = np.zeros((grid.padded_height, grid.padded_width), np.float32)
    for win in tiling.windows(grid):
        canvas[win] = np.ones((2, 2), np.float32)
    out = canvas[:grid.height, :grid.width]
    assert out.shape == (3, 5)
    assert np.all(out == 1.0)


def test_round_trip_identity_small():
    rng = SplitMix64(24)
    img = random_frame(rng, 70, 100)
    grid = tiling.compute_grid(100, 70, 64)
    out = through_windows(img, grid)
    assert out.dtype == img.dtype
    assert np.array_equal(out, img)


def test_round_trip_identity_random_geometries():
    rng = SplitMix64(25)
    for _ in range(50):
        h = 1 + rng.randbelow(200)
        w = 1 + rng.randbelow(200)
        t = 1 + rng.randbelow(min(h, w))  # tile <= min dim keeps reflect legal
        img = random_frame(rng, h, w)
        grid = tiling.compute_grid(w, h, t)
        assert np.array_equal(through_windows(img, grid), img), (h, w, t)


def test_windows_cover_padded_frame_exactly_once():
    grid = tiling.compute_grid(10, 7, 4)
    counts = np.zeros((grid.padded_height, grid.padded_width), np.int64)
    wins = tiling.windows(grid)
    for win in wins:
        counts[win] += 1  # scatter-count: every window adds ones
    assert np.all(counts == 1)
    assert len(wins) == grid.tile_count
    assert sum(counts[win].size for win in wins) == grid.padded_height * grid.padded_width


def test_round_trip_identity_full_frame_scale():
    rng = SplitMix64(26)
    img = random_frame(rng, 2700, 3840)
    grid = tiling.compute_grid(3840, 2700, 256)
    wins = tiling.windows(grid)
    assert len(wins) == 165
    padded = tiling.pad_image(img, grid)
    assert all(padded[win].shape == (256, 256) for win in wins)
    assert np.array_equal(through_windows(img, grid), img)
