import numpy as np
import pytest

from cordseg import tiling
from cordseg.errors import DomainError
from cordseg.rng import SplitMix64


def random_frame(rng, h, w):
    return (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)


def starts(wins):
    """The distinct row starts and column starts of a list of windows."""
    return sorted({r.start for r, _ in wins}), sorted({c.start for _, c in wins})


def test_grid_full_frame_geometry():
    wins = tiling.windows(2700, 3840, 256)
    rows, cols = starts(wins)
    assert (len(rows), len(cols)) == (11, 15)
    assert len(wins) == 165
    assert tiling.pad_image(np.zeros((2700, 3840), np.uint8), 256).shape == (2816, 3840)


def test_grid_exact_divisibility_needs_no_padding():
    img = np.zeros((512, 512), np.uint8)
    assert starts(tiling.windows(512, 512, 256)) == ([0, 256], [0, 256])
    assert tiling.pad_image(img, 256).shape == (512, 512)


def test_grid_100x70_tile64():
    assert starts(tiling.windows(70, 100, 64)) == ([0, 64], [0, 64])
    assert tiling.pad_image(np.zeros((70, 100), np.uint8), 64).shape == (128, 128)


def test_grid_rejects_zero_dims():
    with pytest.raises(DomainError, match="must all be positive"):
        tiling.windows(10, 0, 4)
    with pytest.raises(DomainError, match="must all be positive"):
        tiling.windows(10, 10, 0)
    with pytest.raises(DomainError, match="must all be positive"):
        tiling.pad_image(np.zeros((10, 0), np.uint8), 4)
    with pytest.raises(DomainError, match="must all be positive"):
        tiling.pad_image(np.zeros((10, 10), np.uint8), 0)


def test_grid_bracket_arithmetic():
    # each side's tile count is the smallest that covers it; a one-pixel
    # strip along each side keeps the window lists short at tile 1
    rng = SplitMix64(21)
    for _ in range(200):
        w = 1 + rng.randbelow(5000)
        h = 1 + rng.randbelow(5000)
        t = 1 + rng.randbelow(512)
        rows, cols = len(tiling.windows(h, 1, t)), len(tiling.windows(1, w, t))
        assert cols * t >= w and (cols - 1) * t < w
        assert rows * t >= h and (rows - 1) * t < h


def test_pad_returns_unpadded_image_unchanged():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert tiling.pad_image(img, 4) is img


def test_pad_reflects_without_border_repeat():
    # a 5-row image, so that only the width is padded
    img = np.tile(np.array([[1, 2, 3]], np.uint8), (5, 1))
    padded = tiling.pad_image(img, 5)
    assert padded.shape == (5, 5)
    np.testing.assert_array_equal(padded[0], [1, 2, 3, 2, 1])


def test_pad_preserves_original_region():
    rng = SplitMix64(22)
    img = random_frame(rng, 70, 100)
    padded = tiling.pad_image(img, 64)
    assert np.array_equal(padded[:70, :100], img)
    assert padded[:70, :100].mean() == img.mean()


def test_pad_rejects_tile_larger_than_twice_image():
    # a tile of exactly twice the image is rejected too; one pixel more is padded
    for side in (10, 32):
        with pytest.raises(DomainError, match="at least twice"):
            tiling.pad_image(np.zeros((side, side), np.uint8), 64)
    padded = tiling.pad_image(np.zeros((33, 33), np.uint8), 64)
    assert padded.shape == (64, 64)


def through_windows(img, tile):
    """Pad, copy each window of the padded frame into a fresh canvas, crop."""
    padded = tiling.pad_image(img, tile)
    canvas = np.zeros_like(padded)
    for win in tiling.windows(*img.shape, tile):
        canvas[win] = padded[win]
    return canvas[:img.shape[0], :img.shape[1]]


def test_windows_basic_order():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    wins = tiling.windows(4, 4, 2)
    assert len(wins) == 4
    np.testing.assert_array_equal(img[wins[0]], img[:2, :2])
    np.testing.assert_array_equal(img[wins[1]], img[:2, 2:])
    np.testing.assert_array_equal(img[wins[3]], img[2:, 2:])


def test_windows_row_concatenation_rebuilds_strip():
    rng = SplitMix64(23)
    img = random_frame(rng, 6, 9)
    strip = np.concatenate([img[win] for win in tiling.windows(6, 9, 3)[:3]], axis=1)
    np.testing.assert_array_equal(strip, img[:3, :])


def test_windows_written_with_ones_fill_the_frame():
    canvas = np.zeros((4, 6), np.float32)  # 3x5 padded out to tiles of 2
    for win in tiling.windows(3, 5, 2):
        canvas[win] = np.ones((2, 2), np.float32)
    out = canvas[:3, :5]
    assert out.shape == (3, 5)
    assert np.all(out == 1.0)


def test_round_trip_identity_small():
    rng = SplitMix64(24)
    img = random_frame(rng, 70, 100)
    out = through_windows(img, 64)
    assert out.dtype == img.dtype
    assert np.array_equal(out, img)


def test_round_trip_identity_random_geometries():
    rng = SplitMix64(25)
    for _ in range(50):
        h = 1 + rng.randbelow(200)
        w = 1 + rng.randbelow(200)
        t = 1 + rng.randbelow(min(h, w))  # tile <= min dim keeps reflect legal
        img = random_frame(rng, h, w)
        assert np.array_equal(through_windows(img, t), img), (h, w, t)


def test_windows_cover_padded_frame_exactly_once():
    counts = np.zeros((8, 12), np.int64)  # 7x10 padded out to tiles of 4
    wins = tiling.windows(7, 10, 4)
    for win in wins:
        counts[win] += 1  # scatter-count: every window adds ones
    assert np.all(counts == 1)
    assert len(wins) == 2 * 3
    assert sum(counts[win].size for win in wins) == 8 * 12


def test_round_trip_identity_full_frame_scale():
    rng = SplitMix64(26)
    img = random_frame(rng, 2700, 3840)
    wins = tiling.windows(2700, 3840, 256)
    assert len(wins) == 165
    padded = tiling.pad_image(img, 256)
    assert all(padded[win].shape == (256, 256) for win in wins)
    assert np.array_equal(through_windows(img, 256), img)
