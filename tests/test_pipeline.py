import os
import tracemalloc

import numpy as np
import pytest

from cordseg import data, metrics, ops, pipeline, tiling, unet
from cordseg.errors import DomainError, ShapeError
from cordseg.rng import SplitMix64
from cordseg.unet import UNetConfig


@pytest.fixture(scope="module")
def small_model():
    return unet.init_params(UNetConfig(depth=1, base_channels=2), 42)


def random_frame(seed, h, w):
    rng = SplitMix64(seed)
    return (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)


def window_probabilities(model, frame, tile):
    """The frame's probabilities from each window's own recording forward,
    which allocates its own buffers where predict reuses one workspace."""
    grid = tiling.compute_grid(frame.shape[1], frame.shape[0], tile)
    padded = tiling.pad_image(frame, grid)
    probs = np.empty(padded.shape, np.float32)
    for win in tiling.windows(grid):
        probs[win] = ops.sigmoid(unet.forward(model, data.to_unit(padded[win])[None, None])[0])[0, 0]
    return probs[:frame.shape[0], :frame.shape[1]]


def thresholds(probs):
    """0.3, 0.5 and three of the reference's own values, each also one
    float32 step above itself: a one-ulp drift at those pixels flips a bit."""
    picks = np.sort(probs, axis=None)[[probs.size // 4, probs.size // 2, 3 * probs.size // 4]]
    return [0.3, 0.5, *picks, *np.nextafter(picks, np.float32(1))]


def assert_masks_threshold_the_window_forwards(model, frame, tile, threads):
    probs = window_probabilities(model, frame, tile)
    for t in thresholds(probs):
        mask = pipeline.predict_frame(model, frame, tile_size=tile, threshold=t, threads=threads)
        assert mask.dtype == np.uint8 and mask.shape == frame.shape
        assert mask.tobytes() == metrics.binarize(probs, t).tobytes(), (threads, t)


def test_predict_output_dims_match_input(small_model):
    # neither side a multiple of the tile, then a frame smaller than one tile
    for seed, (h, w) in ((60, (70, 110)), (68, (40, 40))):
        assert_masks_threshold_the_window_forwards(small_model, random_frame(seed, h, w), 64, 1)


def test_predict_threshold_zero_all_foreground(small_model):
    frame = random_frame(62, 40, 40)
    mask = pipeline.predict_frame(small_model, frame, tile_size=32, threshold=0.0, threads=1)
    assert np.all(mask == 1)


def test_predict_thread_count_does_not_change_output(small_model, monkeypatch, cores):
    cores(4)  # threads 4 runs 4 workers on any machine
    frame = random_frame(63, 100, 150)
    for threads in (1, 4):
        assert_masks_threshold_the_window_forwards(small_model, frame, 32, threads)
    monkeypatch.delattr(os, "fork", raising=False)  # every window runs in this process
    assert_masks_threshold_the_window_forwards(small_model, frame, 32, 4)


def test_predict_masks_threshold_the_plain_tile_forwards_bitwise(cores):
    # each worker reuses one workspace across its tiles; the masks must be
    # those of a recording forward, which allocates its own buffers
    cores(3)  # threads 3 runs 3 workers on any machine
    model = unet.init_params(UNetConfig(depth=2, base_channels=4), 43)
    frame = random_frame(66, 90, 130)
    for threads in (1, 2, 3):
        assert_masks_threshold_the_window_forwards(model, frame, 32, threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_holds_under_3_bytes_per_frame_pixel_beside_the_workspaces(threads):
    # the padded uint8 frame and the uint8 mask: about 2.4 B/px; a float32
    # probability map of the frame would break the bound.  This process
    # holds one workspace block, and a helper its own; tracemalloc sees
    # neither a helper nor the mask's shared mapping, so the mask is
    # counted by hand
    model = unet.init_params(UNetConfig(depth=2, base_channels=8), 42)
    frame = random_frame(67, 2000, 2000)
    block = unet._inference_layout(model.cfg, (1, 1, 256, 256), 4).size * 4
    tracemalloc.start()
    try:
        mask = pipeline.predict_frame(model, frame, tile_size=256, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == frame.shape
    held = peak - block + mask.nbytes
    assert held < 3 * frame.size, held / frame.size


def test_predict_rejects_incompatible_tile(small_model, monkeypatch):
    # rejected before any tile is queued, not by the tiles' own forwards
    params = unet.init_params(UNetConfig(depth=3, base_channels=2), 0)
    forwards, forward = [], unet.forward
    monkeypatch.setattr(unet, "forward", lambda *args: forwards.append(args) or forward(*args))
    with pytest.raises(ShapeError) as err:
        pipeline.predict_frame(params, random_frame(64, 32, 32), tile_size=12)
    assert "8" in str(err.value)  # names the required divisor 2^depth
    assert forwards == []


def test_predict_rejects_non_2d_frame(small_model):
    with pytest.raises(ShapeError):
        pipeline.predict_frame(small_model, np.zeros((2, 3, 4), np.uint8), tile_size=32)


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_rejects_probabilities_outside_the_unit_interval(small_model, threads):
    # binarize's range check runs on each window's probabilities in every
    # worker process, and its error reaches the caller instead of a mask
    nan_model = unet.Model(small_model.cfg, np.full_like(small_model.theta, np.nan))
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        pipeline.predict_frame(nan_model, random_frame(69, 40, 70), tile_size=32, threads=threads)


def test_predict_tile_boundaries_do_not_leak(small_model):
    # each window is thresholded on its own, which equals thresholding the
    # frame's probabilities at once, since windows never overlap
    assert_masks_threshold_the_window_forwards(small_model, random_frame(65, 64, 96), 32, 2)
