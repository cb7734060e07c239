import tracemalloc

import numpy as np
import pytest

from cordseg import data, ops, pipeline, tiling, unet
from cordseg.errors import ShapeError
from cordseg.rng import SplitMix64
from cordseg.unet import UNetConfig


@pytest.fixture(scope="module")
def small_model():
    return unet.init_params(UNetConfig(depth=1, base_channels=2), 42)


def random_frame(seed, h, w):
    rng = SplitMix64(seed)
    return (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)


def test_predict_output_dims_match_input(small_model):
    frame = random_frame(60, 70, 110)
    mask, probs = pipeline.predict_frame(small_model, frame, tile_size=64, threads=1)
    assert mask.shape == (70, 110)
    assert probs.shape == (70, 110)
    assert set(np.unique(mask)) <= {0, 1}


def test_predict_probabilities_in_unit_interval(small_model):
    frame = random_frame(61, 64, 64)
    _, probs = pipeline.predict_frame(small_model, frame, tile_size=32, threads=1)
    assert probs.min() >= 0.0
    assert probs.max() <= 1.0
    assert probs.dtype == np.float32


def test_predict_threshold_zero_all_foreground(small_model):
    frame = random_frame(62, 40, 40)
    mask, _ = pipeline.predict_frame(small_model, frame, tile_size=32, threshold=0.0, threads=1)
    assert np.all(mask == 1)


def test_predict_thread_count_does_not_change_output(small_model):
    frame = random_frame(63, 100, 150)
    mask1, probs1 = pipeline.predict_frame(small_model, frame, tile_size=32, threads=1)
    mask4, probs4 = pipeline.predict_frame(small_model, frame, tile_size=32, threads=4)
    assert np.array_equal(probs1, probs4)
    assert np.array_equal(mask1, mask4)


def test_predict_probabilities_are_the_plain_tile_forwards_bitwise():
    # each worker reuses one workspace across its tiles; the numbers must be
    # those of a recording forward, which allocates its own buffers
    model = unet.init_params(UNetConfig(depth=2, base_channels=4), 43)
    frame = random_frame(66, 90, 130)
    grid = tiling.compute_grid(130, 90, 32)
    padded = tiling.pad_image(frame, grid)
    want = np.zeros(padded.shape, np.float32)
    for win in tiling.windows(grid):
        want[win] = ops.sigmoid(unet.forward(model, data.to_unit(padded[win])[None, None])[0])[0, 0]
    want = want[:90, :130]
    for threads in (1, 2, 3):
        _, probs = pipeline.predict_frame(model, frame, tile_size=32, threads=threads)
        assert probs.tobytes() == want.tobytes(), threads


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_holds_under_8_bytes_per_frame_pixel_beside_the_workspaces(threads):
    # the padded frame, one float32 canvas and the mask: about 5.6 B/px; two
    # more frame-sized copies of the tiles would break the bound
    model = unet.init_params(UNetConfig(depth=2, base_channels=8), 42)
    frame = random_frame(67, 2000, 2000)
    block = unet._inference_layout(model.cfg, (1, 1, 256, 256), 4).size * 4
    tracemalloc.start()
    try:
        out = pipeline.predict_frame(model, frame, tile_size=256, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[1].shape == frame.shape
    assert peak - threads * block < 8 * frame.size, (peak - threads * block) / frame.size


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


def test_predict_tile_boundaries_do_not_leak(small_model):
    # thresholding the cropped canvas equals thresholding per tile, since
    # each tile writes its probabilities into its own window unchanged
    frame = random_frame(65, 64, 96)
    mask, probs = pipeline.predict_frame(small_model, frame, tile_size=32, threads=2)
    assert np.array_equal(mask, (probs >= 0.5).astype(np.uint8))
