"""The end-to-end geometry: a frame bigger than one tile goes through
pad -> per-tile inference -> each tile's window thresholded into one uint8
mask of the frame's shape.

A quick model is trained on 64x64 synthetic tiles, then asked to segment a
250x190 frame it has never seen.  The frame is not divisible by the tile
size, so the right and bottom edges get reflect-padded, and each window
that crosses them writes only its part inside the frame, so the mask has
exactly the input dimensions.
"""

import numpy as np

from cordseg import data, metrics, pipeline, tiling, training
from cordseg.training import TrainConfig
from cordseg.unet import UNetConfig

print("training a quick tile model on synthetic cords...")
samples = data.gen_synthetic(count=24, size=64, seed=5)
model, history = training.train(
    TrainConfig(epochs=10, seed=42, batch_size=2, learning_rate=3e-3),
    samples, UNetConfig(depth=1, base_channels=8))
print(f"   after {len(history)} epochs: tile-level test IoU {history[-1].test.mean_iou:.3f}")

# build a larger frame (and its truth) from a fresh generator draw
big = data.gen_synthetic(count=1, size=256, seed=99)[0]
frame = big.image[:250, :190]
truth = big.mask[:250, :190]
print(f"\nframe: {frame.shape[1]}x{frame.shape[0]} pixels")

padded = tiling.pad_image(frame, 64)
print(f"tiles: {len(tiling.windows(*frame.shape, 64))} of 64, "
      f"the frame reflect-padded to {padded.shape[1]}x{padded.shape[0]}")

mask = pipeline.predict_frame(model, frame, tile_size=64, threads=2)
print(f"predicted mask: {mask.shape[1]}x{mask.shape[0]} "
      f"(equals the input exactly: {mask.shape == frame.shape})")

counts = metrics.confusion(mask, truth)
print("\nscore against the generator's truth:")
print("   " + metrics.report_line(metrics.iou(counts), metrics.pixel_accuracy(counts), counts))

single = pipeline.predict_frame(model, frame, tile_size=64, threads=1)
print("\nworker count never changes the output:",
      bool(np.array_equal(mask, single)))

print("\npredicted foreground (downsampled ASCII, frame left half):")
for row in mask[::10, :96:2]:
    print("   ", "".join("#" if v else "." for v in row))
