"""Assemble the U-Net, count its parameters, and round-trip a checkpoint.

The network is configurable in depth (down-sampling stages) and base
channel width, and written down once as a schedule of steps.  A model is
one object: its config, one flat parameter vector in the canonical order
that the optimizer, the gradient checker and the checkpoint file all
share, its schedule, and per-layer views of that vector.
"""

import tempfile
from pathlib import Path

import numpy as np

from cordseg import unet
from cordseg.rng import SplitMix64
from cordseg.unet import UNetConfig

cfg = UNetConfig(depth=2, base_channels=8)
print(f"config: depth={cfg.depth}, base_channels={cfg.base_channels}")
print("the forward's schedule, the one description of the network: each step's")
print("kind, parameter layer and the values it reads (0 is the input, i is step i's")
print("output, counting from 1), beside that layer's canonical plan entry")
print("(kind, in_channels, out_channels, kernel):")
plan = unet.layer_plan(cfg)
for i, step in enumerate(unet.schedule(cfg), start=1):
    layer = "-" if step.layer is None else step.layer
    entry = "" if step.layer is None else plan[step.layer]
    print(f"   step {i:2d}  {step.kind:9s}  layer {layer!s:>2}  reads {step.reads!s:8s}  {entry}".rstrip())

model = unet.init_params(cfg, seed=42)
print(f"\ntotal parameters: {model.theta.size:,}")
tiny = unet.init_params(UNetConfig(depth=1, base_channels=2), seed=0)
print(f"the smallest test model (depth 1, base 2) has exactly "
      f"{tiny.theta.size} parameters")

print("\nsame (config, seed) always reproduces the same weights bit for bit:")
again = unet.init_params(cfg, seed=42)
print("   identical:", all(np.array_equal(a.weights, b.weights)
                           for a, b in zip(model.layers, again.layers)))

x = SplitMix64(7).normal_array(64 * 64).astype(np.float32).reshape(1, 1, 64, 64)
logits, cache = unet.forward(model, x)
print(f"\nforward: input {x.shape} -> logits {logits.shape} "
      f"(same spatial size, thanks to same-padding)")

grad = unet.backward(model, cache, np.ones_like(logits))
print(f"backward returns one flat gradient vector: {grad.size:,} == "
      f"{model.theta.size:,} parameters")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.ckpt"
    unet.save_checkpoint(model, path)
    print(f"\ncheckpoint written: {path.stat().st_size:,} bytes "
          f"(magic {path.read_bytes()[:4]!r})")
    loaded = unet.load_checkpoint(path)
    print("round trip is bitwise exact:",
          loaded.cfg == cfg and np.array_equal(loaded.theta, model.theta))

print("\nfull-model gradient check (every parameter, finite differences):")
err, worst = unet.gradient_check(seed=42)
print(f"   max relative error {err:.2e} (tolerance 1e-3), worst index {worst}")
