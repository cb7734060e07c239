"""Train a small model on synthetic cords and score it.

This is a scaled-down version of the full benchmark (which uses 94 samples
at 64x64, depth 2, base 8, 50 epochs): enough to watch the loss fall and
the IoU climb in under a minute.
"""

from cordseg import data, metrics, training, unet
from cordseg.training import TrainConfig
from cordseg.unet import UNetConfig

samples = data.gen_synthetic(count=30, size=32, seed=3)
cfg = TrainConfig(epochs=12, seed=42, batch_size=4, learning_rate=3e-3)
net_cfg = UNetConfig(depth=1, base_channels=8)

train_set, test_set = training.split_dataset(samples, cfg.split_ratio, cfg.seed)
print(f"dataset: {len(samples)} samples -> train={len(train_set)} test={len(test_set)}")
print(f"model: depth={net_cfg.depth} base={net_cfg.base_channels} "
      f"({unet.init_params(net_cfg, 0).theta.size:,} parameters)\n")

model, history = training.train(cfg, samples, net_cfg)
for r in history:
    bar = "#" * int(40 * r.test.mean_iou)
    print(f"epoch {r.epoch:2d}  loss={r.train_loss:.4f}  iou={r.test.mean_iou:.3f} {bar}")

report = training.evaluate(model, test_set, threshold=0.5)
print("\nheld-out metrics (per-image mean IoU, pooled pixel accuracy):")
print("   " + metrics.report_line(report.mean_iou, report.pixel_accuracy, report.counts))
print(f"   pooled IoU for comparison: {report.pooled_iou:.6f}")

print("\nrerunning with the same seeds reproduces the history exactly:")
_, again = training.train(cfg, samples, net_cfg)
print("   identical:", history == again)
