"""Seeded dataset splitting, dihedral augmentation, Adam, the epoch loop,
and evaluation.

Training is bit-reproducible: the split, the per-epoch shuffles, and the
augmentation draws all come from splitmix64 streams derived from the
configured seed, and every reduction runs in a fixed order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import metrics, ops, unet
from .data import Sample, to_unit
from .errors import DomainError, NumericError, ShapeError
from .metrics import ConfusionCounts
from .rng import SplitMix64, derive

# Adam's moment decays and denominator guard, as Kingma & Ba 2015 fix them
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# samples per evaluation forward pass; bounds evaluation memory
_EVAL_BATCH = 8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 4
    seed: int = 42
    split_ratio: float = 0.8
    augment: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.split_ratio < 1.0:
            raise DomainError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_iou: float
    test_pixel_acc: float
    test_counts: ConfusionCounts | None = None   # pooled held-out confusion counts


@dataclass(frozen=True)
class EvalReport:
    mean_iou: float          # mean of per-image IoU (headline number)
    pooled_iou: float        # IoU of the pooled confusion counts
    pixel_accuracy: float    # corpus-level: total correct / total pixels
    counts: ConfusionCounts


def split_dataset(samples: list, ratio: float, seed: int):
    """Seeded Fisher-Yates shuffle, then split at floor(ratio * N).

    The two parts are disjoint, exhaustive, and deterministic per seed.
    """
    if not samples:
        raise DomainError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"split ratio must be in (0, 1), got {ratio}")
    order = SplitMix64(derive(seed, 0x5B17)).permutation(len(samples))
    cut = int(ratio * len(samples))
    train = [samples[i] for i in order[:cut]]
    test = [samples[i] for i in order[cut:]]
    return train, test


def apply_dihedral(arr: np.ndarray, k: int) -> np.ndarray:
    """Apply the k-th of the 8 square symmetries (4 rotations x optional flip)."""
    if not 0 <= k < 8:
        raise DomainError(f"transform index must be in 0..7, got {k}")
    rotation = k & 3
    if rotation % 2 and arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"rotation of a non-square {arr.shape} tile")
    out = np.rot90(arr, rotation)
    if k & 4:
        out = out[:, ::-1]
    return np.ascontiguousarray(out)


def dihedral_augment(image: np.ndarray, mask: np.ndarray, rng: SplitMix64):
    """Apply one transform, drawn uniformly from rng, to an (image, mask) pair."""
    k = rng.randbelow(8)
    return apply_dihedral(image, k), apply_dihedral(mask, k)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of theta, state.m, state.v and state.t in
    place, so per-layer views of theta see it; a rejected grad changes nothing."""
    if not theta.shape == grad.shape == state.m.shape:
        raise ShapeError(f"gradient {grad.shape} and moments {state.m.shape} do not "
                         f"match parameters {theta.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient; aborting the update step")
    state.t += 1
    bias1 = 1.0 - _BETA1 ** state.t
    bias2 = 1.0 - _BETA2 ** state.t
    state.m *= _BETA1
    state.m += (1.0 - _BETA1) * grad
    state.v *= _BETA2
    state.v += (1.0 - _BETA2) * np.square(grad)
    # lr * (m / bias1) / (sqrt(v / bias2) + eps), in two scratch vectors
    step = state.m / bias1
    step *= cfg.learning_rate
    denom = state.v / bias2
    np.sqrt(denom, out=denom)
    denom += _EPS
    step /= denom
    theta -= step


def _one_size(samples: list[Sample]) -> tuple[int, int]:
    """The (height, width) that every image and mask shares, so batches stack."""
    sizes = {s.image.shape for s in samples} | {s.mask.shape for s in samples}
    if len(sizes) != 1:
        raise ShapeError(f"images and masks must all share one size, got {sorted(sizes)}")
    return sizes.pop()


def _batch_arrays(samples: list[Sample]):
    x = np.stack([to_unit(s.image) for s in samples])[:, None]
    y = np.stack([s.mask.astype(np.float32) for s in samples])[:, None]
    return x, y


def evaluate(model: unet.Model, samples: list[Sample],
             threshold: float = 0.5) -> EvalReport:
    """Forward (in one workspace) + sigmoid + binarize every sample, all of
    one size, and score against truth; a partial last batch re-plans the
    workspace."""
    if not samples:
        raise DomainError("cannot evaluate on an empty sample list")
    _one_size(samples)
    per_image = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    workspace = unet.Workspace()
    for start in range(0, len(samples), _EVAL_BATCH):
        chunk = samples[start:start + _EVAL_BATCH]
        x, _ = _batch_arrays(chunk)
        logits, _ = unet.forward(model, x, workspace)
        probs = ops.sigmoid(logits)
        for i, s in enumerate(chunk):
            pred = metrics.binarize(probs[i, 0], threshold)
            counts = metrics.confusion(pred, s.mask)
            per_image.append(metrics.iou(counts))
            pooled = pooled + counts
    return EvalReport(
        mean_iou=float(np.mean(per_image)),
        pooled_iou=metrics.iou(pooled),
        pixel_accuracy=metrics.pixel_accuracy(pooled),
        counts=pooled,
    )


def _check_tiles(samples: list[Sample], depth: int) -> None:
    h, w = _one_size(samples)
    if h != w:
        raise ShapeError(f"tiles must be square, got {h}x{w}")
    unet.check_divisible("tile side", (h,), depth)


def train(cfg: TrainConfig, samples: list[Sample], net_cfg: unet.UNetConfig,
          on_epoch: Callable[[EpochRecord], None] | None = None):
    """Full training run; returns (model, per-epoch history).

    Per epoch: seeded reshuffle, batches of batch_size with the last partial
    batch kept, optional per-sample dihedral augmentation, forward, BCE,
    backward to one flat gradient, Adam in place on model.theta, which the
    layers view; then an evaluation pass over the held-out split, whose
    record goes to on_epoch as soon as it is made.
    Deterministic for a fixed (cfg, samples, net_cfg).
    """
    if not samples:
        raise DomainError("cannot train on an empty dataset")
    _check_tiles(samples, net_cfg.depth)
    train_set, test_set = split_dataset(samples, cfg.split_ratio, cfg.seed)
    model = unet.init_params(net_cfg, cfg.seed)
    history: list[EpochRecord] = []
    if cfg.epochs == 0:
        return model, history
    if not train_set:
        raise DomainError(f"training split is empty for ratio {cfg.split_ratio} "
                          f"over {len(samples)} samples")
    state = AdamState.zeros(model.theta)
    for epoch in range(1, cfg.epochs + 1):
        stream = SplitMix64(derive(cfg.seed, 0xE90C, epoch))
        order = stream.permutation(len(train_set))
        loss_sum = 0.0
        seen = 0
        for start in range(0, len(order), cfg.batch_size):
            picked = [train_set[i] for i in order[start:start + cfg.batch_size]]
            if cfg.augment:
                picked = [Sample(s.name, *dihedral_augment(s.image, s.mask, stream))
                          for s in picked]
            x, y = _batch_arrays(picked)
            logits, cache = unet.forward(model, x)
            loss = ops.bce_with_logits(logits, y)
            grad_logits = ops.bce_with_logits_backward(logits, y)
            adam_step(model.theta, unet.backward(model, cache, grad_logits), state, cfg)
            loss_sum += loss * len(picked)
            seen += len(picked)
        report = evaluate(model, test_set)
        history.append(EpochRecord(epoch, loss_sum / seen, report.mean_iou,
                                   report.pixel_accuracy, report.counts))
        if on_epoch is not None:
            on_epoch(history[-1])
    return model, history


def history_csv(history: list[EpochRecord]) -> str:
    """Plain-text CSV with 6-decimal fixed-point values."""
    lines = ["epoch,train_loss,test_iou,test_pixel_acc"]
    for r in history:
        lines.append(f"{r.epoch},{r.train_loss:.6f},{r.test_iou:.6f},{r.test_pixel_acc:.6f}")
    return "\n".join(lines) + "\n"
