"""Seeded dataset splitting, dihedral augmentation, Adam, the epoch loop,
and evaluation.

Training is bit-reproducible: the split, the per-epoch shuffles, and the
augmentation draws all come from splitmix64 streams derived from the
configured seed, and every reduction runs in a fixed order.  Each batch
splits into shards of _SHARD consecutive samples; every shard's gradient
is computed on its own, and the batch gradient is their sum in shard
order.  Evaluation runs in the same shards, each one forward whose
per-sample confusion counts are kept in sample order.  Shards, or runs of
them, go to forked helpers by one parallel.Helpers.map call per round, or
all run in the main process where there is no fork or one worker, with the
same bytes either way: checkpoints and scores do not depend on the cores.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import metrics, ops, parallel, unet
from .data import Sample, to_unit
from .errors import DomainError, NumericError, ShapeError
from .metrics import ConfusionCounts
from .rng import SplitMix64, derive

# Adam's moment decays and denominator guard, as Kingma & Ba 2015 fix them
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# samples per shard of a training batch or of the held-out split; a shard's
# weight-gradient sums stop at its edge, so the bytes depend on this, never
# on the worker count, and it bounds an evaluation forward's workspace
_SHARD = 2


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


def _counts(model: unet.Model, samples: list[Sample],
            threshold: float = 0.5) -> list[ConfusionCounts]:
    """Per-sample confusion counts of binarized sigmoid outputs against truth,
    in sample order; each forward covers one shard of _SHARD consecutive
    samples, in one workspace, which a partial last shard re-plans."""
    workspace = unet.Workspace()
    counts = []
    for start in range(0, len(samples), _SHARD):
        shard = samples[start:start + _SHARD]
        x, _ = _batch_arrays(shard)
        logits, _ = unet.forward(model, x, workspace)
        probs = ops.sigmoid(logits)
        counts += [metrics.confusion(metrics.binarize(prob[0], threshold), s.mask)
                   for prob, s in zip(probs, shard)]
    return counts


def _score(helpers: parallel.Helpers, model: unet.Model, samples: list[Sample],
           threshold: float = 0.5) -> EvalReport:
    """evaluate's report, over runs of whole shards, one per worker.  The
    helpers' work must reply to a run with _counts of samples[run], which
    they inherited at the fork, so only runs and counts are pickled."""
    runs = parallel.runs(len(samples), helpers.workers, _SHARD)
    counts = sum(helpers.map(lambda run: _counts(model, samples[run], threshold), runs), [])
    pooled = sum(counts, ConfusionCounts(0, 0, 0, 0))
    return EvalReport(
        mean_iou=float(np.mean([metrics.iou(c) for c in counts])),
        pooled_iou=metrics.iou(pooled),
        pixel_accuracy=metrics.pixel_accuracy(pooled),
        counts=pooled,
    )


def evaluate(model: unet.Model, samples: list[Sample],
             threshold: float = 0.5) -> EvalReport:
    """Score every sample, all of one size, as train scores its held-out
    split: the mean of the per-image IoUs in sample order, and the pooled
    counts' IoU and pixel accuracy, the same bytes on any number of workers
    (this process and helpers forked for the call, default_workers() at
    most).  Every helper is reaped before this returns, its error raised."""
    if not samples:
        raise DomainError("cannot evaluate on an empty sample list")
    _one_size(samples)
    workers = parallel.default_workers() if hasattr(os, "fork") else 1
    runs = parallel.runs(len(samples), workers, _SHARD)
    with parallel.Helpers(len(runs) - 1,
                          lambda index, run: _counts(model, samples[run], threshold)) as helpers:
        return _score(helpers, model, samples, threshold)


def _check_tiles(samples: list[Sample], depth: int) -> None:
    h, w = _one_size(samples)
    if h != w:
        raise ShapeError(f"tiles must be square, got {h}x{w}")
    unet.check_divisible("tile side", (h,), depth)


def _shard_gradient(model: unet.Model, x: np.ndarray, y: np.ndarray, count: int):
    """One shard's recording forward and backward.  Returns the sum of its
    BCE terms and the gradient of that sum divided by count, the element
    count of the whole batch."""
    logits, cache = unet.forward(model, x)
    return (ops.bce_with_logits(logits, y, count=1),
            unet.backward(model, cache, ops.bce_with_logits_backward(logits, y, count)))


def _batch_gradient(model: unet.Model, x: np.ndarray, y: np.ndarray,
                    helpers: parallel.Helpers, slots: np.ndarray):
    """(sum of the batch's BCE terms, gradient of their mean): the batch's
    shards run in rounds of one per worker, the main process taking each
    round's first and helper i writing slots[i], and their sums and
    gradients add up in shard order."""
    shards = [(x[i:i + _SHARD], y[i:i + _SHARD], y.size) for i in range(0, len(x), _SHARD)]
    terms, grad = 0.0, None
    for first in range(0, len(shards), helpers.workers):
        (shard_terms, shard_grad), *rest = helpers.map(
            lambda shard: _shard_gradient(model, *shard), shards[first:first + helpers.workers])
        terms += shard_terms
        if grad is None:
            grad = shard_grad
        else:
            grad += shard_grad
        for index, helper_terms in enumerate(rest):
            terms += helper_terms
            grad += slots[index]
    return terms, grad


def train(cfg: TrainConfig, samples: list[Sample], net_cfg: unet.UNetConfig,
          on_epoch: Callable[[EpochRecord], None] | None = None):
    """Full training run; returns (model, per-epoch history).

    Per epoch: seeded reshuffle, batches of batch_size with the last partial
    batch kept, optional per-sample dihedral augmentation; each batch splits
    into shards of _SHARD consecutive samples (the last may hold one), each
    shard runs forward, BCE and backward on its own, and the batch gradient,
    the shard gradients summed in shard order, takes one Adam step in place
    on model.theta, which the layers view.  Then the held-out split is scored
    as evaluate scores it, on this call's helpers, and the record, whose
    scores are evaluate's report of the epoch's parameters, goes to on_epoch
    as soon as it is made; the epoch loss is every BCE term of the epoch
    over their count.

    Where os.fork exists, min(parallel.default_workers(), shards in a full
    batch) - 1 helper processes are forked once per call.  theta and one
    gradient slot per helper live in one parallel.shared_array; the main
    process runs each round's first shard, and each helper another, holding
    that shard's activations and copying its gradient into its slot.  Every
    helper is reaped before train returns or raises, and a helper's
    exception is raised here.  Deterministic for a fixed (cfg, samples,
    net_cfg), whatever the worker count.
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
    full = -(-min(cfg.batch_size, len(train_set)) // _SHARD)  # shards in a full batch
    workers = min(parallel.default_workers(), full) if hasattr(os, "fork") else 1
    shared = parallel.shared_array((workers, model.theta.size), model.theta.dtype)
    shared[0] = model.theta
    model, slots = unet.Model(net_cfg, shared[0]), shared[1:]

    def helper_task(index: int, task):
        if isinstance(task, slice):  # a held-out run
            return _counts(model, test_set[task])
        terms, slots[index][...] = _shard_gradient(model, *task)
        return terms

    state = AdamState.zeros(model.theta)
    with parallel.Helpers(workers - 1, helper_task) as helpers:
        for epoch in range(1, cfg.epochs + 1):
            stream = SplitMix64(derive(cfg.seed, 0xE90C, epoch))
            order = stream.permutation(len(train_set))
            terms = 0.0
            seen = 0
            for start in range(0, len(order), cfg.batch_size):
                picked = [train_set[i] for i in order[start:start + cfg.batch_size]]
                if cfg.augment:
                    picked = [Sample(s.name, *dihedral_augment(s.image, s.mask, stream))
                              for s in picked]
                x, y = _batch_arrays(picked)
                batch_terms, grad = _batch_gradient(model, x, y, helpers, slots)
                adam_step(model.theta, grad, state, cfg)
                terms += batch_terms
                seen += y.size
            report = _score(helpers, model, test_set)
            history.append(EpochRecord(epoch, terms / seen, report.mean_iou,
                                       report.pixel_accuracy, report.counts))
            if on_epoch is not None:
                on_epoch(history[-1])
    # a copy of its own, so the mapping and the helpers' slots can go
    return unet.Model(net_cfg, model.theta.copy()), history


def history_csv(history: list[EpochRecord]) -> str:
    """Plain-text CSV with 6-decimal fixed-point values."""
    lines = ["epoch,train_loss,test_iou,test_pixel_acc"]
    for r in history:
        lines.append(f"{r.epoch},{r.train_loss:.6f},{r.test_iou:.6f},{r.test_pixel_acc:.6f}")
    return "\n".join(lines) + "\n"
