"""Binarization and segmentation metrics over exact pixel confusion counts.

IoU here is tp / (tp + fp + fn) over foreground pixels, with the empty-union
convention that two empty masks score 1.0; pixel accuracy is the fraction of
all pixels classified correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def binarize(probs: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold a probability map to a {0, 1} mask; ties go to foreground."""
    probs = np.asarray(probs)
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN fails both
        raise DomainError(f"probabilities must lie in [0, 1], got range "
                          f"[{probs.min()}, {probs.max()}]")
    return np.greater_equal(probs, threshold, out=np.empty(probs.shape, np.uint8))


def _check_mask(m: np.ndarray, name: str) -> None:
    if not np.all((m == 0) | (m == 1)):
        raise DomainError(f"{name} must contain only 0 and 1")


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Exact per-pixel tallies of a predicted mask against ground truth."""
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction {pred.shape} and truth {truth.shape} differ")
    _check_mask(pred, "prediction")
    _check_mask(truth, "truth")
    p = pred != 0
    t = truth != 0
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
        tn=int(np.count_nonzero(~p & ~t)),
    )


def iou(c: ConfusionCounts) -> float:
    """Jaccard index; 1.0 when both masks are empty."""
    union = c.tp + c.fp + c.fn
    return 1.0 if union == 0 else c.tp / union


def pixel_accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise DomainError("pixel accuracy of zero pixels is undefined")
    return (c.tp + c.tn) / c.total


def report_line(mean_iou: float, pixel_acc: float, c: ConfusionCounts) -> str:
    """One machine-parseable result line."""
    return (f"iou={mean_iou:.6f} pixel_acc={pixel_acc:.6f} "
            f"tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}")
