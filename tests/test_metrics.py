import numpy as np
import pytest

from cordseg import metrics
from cordseg.errors import DomainError, ShapeError
from cordseg.metrics import ConfusionCounts
from cordseg.rng import SplitMix64

from reference import confusion_reference, iou_reference, pixel_accuracy_reference


def random_mask(rng, h, w):
    return (rng.f64_array(h * w) < 0.5).astype(np.uint8).reshape(h, w)


# --- binarize ----------------------------------------------------------------

def test_binarize_tie_goes_to_foreground():
    out = metrics.binarize(np.array([[0.5, 0.49999]], np.float32), 0.5)
    np.testing.assert_array_equal(out, [[1, 0]])


def test_binarize_threshold_zero_is_all_ones():
    probs = np.array([[0.0, 0.3], [0.9, 1.0]], np.float32)
    assert np.all(metrics.binarize(probs, 0.0) == 1)


def test_binarize_monotone_in_threshold():
    rng = SplitMix64(41)
    probs = rng.f64_array(64).reshape(8, 8)
    prev = metrics.binarize(probs, 0.0)
    for t in (0.25, 0.5, 0.75, 1.0):
        cur = metrics.binarize(probs, t)
        assert np.all(cur <= prev)  # raising threshold never adds foreground
        prev = cur


def test_binarize_rejects_out_of_range():
    with pytest.raises(DomainError):
        metrics.binarize(np.array([[1.5]]), 0.5)
    with pytest.raises(DomainError):
        metrics.binarize(np.array([[-0.1]]), 0.5)
    with pytest.raises(DomainError):  # NaN fails every comparison
        metrics.binarize(np.array([[0.2, np.nan, 0.7]]), 0.5)


# --- confusion ----------------------------------------------------------------

def test_confusion_hand_case():
    pred = np.array([[1, 1], [0, 0]], np.uint8)
    truth = np.array([[0, 1], [0, 1]], np.uint8)
    c = metrics.confusion(pred, truth)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    assert metrics.iou(c) == pytest.approx(1 / 3)
    assert metrics.pixel_accuracy(c) == pytest.approx(0.5)


def test_confusion_perfect_match():
    rng = SplitMix64(42)
    m = random_mask(rng, 6, 6)
    c = metrics.confusion(m, m)
    assert c.fp == 0 and c.fn == 0
    assert metrics.iou(c) == 1.0
    assert metrics.pixel_accuracy(c) == 1.0


def test_confusion_counts_sum_to_total():
    rng = SplitMix64(43)
    for _ in range(20):
        h, w = 1 + rng.randbelow(16), 1 + rng.randbelow(16)
        c = metrics.confusion(random_mask(rng, h, w), random_mask(rng, h, w))
        assert c.total == h * w


def test_confusion_swap_symmetry():
    rng = SplitMix64(44)
    a, b = random_mask(rng, 8, 8), random_mask(rng, 8, 8)
    ab = metrics.confusion(a, b)
    ba = metrics.confusion(b, a)
    assert (ab.tp, ab.tn) == (ba.tp, ba.tn)
    assert (ab.fp, ab.fn) == (ba.fn, ba.fp)


def test_confusion_rejects_mismatched_or_nonbinary():
    with pytest.raises(ShapeError):
        metrics.confusion(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))
    with pytest.raises(DomainError):
        metrics.confusion(np.full((2, 2), 2, np.uint8), np.zeros((2, 2), np.uint8))


# --- iou / accuracy --------------------------------------------------------------

def test_iou_empty_union_convention():
    assert metrics.iou(ConfusionCounts(0, 0, 0, 16)) == 1.0


def test_pixel_accuracy_complement_is_zero():
    rng = SplitMix64(45)
    t = random_mask(rng, 8, 8)
    c = metrics.confusion((1 - t).astype(np.uint8), t)
    assert metrics.pixel_accuracy(c) == 0.0


def test_pixel_accuracy_rejects_zero_total():
    with pytest.raises(DomainError):
        metrics.pixel_accuracy(ConfusionCounts(0, 0, 0, 0))


def test_metrics_bounds_and_iou_one_iff_no_errors():
    rng = SplitMix64(46)
    for _ in range(50):
        pred, truth = random_mask(rng, 8, 8), random_mask(rng, 8, 8)
        c = metrics.confusion(pred, truth)
        assert 0.0 <= metrics.iou(c) <= 1.0
        assert 0.0 <= metrics.pixel_accuracy(c) <= 1.0
        assert (metrics.iou(c) == 1.0) == (c.fp == 0 and c.fn == 0)


def test_metrics_match_set_oracle_on_random_masks():
    rng = SplitMix64(47)
    for _ in range(100):
        pred, truth = random_mask(rng, 16, 16), random_mask(rng, 16, 16)
        c = metrics.confusion(pred, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_reference(pred, truth)
        assert metrics.iou(c) == iou_reference(pred, truth)
        assert metrics.pixel_accuracy(c) == pixel_accuracy_reference(pred, truth)


def test_report_line_format():
    line = metrics.report_line(1 / 3, 0.5, ConfusionCounts(1, 1, 1, 1))
    assert line == "iou=0.333333 pixel_acc=0.500000 tp=1 fp=1 fn=1 tn=1"
