"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the slow learning benchmark dominates the runtime (a few minutes).
"""

import re
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cordseg import data, metrics, ops, tiling, training, unet
from cordseg.ops import ConvParams
from cordseg.rng import SplitMix64
from cordseg.unet import UNetConfig

from reference import (confusion_reference, conv2d_reference, iou_reference,
                       maxpool2_backward_reference, maxpool2_reference,
                       pixel_accuracy_reference, unet_parameter_count_reference,
                       upconv2_reference)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cordseg", *args],
                          capture_output=True, text=True)


def test_gradient_correctness():
    with criterion("gradient correctness (depth-1 base-2, 8x8, max rel err < 1e-3, < 30 s)"):
        started = time.perf_counter()
        error, _ = unet.gradient_check(UNetConfig(depth=1, base_channels=2), seed=42)
        elapsed = time.perf_counter() - started
        assert error < 1e-3, f"max relative error {error}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_kernel_oracle_equivalence():
    with criterion("kernel oracle equivalence (conv2d/upconv2/maxpool2, "
                   "100 random shapes, <= 1e-5 abs, < 10 s)"):
        started = time.perf_counter()
        rng = SplitMix64(2024)
        for trial in range(100):
            n, ci, co = (1 + rng.randbelow(4) for _ in range(3))
            h, w = 1 + rng.randbelow(8), 1 + rng.randbelow(8)

            def rand32(shape):
                return (2.0 * rng.f64_array(int(np.prod(shape))) - 1.0).astype(np.float32).reshape(shape)

            x = rand32((n, ci, h, w))
            k = 1 if rng.randbelow(4) == 0 else 3
            cw, cb = rand32((co, ci, k, k)), rand32((co,))
            got = ops.conv2d(x, ConvParams(cw, cb))
            want = conv2d_reference(x, cw, cb)
            np.testing.assert_allclose(got, want, atol=1e-5)

            uw, ub = rand32((ci, co, 2, 2)), rand32((co,))
            got = ops.upconv2(x, ConvParams(uw, ub))
            want = upconv2_reference(x, uw, ub)
            np.testing.assert_allclose(got, want, atol=1e-5)

            xe = rand32((n, ci, 2 * (1 + h // 2), 2 * (1 + w // 2)))
            got_v = ops.maxpool2(xe)
            want_v, want_i = maxpool2_reference(xe)
            np.testing.assert_allclose(got_v, want_v, atol=1e-5)
            g = 1.0 + np.arange(got_v.size, dtype=np.float32).reshape(got_v.shape)  # distinct
            assert (ops.maxpool2_backward(xe, got_v, g).tobytes()
                    == maxpool2_backward_reference(want_i, g).tobytes())
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def window_round_trip(img, tile):
    """Pad, copy every window of the padded frame into a fresh canvas, crop."""
    padded = tiling.pad_image(img, tile)
    canvas = np.zeros_like(padded)
    for win in tiling.windows(*img.shape, tile):
        canvas[win] = padded[win]
    return canvas[:img.shape[0], :img.shape[1]]


def test_tiling_fidelity():
    with criterion("tiling fidelity (50 round trips incl. 3840x2700 / tile 256, "
                   "bitwise, < 30 s)"):
        started = time.perf_counter()
        rng = SplitMix64(77)
        for _ in range(49):
            h, w = 1 + rng.randbelow(300), 1 + rng.randbelow(300)
            t = 1 + rng.randbelow(min(h, w))
            img = (rng.u64_array(h * w) & np.uint64(255)).astype(np.uint8).reshape(h, w)
            assert np.array_equal(window_round_trip(img, t), img), (h, w, t)
        frame = (rng.u64_array(3840 * 2700) & np.uint64(255)).astype(np.uint8).reshape(2700, 3840)
        wins = tiling.windows(2700, 3840, 256)
        assert len(wins) == 165
        assert len({r.start for r, _ in wins}) == 11  # rows of tiles
        assert len({c.start for _, c in wins}) == 15  # columns of tiles
        assert tiling.pad_image(frame, 256).shape == (2816, 3840)
        assert np.array_equal(window_round_trip(frame, 256), frame)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_metrics_oracle():
    with criterion("metrics oracle (100 random 16x16 pairs exact + hand case)"):
        c = metrics.confusion(np.array([[1, 1], [0, 0]], np.uint8),
                              np.array([[0, 1], [0, 1]], np.uint8))
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert metrics.iou(c) == pytest.approx(1 / 3)
        assert metrics.pixel_accuracy(c) == pytest.approx(0.5)
        rng = SplitMix64(88)
        for _ in range(100):
            pred = (rng.f64_array(256) < 0.5).astype(np.uint8).reshape(16, 16)
            truth = (rng.f64_array(256) < 0.5).astype(np.uint8).reshape(16, 16)
            c = metrics.confusion(pred, truth)
            assert (c.tp, c.fp, c.fn, c.tn) == confusion_reference(pred, truth)
            assert metrics.iou(c) == iou_reference(pred, truth)
            assert metrics.pixel_accuracy(c) == pixel_accuracy_reference(pred, truth)


def test_desk_scale_learning():
    with criterion("desk-scale learning (synth 94@64, 75/19 split, depth-2 base-8, "
                   "50 epochs: IoU >= 0.80, acc >= 0.90, < 10 min)"):
        started = time.perf_counter()
        samples = data.gen_synthetic(94, 64, 42)
        cfg = training.TrainConfig(epochs=50, seed=42)
        train_set, test_set = training.split_dataset(samples, cfg.split_ratio, cfg.seed)
        assert (len(train_set), len(test_set)) == (75, 19)
        params, history = training.train(cfg, samples, UNetConfig(depth=2, base_channels=8))
        report = training.evaluate(params, test_set)
        elapsed = time.perf_counter() - started
        print(f"  [benchmark] iou={report.mean_iou:.4f} acc={report.pixel_accuracy:.4f} "
              f"time={elapsed:.0f}s")
        assert report.mean_iou >= 0.80, f"test IoU {report.mean_iou:.4f}"
        assert report.pixel_accuracy >= 0.90, f"pixel accuracy {report.pixel_accuracy:.4f}"
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_protocol_fidelity(tmp_path):
    with criterion("protocol fidelity (150 samples at --split 0.8 logs "
                   "train=120 test=30)"):
        root = tmp_path / "ds150"
        assert run_cli("synth", "--out", str(root), "--count", "150", "--size", "32",
                       "--seed", "5").returncode == 0
        res = run_cli("train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
                      "--depth", "1", "--base-channels", "2", "--epochs", "0",
                      "--split", "0.8", "--seed", "42")
        assert res.returncode == 0, res.stderr
        assert "train=120 test=30" in res.stderr


def test_reproducibility(tmp_path):
    with criterion("reproducibility (byte-identical checkpoints/history; "
                   "predict invariant to --threads)"):
        root = tmp_path / "ds"
        assert run_cli("synth", "--out", str(root), "--count", "12", "--size", "32",
                       "--seed", "2").returncode == 0
        blobs = []
        for name in ("one", "two"):
            ckpt = tmp_path / f"{name}.ckpt"
            res = run_cli("train", "--data", str(root), "--out", str(ckpt),
                          "--depth", "1", "--base-channels", "2", "--epochs", "2",
                          "--seed", "9")
            assert res.returncode == 0, res.stderr
            blobs.append((ckpt.read_bytes(), ckpt.with_suffix(".history.csv").read_bytes()))
        assert blobs[0][0] == blobs[1][0], "checkpoints differ"
        assert blobs[0][1] == blobs[1][1], "history CSVs differ"

        frame_path = tmp_path / "frame.pgm"
        frame_path.write_bytes(data.encode_pgm(data.load_dataset(root)[0].image))
        outs = []
        for threads in ("1", "4"):
            mask_path = tmp_path / f"mask{threads}.pgm"
            res = run_cli("predict", "--model", str(tmp_path / "one.ckpt"),
                          "--image", str(frame_path), "--out", str(mask_path),
                          "--tile", "32", "--threads", threads)
            assert res.returncode == 0, res.stderr
            outs.append(mask_path.read_bytes())
        assert outs[0] == outs[1], "prediction depends on thread count"


def test_checkpoint_format(tmp_path):
    with criterion("checkpoint format (bitwise round trip; structured errors "
                   "for bad magic and truncation)"):
        cfg = UNetConfig(depth=1, base_channels=2)
        params = unet.init_params(cfg, 31)
        path = tmp_path / "model.ckpt"
        unet.save_checkpoint(params, path)
        model = unet.load_checkpoint(path)
        params, loaded, loaded_cfg = params.layers, model.layers, model.cfg
        assert loaded_cfg == cfg
        for a, b in zip(params, loaded):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

        bad_magic = tmp_path / "magic.ckpt"
        bad_magic.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(unet.CheckpointMagicError):
            unet.load_checkpoint(bad_magic)

        truncated = tmp_path / "short.ckpt"
        blob = path.read_bytes()
        truncated.write_bytes(blob[: 2 * len(blob) // 3])
        with pytest.raises(unet.CheckpointTruncatedError) as err:
            unet.load_checkpoint(truncated)
        assert re.search(r"tensor \d+", str(err.value))


def test_parameter_accounting():
    with criterion("parameter accounting (depth-1 base-2 has exactly 431 parameters)"):
        params = unet.init_params(UNetConfig(depth=1, base_channels=2), 0)
        assert params.theta.size == 431
        assert unet_parameter_count_reference(1, 2) == 431
