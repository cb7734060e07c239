"""Command-line entry point.

Subcommands mirror the pipeline stages: synth (dataset generation), train,
predict (full-frame segmentation), eval, and gradcheck (gradient
self-check).  Logs go to standard error; machine-parseable results go to
standard output.  Exit codes: 0 success, 1 check failure, 2 usage or input
error (running out of memory included), 3 numeric error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import data, metrics, pipeline, tiling, training, unet
from .errors import CordsegError, NumericError


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _net_config(args) -> unet.UNetConfig:
    return unet.UNetConfig(depth=args.depth, base_channels=args.base_channels)


def _history_path(checkpoint_path: str) -> Path:
    return Path(checkpoint_path).with_suffix(".history.csv")


def _check_out(out) -> None:
    """Fail before any work where out is a directory or in a missing one."""
    if Path(out).is_dir():
        raise IsADirectoryError(f"cannot write {out}: it is a directory")
    if not Path(out).parent.is_dir():
        raise NotADirectoryError(f"cannot write {out}: {Path(out).parent} is not a directory")


def run_train(args) -> int:
    _check_out(args.out)
    _check_out(_history_path(args.out))
    samples = data.load_dataset(args.data)
    net_cfg = _net_config(args)
    cfg = training.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                               batch_size=args.batch, seed=args.seed,
                               split_ratio=args.split, augment=args.augment)
    train_set, test_set = training.split_dataset(samples, cfg.split_ratio, cfg.seed)
    _log(f"dataset: {len(samples)} samples from {args.data}")
    _log(f"split: train={len(train_set)} test={len(test_set)} "
         f"(ratio {cfg.split_ratio}, seed {cfg.seed})")
    started = last = time.perf_counter()

    def log_epoch(record: training.EpochRecord) -> None:
        nonlocal last
        now = time.perf_counter()
        _log(f"epoch={record.epoch} train_loss={record.train_loss:.6f} "
             f"test_iou={record.test_iou:.6f} test_pixel_acc={record.test_pixel_acc:.6f} "
             f"wall_s={now - last:.2f}")
        last = now

    model, history = training.train(cfg, samples, net_cfg, on_epoch=log_epoch)
    unet.save_checkpoint(model, args.out)
    history_path = _history_path(args.out)
    history_path.write_text(training.history_csv(history))
    _log(f"trained {cfg.epochs} epochs in {time.perf_counter() - started:.1f}s; "
         f"checkpoint {args.out}, history {history_path}")
    if history:  # the last epoch already scored the final parameters
        last = history[-1]
        print(metrics.report_line(last.test_iou, last.test_pixel_acc, last.test_counts))
    else:
        report = training.evaluate(model, test_set)
        print(metrics.report_line(report.mean_iou, report.pixel_accuracy, report.counts))
    return 0


def run_predict(args) -> int:
    _check_out(args.out)
    model = unet.load_checkpoint(args.model)
    frame = data.load_grayscale(args.image)
    started = time.perf_counter()
    mask = pipeline.predict_frame(model, frame, tile_size=args.tile,
                                  threshold=args.threshold, threads=args.threads)
    grid = tiling.compute_grid(frame.shape[1], frame.shape[0], args.tile)
    data.save_mask(args.out, mask)
    _log(f"frame {frame.shape[1]}x{frame.shape[0]}: tiles={grid.tile_count} of "
         f"{args.tile} (depth {model.cfg.depth}) in {time.perf_counter() - started:.1f}s")
    _log(f"mask written to {args.out}")
    return 0


def run_eval(args) -> int:
    model = unet.load_checkpoint(args.model)
    samples = data.load_dataset(args.data)
    report = training.evaluate(model, samples, threshold=args.threshold)
    _log(f"evaluated {len(samples)} samples (pooled iou {report.pooled_iou:.6f})")
    print(metrics.report_line(report.mean_iou, report.pixel_accuracy, report.counts))
    return 0


def run_gradcheck(args) -> int:
    tolerance = 1e-3
    started = time.perf_counter()
    error, worst = unet.gradient_check(seed=args.seed, step=args.step)
    _log(f"checked every parameter of a depth-1 base-2 model on an 8x8 input "
         f"in {time.perf_counter() - started:.1f}s")
    print(f"max_rel_error={error:.6e} worst_index={worst}")
    if error >= tolerance:
        _log(f"FAIL: max relative error {error:.6e} at flat parameter index "
             f"{worst} exceeds {tolerance:.0e}")
        return 1
    return 0


def run_synth(args) -> int:
    samples = data.gen_synthetic(args.count, args.size, args.seed)
    data.save_dataset(args.out, samples)
    _log(f"wrote {len(samples)} synthetic pairs of {args.size}x{args.size} to {args.out}")
    return 0


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _probability(text: str) -> float:
    value = _number(float, text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _number(float, text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordseg",
        description="Tiled U-Net segmentation of cord-like structures in "
                    "large grayscale micrographs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a paired dataset directory")
    p.add_argument("--data", required=True, help="dataset directory with images/ and masks/")
    p.add_argument("--out", required=True, help="checkpoint output path; the history "
                   "CSV lands next to it with suffix .history.csv")
    p.add_argument("--depth", type=int, default=4, help="down-sampling stages (default 4)")
    p.add_argument("--base-channels", type=int, default=64,
                   help="channels of the first encoder block (default 64)")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    p.add_argument("--lr", type=_positive_float, default=0.001, help="Adam learning rate (default 0.001)")
    p.add_argument("--batch", type=int, default=4, help="batch size (default 4)")
    p.add_argument("--seed", type=int, default=42, help="seed for init/split/shuffle (default 42)")
    p.add_argument("--split", type=float, default=0.8, help="train fraction (default 0.8)")
    p.add_argument("--augment", action=argparse.BooleanOptionalAction, default=True,
                   help="random dihedral augmentation (default on)")
    p.set_defaults(func=run_train)

    p = sub.add_parser("predict", help="segment one full frame with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--image", required=True, help="input frame (PGM or grayscale PNG)")
    p.add_argument("--out", required=True, help="output mask path (PGM, values 0/255)")
    p.add_argument("--tile", type=int, default=256, help="tile side in pixels (default 256)")
    p.add_argument("--threshold", type=_probability, default=0.5,
                   help="foreground threshold on probabilities (default 0.5)")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="tile inference worker processes, at most the available cores "
                        "(default: the cores divided by the first positive one of "
                        "OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS)")
    p.set_defaults(func=run_predict)

    p = sub.add_parser("eval", help="score a model against a paired dataset")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory with images/ and masks/")
    p.add_argument("--threshold", type=_probability, default=0.5,
                   help="foreground threshold on probabilities (default 0.5)")
    p.set_defaults(func=run_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient "
                       "on a small model; exit 0 iff max relative error < 1e-3")
    p.add_argument("--seed", type=int, default=42, help="model/input seed (default 42)")
    p.add_argument("--step", type=_positive_float, default=1e-5,
                   help="central-difference step (default 1e-5)")
    p.set_defaults(func=run_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic cord dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--count", type=int, default=150, help="number of pairs (default 150)")
    p.add_argument("--size", type=int, default=256, help="tile side in pixels (default 256)")
    p.add_argument("--seed", type=int, default=42, help="generator seed (default 42)")
    p.set_defaults(func=run_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        _log(f"numeric error: {exc}")
        return 3
    except MemoryError as exc:  # an input or flag value asked for more than the machine has
        _log(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 2
    except (CordsegError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
