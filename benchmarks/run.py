"""cordseg benchmark: real CLI commands on seeded inputs, timed end to end,
plus a traced in-process run for the per-layer numbers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is in WORKLOADS below):
  train_synth64      `cordseg train`, acceptance config, to held-out IoU 0.80
  predict_png_small  `cordseg predict`, small model, 2000x1500 adaptive-filter PNG
  predict_unet64     `cordseg predict`, default depth-4 base-64 model, 700x500 PGM
  all                each of the above in turn (a human-readable summary)

With --trace 0 each command runs in a fresh child interpreter, repeatedly
for S seconds, and the end-to-end metrics are medians over those commands.
With --trace 1 the same untraced commands give the baseline, then the
command runs once in-process with every public function of the layer
modules wrapped in a span (see tracing.py); that run yields the per-layer
metrics, the per-shape GEMM table, the tracing overhead and the self-time
coverage.  Every command's output is checked; a failed command or check
counts in `failed`.  The last line of standard output is the JSON result.

Inputs and outputs live under benchmarks/.work/ in the checkout; models
that do not depend on the seed are built once per source tree and cached
there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import tracing  # noqa: E402

TRAIN_EPOCHS = 5          # every seed from 1 to 12 passes IoU 0.80 by this epoch
TRAIN_MIN_IOU = 0.80
TRAIN_MIN_ACC = 0.90
SMALL_MODEL_SEED = 2020   # dataset seed of the cached small model
SMALL_MODEL_EPOCHS = 10
SETUP_PROBES = 5          # import-only children per run, for setup_s
TILE = 256

WORKLOADS = {
    "train_synth64": "only workload with backward, Adam and per-epoch evaluation; "
                     "time-to-accuracy, dominated by conv2d_backward",
    "predict_png_small": "small model on a 2000x1500 adaptive-filter PNG: decode, "
                         "reflect padding, tiling, pool threads and scoring show",
    "predict_unet64": "default depth-4 base-64 model on six 256 tiles: forward conv at "
                      "64-512 channels and activation-cache memory dominate",
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("iou", "frac"))


# --- environment -------------------------------------------------------------

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return "unknown", 1


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cordseg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(pool_threads: int) -> dict:
    blas_config, blas_threads = _openblas()
    return {"git_sha": _git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_config": blas_config, "blas_threads": blas_threads,
            "nproc": len(os.sched_getaffinity(0)), "pool_threads": pool_threads,
            "pool_x_blas_threads": pool_threads * blas_threads}


# --- child commands ----------------------------------------------------------

@dataclass
class Command:
    code: int
    elapsed: float           # spawn to reap, as seen by the parent
    setup: float | None      # spawn to CLI ready
    wall: float | None       # CLI ready to command returned
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, cwd: Path, tag: str) -> Command:
    report = cwd / f"{tag}.report.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(report), *map(str, argv)],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    setup = wall = None
    if report.exists():
        stamps = json.loads(report.read_text())
        setup, wall = stamps["ready"] - spawned, stamps["done"] - stamps["ready"]
    return Command(proc.returncode, reaped - spawned, setup, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   out_path.read_text(), err_path.read_text())


# --- workloads ---------------------------------------------------------------

@dataclass
class Spec:
    """One workload's inputs, its command line, and the checks on its output."""

    name: str
    run_dir: Path
    argv: object                       # index -> CLI argument list
    check: object                      # (Command, index) -> (problems, iou)
    output: object                     # index -> path of the output to compare
    pool_threads: int = 1
    reference: list | None = None      # argv of the --threads 1 reference run
    input_checks: int = 0              # checks made on the generated inputs
    problems: list = field(default_factory=list)  # what those checks found


def _read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", blob)
    if not m:
        raise ValueError(f"{path.name} is not a binary PGM")
    width, height = int(m.group(1)), int(m.group(2))
    return np.frombuffer(blob, np.uint8, offset=m.end()).reshape(height, width)


def _iou(pred: np.ndarray, truth: np.ndarray) -> float:
    p, t = pred != 0, truth != 0
    union = np.count_nonzero(p | t)
    return np.count_nonzero(p & t) / union if union else 1.0


def _metric_line(stdout: str):
    m = re.search(r"^iou=(\S+) pixel_acc=(\S+) ", stdout, re.M)
    return (float(m.group(1)), float(m.group(2))) if m else None


def models(data) -> dict:
    """Seed-independent checkpoints, built once per source tree."""
    digest = src_digest()[:16]
    cache = WORK / "models" / digest
    small, big = cache / "small.ckpt", cache / "unet64.ckpt"
    if small.exists() and big.exists():
        return {"small": small, "unet64": big}
    if (WORK / "models").exists():
        shutil.rmtree(WORK / "models")
    cache.mkdir(parents=True)
    ds = cache / "ds"
    inputs.write_dataset(ds, inputs.training_samples(data, SMALL_MODEL_SEED))
    for tag, argv in (
            ("small", ["train", "--data", ds, "--out", small.with_suffix(".tmp"),
                       "--depth", "2", "--base-channels", "8", "--seed", "42",
                       "--epochs", SMALL_MODEL_EPOCHS]),
            ("unet64", ["train", "--data", ds, "--out", big.with_suffix(".tmp"),
                        "--epochs", "0", "--seed", "42"])):
        result = run_child(argv, cache, tag)
        if result.code != 0:
            raise RuntimeError(f"building the {tag} model failed:\n{result.stderr}")
    small.with_suffix(".tmp").rename(small)
    big.with_suffix(".tmp").rename(big)
    shutil.rmtree(ds)
    return {"small": small, "unet64": big}


def spec_train(data, seed: int, run_dir: Path) -> Spec:
    ds = run_dir / "ds"
    inputs.write_dataset(ds, inputs.training_samples(data, seed))

    def argv(i):
        return ["train", "--data", ds, "--out", run_dir / f"model{i}.ckpt",
                "--depth", "2", "--base-channels", "8", "--batch", "4",
                "--seed", "42", "--epochs", TRAIN_EPOCHS]

    def check(cmd, i):
        line = _metric_line(cmd.stdout)
        if line is None:
            return ["no metric line on stdout"], 0.0
        iou, acc = line
        problems = []
        if iou < TRAIN_MIN_IOU or acc < TRAIN_MIN_ACC:
            problems.append(f"iou={iou} pixel_acc={acc} misses {TRAIN_MIN_IOU}/{TRAIN_MIN_ACC}")
        return problems, iou

    return Spec("train_synth64", run_dir, argv, check, lambda i: run_dir / f"model{i}.ckpt")


def _spec_predict(name, run_dir, frame_path, truth, model, score_against_truth) -> Spec:
    height, width = truth.shape

    def argv(i, threads=None):
        extra = ["--threads", threads] if threads else []
        return ["predict", "--model", model, "--image", frame_path,
                "--out", run_dir / f"mask{i}.pgm", "--tile", TILE, *extra]

    def check(cmd, i):
        try:
            mask = _read_pgm(run_dir / f"mask{i}.pgm")
        except (OSError, ValueError) as exc:
            return [f"mask unreadable: {exc}"], 0.0
        if mask.shape != (height, width):
            return [f"mask is {mask.shape[1]}x{mask.shape[0]}, frame is {width}x{height}"], 0.0
        if not np.all((mask == 0) | (mask == 255)):
            return ["mask holds values other than 0 and 255"], 0.0
        if score_against_truth:
            return [], _iou(mask, truth)
        try:
            return [], _iou(mask, _read_pgm(run_dir / "mask-ref.pgm"))
        except (OSError, ValueError) as exc:
            return [f"no --threads 1 reference mask to compare: {exc}"], 0.0

    return Spec(name, run_dir, argv, check, lambda i: run_dir / f"mask{i}.pgm",
                pool_threads=os.cpu_count() or 1, reference=argv("-ref", threads=1))


def spec_png_small(data, seed: int, run_dir: Path, model: Path) -> Spec:
    image, truth = inputs.small_frame(data, seed)
    blob, types = inputs.encode_png_adaptive(image)
    frame = run_dir / "frame.png"
    frame.write_bytes(blob)
    spec = _spec_predict("predict_png_small", run_dir, frame, truth, model, True)
    spec.input_checks = 1
    spec.problems += inputs.check_png(data, blob, image, types)
    print(f"frame: {image.shape[1]}x{image.shape[0]} PNG, {len(blob)} bytes, rows per filter "
          + " ".join(f"{n}={c}" for n, c in zip(inputs.FILTER_NAMES,
                                                 np.bincount(types, minlength=5))))
    return spec


def spec_unet64(data, seed: int, run_dir: Path, model: Path) -> Spec:
    image, truth = inputs.unet64_frame(data, seed)
    frame = run_dir / "frame.pgm"
    inputs.write_pgm(frame, image)
    print(f"frame: {image.shape[1]}x{image.shape[0]} PGM; model He-initialised; "
          f"iou compares against the --threads 1 mask")
    return _spec_predict("predict_unet64", run_dir, frame, truth, model, False)


# --- measuring ---------------------------------------------------------------

@dataclass
class Outcome:
    commands: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _record(outcome: Outcome, spec: Spec, cmd: Command, index, expected: dict) -> None:
    """Check one finished command; bytes must match the first output seen."""
    outcome.attempted += 1
    if cmd.setup is not None:
        outcome.setups.append(cmd.setup)
    problems = [] if cmd.code == 0 else [f"exit code {cmd.code}: {cmd.stderr.strip()[-300:]}"]
    if not problems:
        problems, score = spec.check(cmd, index)
        digest = _digest(spec.output(index))
        if expected.setdefault("digest", digest) != digest:
            problems.append("output bytes differ from the first output for this seed")
        elif not problems and index != "-ref":
            outcome.scores.append(score)
    if problems:
        outcome.failed += 1
        outcome.failures += [f"command {index}: {p}" for p in problems]


def measure(spec: Spec, seconds: float, expected: dict) -> Outcome:
    """Run the reference (if any), the set-up probes, then commands for `seconds`."""
    outcome = Outcome()
    if spec.reference is not None:
        cmd = run_child(spec.reference, spec.run_dir, "ref")
        _record(outcome, spec, cmd, "-ref", expected)
    for i in range(SETUP_PROBES):
        probe = run_child([], spec.run_dir, f"probe{i}")
        if probe.code == 0 and probe.setup is not None:
            outcome.setups.append(probe.setup)
    started = time.monotonic()
    while True:
        index = len(outcome.commands)
        cmd = run_child(spec.argv(index), spec.run_dir, f"cmd{index}")
        _record(outcome, spec, cmd, index, expected)
        outcome.commands.append(cmd)
        typical = statistics.median(c.elapsed for c in outcome.commands)
        if time.monotonic() - started + typical > seconds:
            return outcome


def quartiles(values):
    values = [v for v in values if v is not None]
    if not values:
        return 0.0, 0.0, 0.0, 0
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(outcome: Outcome) -> dict:
    cmds = outcome.commands
    return {"setup_s": quartiles(outcome.setups),
            "wall_s": quartiles([c.wall for c in cmds]),
            "cpu_s": quartiles([c.cpu for c in cmds]),
            "peak_rss_mb": quartiles([c.rss_mb for c in cmds]),
            "iou": quartiles(outcome.scores)}


def traced_run(spec: Spec, untraced_wall: float, expected: dict, outcome: Outcome):
    """Run the command in-process under the tracer; returns per-layer results."""
    import cordseg.cli
    modules = [sys.modules[f"cordseg.{layer}"] for layer in tracing.LAYERS]
    tracer = tracing.Tracer()
    index = "traced"
    out, err = io.StringIO(), io.StringIO()
    tracer.install(modules)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cordseg.cli.main([str(a) for a in spec.argv(index)])
    finally:
        tracer.uninstall()
    cmd = Command(code, 0.0, None, None, 0.0, 0.0, out.getvalue(), err.getvalue())
    _record(outcome, spec, cmd, index, expected)
    metrics, table, layers, tiles = tracing.layer_metrics(tracer, spec.pool_threads, untraced_wall)
    tracer.write_chrome_trace(spec.run_dir / "trace.json")
    return metrics, table, layers, tiles


# --- reporting ---------------------------------------------------------------

def _print_env(env: dict) -> None:
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_config"))
    print(f"env: blas_config={env['blas_config']}")


def _print_end_to_end(name: str, stats: dict, outcome: Outcome, env: dict) -> None:
    label = {"train_synth64": "test_iou", "predict_png_small": "mask_iou",
             "predict_unet64": "iou_vs_threads1"}[name]
    print(f"\n{name}: end-to-end (median [q1, q3] over n)")
    for metric, unit in END_TO_END:
        med, q1, q3, n = stats[metric]
        shown = label if metric == "iou" else metric
        note = f"  pool x blas threads = {env['pool_x_blas_threads']}" if metric == "cpu_s" else ""
        print(f"  {shown:<16} {med:12.6f} [{q1:.6f}, {q3:.6f}] n={n} {unit}{note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':<16} {rate:12.6f} ({outcome.failed} of "
          f"{outcome.attempted} commands failed a check)")


def _print_layers(layers, table, tiles, metrics) -> None:
    print("\nlayers by self time (calls, inclusive s, self s):")
    for name, calls, total, own in layers[:40]:
        print(f"  {name:<32} {calls:7d} {total:10.4f} {own:10.4f}")
    print("\nGEMM ceiling per layer shape (n, c_in, c_out, h, w, k):")
    print(f"  {'kernel':<18} {'shape':<30} {'calls':>5} {'ms/call':>9} {'gemm ms':>9} "
          f"{'GFLOP/s':>8} {'gemm_frac':>9}")
    for row in table:
        print(f"  {row['kernel']:<18} {str(row['shape']):<30} {row['calls']:5d} "
              f"{row['ms_per_call']:9.3f} {row['gemm_ms_per_call']:9.3f} "
              f"{row['gflops']:8.2f} {row['gemm_frac']:9.3f}")
    print(f"\ntile_ms tail is p{tracing.tail_percentile(tiles)} of {tiles} tiles")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6f} {unit}")


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Returns (correct, attempted, failed, metrics for the JSON line)."""
    from cordseg import data
    run_dir = WORK / "run"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if name == "train_synth64":
        spec = spec_train(data, seed, run_dir)
    else:
        model = models(data)["small" if name == "predict_png_small" else "unet64"]
        maker = spec_png_small if name == "predict_png_small" else spec_unet64
        spec = maker(data, seed, run_dir, model)
    env = environment(spec.pool_threads)
    _print_env(env)

    digests_path = WORK / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    key = f"{env['src_sha256'][:16]}:{name}:{seed}"
    expected = {"digest": digests[key]} if key in digests else {}

    outcome = measure(spec, seconds, expected)
    stats = end_to_end(outcome)
    _print_end_to_end(name, stats, outcome, env)
    if name == "train_synth64":
        epochs = re.findall(r"^epoch=(\d+) .*test_iou=(\S+)", outcome.commands[0].stderr, re.M)
        first = next((e for e, iou in epochs if float(iou) >= TRAIN_MIN_IOU), "none")
        print(f"  held-out IoU first reaches {TRAIN_MIN_IOU} at epoch {first} of {TRAIN_EPOCHS}")
    if traced:
        metrics, table, layers, tiles = traced_run(spec, stats["wall_s"][0], expected, outcome)
        _print_layers(layers, table, tiles, metrics)
        print(f"spans written to {spec.run_dir / 'trace.json'}")
    else:
        metrics = {m: (stats[m][0], unit) for m, unit in END_TO_END}

    if key not in digests and not outcome.failed and "digest" in expected:
        digests[key] = expected["digest"]
        digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    failures = spec.problems + outcome.failures
    for problem in failures:
        print(f"FAILED: {problem}")
    result = {"workload": name, "seed": seed, "trace": int(traced), "env": env,
              "end_to_end": {m: dict(zip(("median", "q1", "q3", "n"), stats[m]))
                             for m, _ in END_TO_END},
              "failures": failures, "attempted": outcome.attempted,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1))
    attempted = outcome.attempted + spec.input_checks
    failed = outcome.failed + (1 if spec.problems else 0)
    return not failures, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cordseg" / "cli.py").is_file():
        print(f"benchmark: no cordseg sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print(f"=== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): "
              f"{WORKLOADS[name]}")
        ok, tried, bad, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
