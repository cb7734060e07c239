"""End-to-end checks of the command-line interface, mostly via subprocesses."""

import contextlib
import inspect
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

from cordseg import cli, data, parallel, pipeline, training, unet

from reference import checkpoint_declaring

REPORT_RE = re.compile(
    r"^iou=\d\.\d{6} pixel_acc=\d\.\d{6} tp=\d+ fp=\d+ fn=\d+ tn=\d+$")


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "cordseg", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    out = run_cli("synth", "--out", str(root), "--count", "12", "--size", "32",
                  "--seed", "1")
    assert out.returncode == 0, out.stderr
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset_dir):
    work = tmp_path_factory.mktemp("train")
    ckpt = work / "model.ckpt"
    out = run_cli("train", "--data", str(dataset_dir), "--out", str(ckpt),
                  "--depth", "1", "--base-channels", "2", "--epochs", "2",
                  "--seed", "42")
    assert out.returncode == 0, out.stderr
    return ckpt, out


def test_synth_writes_loadable_dataset(dataset_dir):
    samples = data.load_dataset(dataset_dir)
    assert len(samples) == 12
    assert all(s.image.shape == (32, 32) for s in samples)


def test_synth_rerun_bitwise_identical(tmp_path, dataset_dir):
    again = tmp_path / "again"
    out = run_cli("synth", "--out", str(again), "--count", "12", "--size", "32",
                  "--seed", "1")
    assert out.returncode == 0
    for sub in ("images", "masks"):
        ours = sorted((again / sub).iterdir())
        theirs = sorted((dataset_dir / sub).iterdir())
        assert [p.name for p in ours] == [p.name for p in theirs]
        for a, b in zip(ours, theirs):
            assert a.read_bytes() == b.read_bytes()


def test_train_logs_split_and_prints_report(trained):
    ckpt, out = trained
    assert "train=9 test=3" in out.stderr  # floor(0.8 * 12) = 9
    assert ckpt.exists()
    assert ckpt.with_suffix(".history.csv").exists()
    final = out.stdout.strip().splitlines()[-1]
    assert REPORT_RE.match(final), final


def test_train_report_line_is_last_epoch_evaluation(trained):
    ckpt, out = trained
    last = ckpt.with_suffix(".history.csv").read_text().splitlines()[-1].split(",")
    _, _, test_iou, test_pixel_acc = last
    final = out.stdout.strip().splitlines()[-1]
    assert final.startswith(f"iou={test_iou} pixel_acc={test_pixel_acc} ")


def test_train_zero_epochs_still_prints_report(tmp_path, dataset_dir):
    res = run_cli("train", "--data", str(dataset_dir), "--out", str(tmp_path / "m.ckpt"),
                  "--depth", "1", "--base-channels", "2", "--epochs", "0")
    assert res.returncode == 0, res.stderr
    assert REPORT_RE.match(res.stdout.strip().splitlines()[-1])


def test_train_history_csv_has_one_row_per_epoch(trained):
    ckpt, _ = trained
    lines = ckpt.with_suffix(".history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_iou,test_pixel_acc"
    assert len(lines) == 3


def test_train_logs_each_epoch_with_its_wall_time(trained):
    _, out = trained
    lines = [ln for ln in out.stderr.splitlines() if ln.startswith("epoch=")]
    assert [ln.split()[0] for ln in lines] == ["epoch=1", "epoch=2"]
    assert all(re.search(r" wall_s=\d+\.\d\d$", ln) for ln in lines), lines


def test_train_repeat_invocation_byte_identical(tmp_path, dataset_dir):
    outs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        res = run_cli("train", "--data", str(dataset_dir), "--out", str(ckpt),
                      "--depth", "1", "--base-channels", "2", "--epochs", "1",
                      "--seed", "7")
        assert res.returncode == 0, res.stderr
        outs.append((ckpt.read_bytes(), ckpt.with_suffix(".history.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_split_protocol_150_samples(tmp_path):
    root = tmp_path / "ds150"
    assert run_cli("synth", "--out", str(root), "--count", "150", "--size", "32",
                   "--seed", "3").returncode == 0
    res = run_cli("train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
                  "--depth", "1", "--base-channels", "2", "--epochs", "0",
                  "--split", "0.8", "--seed", "42")
    assert res.returncode == 0, res.stderr
    assert "train=120 test=30" in res.stderr


def test_predict_writes_mask_with_input_dims(tmp_path, trained, dataset_dir):
    ckpt, _ = trained
    frame_path = tmp_path / "frame.pgm"
    frame = data.load_dataset(dataset_dir)[0].image
    big = np.tile(frame, (3, 4))[:90, :110]  # 90x110, forces padding
    frame_path.write_bytes(data.encode_pgm(big))
    mask_path = tmp_path / "mask.pgm"
    res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                  "--out", str(mask_path), "--tile", "32")
    assert res.returncode == 0, res.stderr
    mask = data.load_grayscale(mask_path)
    assert mask.shape == (90, 110)
    assert set(np.unique(mask)) <= {0, 255}


def test_predict_threads_do_not_change_output(tmp_path, trained, dataset_dir):
    ckpt, _ = trained
    frame_path = tmp_path / "frame.pgm"
    frame_path.write_bytes(data.encode_pgm(data.load_dataset(dataset_dir)[1].image))
    masks = []
    for threads in ("1", "4"):
        out_path = tmp_path / f"mask{threads}.pgm"
        res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                      "--out", str(out_path), "--tile", "32", "--threads", threads)
        assert res.returncode == 0, res.stderr
        masks.append(out_path.read_bytes())
    assert masks[0] == masks[1]


def test_predict_threads_help_names_every_blas_variable(capsys):
    with pytest.raises(SystemExit):
        cli.main(["predict", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in parallel._BLAS_VARIABLES:
        assert name in text


def _env_with_blas_threads(threads):
    """os.environ without the BLAS thread variables, plus OPENBLAS_NUM_THREADS
    when threads is given."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


def test_blas_thread_count_does_not_change_checkpoint_or_mask(tmp_path, dataset_dir):
    # OpenBLAS reads the variable when numpy loads, so it is set in the child's
    # env; with none set, cordseg gives OpenBLAS its share of the cores while
    # its tile workers run
    frame_path = tmp_path / "frame.pgm"
    frame_path.write_bytes(data.encode_pgm(np.tile(data.load_dataset(dataset_dir)[2].image,
                                                   (2, 3))))
    outputs = []
    for threads in (None, "1", "2"):
        env = _env_with_blas_threads(threads)
        ckpt, mask = tmp_path / f"model{threads}.ckpt", tmp_path / f"mask{threads}.pgm"
        res = run_cli("train", "--data", str(dataset_dir), "--out", str(ckpt),
                      "--depth", "2", "--base-channels", "8", "--epochs", "2",
                      "--seed", "42", env=env)
        assert res.returncode == 0, res.stderr
        res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                      "--out", str(mask), "--tile", "32", env=env)
        assert res.returncode == 0, res.stderr
        outputs.append((ckpt.read_bytes(), mask.read_bytes()))
    for ckpt_bytes, mask_bytes in outputs[1:]:
        assert ckpt_bytes == outputs[0][0]
        assert mask_bytes == outputs[0][1]


# imports numpy before cordseg, as benchmarks/child.py does, so OpenBLAS has
# already read its variables when the CLI starts; prints the OpenBLAS thread
# count before the run, the counts unet.forward saw during it in this process
# (training's forked helpers call their own copy of the spy), and the count
# after it
_BLAS_THREADS_SEEN_BY_CLI = """
import json, sys
import numpy
from cordseg import cli, parallel, unet
blas = parallel._openblas()
if blas is None:
    sys.exit(print("none"))
get_threads, forward, seen = blas[1], unet.forward, set()
def spy(*args, **kwargs):
    seen.add(get_threads())
    return forward(*args, **kwargs)
unet.forward = spy
before = get_threads()
assert cli.main(sys.argv[1:]) == 0
print(json.dumps([before, sorted(seen), get_threads()]))
"""


def test_blas_gets_its_share_of_the_cores_only_while_cordseg_workers_run(
        tmp_path, trained, dataset_dir):
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip("one core: cordseg never runs two workers")
    frame_path = tmp_path / "frame.pgm"  # 2x3 tiles of 32
    frame_path.write_bytes(data.encode_pgm(np.tile(data.load_dataset(dataset_dir)[2].image,
                                                   (2, 3))))
    predict = ["predict", "--model", str(trained[0]), "--image", str(frame_path),
               "--out", str(tmp_path / "mask.pgm"), "--tile", "32"]
    train = ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "m.ckpt"),
             "--depth", "1", "--base-channels", "2", "--epochs", "1"]
    share = max(1, cores // 2)
    cases = [  # (argv, OPENBLAS_NUM_THREADS, counts forward sees; None: the count before)
        (predict + ["--threads", "2"], None, {share}),
        (predict + ["--threads", "1"], None, {None}),
        (predict + ["--threads", "2"], "2", {2}),
        (train, None, {share}),  # the shards and evaluate, while a helper runs
        (train, "2", {2}),  # one worker on 2 cores: no helper
        (["eval", "--model", str(trained[0]), "--data", str(dataset_dir)], None, {share}),
    ]
    for argv, threads, expected in cases:
        res = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SEEN_BY_CLI, *argv],
                             capture_output=True, text=True, env=_env_with_blas_threads(threads))
        assert res.returncode == 0, res.stderr
        if res.stdout.strip() == "none":
            pytest.skip("no OpenBLAS thread-count symbols in this numpy")
        before, seen, after = json.loads(res.stdout.splitlines()[-1])
        assert set(seen) == {before if n is None else n for n in expected}, (argv, threads, seen)
        assert after == before, (argv, threads, after)


# runs the CLI and appends the pid of every process it forks to argv[1]
_CLI_RECORDING_FORKS = """
import os, sys
from cordseg import cli
fork, log = os.fork, open(sys.argv[1], "a")
def recording_fork():
    pid = fork()
    if pid:
        print(pid, file=log, flush=True)
    return pid
os.fork = recording_fork
sys.exit(cli.main(sys.argv[2:]))
"""


def _assert_no_fork_outlives(tmp_path, argv, ending, before_ctrl_c):
    """Run the CLI on argv under _CLI_RECORDING_FORKS in a session of its
    own; for ctrl_c, send its process group SIGINT, as a terminal's Ctrl-C
    does, once before_ctrl_c(proc, forks) returns.  The exit code must be
    the ending's, and no process it forked may exist afterwards."""
    forks = tmp_path / "forks"
    proc = subprocess.Popen([sys.executable, "-c", _CLI_RECORDING_FORKS, str(forks), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_env_with_blas_threads(None), start_new_session=True)
    try:
        if ending == "ctrl_c":
            before_ctrl_c(proc, forks)
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == {"success": 0, "input_error": 2, "numeric_error": 3,
                               "ctrl_c": -signal.SIGINT}[ending], err
    pids = [int(line) for line in forks.read_text().split()]
    assert pids  # a helper ran
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _first_fork(proc, forks):
    deadline = time.monotonic() + 60
    while not (forks.exists() and forks.read_text().strip()):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)


@pytest.mark.parametrize("ending", ["success", "numeric_error", "ctrl_c"])
def test_train_leaves_no_process_behind(tmp_path, dataset_dir, ending):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core: train forks no helper")
    argv = ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "m.ckpt"),
            "--depth", "1", "--base-channels", "2", "--seed", "1", "--epochs",
            {"success": "2", "numeric_error": "3", "ctrl_c": "100000"}[ending]]
    if ending == "numeric_error":
        argv += ["--lr", "1e30"]

    def first_epoch(proc, forks):
        for line in proc.stderr:
            if line.startswith("epoch="):
                break

    _assert_no_fork_outlives(tmp_path, argv, ending, first_epoch)


@pytest.mark.parametrize("ending", ["success", "input_error", "ctrl_c"])
def test_predict_leaves_no_process_behind(tmp_path, ending):
    model = unet.init_params(unet.UNetConfig(depth=2, base_channels=8), 0)
    if ending == "input_error":  # finite weights whose forwards overflow into nan
        model = unet.Model(model.cfg, model.theta * np.float32(1e36))
    unet.save_checkpoint(model, tmp_path / "m.ckpt")
    side = 3072 if ending == "ctrl_c" else 128  # 2304 tiles: seconds to interrupt
    frame = (np.arange(side * side) % 251).astype(np.uint8).reshape(side, side)
    (tmp_path / "frame.pgm").write_bytes(data.encode_pgm(frame))
    argv = ["predict", "--model", str(tmp_path / "m.ckpt"), "--image",
            str(tmp_path / "frame.pgm"), "--out", str(tmp_path / "mask.pgm"),
            "--tile", "64", "--threads", "2"]
    _assert_no_fork_outlives(tmp_path, argv, ending, _first_fork)


@pytest.mark.parametrize("ending", ["success", "input_error", "ctrl_c"])
def test_eval_leaves_no_process_behind(tmp_path, ending):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core: eval forks no helper")
    model = unet.init_params(unet.UNetConfig(depth=2, base_channels=8), 0)
    if ending == "input_error":  # finite weights whose forwards overflow into nan
        model = unet.Model(model.cfg, model.theta * np.float32(1e36))
    unet.save_checkpoint(model, tmp_path / "m.ckpt")
    # 96 samples of 256x256: seconds of forwards to interrupt
    count, side = (96, 256) if ending == "ctrl_c" else (6, 32)
    frames = (np.arange(count * side * side) % 251).astype(np.uint8).reshape(count, side, side)
    data.save_dataset(tmp_path / "ds", [data.Sample(f"s{i}", frame, (frame > 125).astype(np.uint8))
                                        for i, frame in enumerate(frames)])
    argv = ["eval", "--model", str(tmp_path / "m.ckpt"), "--data", str(tmp_path / "ds")]
    _assert_no_fork_outlives(tmp_path, argv, ending, _first_fork)


def test_predict_workers_are_capped_at_the_cores(tmp_path, trained):
    # more threads than cores, on a frame of two tiles per thread: at most
    # one worker per core, the main process one of them
    cores = len(os.sched_getaffinity(0))
    tiles = 2 * (cores + 2)
    frame = (np.arange(32 * 32 * tiles) % 251).astype(np.uint8).reshape(32, -1)
    (tmp_path / "frame.pgm").write_bytes(data.encode_pgm(frame))
    forks = tmp_path / "forks"
    res = subprocess.run([sys.executable, "-c", _CLI_RECORDING_FORKS, str(forks), "predict",
                          "--model", str(trained[0]), "--image", str(tmp_path / "frame.pgm"),
                          "--out", str(tmp_path / "mask.pgm"), "--tile", "32",
                          "--threads", str(cores + 2)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert f"tiles={tiles} " in res.stderr
    pids = forks.read_text().split() if forks.exists() else []
    assert len(pids) <= cores - 1, pids


def test_predict_full_scale_frame_165_tiles(tmp_path, trained):
    ckpt, _ = trained
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, size=(2700, 3840), dtype=np.uint8)
    frame_path = tmp_path / "big.pgm"
    frame_path.write_bytes(data.encode_pgm(frame))
    mask_path = tmp_path / "big_mask.pgm"
    res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                  "--out", str(mask_path), "--tile", "256")
    assert res.returncode == 0, res.stderr
    assert "tiles=165" in res.stderr
    assert data.load_grayscale(mask_path).shape == (2700, 3840)


def test_predict_incompatible_tile_exits_2(tmp_path, trained, dataset_dir):
    ckpt, _ = trained
    frame_path = tmp_path / "frame.pgm"
    frame_path.write_bytes(data.encode_pgm(data.load_dataset(dataset_dir)[0].image))
    res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                  "--out", str(tmp_path / "m.pgm"), "--tile", "33")
    assert res.returncode == 2
    assert "2" in res.stderr  # names the required divisor


def _gray_png(side, idat):
    """A PNG of one 8-bit grayscale side x side frame around the given IDAT body."""
    def chunk(ctype, body):
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", zlib.crc32(ctype + body))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", side, side, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def test_predict_corrupt_png_exits_2(tmp_path, trained):
    # valid chunk framing and checksums around an IDAT that is not a zlib stream
    frame_path = tmp_path / "corrupt.png"
    frame_path.write_bytes(_gray_png(32, b"\x00not a zlib stream"))
    ckpt, _ = trained
    res = run_cli("predict", "--model", str(ckpt), "--image", str(frame_path),
                  "--out", str(tmp_path / "m.pgm"))
    assert res.returncode == 2
    assert "PNG image data is corrupt" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "m.pgm").exists()


_UNDER_MEMORY_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from cordseg import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_predict_out_of_memory_exits_2_with_one_line(tmp_path, trained):
    # a black 40000x40000 frame deflates to about 1.6 MB, and inflating its
    # 1.6 GB of scanlines takes more than a child limited to 3 GB of address
    # space may map.  A full flush restarts deflate from an empty window, so
    # every band after the first compresses to the same bytes: the stream is
    # built from two bands, and its Adler-32 trailer, that of n zero bytes,
    # is written by hand.
    side, rows = 40000, 100
    deflate = zlib.compressobj()
    block = bytes((side + 1) * rows)  # filter byte 0, then a row of zeros
    first = deflate.compress(block) + deflate.flush(zlib.Z_FULL_FLUSH)
    band = deflate.compress(block) + deflate.flush(zlib.Z_FULL_FLUSH)
    adler = (side + 1) * side % 65521 << 16 | 1
    idat = first + band * (side // rows - 1) + deflate.flush()[:-4] + struct.pack(">I", adler)
    frame_path = tmp_path / "bomb.png"
    frame_path.write_bytes(_gray_png(side, idat))
    res = subprocess.run([sys.executable, "-c", _UNDER_MEMORY_LIMIT, "predict",
                          "--model", str(trained[0]), "--image", str(frame_path),
                          "--out", str(tmp_path / "m.pgm")], capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), res.stderr
    assert not (tmp_path / "m.pgm").exists()


def test_eval_prints_parseable_report(trained, dataset_dir):
    ckpt, _ = trained
    res = run_cli("eval", "--model", str(ckpt), "--data", str(dataset_dir))
    assert res.returncode == 0, res.stderr
    assert REPORT_RE.match(res.stdout.strip().splitlines()[-1])


def test_eval_missing_model_exits_2(tmp_path, dataset_dir):
    res = run_cli("eval", "--model", str(tmp_path / "nope.ckpt"), "--data", str(dataset_dir))
    assert res.returncode == 2


def test_eval_perfect_predictions_print_iou_one(tmp_path):
    # a strongly negative head bias predicts all-background, which matches
    # an all-background dataset exactly
    model = unet.init_params(unet.UNetConfig(depth=1, base_channels=2), 42)
    model.layers[-1].bias[...] -= np.float32(50.0)
    ckpt = tmp_path / "perfect.ckpt"
    unet.save_checkpoint(model, ckpt)
    root = tmp_path / "blank"
    (root / "images").mkdir(parents=True)
    (root / "masks").mkdir(parents=True)
    for i in range(3):
        img = np.full((32, 32), 40 + i, np.uint8)
        (root / "images" / f"t{i}.pgm").write_bytes(data.encode_pgm(img))
        data.save_mask(root / "masks" / f"t{i}.pgm", np.zeros((32, 32), np.uint8))
    res = run_cli("eval", "--model", str(ckpt), "--data", str(root))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("iou=1.000000 pixel_acc=1.000000")


def test_eval_on_images_of_two_sizes_exits_2_naming_them(tmp_path):
    # all four samples fall in one evaluation batch, which cannot stack them
    model = unet.init_params(unet.UNetConfig(depth=1, base_channels=2), 42)
    ckpt = tmp_path / "m.ckpt"
    unet.save_checkpoint(model, ckpt)
    root = tmp_path / "mixed"
    (root / "images").mkdir(parents=True)
    (root / "masks").mkdir(parents=True)
    for i, side in enumerate((64, 64, 96, 64)):
        (root / "images" / f"t{i}.pgm").write_bytes(data.encode_pgm(np.zeros((side, side), np.uint8)))
        data.save_mask(root / "masks" / f"t{i}.pgm", np.zeros((side, side), np.uint8))
    res = run_cli("eval", "--model", str(ckpt), "--data", str(root))
    assert res.returncode == 2, res.stderr
    assert "(64, 64), (96, 96)" in res.stderr and "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1 and res.stdout == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_exits_2_in_predict_and_eval(tmp_path, dataset_dir, bad):
    # a NaN logit fails every threshold test: such a model predicts all background
    model = unet.init_params(unet.UNetConfig(depth=1, base_channels=2), 42)
    model.layers[-1].bias[0] = bad
    unet.save_checkpoint(model, tmp_path / "bad.ckpt")
    image = min((dataset_dir / "images").iterdir())
    for args in (("predict", "--image", str(image), "--out", str(tmp_path / "m.pgm")),
                 ("eval", "--data", str(dataset_dir))):
        res = run_cli(*args, "--model", str(tmp_path / "bad.ckpt"))
        assert res.returncode == 2, (args[0], res.stderr)
        assert "tensor 15 holds a non-finite value" in res.stderr and res.stdout == ""
    assert not (tmp_path / "m.pgm").exists()


@pytest.mark.parametrize("in_channels, out_channels", [(1, 2), (2, 1)])
def test_checkpoint_declaring_other_channel_counts_exits_2_in_predict_and_eval(
        tmp_path, dataset_dir, in_channels, out_channels):
    # refused at load, before any image is decoded or helper forked
    (tmp_path / "wide.ckpt").write_bytes(checkpoint_declaring(in_channels, out_channels))
    image = min((dataset_dir / "images").iterdir())
    for args in (("predict", "--image", str(image), "--out", str(tmp_path / "m.pgm"),
                  "--tile", "32"),
                 ("eval", "--data", str(dataset_dir))):
        res = run_cli(*args, "--model", str(tmp_path / "wide.ckpt"))
        assert res.returncode == 2, (args[0], res.stderr)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        assert "in_channels and out_channels are 1" in lines[0] and res.stdout == ""
    assert not (tmp_path / "m.pgm").exists()


def test_train_numeric_divergence_exits_3(tmp_path, dataset_dir):
    res = run_cli("train", "--data", str(dataset_dir), "--out",
                  str(tmp_path / "blown.ckpt"), "--depth", "1",
                  "--base-channels", "2", "--epochs", "3", "--lr", "1e30",
                  "--seed", "1")
    assert res.returncode == 3
    assert "numeric" in res.stderr.lower()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_predict_threads_below_one_exits_2(tmp_path, threads):
    res = run_cli("predict", "--model", str(tmp_path / "m.ckpt"), "--image",
                  str(tmp_path / "f.pgm"), "--out", str(tmp_path / "o.pgm"),
                  "--threads", threads)
    assert res.returncode == 2
    assert "--threads" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_threshold_outside_unit_interval_exits_2(tmp_path, command, threshold):
    paths = {"predict": ["--image", str(tmp_path / "f.pgm"), "--out", str(tmp_path / "o.pgm")],
             "eval": ["--data", str(tmp_path)]}[command]
    res = run_cli(command, "--model", str(tmp_path / "m.ckpt"), *paths,
                  "--threshold", threshold)
    assert res.returncode == 2
    assert "--threshold" in res.stderr
    assert not (tmp_path / "o.pgm").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.001"])
def test_train_non_positive_or_non_finite_lr_exits_2(tmp_path, dataset_dir, lr):
    ckpt = tmp_path / "m.ckpt"
    res = run_cli("train", "--data", str(dataset_dir), "--out", str(ckpt),
                  "--depth", "1", "--base-channels", "2", "--epochs", "1", "--lr", lr)
    assert res.returncode == 2
    assert "--lr" in res.stderr
    assert not ckpt.exists()


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
def test_gradcheck_non_positive_or_non_finite_step_exits_2(step):
    res = run_cli("gradcheck", "--step", step)
    assert res.returncode == 2
    assert "--step" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def _predict_workers(monkeypatch, tmp_path, trained, dataset_dir, *flags):
    """The tile workers an in-process `cordseg predict` runs on a frame of
    2x3 tiles of 32."""
    frame_path = tmp_path / "frame.pgm"
    frame_path.write_bytes(data.encode_pgm(np.tile(data.load_dataset(dataset_dir)[2].image,
                                                   (2, 3))))
    seen = []

    def spy(workers):
        seen.append(workers)
        return contextlib.nullcontext()

    monkeypatch.setattr(parallel, "share_cores", spy)
    assert cli.main(["predict", "--model", str(trained[0]), "--image", str(frame_path),
                     "--out", str(tmp_path / "mask.pgm"), "--tile", "32", *flags]) == 0
    return seen.pop()


def test_predict_threads_default_counts_cores_in_affinity_mask(
        monkeypatch, tmp_path, trained, dataset_dir):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _predict_workers(monkeypatch, tmp_path, trained, dataset_dir) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert _predict_workers(monkeypatch, tmp_path, trained, dataset_dir) == 3


def test_predict_threads_default_leaves_cores_for_a_user_blas_count(
        monkeypatch, tmp_path, trained, dataset_dir):
    # OPENBLAS_NUM_THREADS=2 on 2 cores: one tile worker, not 2 x 2 threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _predict_workers(monkeypatch, tmp_path, trained, dataset_dir) == 1
    assert _predict_workers(monkeypatch, tmp_path, trained, dataset_dir,
                            "--threads", "2") == 2
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert _predict_workers(monkeypatch, tmp_path, trained, dataset_dir) == 2


def test_cli_defaults_match_the_library_defaults():
    parser = cli.build_parser()
    train = parser.parse_args(["train", "--data", "d", "--out", "o"])
    net, cfg = unet.UNetConfig(), training.TrainConfig(epochs=1)
    assert (train.depth, train.base_channels) == (net.depth, net.base_channels)
    assert (train.lr, train.batch, train.seed, train.split, train.augment) == (
        cfg.learning_rate, cfg.batch_size, cfg.seed, cfg.split_ratio, cfg.augment)
    predict = parser.parse_args(["predict", "--model", "m", "--image", "i", "--out", "o"])
    frame_defaults = inspect.signature(pipeline.predict_frame).parameters
    assert (predict.tile, predict.threshold, predict.threads) == tuple(
        frame_defaults[name].default for name in ("tile_size", "threshold", "threads"))
    scored = parser.parse_args(["eval", "--model", "m", "--data", "d"])
    assert scored.threshold == inspect.signature(training.evaluate).parameters[
        "threshold"].default


def _assert_one_error_line(res):
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: "), res.stderr


def test_train_base_channels_too_large_for_numpy_exits_2(tmp_path, dataset_dir):
    ckpt = tmp_path / "m.ckpt"
    _assert_one_error_line(run_cli("train", "--data", str(dataset_dir), "--out", str(ckpt),
                                   "--depth", "3", "--base-channels", "100000000",
                                   "--epochs", "1"))
    assert not ckpt.exists()


def test_synth_size_too_large_for_numpy_exits_2(tmp_path):
    out = tmp_path / "d"
    _assert_one_error_line(run_cli("synth", "--out", str(out), "--count", "1",
                                   "--size", "10000000000"))
    assert not out.exists()


def _refuses_out(monkeypatch, capsys, tmp_path, module, name, argv, case):
    """cli.main(argv) with an --out it cannot write: exit 2 with one error
    line naming why, and module.name, the command's work, never called.
    The cases: --out in a missing directory, --out an existing directory,
    and train's history CSV beside it an existing directory."""
    called = []
    monkeypatch.setattr(module, name, lambda *a, **k: called.append(a))
    out = tmp_path / "missing" / "dir" / "m.out" if case == "missing_dir" else tmp_path / "m.out"
    made = {"directory": out, "history_directory": tmp_path / "m.history.csv"}.get(case)
    if made is not None:
        made.mkdir()
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    reason = "not a directory" if made is None else "is a directory"
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err, err
    assert called == []
    assert not (tmp_path / "missing").exists()
    assert made is None or (made.is_dir() and not any(made.iterdir()))


def _train_argv(dataset_dir):
    return ["train", "--data", str(dataset_dir), "--depth", "1", "--base-channels", "2",
            "--epochs", "1"]


def _predict_argv(trained, dataset_dir):
    return ["predict", "--model", str(trained[0]), "--image",
            str(sorted((dataset_dir / "images").iterdir())[0])]


def test_train_out_in_missing_directory_exits_2_before_training(
        monkeypatch, capsys, tmp_path, dataset_dir):
    _refuses_out(monkeypatch, capsys, tmp_path, training, "train",
                 _train_argv(dataset_dir), "missing_dir")


@pytest.mark.parametrize("case", ["directory", "history_directory"])
def test_train_out_that_is_a_directory_exits_2_before_training(
        monkeypatch, capsys, tmp_path, dataset_dir, case):
    _refuses_out(monkeypatch, capsys, tmp_path, training, "train",
                 _train_argv(dataset_dir), case)


def test_predict_out_in_missing_directory_exits_2_before_tiling(
        monkeypatch, capsys, tmp_path, trained, dataset_dir):
    _refuses_out(monkeypatch, capsys, tmp_path, pipeline, "predict_frame",
                 _predict_argv(trained, dataset_dir), "missing_dir")


def test_predict_out_that_is_a_directory_exits_2_before_tiling(
        monkeypatch, capsys, tmp_path, trained, dataset_dir):
    _refuses_out(monkeypatch, capsys, tmp_path, pipeline, "predict_frame",
                 _predict_argv(trained, dataset_dir), "directory")


def test_gradcheck_passes_and_prints_scientific(trained):
    res = run_cli("gradcheck", "--seed", "42")
    assert res.returncode == 0, res.stderr
    line = res.stdout.strip()
    assert re.match(r"^max_rel_error=\d\.\d{6}e[-+]\d{2} worst_index=\d+$", line), line


def test_gradcheck_seed_independence():
    for seed in ("7", "8"):
        res = run_cli("gradcheck", "--seed", seed)
        assert res.returncode == 0, (seed, res.stdout, res.stderr)


def test_gradcheck_sabotage_negative_control(monkeypatch, capsys):
    # pretend the analytic gradient at flat index 3 had the wrong sign
    monkeypatch.setattr(unet, "gradient_check", lambda **kwargs: (1.0, 3))
    assert cli.main(["gradcheck", "--seed", "42"]) == 1
    out, err = capsys.readouterr()
    assert "worst_index=3" in out
    assert "FAIL:" in err


def test_unknown_flag_exits_2():
    res = run_cli("train", "--data", "x", "--out", "y", "--frobnicate")
    assert res.returncode == 2


def test_bad_dataset_path_exits_2(tmp_path):
    res = run_cli("train", "--data", str(tmp_path / "missing"), "--out",
                  str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert res.returncode == 2


def test_importing_the_package_does_not_load_numpy():
    # so an entry point can still set BLAS thread variables before numpy loads
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cordseg; assert 'numpy' not in sys.modules"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
