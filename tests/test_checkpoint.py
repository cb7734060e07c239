import struct
import tracemalloc

import numpy as np
import pytest

from cordseg import unet
from cordseg.errors import CordsegError
from cordseg.rng import SplitMix64
from cordseg.unet import (CheckpointDimError, CheckpointError, CheckpointMagicError,
                          CheckpointTruncatedError, CheckpointVersionError, UNetConfig)

from reference import checkpoint_declaring


@pytest.fixture
def saved(tmp_path):
    cfg = UNetConfig(depth=2, base_channels=4)
    model = unet.init_params(cfg, 77)
    path = tmp_path / "model.ckpt"
    unet.save_checkpoint(model, path)
    return model, cfg, path


def test_round_trip_is_bitwise_identity(saved):
    model, cfg, path = saved
    loaded = unet.load_checkpoint(path)
    assert loaded.cfg == cfg
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert a.weights.dtype == b.weights.dtype == np.float32
        assert np.array_equal(a.bias, b.bias)


def test_save_twice_gives_identical_bytes(saved, tmp_path):
    model, _, path = saved
    other = tmp_path / "again.ckpt"
    unet.save_checkpoint(model, other)
    assert path.read_bytes() == other.read_bytes()


def test_header_layout(saved):
    _, cfg, path = saved
    blob = path.read_bytes()
    assert blob[:4] == b"UNET"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == cfg.depth
    assert int.from_bytes(blob[12:16], "little") == cfg.base_channels
    assert struct.unpack("<2I", blob[16:24]) == (1, 1)  # in_channels, out_channels


def test_a_one_channel_file_written_by_hand_loads(tmp_path):
    path = tmp_path / "hand.ckpt"
    path.write_bytes(checkpoint_declaring(1, 1))
    model = unet.load_checkpoint(path)
    assert model.cfg == UNetConfig(depth=1, base_channels=2)
    assert np.all(model.theta == np.float32(0.25))


@pytest.mark.parametrize("in_channels, out_channels", [(1, 2), (2, 1)])
def test_a_header_declaring_other_channel_counts_is_refused(tmp_path, in_channels, out_channels):
    # every tensor has the dims the declared counts imply: only the counts are wrong
    path = tmp_path / "wide.ckpt"
    path.write_bytes(checkpoint_declaring(in_channels, out_channels))
    with pytest.raises(CheckpointDimError, match="in_channels and out_channels are 1"):
        unet.load_checkpoint(path)


def test_bad_magic(saved, tmp_path):
    _, _, path = saved
    corrupt = tmp_path / "bad.ckpt"
    corrupt.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(CheckpointMagicError):
        unet.load_checkpoint(corrupt)


def test_unsupported_version(saved, tmp_path):
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    blob[4:8] = (9).to_bytes(4, "little")
    corrupt = tmp_path / "v9.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        unet.load_checkpoint(corrupt)


def test_truncated_mid_tensor_names_tensor_index(saved, tmp_path):
    _, _, path = saved
    blob = path.read_bytes()
    corrupt = tmp_path / "short.ckpt"
    corrupt.write_bytes(blob[: len(blob) - len(blob) // 3])
    with pytest.raises(CheckpointTruncatedError) as err:
        unet.load_checkpoint(corrupt)
    assert "tensor" in str(err.value)


def test_dim_overflow(saved, tmp_path):
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    # first tensor: rank field sits right after the 24-byte header
    rank_at = 24
    dim_at = rank_at + 4
    blob[dim_at:dim_at + 4] = (1 << 31).to_bytes(4, "little")
    corrupt = tmp_path / "dims.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckpointDimError):
        unet.load_checkpoint(corrupt)


def test_dim_product_overflow_rejected(saved, tmp_path):
    # each dim passes the per-dim bound but the product must still be caught
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    big = (1 << 30).to_bytes(4, "little")
    for slot in range(4):
        at = 24 + 4 + 4 * slot
        blob[at:at + 4] = big
    corrupt = tmp_path / "wrap.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckpointDimError):
        unet.load_checkpoint(corrupt)


def test_trailing_bytes_rejected(saved, tmp_path):
    _, _, path = saved
    corrupt = tmp_path / "extra.ckpt"
    corrupt.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(CheckpointError):
        unet.load_checkpoint(corrupt)


@pytest.mark.parametrize("bad, tensor", [(np.nan, 3), (np.inf, 4), (-np.inf, 0)])
def test_non_finite_value_is_rejected_naming_its_tensor(saved, tmp_path, bad, tensor):
    model, _, _ = saved
    [t for p in model.layers for t in (p.weights, p.bias)][tensor].flat[-1] = bad
    path = tmp_path / "bad.ckpt"
    unet.save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=f"tensor {tensor} holds a non-finite value"):
        unet.load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        unet.load_checkpoint(tmp_path / "nope.ckpt")


def test_loaded_layers_are_views_of_one_vector(saved):
    _, _, path = saved
    loaded = unet.load_checkpoint(path).layers
    base = loaded[0].weights.base
    assert base is not None and base.ndim == 1
    assert all(p.weights.base is base and p.bias.base is base for p in loaded)


def test_header_only_file_with_huge_config_is_rejected_cheaply(tmp_path):
    # depth = base_channels = 65535 passes the per-field range check, but its
    # bottleneck width base << depth cannot be stored as a dimension
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"UNET" + struct.pack("<5I", 1, 65535, 65535, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointDimError, match="bottleneck"):
            unet.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _mutate(rng, blob):
    kind = rng.randbelow(3)
    if kind == 0:  # flip one to three bytes
        out = bytearray(blob)
        for _ in range(1 + rng.randbelow(3)):
            out[rng.randbelow(len(out))] ^= 1 + rng.randbelow(255)
        return bytes(out)
    if kind == 1:  # truncate
        return blob[:rng.randbelow(len(blob))]
    at = rng.randbelow(len(blob))  # delete 1 to 16 bytes
    return blob[:at] + blob[at + 1 + rng.randbelow(16):]


def test_checkpoint_fuzz_returns_model_or_cordseg_error(tmp_path):
    cfg = UNetConfig(depth=1, base_channels=2)
    good = tmp_path / "good.ckpt"
    unet.save_checkpoint(unet.init_params(cfg, 3), good)
    blob = good.read_bytes()
    rng = SplitMix64(41)
    path = tmp_path / "fuzz.ckpt"
    outcomes = {"model": 0, "error": 0}
    for case in range(1500):
        path.write_bytes(_mutate(rng, blob))
        try:
            model = unet.load_checkpoint(path)
        except CordsegError:
            outcomes["error"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - the failure this test looks for
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
        assert [(p.weights.shape, p.bias.shape) for p in model.layers] == \
            unet.param_shapes(model.cfg), case
        outcomes["model"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_load_holds_the_parameters_and_one_tensor_at_most(tmp_path):
    # reading the whole file, or gathering its tensors before joining them,
    # peaks near twice the parameter bytes
    cfg = UNetConfig(depth=3, base_channels=32)
    path = tmp_path / "model.ckpt"
    unet.save_checkpoint(unet.init_params(cfg, 5), path)
    param_bytes = 4 * unet.init_params(cfg, 5).theta.size
    tracemalloc.start()
    try:
        model = unet.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.cfg == cfg
    assert peak < 1.5 * param_bytes, peak / param_bytes


def test_load_peaks_below_the_parameters_and_one_largest_tensor(tmp_path):
    # the tensors are read through one scratch array the size of the largest
    cfg = UNetConfig(depth=3, base_channels=32)
    path = tmp_path / "model.ckpt"
    unet.save_checkpoint(unet.init_params(cfg, 5), path)
    largest = 4 * max(p.weights.size for p in unet.init_params(cfg, 5).layers)
    param_bytes = 4 * unet.init_params(cfg, 5).theta.size
    tracemalloc.start()
    try:
        unet.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < param_bytes + largest + 2**20, (peak - param_bytes) / largest


def test_short_file_with_a_large_valid_config_allocates_no_model(tmp_path):
    # depth 14 from one base channel is a valid config of 32 GB of parameters
    path = tmp_path / "short.ckpt"
    path.write_bytes(b"UNET" + struct.pack("<5I", 1, 14, 1, 1, 1)
                     + struct.pack("<5I", 4, 1, 1, 3, 3))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointTruncatedError, match="tensor 0 data"):
            unet.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
