import numpy as np
import pytest

from cordseg import ops, unet
from cordseg.errors import DomainError, ShapeError
from cordseg.rng import SplitMix64, derive
from cordseg.unet import UNetConfig

from reference import unet_parameter_count_reference


def small_input(seed, n=1, c=1, side=8):
    stream = SplitMix64(derive(seed, 0x601D))
    return stream.normal_array(n * c * side * side).astype(np.float32).reshape(n, c, side, side)


def test_config_validation():
    with pytest.raises(DomainError):
        UNetConfig(depth=0)
    with pytest.raises(DomainError):
        UNetConfig(base_channels=0)
    # more parameter bytes than numpy can index, or a bottleneck width of
    # 2^31 or more, which a depth of 10**18 must not build as an int
    for depth, base in ((3, 10**8), (31, 1), (10**18, 1)):
        with pytest.raises(DomainError):
            UNetConfig(depth=depth, base_channels=base)
    UNetConfig(depth=20, base_channels=1)  # 2^20 bottleneck channels still fit


def test_init_params_deterministic_bitwise():
    cfg = UNetConfig(depth=2, base_channels=4)
    a = unet.init_params(cfg, 99)
    b = unet.init_params(cfg, 99)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.weights, pb.weights)
        assert np.array_equal(pa.bias, pb.bias)
    c = unet.init_params(cfg, 100)
    assert not np.array_equal(a[0].weights, c[0].weights)


def test_init_params_biases_zero_and_dtype():
    for p in unet.init_params(UNetConfig(depth=1, base_channels=2), 7):
        assert np.all(p.bias == 0.0)
        assert p.weights.dtype == np.float32
        assert p.bias.dtype == np.float32


def test_parameter_count_431_for_depth1_base2():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    assert unet.parameter_count(params) == 431
    assert unet_parameter_count_reference(1, 2) == 431


@pytest.mark.parametrize("depth,base", [(1, 2), (1, 4), (2, 2), (2, 8), (3, 4)])
def test_parameter_count_matches_counting_oracle(depth, base):
    params = unet.init_params(UNetConfig(depth=depth, base_channels=base), 0)
    assert unet.parameter_count(params) == unet_parameter_count_reference(depth, base)


def test_weight_std_tracks_he_scale():
    # a large tensor's sample std should land close to sqrt(2/fan_in)
    params = unet.init_params(UNetConfig(depth=2, base_channels=16), 3)
    w = params[3].weights  # encoder conv 32->32: fan_in = 32*9
    expected = np.sqrt(2.0 / (32 * 9))
    assert abs(w.std() / expected - 1.0) < 0.1


def test_config_from_params_round_trip():
    for cfg in (UNetConfig(1, 2), UNetConfig(2, 8), UNetConfig(3, 4, 1, 1)):
        assert unet.config_from_params(unet.init_params(cfg, 5)) == cfg


def test_unflatten_params_returns_views_of_the_vector():
    cfg = UNetConfig(depth=2, base_channels=4)
    vector = unet.flatten_params(unet.init_params(cfg, 12))
    assert vector.dtype == np.float32
    params = unet.unflatten_params(vector, cfg)
    assert unet.config_from_params(params) == cfg
    for p in params:
        assert np.shares_memory(p.weights, vector) and np.shares_memory(p.bias, vector)
    vector[0] = 7.0
    assert params[0].weights.flat[0] == 7.0
    again = unet.flatten_params(params)
    assert again.dtype == vector.dtype
    assert again.tobytes() == vector.tobytes()


def test_unflatten_params_rejects_wrong_length():
    cfg = UNetConfig(depth=1, base_channels=2)
    with pytest.raises(ShapeError):
        unet.unflatten_params(np.zeros(430, np.float32), cfg)


def test_forward_shape_contract():
    params = unet.init_params(UNetConfig(depth=2, base_channels=8), 42)
    x = small_input(1, n=1, side=64)
    logits, _ = unet.forward(params, x)
    assert logits.shape == (1, 1, 64, 64)


def test_forward_rejects_indivisible_size_naming_divisor():
    params = unet.init_params(UNetConfig(depth=3, base_channels=2), 42)
    with pytest.raises(ShapeError) as err:
        unet.forward(params, small_input(1, side=12))
    assert "8" in str(err.value)


def test_forward_identical_batch_rows_give_identical_logits():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    one = small_input(2, side=8)
    batch = np.concatenate([one, one], axis=0)
    logits, _ = unet.forward(params, batch)
    assert np.array_equal(logits[0], logits[1])


def test_forward_repeated_calls_bitwise_equal():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    x = small_input(3)
    a, _ = unet.forward(params, x)
    b, _ = unet.forward(params, x)
    assert np.array_equal(a, b)


def test_forward_golden_logits():
    # frozen after the gradient and oracle suites passed
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, _ = unet.forward(params, small_input(42))
    corner = np.array([[0.8779507, 1.0318687], [0.58967793, -0.11743157]], np.float32)
    np.testing.assert_allclose(logits[0, 0, :2, :2], corner, atol=1e-5)
    assert float(logits.sum()) == pytest.approx(28.250978, abs=1e-3)


def test_forward_without_record_gives_identical_logits():
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    x = small_input(9, n=2, side=16)
    recorded, _ = unet.forward(params, x)
    bare, _ = unet.forward(params, x, record=False)
    assert np.array_equal(recorded, bare)


def test_forward_with_tiny_column_bands_matches_default(monkeypatch):
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    x = small_input(12, n=2, side=16)
    want, _ = unet.forward(params, x, record=False)
    monkeypatch.setattr(ops, "_BAND_BYTES", 256)
    got, _ = unet.forward(params, x, record=False)
    # banding changes which GEMM kernels run, so only a tolerance holds
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_forward_without_record_computes_no_pool_index(monkeypatch):
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    x = small_input(13, n=2, side=16)
    want, _ = unet.forward(params, x)

    def no_index(_):
        raise AssertionError("an inference forward computed a pool argmax index")

    monkeypatch.setattr(ops, "maxpool2", no_index)
    got, _ = unet.forward(params, x, record=False)
    assert np.array_equal(got, want)


def test_forward_without_record_keeps_no_records():
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    logits, cache = unet.forward(params, small_input(10, side=16), record=False)
    assert list(cache.records) == []
    assert cache.logits_shape == logits.shape


def test_backward_rejects_cache_without_records():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, cache = unet.forward(params, small_input(11), record=False)
    with pytest.raises(DomainError):
        unet.backward(params, cache, np.zeros_like(logits))


def test_backward_zero_upstream_gives_zero_gradients():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, cache = unet.forward(params, small_input(4))
    grads = unet.unflatten_params(unet.backward(params, cache, np.zeros_like(logits)),
                                  UNetConfig(depth=1, base_channels=2))
    for g in grads:
        assert np.all(g.weights == 0.0)
        assert np.all(g.bias == 0.0)


def test_backward_head_bias_is_channel_summed_upstream():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, cache = unet.forward(params, small_input(5))
    g = np.ones_like(logits) * 0.25
    grads = unet.unflatten_params(unet.backward(params, cache, g),
                                  UNetConfig(depth=1, base_channels=2))
    np.testing.assert_allclose(grads[-1].bias, g.sum(axis=(0, 2, 3)), rtol=1e-6)


def test_backward_aligns_with_params_shapes():
    cfg = UNetConfig(depth=2, base_channels=4)
    params = unet.init_params(cfg, 8)
    logits, cache = unet.forward(params, small_input(6, side=16))
    grads = unet.unflatten_params(unet.backward(params, cache, np.ones_like(logits)), cfg)
    assert len(grads) == len(params)
    for g, p in zip(grads, params):
        assert g.weights.shape == p.weights.shape
        assert g.bias.shape == p.bias.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_returns_one_flat_vector_in_the_parameter_dtype(dtype):
    cfg = UNetConfig(depth=1, base_channels=2)
    theta = unet.flatten_params(unet.init_params(cfg, 3)).astype(dtype)
    params = unet.unflatten_params(theta, cfg)
    logits, cache = unet.forward(params, small_input(9).astype(dtype))
    grad = unet.backward(params, cache, np.ones_like(logits))
    assert isinstance(grad, np.ndarray)
    assert grad.shape == (unet.parameter_count(params),)
    assert grad.dtype == dtype


def test_backward_consumes_cache_once():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, cache = unet.forward(params, small_input(7))
    unet.backward(params, cache, np.zeros_like(logits))
    assert cache.records == []  # each activation is freed once its gradient is computed
    with pytest.raises(DomainError):
        unet.backward(params, cache, np.zeros_like(logits))


def test_backward_skips_the_image_gradient(monkeypatch):
    cfg = UNetConfig(depth=2, base_channels=4)
    params = unet.init_params(cfg, 8)
    logits, cache = unet.forward(params, small_input(14, side=16))
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    unet.backward(params, cache, np.ones_like(logits))
    # a kh x kw conv's backward runs kh weight-gradient GEMMs and one input-gradient
    # GEMM (an upconv is a 1x1 conv); layer 0's input gradient is the image's and is skipped
    want = sum(1 + (k if kind == "conv" else 1) for kind, _, _, k in unet.layer_plan(cfg)) - 1
    assert len(calls) == want
    assert (3 * cfg.in_channels, 3 * cfg.base_channels) not in calls  # layer 0's flipped kernel


def test_backward_rejects_wrong_gradient_shape():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    _, cache = unet.forward(params, small_input(8))
    with pytest.raises(ShapeError):
        unet.backward(params, cache, np.zeros((1, 1, 4, 4), np.float32))


def test_full_model_gradient_check():
    err, _ = unet.gradient_check(UNetConfig(depth=1, base_channels=2), side=8, seed=42)
    assert err < 1e-3


def test_gradient_check_other_seeds_pass_too():
    for seed in (7, 8):
        err, _ = unet.gradient_check(seed=seed)
        assert err < 1e-3, f"seed {seed}: {err}"


def test_gradient_check_depth2():
    err, _ = unet.gradient_check(UNetConfig(depth=2, base_channels=2), side=8, seed=1)
    assert err < 1e-3
