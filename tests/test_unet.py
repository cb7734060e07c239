import tracemalloc

import numpy as np
import pytest

from cordseg import ops, unet
from cordseg.errors import DomainError, ShapeError
from cordseg.rng import SplitMix64, derive
from cordseg.unet import UNetConfig

from reference import unet_parameter_count_reference


def small_input(seed, n=1, side=8):
    stream = SplitMix64(derive(seed, 0x601D))
    return stream.normal_array(n * side * side).astype(np.float32).reshape(n, 1, side, side)


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
    a = unet.init_params(cfg, 99).layers
    b = unet.init_params(cfg, 99).layers
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.weights, pb.weights)
        assert np.array_equal(pa.bias, pb.bias)
    c = unet.init_params(cfg, 100).layers
    assert not np.array_equal(a[0].weights, c[0].weights)


def test_init_params_biases_zero_and_dtype():
    for p in unet.init_params(UNetConfig(depth=1, base_channels=2), 7).layers:
        assert np.all(p.bias == 0.0)
        assert p.weights.dtype == np.float32
        assert p.bias.dtype == np.float32


def test_init_params_draws_the_whole_layer_stream_bitwise():
    # drawn in blocks, the weights are still each layer's normal_array draws
    cfg = UNetConfig(depth=2, base_channels=16)  # layers of up to 36864 weights
    stream = SplitMix64(5)
    for (kind, c_in, _, k), p in zip(unet.layer_plan(cfg), unet.init_params(cfg, 5).layers):
        fan_in = c_in if kind == "upconv" else c_in * k * k
        want = stream.normal_array(p.weights.size) * np.sqrt(2.0 / fan_in)
        assert p.weights.tobytes() == want.astype(np.float32).tobytes(), (kind, c_in)


def test_init_params_draws_each_layer_in_bounded_blocks():
    # a whole layer's float64 Box-Muller temporaries peaked at 3.76x the
    # parameter bytes at depth 3 base 32
    cfg = UNetConfig(depth=3, base_channels=32)
    tracemalloc.start()
    try:
        model = unet.init_params(cfg, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * model.theta.nbytes, peak / model.theta.nbytes


def test_parameter_count_431_for_depth1_base2():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    assert params.theta.size == 431
    assert unet_parameter_count_reference(1, 2) == 431


@pytest.mark.parametrize("depth,base", [(1, 2), (1, 4), (2, 2), (2, 8), (3, 4)])
def test_parameter_count_matches_counting_oracle(depth, base):
    params = unet.init_params(UNetConfig(depth=depth, base_channels=base), 0)
    assert params.theta.size == unet_parameter_count_reference(depth, base)


def test_weight_std_tracks_he_scale():
    # a large tensor's sample std should land close to sqrt(2/fan_in)
    params = unet.init_params(UNetConfig(depth=2, base_channels=16), 3).layers
    w = params[3].weights  # encoder conv 32->32: fan_in = 32*9
    expected = np.sqrt(2.0 / (32 * 9))
    assert abs(w.std() / expected - 1.0) < 0.1


def test_unflatten_params_returns_views_of_the_vector():
    cfg = UNetConfig(depth=2, base_channels=4)
    vector = unet.init_params(cfg, 12).theta
    assert vector.dtype == np.float32
    params = unet.unflatten_params(vector, cfg)
    for p in params:
        assert np.shares_memory(p.weights, vector) and np.shares_memory(p.bias, vector)
    vector[0] = 7.0
    assert params[0].weights.flat[0] == 7.0


def gemm_kernels(model):
    """Each layer's GEMM kernel, reshaped the way ops.conv2d and ops.upconv2 reshape it."""
    for (kind, *_), p in zip(unet.layer_plan(model.cfg), model.layers):
        if kind == "upconv":
            ic, oc, _, _ = p.weights.shape
            yield p.weights.transpose(1, 2, 3, 0).reshape(4 * oc, ic)
        else:
            oc, ic, kh, kw = p.weights.shape
            yield p.weights.transpose(2, 0, 1, 3).reshape(kh * oc, ic * kw)


def test_gemm_kernels_are_views_of_the_parameter_vector(tmp_path):
    cfg = UNetConfig(depth=2, base_channels=4)
    path = tmp_path / "model.ckpt"
    unet.save_checkpoint(unet.init_params(cfg, 5), path)
    for model in (unet.init_params(cfg, 5), unet.load_checkpoint(path)):
        params, vector = model.layers, model.theta
        kernels = list(gemm_kernels(model))
        assert len(kernels) == len(params)
        for kernel in kernels:
            assert np.shares_memory(kernel, vector)


def test_unflatten_params_rejects_wrong_length():
    cfg = UNetConfig(depth=1, base_channels=2)
    with pytest.raises(ShapeError):
        unet.unflatten_params(np.zeros(430, np.float32), cfg)
    with pytest.raises(ShapeError):
        unet.Model(cfg, np.zeros(430, np.float32))


def test_forward_shape_contract():
    params = unet.init_params(UNetConfig(depth=2, base_channels=8), 42)
    x = small_input(1, n=1, side=64)
    logits, _ = unet.forward(params, x)
    assert logits.shape == (1, 1, 64, 64)


def test_the_network_reads_one_channel_and_emits_one():
    cfg = UNetConfig(depth=2, base_channels=4)
    plan = unet.layer_plan(cfg)
    assert plan[0][1] == 1 and plan[-1][2] == 1
    model = unet.init_params(cfg, 42)
    for c in (2, 3):
        x = np.zeros((1, c, 16, 16), np.float32)
        for workspace in (None, unet.Workspace()):
            with pytest.raises(ShapeError, match=f"batch has {c} channels, model expects 1"):
                unet.forward(model, x, workspace)


DEPTHS = [1, 2, 3, 4]


def readers(steps):
    """Each value's readers, the steps that read it, in order."""
    found = {}
    for i, step in enumerate(steps):
        for v in step.reads:
            found.setdefault(v, []).append(i)
    return found


@pytest.mark.parametrize("depth", DEPTHS)
def test_schedule_numbers_its_parameter_layers_in_canonical_order(depth):
    steps = unet.schedule(UNetConfig(depth=depth, base_channels=3))
    kinds = (["conv_relu", "conv_relu", "pool"] * depth + ["conv_relu"] * 2
             + ["upconv", "conv_relu", "conv_relu"] * depth + ["conv"])
    assert [s.kind for s in steps] == kinds
    assert [s.layer for s in steps if s.kind != "pool"] == list(range(len(steps) - depth))
    assert all(s.layer is None for s in steps if s.kind == "pool")
    # every step reads the last step's output first
    assert all(s.reads[0] == i for i, s in enumerate(steps))


@pytest.mark.parametrize("depth", DEPTHS)
def test_each_skip_is_read_by_its_pool_and_its_decoders_first_conv_only(depth):
    steps = unet.schedule(UNetConfig(depth=depth, base_channels=3))
    found = readers(steps)
    pools = [i for i, s in enumerate(steps) if s.kind == "pool"]
    joins = [i for i, s in enumerate(steps) if len(s.reads) > 1]
    skips = [steps[i].reads[0] for i in pools]  # top-down
    assert [steps[i].reads[1] for i in joins] == skips[::-1]  # decoders run bottom-up
    for skip, pool, join in zip(skips, pools, joins[::-1]):
        assert found[skip] == [pool, join]
        assert steps[join].c_in == 2 * steps[skip - 1].c_out == 2 * steps[join].c_out
    # every other value but the logits has one reader, the next step
    for v in set(range(len(steps))) - set(skips):
        assert found[v] == [v]
    assert len(steps) not in found


@pytest.mark.parametrize("depth", DEPTHS)
def test_every_value_but_the_logits_is_freed_once_by_its_last_reader(depth):
    steps = unet.schedule(UNetConfig(depth=depth, base_channels=3))
    frees = [(v, i) for i, s in enumerate(steps) for v in s.frees]
    assert sorted(v for v, _ in frees) == list(range(len(steps)))
    found = readers(steps)
    assert all(i == found[v][-1] for v, i in frees)


@pytest.mark.parametrize("depth", DEPTHS)
def test_layer_plan_is_in_param_shapes_order(depth):
    cfg = UNetConfig(depth=depth, base_channels=3)
    plan, shapes, layers = unet.layer_plan(cfg), unet.param_shapes(cfg), unet.init_params(cfg, 0).layers
    assert len(plan) == len(shapes) == len(layers)
    for (kind, c_in, c_out, k), (w, b), p in zip(plan, shapes, layers):
        assert w == ((c_in, c_out, k, k) if kind == "upconv" else (c_out, c_in, k, k))
        assert b == (c_out,)
        assert (p.weights.shape, p.bias.shape) == (w, b)


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


def test_forward_with_tiny_column_bands_matches_default(monkeypatch):
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    x = small_input(12, n=2, side=16)
    want, _ = unet.forward(params, x, unet.Workspace())
    monkeypatch.setattr(ops, "_BAND_BYTES", 256)
    got, _ = unet.forward(params, x, unet.Workspace())
    # banding changes which GEMM kernels run, so only a tolerance holds
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_workspace_rejects_a_request_its_plan_does_not_hold(monkeypatch):
    # a plan made under one band budget: smaller bands ask for less scratch,
    # and the first such request names both shapes
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    x = small_input(13, n=2, side=16)
    workspace = unet.Workspace()
    unet.forward(params, x, workspace)
    planned = ops.conv2d_scratch_size(x.shape, params.layers[0].weights.shape, 4)
    monkeypatch.setattr(ops, "_BAND_BYTES", 256)
    requested = ops.conv2d_scratch_size(x.shape, params.layers[0].weights.shape, 4)
    assert requested < planned
    with pytest.raises(ShapeError, match=rf"\({requested},\).*\({planned},\)"):
        unet.forward(params, x, workspace)
    # a plan one buffer short fails on the request it cannot serve
    plan = unet._inference_layout

    def short_plan(*args):
        fit = plan(*args)
        del fit.placed[-1]
        return fit

    monkeypatch.setattr(unet, "_inference_layout", short_plan)
    with pytest.raises(ShapeError, match="nothing more"):
        unet.forward(params, x, unet.Workspace())


def forward_memory(params, x, workspace=None):
    """(bytes held while the forward's output is alive, peak bytes) of one forward."""
    tracemalloc.start()
    try:
        out = unet.forward(params, x, workspace)  # alive while memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def zero_model(cfg):
    return unet.Model(cfg, np.zeros(unet._parameter_total(cfg), np.float32))


def test_recorded_activations_hold_each_skip_once():
    # the records held 191.9 MiB at depth 4 base 32 on (2, 1, 256, 256) while
    # each decoder level kept a concatenated copy of its skip besides the skip
    x = small_input(18, n=2, side=256)
    held = forward_memory(zero_model(UNetConfig(depth=4, base_channels=32)), x)[0]
    assert held < 169 * 2**20, held / 2**20


@pytest.mark.parametrize("cfg, n, sides, dtype", [
    (UNetConfig(depth=3, base_channels=4), 1, (8, 24, 64), np.float32),
    (UNetConfig(depth=3, base_channels=4), 2, (16, 40), np.float32),
    (UNetConfig(depth=1, base_channels=3), 5, (6, 10), np.float32),
    (UNetConfig(depth=2, base_channels=4), 5, (12, 20), np.float64),
    (UNetConfig(depth=4, base_channels=2), 5, (16, 48), np.float64),
])
def test_forward_in_a_workspace_gives_the_recording_forward_logits_bitwise(cfg, n, sides, dtype):
    model = unet.Model(cfg, unet.init_params(cfg, 42).theta.astype(dtype))
    workspace = unet.Workspace()
    for side in sides + sides[:1]:  # a new shape plans anew; a known one replays
        x = small_input(side, n=n, side=side).astype(dtype)
        want, _ = unet.forward(model, x)
        for _ in range(2):
            got, cache = unet.forward(model, x, workspace)
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), side
            assert cache.records == [] and cache.logits_shape == got.shape


def test_second_forward_in_a_workspace_allocates_only_its_logits():
    params = zero_model(UNetConfig(depth=3, base_channels=16))
    x = small_input(20, side=128)
    workspace = unet.Workspace()
    unet.forward(params, x, workspace)
    tracemalloc.start()
    try:
        unet.forward(params, x, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # the block takes 5.0 MiB


def test_workspace_block_stays_near_the_plain_forward_peak():
    # first fit lays one 256 tile of the default model out in 64.0 MiB; a
    # forward that allocated each buffer on its own and freed it after its
    # last reader peaked at 59.82 MiB, and a block of every buffer's own
    # bytes, with no reuse, would take 389.7 MiB
    params, x = zero_model(UNetConfig()), small_input(21, side=256)
    first = forward_memory(params, x, unet.Workspace())[1]  # the block, the logits and the plan
    assert first <= 1.10 * 59.82 * 2**20, first / 2**20


def test_the_default_models_256_tile_plan_takes_64_mib():
    # the plan's size follows from the schedule's free order alone
    assert unet._inference_layout(UNetConfig(), (1, 1, 256, 256), 4).size * 4 == 64 * 2**20


def test_inference_forward_copies_no_kernel():
    # on a tiny tile the activations are small beside the widest kernel,
    # which a per-call copy of the kernel would have to allocate
    params = unet.init_params(UNetConfig(depth=2, base_channels=64), 42)
    largest = max(p.weights.nbytes for p in params.layers)
    peak = forward_memory(params, small_input(15, side=16), unet.Workspace())[1]
    assert peak < largest, peak / largest


def test_conv_relu_records_share_each_activation_with_the_next_layer():
    # relu runs in place, so a conv_relu record's output is the very array the
    # next parameter layer records as its input: training keeps it once
    params = unet.init_params(UNetConfig(depth=2, base_channels=4), 42)
    _, cache = unet.forward(params, small_input(16, side=16))
    pairs = [(a, b) for a, b in zip(cache.records, cache.records[1:])
             if a[0] == "conv_relu" and b[0] in ("conv_relu", "upconv", "conv")]
    assert len(pairs) == 8  # every conv_relu but the two that feed a pool
    for a, b in pairs:
        assert b[1] is a[2]
        assert np.all(a[2] >= 0)
    # a pool record holds the conv_relu output it pools and the next layer's input
    pools = [(a, b, c) for a, b, c in zip(cache.records, cache.records[1:], cache.records[2:])
             if b[0] == "pool"]
    assert len(pools) == 2
    for a, b, c in pools:
        assert a[0] == "conv_relu" and b[1] is a[2] and c[1] is b[2]
    # each decoder level's first conv reads (upconv output, skip), the skip
    # being the encoder's output itself: training keeps it once
    skips = [a[2] for a, _, _ in pools]
    joins = [r[1] for r in cache.records if isinstance(r[1], tuple)]
    assert len(joins) == len(skips) == 2
    assert all(skip is encoded for (_, skip), encoded in zip(joins, skips[::-1]))


def test_backward_rejects_cache_without_records():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    logits, cache = unet.forward(params, small_input(11), unet.Workspace())
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
    model = unet.init_params(cfg, 8)
    params = model.layers
    logits, cache = unet.forward(model, small_input(6, side=16))
    grads = unet.unflatten_params(unet.backward(model, cache, np.ones_like(logits)), cfg)
    assert len(grads) == len(params)
    for g, p in zip(grads, params):
        assert g.weights.shape == p.weights.shape
        assert g.bias.shape == p.bias.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_returns_one_flat_vector_in_the_parameter_dtype(dtype):
    cfg = UNetConfig(depth=1, base_channels=2)
    theta = unet.init_params(cfg, 3).theta.astype(dtype)
    model = unet.Model(cfg, theta)
    logits, cache = unet.forward(model, small_input(9).astype(dtype))
    grad = unet.backward(model, cache, np.ones_like(logits))
    assert isinstance(grad, np.ndarray)
    assert grad.shape == (theta.size,)
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
    assert (3, 3 * cfg.base_channels) not in calls  # layer 0's flipped kernel, one input channel


def test_backward_rejects_wrong_gradient_shape():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 42)
    _, cache = unet.forward(params, small_input(8))
    with pytest.raises(ShapeError):
        unet.backward(params, cache, np.zeros((1, 1, 4, 4), np.float32))


def test_full_model_gradient_check():
    err, _ = unet.gradient_check(UNetConfig(depth=1, base_channels=2), seed=42)
    assert err < 1e-3


def test_gradient_check_other_seeds_pass_too():
    for seed in (7, 8):
        err, _ = unet.gradient_check(seed=seed)
        assert err < 1e-3, f"seed {seed}: {err}"


def test_gradient_check_reports_the_worst_index_in_checkpoint_order(monkeypatch):
    # flip the analytic gradient of one conv weight whose place in the
    # parameter vector differs from its place in the checkpoint
    cfg = UNetConfig(depth=1, base_channels=2)
    layer, coord = 1, (1, 0, 0, 2)  # encoder conv2, (oc, ic, kh, kw)
    shapes = unet.param_shapes(cfg)
    offset = sum(np.prod(w) + np.prod(b) for w, b in shapes[:layer])
    want = int(offset + np.ravel_multi_index(coord, shapes[layer][0]))
    index = unet.unflatten_params(np.arange(unet._parameter_total(cfg)), cfg)
    assert index[layer].weights[coord] != want
    backward = unet.backward

    def sabotaged(model, cache, grad_logits):
        grad = backward(model, cache, grad_logits)
        unet.unflatten_params(grad, cfg)[layer].weights[coord] *= -1
        return grad

    monkeypatch.setattr(unet, "backward", sabotaged)
    err, worst = unet.gradient_check(cfg, seed=42)
    assert err > 0.5
    assert worst == want


def test_gradient_check_depth2():
    err, _ = unet.gradient_check(UNetConfig(depth=2, base_channels=2), seed=1)
    assert err < 1e-3
