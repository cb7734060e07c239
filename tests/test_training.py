import os
import tracemalloc

import numpy as np
import pytest

from cordseg import data, ops, parallel, training, unet
from cordseg.data import Sample
from cordseg.errors import DomainError, NumericError, ShapeError
from cordseg.rng import SplitMix64
from cordseg.training import AdamState, TrainConfig, adam_step
from cordseg.unet import UNetConfig

from reference import adam_reference


# --- split ----------------------------------------------------------------------

def fake_samples(n, size=32):
    img = np.zeros((size, size), np.uint8)
    msk = np.zeros((size, size), np.uint8)
    return [Sample(f"s{i:03d}", img, msk) for i in range(n)]


def test_split_150_at_08_gives_120_30():
    train_set, test_set = training.split_dataset(fake_samples(150), 0.8, 42)
    assert len(train_set) == 120
    assert len(test_set) == 30


def test_split_floor_rule():
    train_set, test_set = training.split_dataset(fake_samples(5), 0.5, 1)
    assert len(train_set) == 2
    assert len(test_set) == 3


def test_split_deterministic_disjoint_exhaustive():
    samples = fake_samples(37)
    for seed in (0, 1, 99):
        a_train, a_test = training.split_dataset(samples, 0.7, seed)
        b_train, b_test = training.split_dataset(samples, 0.7, seed)
        assert [s.name for s in a_train] == [s.name for s in b_train]
        names = {s.name for s in a_train} | {s.name for s in a_test}
        assert len(names) == 37
        assert not ({s.name for s in a_train} & {s.name for s in a_test})


def test_split_empty_dataset_errors():
    with pytest.raises(DomainError):
        training.split_dataset([], 0.8, 0)


# --- augmentation -----------------------------------------------------------------

def test_dihedral_identity_draw_unchanged():
    rng = SplitMix64(50)
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    out = training.apply_dihedral(img, 0)
    assert np.array_equal(out, img)


def test_dihedral_flip_is_involution():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    once = training.apply_dihedral(img, 4)
    twice = training.apply_dihedral(once, 4)
    assert not np.array_equal(once, img)
    assert np.array_equal(twice, img)


def test_dihedral_preserves_foreground_count():
    rng = SplitMix64(51)
    mask = (rng.f64_array(64) < 0.3).astype(np.uint8).reshape(8, 8)
    for k in range(8):
        assert training.apply_dihedral(mask, k).sum() == mask.sum()


def test_dihedral_transforms_are_distinct():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    seen = {training.apply_dihedral(img, k).tobytes() for k in range(8)}
    assert len(seen) == 8


def test_dihedral_rotation_of_nonsquare_raises():
    tall = np.zeros((4, 6), np.uint8)
    with pytest.raises(ShapeError):
        training.apply_dihedral(tall, 1)
    # non-rotating transforms still work
    training.apply_dihedral(tall, 0)
    training.apply_dihedral(tall, 2)
    training.apply_dihedral(tall, 4)


def test_augment_applies_same_transform_to_both():
    rng = SplitMix64(52)
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    mask = (img % 3 == 0).astype(np.uint8)
    for _ in range(20):
        a_img, a_mask = training.dihedral_augment(img, mask, rng)
        np.testing.assert_array_equal((a_img % 3 == 0).astype(np.uint8), a_mask)


def test_augment_seeded_stream_is_deterministic():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    a = training.dihedral_augment(img, img, SplitMix64(123))
    b = training.dihedral_augment(img, img, SplitMix64(123))
    assert np.array_equal(a[0], b[0])


# --- adam -------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    cfg = TrainConfig(epochs=1)
    theta = np.array([1.0, -2.0, 3.0], np.float32)
    before = theta.copy()
    state = AdamState.zeros(theta)
    adam_step(theta, np.zeros_like(theta), state, cfg)
    assert np.array_equal(theta, before)
    assert state.t == 1


def test_adam_first_step_matches_reference():
    cfg = TrainConfig(epochs=1, learning_rate=1e-3)
    theta = np.array([1.0], np.float64)
    adam_step(theta, np.array([0.5], np.float64), AdamState.zeros(theta), cfg)
    want, _, _, _ = adam_reference(1.0, 0.5, 0.0, 0.0, 0)
    assert theta[0] == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(0.999000000, abs=1e-8)  # update ~ -lr*g/(|g|+eps)


def test_adam_constant_gradient_steps_stay_near_lr():
    cfg = TrainConfig(epochs=1, learning_rate=1e-3)
    theta = np.array([1.0], np.float64)
    state = AdamState.zeros(theta)
    theta_ref, m_ref, v_ref, t_ref = 1.0, 0.0, 0.0, 0
    for _ in range(2):
        before = theta[0]
        adam_step(theta, np.array([0.5]), state, cfg)
        delta = abs(theta[0] - before)
        assert 0.9 * cfg.learning_rate <= delta <= 1.1 * cfg.learning_rate
        theta_ref, m_ref, v_ref, t_ref = adam_reference(theta_ref, 0.5, m_ref, v_ref, t_ref)
        assert theta[0] == pytest.approx(theta_ref, abs=1e-9)


def test_adam_rejects_nonfinite_gradient():
    cfg = TrainConfig(epochs=1)
    theta = np.array([1.0], np.float32)
    with pytest.raises(NumericError):
        adam_step(theta, np.array([np.nan], np.float32), AdamState.zeros(theta), cfg)


def test_adam_moment_shapes_mirror_params():
    theta = np.zeros(3 * 2 * 3 * 3 + 3, np.float32)
    state = AdamState.zeros(theta)
    assert state.m.shape == state.v.shape == theta.shape
    assert state.t == 0


def test_adam_in_place_update_is_bitwise_the_out_of_place_formula():
    cfg = TrainConfig(epochs=1, learning_rate=1e-2)
    net = UNetConfig(depth=1, base_channels=2)
    model = unet.init_params(net, 3)
    theta, layers = model.theta, model.layers
    state = AdamState.zeros(theta)
    m, v = state.m, state.v
    want_theta, want_m, want_v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    stream = SplitMix64(17)
    for t in range(1, 5):
        g = stream.normal_array(theta.size).astype(np.float32)
        # beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, as Kingma & Ba 2015 fix them
        want_m = 0.9 * want_m + (1.0 - 0.9) * g
        want_v = 0.999 * want_v + (1.0 - 0.999) * np.square(g)
        want_theta = want_theta - cfg.learning_rate * (want_m / (1.0 - 0.9 ** t)) / (
            np.sqrt(want_v / (1.0 - 0.999 ** t)) + 1e-8)
        assert adam_step(theta, g, state, cfg) is None
        assert state.m is m and state.v is v and state.t == t
        assert want_theta.dtype == theta.dtype == np.float32
        for got, want in ((theta, want_theta), (m, want_m), (v, want_v)):
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    for got, want in zip(layers, unet.unflatten_params(want_theta, net)):
        assert np.array_equal(got.weights, want.weights) and np.array_equal(got.bias, want.bias)
    assert layers[-1].bias[0] == want_theta[-1]


def test_adam_step_holds_at_most_two_scratch_vectors():
    theta = np.zeros(1 << 20, np.float32)
    state = AdamState.zeros(theta)
    grad = SplitMix64(23).normal_array(theta.size).astype(np.float32)
    tracemalloc.start()
    try:
        adam_step(theta, grad, state, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * theta.nbytes, peak / theta.nbytes


def test_adam_rejects_mismatched_shapes():
    theta = np.zeros(4, np.float32)
    with pytest.raises(ShapeError):
        adam_step(theta, np.zeros(3, np.float32), AdamState.zeros(theta), TrainConfig(epochs=1))


def test_training_step_peak_stays_under_six_parameter_copies():
    # one forward + backward + Adam step of a wide model on a tiny image is
    # dominated by parameter-sized buffers: the gradient and Adam's temporaries
    net = UNetConfig(depth=2, base_channels=64)
    model = unet.init_params(net, 42)
    theta = model.theta
    state = AdamState.zeros(theta)
    x = SplitMix64(9).normal_array(16 * 16).astype(np.float32).reshape(1, 1, 16, 16)
    y = (x > 0).astype(np.float32)
    tracemalloc.start()
    try:
        logits, cache = unet.forward(model, x)
        grad_logits = ops.bce_with_logits_backward(logits, y)
        adam_step(theta, unet.backward(model, cache, grad_logits), state, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.t == 1
    assert peak < 6 * theta.nbytes, peak / theta.nbytes


def test_training_steps_do_not_hold_the_previous_steps_activations():
    # the acceptance shape; a step that still held the last step's records
    # while the next forward ran would peak about 1.5x the first step
    net = UNetConfig(depth=2, base_channels=8)
    model = unet.init_params(net, 42)
    theta = model.theta
    state = AdamState.zeros(theta)
    x = SplitMix64(10).normal_array(4 * 64 * 64).astype(np.float32).reshape(4, 1, 64, 64)
    y = (x > 0).astype(np.float32)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            logits, cache = unet.forward(model, x)
            grad_logits = ops.bce_with_logits_backward(logits, y)
            adam_step(theta, unet.backward(model, cache, grad_logits), state,
                      TrainConfig(epochs=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert all(p < 1.05 * peaks[0] for p in peaks[1:]), [p / 2**20 for p in peaks]


# --- evaluate ----------------------------------------------------------------------

def test_evaluate_perfect_predictions(tmp_path):
    # a head bias of -50 drives every logit strongly negative -> all background,
    # which matches all-background truths exactly
    cfg = UNetConfig(depth=1, base_channels=2)
    model = unet.init_params(cfg, 42)
    model.layers[-1].bias[...] -= np.float32(50.0)
    samples = fake_samples(4, size=16)
    report = training.evaluate(model, samples)
    assert report.mean_iou == 1.0        # empty-union convention
    assert report.pixel_accuracy == 1.0
    assert report.counts.fp == 0 and report.counts.fn == 0


def test_evaluate_matches_counting_oracle():
    from reference import confusion_reference, iou_reference

    rng = SplitMix64(53)
    cfg = UNetConfig(depth=1, base_channels=2)
    params = unet.init_params(cfg, 3)
    samples = []
    for i in range(10):
        img = (rng.u64_array(256) & np.uint64(255)).astype(np.uint8).reshape(16, 16)
        msk = (rng.f64_array(256) < 0.5).astype(np.uint8).reshape(16, 16)
        samples.append(Sample(f"r{i}", img, msk))
    report = training.evaluate(params, samples)
    # recompute per-sample from raw forward outputs
    from cordseg import metrics, ops
    from cordseg.data import to_unit

    ious, tp = [], 0
    counts_sum = np.zeros(4, np.int64)
    for s in samples:
        logits, _ = unet.forward(params, to_unit(s.image)[None, None])
        pred = metrics.binarize(ops.sigmoid(logits)[0, 0], 0.5)
        ious.append(iou_reference(pred, s.mask))
        counts_sum += np.array(confusion_reference(pred, s.mask))
    assert report.mean_iou == pytest.approx(np.mean(ious), abs=1e-12)
    total = counts_sum.sum()
    assert report.pixel_accuracy == pytest.approx((counts_sum[0] + counts_sum[3]) / total, abs=1e-12)


def test_evaluate_empty_errors():
    params = unet.init_params(UNetConfig(depth=1, base_channels=2), 0)
    with pytest.raises(DomainError):
        training.evaluate(params, [])


# --- train loop ----------------------------------------------------------------------

def test_train_zero_epochs_returns_init_params():
    samples = data.gen_synthetic(5, 32, 7)
    cfg = TrainConfig(epochs=0, seed=11)
    net_cfg = UNetConfig(depth=1, base_channels=2)
    params, history = training.train(cfg, samples, net_cfg)
    assert history == []
    fresh = unet.init_params(net_cfg, 11)
    for a, b in zip(params.layers, fresh.layers):
        assert np.array_equal(a.weights, b.weights)


def test_train_same_seed_identical_history_and_params():
    samples = data.gen_synthetic(8, 32, 3)
    cfg = TrainConfig(epochs=2, seed=5, batch_size=3)
    net_cfg = UNetConfig(depth=1, base_channels=2)
    p1, h1 = training.train(cfg, samples, net_cfg)
    p2, h2 = training.train(cfg, samples, net_cfg)
    assert h1 == h2
    for a, b in zip(p1.layers, p2.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_cache_sized_bands_leave_training_bytes_unchanged(monkeypatch):
    samples = data.gen_synthetic(12, 64, 1)
    cfg = TrainConfig(epochs=2, seed=3)
    net_cfg = UNetConfig(depth=2, base_channels=8)
    row_bands = ops._row_bands
    band_counts = []

    def counted(*args):
        bands = row_bands(*args)
        band_counts.append(len(bands))
        return bands

    # forked helpers call their own copy of the counter: it sees the main's shards only
    monkeypatch.setattr(ops, "_row_bands", counted)
    p1, h1 = training.train(cfg, samples, net_cfg)
    cached = band_counts[:]
    band_counts.clear()
    monkeypatch.setattr(ops, "_CACHE_BYTES", 0)  # the band budget alone
    p2, h2 = training.train(cfg, samples, net_cfg)
    assert cached != band_counts  # some layers did run in cache-sized bands
    assert h1 == h2
    assert np.array_equal(p1.theta, p2.theta)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_on_epoch_sees_each_record_before_train_returns(cores, stop):
    cores(2)  # one helper where fork exists
    seen = []

    def stop_after_first(record):
        seen.append(record)
        raise stop

    samples = data.gen_synthetic(6, 32, 3)
    cfg = TrainConfig(epochs=3, seed=5)
    net_cfg = UNetConfig(depth=1, base_channels=2)
    with pytest.raises(stop):
        training.train(cfg, samples, net_cfg, on_epoch=stop_after_first)
    assert [r.epoch for r in seen] == [1]
    no_children_left()
    seen.clear()
    _, history = training.train(cfg, samples, net_cfg, on_epoch=seen.append)
    assert seen == history
    no_children_left()


def assert_train_bytes_do_not_depend_on_the_worker_count(monkeypatch, cores, count, split):
    # 7 training samples in batches of 5 (shards of 2, 2 and 1) and 2; on
    # 2 cores the 3 shards of a full batch run in two rounds, on 3 in one
    samples = data.gen_synthetic(count, 32, 4)
    cfg = TrainConfig(epochs=2, seed=6, batch_size=5, split_ratio=split)
    assert len(training.split_dataset(samples, split, 6)[0]) == 7
    net_cfg = UNetConfig(depth=1, base_channels=2)
    forks = []
    runs = []
    real_fork = getattr(os, "fork", None)
    for cores_seen, fork in ((1, True), (2, True), (3, True), (3, False)):
        cores(cores_seen)
        if fork and real_fork:
            monkeypatch.setattr(os, "fork", lambda: forks.append(cores_seen) or real_fork())
        elif real_fork:
            monkeypatch.delattr(os, "fork")  # the in-process route
        model, history = training.train(cfg, samples, net_cfg)
        if real_fork:
            monkeypatch.setattr(os, "fork", real_fork, raising=False)
        runs.append((model.theta.tobytes(), training.history_csv(history), history))
        no_children_left()
    if real_fork:
        assert forks == [2, 3, 3]  # min(cores, 3 shards) - 1 helpers
    assert all(run == runs[0] for run in runs[1:])


def test_train_bytes_do_not_depend_on_the_worker_count(monkeypatch, cores):
    # 5 held-out samples are 3 shards (2, 2 and 1): runs of 2 shards and 1
    # on 2 cores, one shard each on 3
    assert_train_bytes_do_not_depend_on_the_worker_count(monkeypatch, cores, 12, 0.6)


def test_train_bytes_do_not_depend_on_the_worker_count_when_helpers_score_nothing(
        monkeypatch, cores):
    # 2 held-out samples are one shard: no helper gets a held-out run
    assert_train_bytes_do_not_depend_on_the_worker_count(monkeypatch, cores, 9, 0.8)


@pytest.mark.parametrize("cores_seen", [1, 2])
def test_last_epoch_record_is_evaluate_of_the_returned_model(cores, cores_seen):
    cores(cores_seen)
    samples = data.gen_synthetic(12, 32, 4)
    cfg = TrainConfig(epochs=2, seed=6, split_ratio=0.6)  # 5 held out: 3 shards
    model, history = training.train(cfg, samples, UNetConfig(depth=1, base_channels=2))
    report = training.evaluate(model, training.split_dataset(samples, 0.6, 6)[1])
    last = history[-1]
    assert (last.test_iou, last.test_pixel_acc, last.test_counts) == (
        report.mean_iou, report.pixel_accuracy, report.counts)
    no_children_left()


def test_no_evaluation_forward_plans_for_more_than_a_shard(monkeypatch, cores):
    cores(2)  # one helper where fork exists: its plans raise in it, and reach train
    planned = []
    layout = unet._inference_layout

    def spy(cfg, shape, itemsize):
        assert shape[0] <= training._SHARD, shape
        planned.append(shape[0])
        return layout(cfg, shape, itemsize)

    monkeypatch.setattr(unet, "_inference_layout", spy)
    samples = data.gen_synthetic(12, 32, 4)
    training.train(TrainConfig(epochs=2, seed=6, split_ratio=0.6), samples,
                   UNetConfig(depth=1, base_channels=2))
    assert planned  # the main process scored a run each epoch
    planned.clear()
    model = unet.init_params(UNetConfig(depth=1, base_channels=2), 0)
    training.evaluate(model, samples[:5])  # the helper plans the partial shard
    assert planned == ([2] if hasattr(os, "fork") else [2, 1])
    planned.clear()
    cores(1)
    training.evaluate(model, samples[:5])
    assert planned == [2, 1]  # the partial last shard re-plans
    no_children_left()


def test_evaluate_does_not_depend_on_the_worker_count(monkeypatch, cores):
    # 9 samples are 5 shards: runs of 3 shards and 2 on 2 cores, 2, 2 and 1 on 3
    samples = data.gen_synthetic(9, 32, 5)
    model = unet.init_params(UNetConfig(depth=1, base_channels=2), 4)
    forks, reports = [], []
    real_fork = getattr(os, "fork", None)
    for count in (1, 2, 3):
        cores(count)
        if real_fork:
            monkeypatch.setattr(os, "fork", lambda: forks.append(count) or real_fork())
        reports.append(training.evaluate(model, samples))
        no_children_left()
    if real_fork:
        monkeypatch.delattr(os, "fork")  # the in-process route
        reports.append(training.evaluate(model, samples))
        assert forks == [2, 3, 3]  # one helper per run but the first
    assert 0 < reports[0].counts.tp < reports[0].counts.tp + reports[0].counts.fp
    assert all(report == reports[0] for report in reports[1:])


@pytest.mark.parametrize("batch", [1, 4, 5])
def test_sharded_batch_gradient_is_the_whole_batch_gradient(batch):
    # float64 parameters, so only the summation order separates the two
    net_cfg = UNetConfig(depth=1, base_channels=2)
    model = unet.Model(net_cfg, unet.init_params(net_cfg, 8).theta.astype(np.float64))
    stream = SplitMix64(31)
    x = stream.normal_array(batch * 16 * 16).reshape(batch, 1, 16, 16)
    y = (stream.f64_array(batch * 16 * 16) < 0.5).astype(np.float64).reshape(x.shape)
    with parallel.Helpers(0, None) as helpers:
        terms, grad = training._batch_gradient(model, x, y, helpers,
                                               np.empty((0, model.theta.size)))
    logits, cache = unet.forward(model, x)
    want = unet.backward(model, cache, ops.bce_with_logits_backward(logits, y))
    assert terms / y.size == pytest.approx(ops.bce_with_logits(logits, y), rel=1e-12)
    np.testing.assert_allclose(grad, want, rtol=1e-9, atol=1e-15)


def assert_a_helpers_numeric_error_reaches_the_caller(monkeypatch, cores, tmp_path, work):
    """A NumericError raised only in helpers, by training.work, reaches
    train's caller, and cli.main's train exits 3."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: every shard runs in the caller")
    from cordseg import cli

    main = os.getpid()
    real = getattr(training, work)

    def fails_in_helpers(*args):
        if os.getpid() != main:
            raise NumericError("non-finite loss in a helper")
        return real(*args)

    cores(2)
    monkeypatch.setattr(training, work, fails_in_helpers)
    # 6 training samples (full batches of 2 shards) and 4 held out (2 shards)
    samples = data.gen_synthetic(10, 32, 3)
    with pytest.raises(NumericError, match="non-finite loss in a helper"):
        training.train(TrainConfig(epochs=1, split_ratio=0.6), samples,
                       UNetConfig(depth=1, base_channels=2))
    no_children_left()
    data.save_dataset(tmp_path / "ds", samples)
    assert cli.main(["train", "--data", str(tmp_path / "ds"), "--out",
                     str(tmp_path / "m.ckpt"), "--depth", "1", "--base-channels", "2",
                     "--epochs", "1", "--split", "0.6"]) == 3
    no_children_left()


def test_a_helpers_numeric_error_reaches_the_caller(monkeypatch, cores, tmp_path):
    assert_a_helpers_numeric_error_reaches_the_caller(monkeypatch, cores, tmp_path,
                                                      "_shard_gradient")


def test_a_helpers_numeric_error_in_evaluation_reaches_the_caller(monkeypatch, cores,
                                                                   tmp_path):
    assert_a_helpers_numeric_error_reaches_the_caller(monkeypatch, cores, tmp_path, "_counts")


def test_train_rejects_inconsistent_tile_sizes():
    bad = fake_samples(3, size=32)
    bad.append(Sample("odd", np.zeros((16, 16), np.uint8), np.zeros((16, 16), np.uint8)))
    with pytest.raises(ShapeError):
        training.train(TrainConfig(epochs=1), bad, UNetConfig(depth=1, base_channels=2))


def test_train_rejects_indivisible_tiles():
    samples = fake_samples(4, size=24)
    with pytest.raises(ShapeError):
        training.train(TrainConfig(epochs=1), samples, UNetConfig(depth=4, base_channels=2))


def test_train_loss_decreases_on_single_repeated_sample():
    base = data.gen_synthetic(1, 32, 13)[0]
    samples = [Sample(f"copy{i}", base.image, base.mask) for i in range(5)]
    cfg = TrainConfig(epochs=20, seed=2, batch_size=1, learning_rate=3e-3, augment=False)
    _, history = training.train(cfg, samples, UNetConfig(depth=1, base_channels=4))
    losses = [r.train_loss for r in history]
    violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
    assert violations <= 3
    assert losses[-1] <= 0.5 * losses[0]


def test_history_csv_format():
    history = [training.EpochRecord(1, 0.5, 0.25, 0.75),
               training.EpochRecord(2, 1 / 3, 2 / 3, 0.999999)]
    text = training.history_csv(history)
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,test_iou,test_pixel_acc"
    assert lines[1] == "1,0.500000,0.250000,0.750000"
    assert lines[2] == "2,0.333333,0.666667,0.999999"
    assert text.endswith("\n")


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=-1)
    with pytest.raises(DomainError):
        TrainConfig(epochs=1, split_ratio=1.0)
    with pytest.raises(DomainError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(epochs=1, learning_rate=0.0)
