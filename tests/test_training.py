from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import random_scene

from evsplat import training
from evsplat.backward import GradientBuffer
from evsplat.dataset import init_point_cloud
from evsplat.events import EventModelConfig, EventStream
from evsplat.scene import PARAMS
from evsplat.training import (GROUP_LR_MULTIPLIER, AdamState, DensifyConfig, SamplerConfig,
                              TrainConfig, TrainData, adam_step, densify_and_prune,
                              learning_rates, sample_window, train, optimizer_step)


class TestSampleWindow:
    def test_support(self, rng):
        l_max = 2.5
        for _ in range(500):
            t0, t1 = sample_window(rng, 10.0, l_max)
            assert 0.0 < t1 - t0 <= l_max
            assert t1 == 10.0

    def test_deterministic_under_seed(self):
        a = [sample_window(np.random.default_rng(3), 5.0, 1.0) for _ in range(1)]
        b = [sample_window(np.random.default_rng(3), 5.0, 1.0) for _ in range(1)]
        assert a == b

    def test_bad_l_max(self, rng):
        with pytest.raises(ValueError):
            sample_window(rng, 1.0, 0.0)


class TestLearningRates:
    CFG = TrainConfig(mode="hq", iterations=1000, warmup_iters=100, lr_initial=1.6e-4)

    def test_half_warmup_half_rate(self):
        lrs = learning_rates(self.CFG, 1.0, 50)
        assert lrs["means"] == pytest.approx(1.6e-4 / 2)

    def test_full_rate_at_warmup_end(self):
        lrs = learning_rates(self.CFG, 1.0, 100)
        assert lrs["means"] == pytest.approx(1.6e-4)

    def test_position_decay_to_one_percent(self):
        lrs = learning_rates(self.CFG, 1.0, 1000)
        assert lrs["means"] == pytest.approx(1.6e-6)

    def test_other_groups_constant_after_warmup(self):
        a = learning_rates(self.CFG, 1.0, 200)
        b = learning_rates(self.CFG, 1.0, 900)
        for k in ("quats", "log_scales", "opacity_logits", "intensities"):
            assert a[k] == b[k]

    def test_group_multipliers_reproduce_standard_rates(self):
        lrs = learning_rates(self.CFG, 1.0, 100)
        assert lrs["opacity_logits"] == pytest.approx(0.048)
        assert lrs["log_scales"] == pytest.approx(4.8e-3)
        assert lrs["intensities"] == pytest.approx(2.4e-3)

    def test_extent_scales_means_only(self):
        a = learning_rates(self.CFG, 1.0, 100)
        b = learning_rates(self.CFG, 4.0, 100)
        assert b["means"] == pytest.approx(4 * a["means"])
        assert b["quats"] == a["quats"]


def test_parameter_list_has_one_home(rng):
    # the optimiser's groups and moments and the gradient buffer all walk
    # scene.PARAMS, in its order
    assert tuple(GROUP_LR_MULTIPLIER) == PARAMS
    assert tuple(AdamState.for_scene(random_scene(rng, 3)).m) == PARAMS
    assert tuple(f.name[2:] for f in fields(GradientBuffer)
                 if f.name.startswith("d_")) == PARAMS


class TestAdam:
    def _setup(self, rng, n=6):
        scene = random_scene(rng, n)
        state = AdamState.for_scene(scene)
        return scene, state

    def test_zero_gradients_no_change(self, rng):
        scene, state = self._setup(rng)
        before = {k: v.copy() for k, v in scene.params().items()}
        buf = GradientBuffer.zeros(len(scene))
        optimizer_step(scene, buf, state, {k: 0.01 for k in before})
        for k, v in scene.params().items():
            if k == "quats":
                continue   # re-normalized after the step
            np.testing.assert_array_equal(v, before[k])

    def test_descends_against_gradient(self, rng):
        scene, state = self._setup(rng)
        params = scene.params()
        grads = {k: np.ones_like(v) for k, v in params.items()}
        before = {k: v.copy() for k, v in params.items()}
        adam_step(params, grads, state, {k: 0.1 for k in params})
        for k in params:
            assert np.all(params[k] < before[k])

    def test_bit_identical_trajectory(self, rng):
        results = []
        for _ in range(2):
            scene = random_scene(np.random.default_rng(5), 4)
            state = AdamState.for_scene(scene)
            gen = np.random.default_rng(11)
            for _ in range(10):
                params = scene.params()
                grads = {k: gen.normal(size=v.shape) for k, v in params.items()}
                adam_step(params, grads, state, {k: 0.01 for k in params})
            results.append(scene.means.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_nonfinite_entries_skipped_and_counted(self, rng):
        scene, state = self._setup(rng, n=3)
        params = scene.params()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["means"][0, 0] = np.nan
        grads["means"][1, 2] = np.inf
        before = scene.means.copy()
        adam_step(params, grads, state, {k: 0.1 for k in params})
        np.testing.assert_array_equal(scene.means, before)
        assert state.skipped_nonfinite == 2

    def test_quats_renormalized(self, rng):
        scene, state = self._setup(rng)
        buf = GradientBuffer.zeros(len(scene))
        buf.d_quats[:] = 0.3
        optimizer_step(scene, buf, state, {k: 0.1 for k in scene.params()})
        np.testing.assert_allclose(np.linalg.norm(scene.quats, axis=1), 1.0, atol=1e-12)

    def test_nonfinite_parameter_stops_the_step(self, rng):
        # a zero quaternion with zero gradient normalises to NaN
        scene, state = self._setup(rng)
        scene.quats[2] = 0.0
        buf = GradientBuffer.zeros(len(scene))
        with pytest.raises(RuntimeError, match="4 non-finite quats entries after "
                                               "optimizer step 1"):
            optimizer_step(scene, buf, state, {k: 0.01 for k in scene.params()})


class TestDensify:
    def _scene(self, n=6, scale=0.05):
        rng = np.random.default_rng(0)
        s = random_scene(rng, n)
        s.log_scales[:] = np.log(scale)
        return s

    def test_no_signal_no_change(self, rng):
        scene = self._scene()
        state = AdamState.for_scene(scene)
        out, _ = densify_and_prune(scene, state, np.zeros(6), np.ones(6),
                                   DensifyConfig(), 1.0, rng)
        assert len(out) == 6
        np.testing.assert_array_equal(out.means, scene.means)

    def test_zero_opacity_pruned(self, rng):
        scene = self._scene()
        scene.opacity_logits[2] = -20.0   # alpha ~ 0
        state = AdamState.for_scene(scene)
        out, _ = densify_and_prune(scene, state, np.zeros(6), np.ones(6),
                                   DensifyConfig(), 1.0, rng)
        assert len(out) == 5

    def test_clone_on_high_gradient_small_scale(self, rng):
        scene = self._scene(scale=0.005)   # below 0.01 * extent
        state = AdamState.for_scene(scene)
        stats = np.zeros(6)
        stats[1] = 1.0
        out, st = densify_and_prune(scene, state, stats, np.ones(6),
                                    DensifyConfig(grad_threshold=0.5), 1.0, rng)
        assert len(out) == 7
        assert st.m["means"].shape == (7, 3)

    def test_split_shrinks_scale(self, rng):
        scene = self._scene(scale=0.2)     # above 0.01 * extent
        state = AdamState.for_scene(scene)
        stats = np.zeros(6)
        stats[3] = 1.0
        out, _ = densify_and_prune(scene, state, stats, np.ones(6),
                                   DensifyConfig(grad_threshold=0.5), 1.0, rng)
        assert len(out) == 7    # one removed, two added
        expected = np.log(0.2) - np.log(1.6)
        assert np.isclose(out.log_scales, expected).any()

    def test_max_count_cap(self, rng):
        scene = self._scene(scale=0.005)
        state = AdamState.for_scene(scene)
        stats = np.ones(6)
        out, _ = densify_and_prune(scene, state, stats, np.ones(6),
                                   DensifyConfig(grad_threshold=0.5, max_count=6),
                                   1.0, rng)
        assert len(out) <= 6

    @pytest.mark.parametrize("large", [[], slice(None), slice(None, None, 2)],
                             ids=["clones", "splits", "both"])
    def test_count_never_passes_max_count(self, rng, large):
        # every Gaussian is a clone or a split candidate, more than the cap
        # leaves room for
        scene = self._scene(n=10, scale=0.005)
        scene.log_scales[large] = np.log(0.2)
        state = AdamState.for_scene(scene)
        cfg = DensifyConfig(grad_threshold=0.5, max_count=13)
        for _ in range(3):
            scene, state = densify_and_prune(scene, state, np.ones(len(scene)),
                                             np.ones(len(scene)), cfg, 1.0, rng)
            assert len(scene) == cfg.max_count
            assert state.m["means"].shape == (cfg.max_count, 3)

    def test_parameters_stay_finite_and_alpha_in_range(self, rng):
        scene = self._scene(scale=0.2)
        state = AdamState.for_scene(scene)
        stats = rng.uniform(0, 2, size=6)
        out, _ = densify_and_prune(scene, state, stats, np.ones(6),
                                   DensifyConfig(grad_threshold=0.1), 1.0, rng)
        assert np.all(np.isfinite(out.means))
        assert np.all(np.isfinite(out.log_scales))
        assert np.all((out.opacities > 0) & (out.opacities < 1))


def tiny_train_data(rng, with_events=True, with_frames=True, empty_events=False):
    """4x4-ish toy wiring for loop smoke tests."""
    from evsplat.camera import TurntableTrajectory, CameraModel
    from evsplat.exposure import ExposureFrame
    cam = CameraModel(fx=30.0, fy=30.0, cx=7.5, cy=7.5, width=16, height=16)
    traj = TurntableTrajectory(camera=cam, radius=3.0, height=0.5,
                               angular_rate=2 * np.pi / 4.0, span=4.0)
    init = init_point_cloud("random", n=12, bbox=[[-0.4] * 3, [0.4] * 3],
                            rng=rng, background=0.3)
    if empty_events:
        events = EventStream.empty((16, 16))
    else:
        n = 200
        t = np.sort(rng.integers(0, 4_000_000, size=n))
        events = EventStream.create((16, 16), rng.integers(0, 16, n),
                                    rng.integers(0, 16, n), t,
                                    rng.choice([-1, 1], n).astype(np.int8))
    frames = []
    pose_times = [0.0, 1.0, 2.0, 3.0]
    for k in range(4):
        img = np.clip(rng.uniform(0.2, 0.6, size=(16, 16)), 0, 1)
        frames.append(ExposureFrame(img, np.ones_like(img, dtype=bool), pose_id=k))
    return TrainData(
        trajectory=traj, init_scene=init,
        events=events if with_events else None,
        exposure_frames=frames if with_frames else None,
        pose_times=pose_times,
        eval_frames=[(0, frames[0].image)],
        event_config=EventModelConfig(),
        scene_extent=3.0)


def tiny_config(mode, iters=8):
    return TrainConfig(mode=mode, iterations=iters, warmup_iters=2,
                       densify=DensifyConfig(interval=4, start_iter=4, stop_iter=6,
                                             grad_threshold=1e9),
                       sampler=SamplerConfig(n_windows=8, l_max=5e5),
                       seed=0, log_interval=4, eval_interval=0)


class TestTrainLoop:
    def test_missing_events_rejected(self, rng):
        data = tiny_train_data(rng, with_events=False)
        with pytest.raises(ValueError):
            train(data, tiny_config("fast"))

    def test_missing_frames_rejected(self, rng):
        data = tiny_train_data(rng, with_frames=False)
        with pytest.raises(ValueError):
            train(data, tiny_config("hq"))

    def test_empty_event_stream_leaves_scene_at_init(self, rng):
        data = tiny_train_data(rng, empty_events=True)
        scene, log = train(data, tiny_config("fast"))
        np.testing.assert_allclose(scene.means, data.init_scene.means, atol=1e-12)
        np.testing.assert_allclose(scene.intensities, data.init_scene.intensities,
                                   atol=1e-12)

    def test_deterministic_end_to_end(self, rng):
        final = []
        for _ in range(2):
            data = tiny_train_data(np.random.default_rng(2))
            scene, _ = train(data, tiny_config("hybrid"))
            final.append((scene.means.copy(), scene.intensities.copy()))
        np.testing.assert_array_equal(final[0][0], final[1][0])
        np.testing.assert_array_equal(final[0][1], final[1][1])

    def test_log_records_have_contract_fields(self, rng):
        data = tiny_train_data(rng)
        _, log = train(data, tiny_config("hybrid"))
        progress = [r for r in log if "loss" in r]
        assert progress, "no progress records"
        for key in ("iter", "loss", "l_evs", "l_img", "lambda", "count",
                    "lr_means", "elapsed_s"):
            assert key in progress[0]
        assert log[-1].get("event") == "final"

    def test_hq_reduces_exposure_loss(self, rng):
        data = tiny_train_data(rng, with_events=False)
        cfg = TrainConfig(mode="hq", iterations=60, warmup_iters=5,
                          densify=DensifyConfig(start_iter=10**9),
                          seed=0, log_interval=1)
        _, log = train(data, cfg)
        losses = [r["l_img"] for r in log if "l_img" in r]
        assert losses[-1] < losses[0]

    def test_fast_mode_survives_negative_renders(self):
        # negative intensities render below 0; the log transform used to raise
        for seed in range(3):
            data = tiny_train_data(np.random.default_rng(seed))
            data.init_scene.intensities[:] = -0.5
            data.init_scene.opacity_logits[:] = 3.0
            scene, log = train(data, tiny_config("fast", iters=3))
            assert log[-1]["iterations"] == 3
            assert np.all(np.isfinite(scene.means))

    def test_final_summary_reuses_last_evaluation(self, rng, monkeypatch):
        data = tiny_train_data(rng, with_events=False)
        data = replace(data, eval_frames=[(k, f.image)
                                          for k, f in enumerate(data.exposure_frames)])
        calls = []
        real = training.render
        monkeypatch.setattr(training, "render",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        cfg = replace(tiny_config("hq", iters=20), eval_interval=10)
        _, log = train(data, cfg)
        # one render per hq iteration, four views at iterations 10 and 20
        assert len(calls) == 28
        evals = [r["psnr_eval"] for r in log if "psnr_eval" in r]
        assert evals[-1] == evals[-2]

    @pytest.mark.parametrize("mode,taped_per_iter", [("fast", 2), ("hq", 1), ("hybrid", 3)])
    def test_training_renders_at_the_training_cutoff(self, rng, monkeypatch, mode,
                                                     taped_per_iter):
        data = tiny_train_data(rng)
        calls = []   # (inside _eval_psnr, keyword arguments) per render
        in_eval = [False]
        real, real_eval = training.render, training._eval_psnr

        def recording(*a, **k):
            calls.append((in_eval[0], k))
            return real(*a, **k)

        def evaluating(*a, **k):
            in_eval[0] = True
            try:
                return real_eval(*a, **k)
            finally:
                in_eval[0] = False

        monkeypatch.setattr(training, "render", recording)
        monkeypatch.setattr(training, "_eval_psnr", evaluating)
        cfg = replace(tiny_config(mode, iters=6), eval_interval=3)
        train(data, cfg)
        taped = [k for e, k in calls if not e]
        # fast mode renders both window ends on every iteration, events or not
        assert len(taped) == taped_per_iter * cfg.iterations
        assert all(k == {"keep_tape": True, "alpha_min": training.TRAIN_ALPHA_MIN}
                   for k in taped)
        evals = [k for e, k in calls if e]
        assert len(evals) == 2 * len(data.eval_frames)
        assert all(k == {} for k in evals)
