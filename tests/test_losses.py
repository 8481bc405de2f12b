import numpy as np
import pytest

from conftest import empty_scene, random_scene, small_camera

from evsplat import training
from evsplat.camera import KeyframeTrajectory
from evsplat.events import EventModelConfig, EventStream
from evsplat.exposure import ExposureFrame
from evsplat.losses import (combined_loss, exposure_loss, log_intensity_upstream,
                            motion_event_loss)
from evsplat.scene import Gaussian3D, GaussianScene
from evsplat.training import DensifyConfig, SamplerConfig, TrainConfig, TrainData


class TestMotionEventLoss:
    def test_identical_is_zero(self, rng):
        m = rng.normal(size=(8, 8))
        res = motion_event_loss(m, m.copy())
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert not res.skip

    def test_antipodal_is_four(self, rng):
        m = rng.normal(size=(8, 8))
        assert motion_event_loss(m, -m).value == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_is_two(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        a[0, 0] = 3.0
        b[1, 1] = -5.0
        assert motion_event_loss(a, b).value == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        pred = rng.normal(size=(8, 8))
        gt = rng.normal(size=(8, 8))
        base = motion_event_loss(pred, gt).value
        for k in (1e-3, 1.0, 1e3):
            assert motion_event_loss(k * pred, gt).value == pytest.approx(base, abs=1e-12)

    def test_both_zero_no_skip(self):
        res = motion_event_loss(np.zeros((4, 4)), np.zeros((4, 4)))
        assert res.value == 0.0 and not res.skip
        np.testing.assert_array_equal(res.grad, 0.0)

    def test_one_zero_signals_skip(self, rng):
        res = motion_event_loss(rng.normal(size=(4, 4)), np.zeros((4, 4)))
        assert res.skip

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.normal(size=(8, 8))
        gt = rng.normal(size=(8, 8))
        res = motion_event_loss(pred, gt)
        h = 1e-6
        for k in [(0, 0), (3, 5), (7, 7)]:
            p = pred.copy()
            p[k] += h
            lp = motion_event_loss(p, gt).value
            p[k] -= 2 * h
            lm = motion_event_loss(p, gt).value
            fd = (lp - lm) / (2 * h)
            assert res.grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            motion_event_loss(np.zeros((4, 4)), np.zeros((4, 5)))


class TestExposureLoss:
    def frame(self, img, mask=None):
        mask = np.ones_like(img, dtype=bool) if mask is None else mask
        return ExposureFrame(img, mask)

    def test_identical_zero(self, rng):
        img = rng.uniform(size=(8, 8))
        assert exposure_loss(img, self.frame(img.copy())).value == 0.0

    def test_uniform_difference(self):
        gt = np.full((8, 8), 0.4)
        assert exposure_loss(gt + 0.1, self.frame(gt)).value == pytest.approx(0.01)

    def test_gradient_formula(self, rng):
        pred = rng.uniform(size=(6, 6))
        gt = rng.uniform(size=(6, 6))
        mask = rng.uniform(size=(6, 6)) > 0.3
        res = exposure_loss(pred, self.frame(gt, mask))
        n = mask.sum()
        np.testing.assert_allclose(res.grad[mask], 2 * (pred - gt)[mask] / n)
        np.testing.assert_array_equal(res.grad[~mask], 0.0)

    def test_masked_pixels_ignored(self, rng):
        pred = rng.uniform(size=(4, 4))
        gt = pred.copy()
        gt[0, 0] = 99.0   # invalid pixel, must not contribute
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert exposure_loss(pred, self.frame(gt, mask)).value == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.uniform(size=(8, 8))
        frame = self.frame(rng.uniform(size=(8, 8)), rng.uniform(size=(8, 8)) > 0.2)
        res = exposure_loss(pred, frame)
        h = 1e-6
        for k in [(0, 0), (2, 6), (7, 7)]:
            p = pred.copy()
            p[k] += h
            lp = exposure_loss(p, frame).value
            p[k] -= 2 * h
            lm = exposure_loss(p, frame).value
            fd = (lp - lm) / (2 * h)
            assert res.grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_empty_mask_rejected(self, rng):
        img = rng.uniform(size=(4, 4))
        with pytest.raises(ValueError):
            exposure_loss(img, self.frame(img, np.zeros((4, 4), dtype=bool)))


class TestCombinedLoss:
    def test_endpoints(self):
        assert combined_loss(0.7, 0.3, 1.0) == 0.7
        assert combined_loss(0.7, 0.3, 0.0) == 0.3

    def test_midpoint(self):
        assert combined_loss(0.2, 0.4, 0.5) == pytest.approx(0.3)

    def test_affine_in_lambda(self, rng):
        le, li = 0.9, 0.1
        lams = rng.uniform(0, 1, size=16)
        vals = np.array([combined_loss(le, li, l) for l in lams])
        np.testing.assert_allclose(vals, lams * le + (1 - lams) * li, atol=1e-15)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            combined_loss(0.0, 0.0, 1.5)


def fast_branch_delta_log(monkeypatch, scene, cam0, cam1):
    """The predicted log change train's fast branch hands the motion loss for
    a window from cam0's pose to cam1's."""
    traj = KeyframeTrajectory(cam0, [0.0, 1.0], [cam0.R, cam1.R], [cam0.t, cam1.t])
    events = EventStream.create((cam0.width, cam0.height), [0], [0], [500_000], [1])
    preds = []
    real = training.motion_event_loss
    monkeypatch.setattr(training, "motion_event_loss",
                        lambda pred, gt: preds.append(pred) or real(pred, gt))
    # one window ending at the span; l_max far beyond it clamps its start to 0
    cfg = TrainConfig(mode="fast", iterations=1, warmup_iters=0,
                      densify=DensifyConfig(start_iter=10**9),
                      sampler=SamplerConfig(n_windows=1, l_max=1e12), log_interval=0)
    training.train(TrainData(trajectory=traj, init_scene=scene, events=events,
                             scene_extent=1.0), cfg)
    assert len(preds) == 1
    return preds[0]


class TestPredictedDeltaLog:
    def test_same_pose_zero(self, rng, monkeypatch):
        cam = small_camera()
        out = fast_branch_delta_log(monkeypatch, random_scene(rng, 6), cam, cam)
        np.testing.assert_array_equal(out, 0.0)

    def test_empty_scene_zero(self, monkeypatch):
        cam0 = small_camera()
        cam1 = cam0.with_pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        out = fast_branch_delta_log(monkeypatch, empty_scene(background=0.5),
                                    cam0, cam1)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_gaussian_leaving_footprint_negative(self, monkeypatch):
        # bright gaussian visible from cam0, shifted out of a pixel at cam1
        g = Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                       np.log([0.06] * 3), 4.0, 1.0)
        scene = GaussianScene.from_gaussians([g], background=0.05)
        cam0 = small_camera()
        cam1 = cam0.with_pose(cam0.R, cam0.t + np.array([0.8, 0.0, 0.0]))
        out = fast_branch_delta_log(monkeypatch, scene, cam0, cam1)
        assert out[8, 8] < 0

    def test_log_upstream_chain(self, rng):
        cfg = EventModelConfig()
        img = rng.uniform(0.05, 1.0, size=(6, 6))
        up = rng.normal(size=(6, 6))
        chained = log_intensity_upstream(img, up, cfg)
        np.testing.assert_allclose(chained, up / (cfg.gamma * img))
        # floored pixels pass no gradient
        img2 = np.zeros((2, 2))
        np.testing.assert_array_equal(
            log_intensity_upstream(img2, np.ones((2, 2)), cfg), 0.0)
