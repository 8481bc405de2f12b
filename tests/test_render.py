import types

import numpy as np
import pytest

from conftest import empty_scene, random_scene, reference_render, small_camera

from evsplat.backward import render_backward
from evsplat.camera import CameraModel
from evsplat.quat import quat_normalize, quat_to_rot, rot_to_quat
from evsplat.render import CHUNK_SIZE, COV2D_DILATION, _project, render
from evsplat.scene import Gaussian3D, GaussianScene


def single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=12.0, intensity=0.8,
                          scale=0.05, background=0.0):
    g = Gaussian3D(np.array(mean), np.array([1.0, 0, 0, 0]),
                   np.log([scale] * 3), logit, intensity)
    return GaussianScene.from_gaussians([g], background=background)


def multi_chunk_scene(rng, back=40):
    """One chunk of small opaque Gaussians in front of the left half of a 16x16
    view, which terminates pixels there, and larger translucent Gaussians
    behind them over the whole view, which fall in the second chunk."""
    n = CHUNK_SIZE + back
    front = np.arange(n) < CHUNK_SIZE
    means = np.column_stack([
        np.where(front, rng.uniform(-0.4, 0.0, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(-0.4, 0.4, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(2.0, 2.4, n), rng.uniform(3.0, 4.0, n))])
    log_scales = np.log(np.where(front, rng.uniform(0.03, 0.05, n),
                                 rng.uniform(0.1, 0.2, n)))[:, None].repeat(3, axis=1)
    logits = np.where(front, 5.0, rng.uniform(-1.0, 1.0, n))
    return GaussianScene(means, rng.normal(size=(n, 4)), log_scales, logits,
                         rng.uniform(0.05, 1.0, n), background=0.4)


class TestProjection:
    def test_axis_aligned_example(self):
        # camera-frame mean (0,0,2), fx = fy = 100, unit covariance
        scene = single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=0.0, scale=1.0)
        cam = CameraModel(fx=100.0, fy=100.0, cx=8.0, cy=8.0, width=16, height=16)
        proj = _project(scene, cam)
        np.testing.assert_array_equal(proj.orig_idx, [0])
        np.testing.assert_allclose(proj.mean2d[0], [8.0, 8.0])
        np.testing.assert_allclose(proj.jac[0], [[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        np.testing.assert_allclose(proj.sigma[0], np.eye(3))
        np.testing.assert_allclose(proj.cov2d[0], np.diag([2500.0 + COV2D_DILATION] * 2))
        assert proj.depth[0] == 2.0

    def test_optical_axis_hits_principal_point(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, 3.7), logit=0.0, scale=0.1)
        cam = CameraModel(fx=55.0, fy=44.0, cx=3.25, cy=9.5, width=16, height=16)
        np.testing.assert_allclose(_project(scene, cam).mean2d, [[3.25, 9.5]])

    def test_behind_camera_culled(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, -1.0), logit=0.0, scale=1.0)
        assert len(_project(scene, small_camera()).orig_idx) == 0


class TestRenderForward:
    def test_empty_scene_pure_background(self):
        out = render(empty_scene(background=0.5), small_camera())
        np.testing.assert_array_equal(out.image, np.full((16, 16), 0.5))
        np.testing.assert_array_equal(out.final_transmittance, np.ones((16, 16)))

    def test_single_opaque_gaussian_center_value(self):
        scene = single_gaussian_scene(intensity=0.8)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        out = render(scene, cam)
        # alpha clamps at 0.999: center pixel = 0.999 * 0.8
        assert out.image[8, 8] == pytest.approx(0.8, abs=2e-3)

    def test_two_coincident_gaussians(self):
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 2.5]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 0.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        out = render(scene, cam)
        assert out.image[8, 8] == pytest.approx(0.5, abs=1e-6)

    def test_matches_reference_compositor(self, rng):
        scenes = [random_scene(r, int(r.integers(3, 24)))
                  for r in map(np.random.default_rng, range(8))]
        scenes.append(multi_chunk_scene(rng))
        cam = small_camera()
        for scene in scenes:
            fast = render(scene, cam).image
            slow = reference_render(scene, cam)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

        # the last scene terminates pixels inside its first chunk, so its
        # second chunk goes through the per-pair termination filter
        tape = render(scene, cam, keep_tape=True).tape
        assert len(tape.chunk_offsets) - 1 >= 2
        assert not tape.live[:tape.chunk_offsets[1]].all()
        upstream = rng.normal(size=(16, 16))
        buf = render_backward(scene, cam, upstream, tape)
        second = tape.proj.orig_idx[CHUNK_SIZE:]
        picks = second[np.argsort(-np.abs(buf.d_intensities[second]))[:3]]

        def loss():
            return float(np.sum(upstream * render(scene, cam).image))

        for arr, grad, h in ((scene.intensities, buf.d_intensities, 1e-4),
                             (scene.opacity_logits, buf.d_opacity_logits, 1e-5)):
            for k in picks:
                orig = arr[k]
                arr[k] = orig + h
                lp = loss()
                arr[k] = orig - h
                lm = loss()
                arr[k] = orig
                assert grad[k] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-9)

    def test_compositing_identity(self, rng):
        # image == blended contributions + background * final transmittance
        scene = random_scene(rng, 12)
        cam = small_camera()
        out = render(scene, cam)
        no_bg = GaussianScene(scene.means, scene.quats, scene.log_scales,
                              scene.opacity_logits, scene.intensities, background=0.0)
        contributions = render(no_bg, cam).image
        np.testing.assert_allclose(
            out.image, contributions + scene.background * out.final_transmittance,
            atol=1e-12)

    def test_energy_bound(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed + 100)
            scene = random_scene(r, 20)
            out = render(scene, small_camera())
            hi = max(scene.background, scene.intensities.max())
            assert out.image.min() >= 0.0
            assert out.image.max() <= hi + 1e-12

    def test_rotation_invariance(self, rng):
        scene = random_scene(rng, 10)
        cam = small_camera()
        axis = quat_normalize(np.array([0.9, 0.2, -0.3, 0.4]))
        Q = quat_to_rot(axis)
        rotated = GaussianScene(
            scene.means @ Q.T,
            np.array([rot_to_quat(Q @ quat_to_rot(q)) for q in scene.quats]),
            scene.log_scales, scene.opacity_logits, scene.intensities,
            scene.background)
        cam_rot = cam.with_pose(cam.R @ Q.T, cam.t)
        a = render(scene, cam).image
        b = render(rotated, cam_rot).image
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_bit_reproducible(self, rng):
        scene = random_scene(rng, 15)
        cam = small_camera()
        a = render(scene, cam).image
        b = render(scene, cam).image
        np.testing.assert_array_equal(a, b)

    def test_depth_tiebreak_by_index(self):
        # two coincident gaussians at identical depth: stable order blends 0 first
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 0.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        assert render(scene, cam).image[8, 8] == pytest.approx(0.5, abs=1e-6)


class TestRenderDepth:
    def test_empty_scene_sentinel(self):
        depth = render(empty_scene(background=0.7), small_camera(),
                       compute_depth=True).depth
        np.testing.assert_array_equal(depth, np.zeros((16, 16)))

    def test_single_opaque_gaussian_depth(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=12.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        depth = render(scene, cam, compute_depth=True).depth
        assert depth[8, 8] == pytest.approx(2.0, abs=5e-3)

    def test_front_depth_dominates(self):
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 12.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 4.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.1] * 3), 12.0, 1.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        depth = render(scene, cam, compute_depth=True).depth
        assert depth[8, 8] == pytest.approx(2.0, abs=1e-2)


def test_render_module_is_not_shadowed():
    import evsplat.render as R
    assert isinstance(R, types.ModuleType)
