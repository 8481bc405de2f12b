import re

import numpy as np
import pytest

from evsplat.camera import (CameraModel, KeyframeTrajectory, TurntableTrajectory,
                            pose_at_time)
from evsplat.render import render
from evsplat.scene import Gaussian3D, GaussianScene


def template():
    return CameraModel(fx=100.0, fy=100.0, cx=31.5, cy=31.5, width=64, height=64)


class TestTurntable:
    def make(self, span=10.0):
        return TurntableTrajectory(camera=template(), radius=4.0, height=1.2,
                                   angular_rate=2 * np.pi / span, span=span)

    def test_full_rotation_periodic(self):
        traj = self.make()
        a = pose_at_time(traj, 0.0)
        b = pose_at_time(traj, 10.0)
        np.testing.assert_allclose(a.R, b.R, atol=1e-9)
        np.testing.assert_allclose(a.t, b.t, atol=1e-9)

    def test_camera_looks_at_center(self):
        traj = self.make()
        for t in (0.0, 2.3, 7.7):
            cam = pose_at_time(traj, t)
            center_cam = cam.world_to_cam(np.zeros((1, 3)))[0]
            # center projects on the optical axis, in front of the camera
            assert abs(center_cam[0]) < 1e-12
            assert abs(center_cam[1]) < 1e-12
            assert center_cam[2] == pytest.approx(np.sqrt(4.0 ** 2 + 1.2 ** 2))

    def test_rotation_is_rigid(self):
        cam = pose_at_time(self.make(), 3.1)
        np.testing.assert_allclose(cam.R @ cam.R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(cam.R) == pytest.approx(1.0)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, -2.0, 0.5),
                                      (0.1, 0.2, -3.0), (-0.3, 0.0, 0.25)])
    @pytest.mark.parametrize("height", [0.0, 1.2, -0.7])
    def test_pose_matches_the_np_cross_formula(self, axis, height):
        traj = TurntableTrajectory(camera=template(), radius=3.3, height=height,
                                   angular_rate=0.9, span=7.0, axis=axis,
                                   center=(0.2, -0.1, 0.4), phase=0.3)
        for t in (0.0, 1.7, 4.45, 7.0):
            cam = traj.pose_at(t)
            # the same pose with np.cross
            a = np.asarray(axis) / np.linalg.norm(axis)
            unit = a / np.linalg.norm(a)
            helper = np.array([0.0, 0.0, 1.0]) if abs(unit[2]) < 0.9 else np.array([1.0, 0, 0])
            e1 = np.cross(helper, unit)
            e1 = e1 / np.linalg.norm(e1)
            e2 = np.cross(unit, e1)
            theta = traj.phase + traj.angular_rate * t
            center = np.asarray(traj.center)
            eye = center + traj.radius * (np.cos(theta) * e1 + np.sin(theta) * e2) \
                + height * a
            forward = center - eye
            forward = forward / np.linalg.norm(forward)
            right = np.cross(forward, a)
            right = right / np.linalg.norm(right)
            R = np.stack([right, np.cross(forward, right), forward])
            np.testing.assert_array_equal(cam.R, R)
            np.testing.assert_array_equal(cam.t, -R @ eye)

    def test_clamped_beyond_span(self):
        traj = self.make()
        a = pose_at_time(traj, 11.5)
        b = pose_at_time(traj, 10.0)
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.t, b.t)


class TestKeyframes:
    def make(self):
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        r0 = np.eye(3)
        r1 = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        return KeyframeTrajectory(template(), np.array([0.0, 2.0]),
                                  np.stack([r0, r1]),
                                  np.array([[0.0, 0, 0], [1.0, 2, 3]]))

    def test_keyframe_exact(self):
        traj = self.make()
        cam = pose_at_time(traj, 2.0)
        np.testing.assert_allclose(cam.R, traj.rotations[1], atol=1e-12)
        np.testing.assert_allclose(cam.t, [1.0, 2, 3], atol=1e-12)

    def test_midpoint_is_45_degrees(self):
        cam = pose_at_time(self.make(), 1.0)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        np.testing.assert_allclose(cam.R, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-12)
        np.testing.assert_allclose(cam.t, [0.5, 1.0, 1.5], atol=1e-12)

    def test_clamped_outside_span(self):
        traj = self.make()
        early = pose_at_time(traj, -5.0)
        np.testing.assert_array_equal(early.R, traj.rotations[0])
        late = pose_at_time(traj, 99.0)
        np.testing.assert_array_equal(late.R, traj.rotations[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KeyframeTrajectory(template(), np.array([]), np.zeros((0, 3, 3)),
                               np.zeros((0, 3)))
        with pytest.raises(ValueError):
            pose_at_time(None, 0.0)


class TestCameraModel:
    def test_bad_focal_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1.0, fy=1.0, cx=0, cy=0, width=8, height=8)

    @pytest.mark.parametrize("name, value", [("width", 0), ("height", -1), ("width", 16.0),
                                             ("height", True), ("width", "16")])
    def test_size_must_be_a_positive_integer(self, name, value):
        size = {"width": 16, "height": 16, name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, "
                                                       f"got {value!r}")):
            CameraModel(fx=40.0, fy=40.0, cx=7.5, cy=7.5, **size)

    def test_numpy_integer_size_accepted(self):
        cam = CameraModel(40.0, 40.0, 7.5, 5.5, np.int64(16), np.uint16(12))
        assert (cam.width, cam.height) == (16, 12)
        assert type(cam.width) is int and type(cam.height) is int
        scene = GaussianScene.from_gaussians(
            [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                        np.log([0.1] * 3), 2.0, 0.8)], background=0.2)
        assert render(scene, cam).image.shape == (12, 16)

    def test_looking_at_projects_target_to_principal_point(self):
        cam = CameraModel.looking_at([0, -4, 0], [0, 0, 0], [0, 0, 1],
                                     100, 100, 31.5, 31.5, 64, 64)
        p = cam.world_to_cam(np.array([[0.0, 0, 0]]))[0]
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)
        assert p[2] == pytest.approx(4.0)
