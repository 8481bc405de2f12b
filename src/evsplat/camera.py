"""Pinhole camera model and time-parameterized trajectories.

The camera frame is x right, y down, z forward; pixel (ix, iy) samples image
plane coordinates (ix, iy), so a point on the optical axis projects to
(cx, cy).  world_to_camera maps p_cam = R @ p_world + t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quat import quat_slerp, quat_to_rot, rot_to_quat


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))

    def with_pose(self, R: np.ndarray, t: np.ndarray) -> "CameraModel":
        return CameraModel(self.fx, self.fy, self.cx, self.cy,
                           self.width, self.height, R, t)

    def world_to_cam(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.R.T + self.t

    @staticmethod
    def looking_at(eye, target, up, fx, fy, cx, cy, width, height) -> "CameraModel":
        eye = np.asarray(eye, dtype=np.float64)
        forward = np.asarray(target, dtype=np.float64) - eye
        forward = forward / np.linalg.norm(forward)
        right = np.cross(forward, np.asarray(up, dtype=np.float64))
        nrm = np.linalg.norm(right)
        if nrm < 1e-12:
            raise ValueError("view direction is parallel to up")
        right = right / nrm
        down = np.cross(forward, right)
        R = np.stack([right, down, forward])
        return CameraModel(fx, fy, cx, cy, width, height, R, -R @ eye)


def _orthonormal_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane perpendicular to axis (deterministic)."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


@dataclass(frozen=True)
class TurntableTrajectory:
    """Camera orbits the scene axis at constant angular rate, looking at the center.

    Azimuth is linear in time: theta(t) = phase + angular_rate * t, with t
    clamped to [0, span] seconds.
    """

    camera: CameraModel              # intrinsics / resolution template
    radius: float
    angular_rate: float              # rad / s
    span: float                      # seconds
    height: float = 0.0
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase: float = 0.0

    def pose_at(self, t: float) -> CameraModel:
        t = float(np.clip(t, 0.0, self.span))
        axis = np.asarray(self.axis, dtype=np.float64)
        axis = axis / np.linalg.norm(axis)
        center = np.asarray(self.center, dtype=np.float64)
        e1, e2 = _orthonormal_basis(axis)
        theta = self.phase + self.angular_rate * t
        eye = center + self.radius * (np.cos(theta) * e1 + np.sin(theta) * e2) \
            + self.height * axis
        c = self.camera
        return CameraModel.looking_at(eye, center, axis, c.fx, c.fy, c.cx, c.cy,
                                      c.width, c.height)


@dataclass(frozen=True)
class KeyframeTrajectory:
    """Slerp rotations and lerp translations between bracketing keyframes."""

    camera: CameraModel
    times: np.ndarray        # (K,) strictly increasing, seconds
    rotations: np.ndarray    # (K, 3, 3) world-to-camera
    translations: np.ndarray # (K, 3)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.size == 0:
            raise ValueError("trajectory must have at least one keyframe")
        if np.any(np.diff(times) <= 0):
            raise ValueError("keyframe times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rotations",
                           np.asarray(self.rotations, dtype=np.float64).reshape(-1, 3, 3))
        object.__setattr__(self, "translations",
                           np.asarray(self.translations, dtype=np.float64).reshape(-1, 3))

    @property
    def span(self) -> float:
        return float(self.times[-1])

    def pose_at(self, t: float) -> CameraModel:
        times = self.times
        t = float(np.clip(t, times[0], times[-1]))
        # t is clipped into the span, so hi >= 1
        hi = int(np.searchsorted(times, t, side="right"))
        if hi >= len(times):
            idx = len(times) - 1
            return self.camera.with_pose(self.rotations[idx], self.translations[idx])
        lo = hi - 1
        u = (t - times[lo]) / (times[hi] - times[lo])
        if u == 0.0:
            return self.camera.with_pose(self.rotations[lo], self.translations[lo])
        qa = rot_to_quat(self.rotations[lo])
        qb = rot_to_quat(self.rotations[hi])
        R = quat_to_rot(quat_slerp(qa, qb, u))
        trans = (1 - u) * self.translations[lo] + u * self.translations[hi]
        return self.camera.with_pose(R, trans)


Trajectory = TurntableTrajectory | KeyframeTrajectory


def pose_at_time(trajectory: Trajectory, t: float) -> CameraModel:
    """Camera pose at time t (seconds), clamped to the trajectory span."""
    if trajectory is None:
        raise ValueError("empty trajectory")
    return trajectory.pose_at(t)
