"""Explicit Gaussian scene representation.

Parameters are stored unconstrained for optimization: rotation as a
(re-normalized) quaternion, scale as log-scale, opacity as a logit.  The
grayscale appearance is a single scalar per Gaussian (spherical-harmonics
degree 0); the background level is fixed, not optimized.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the optimised parameter arrays, in checkpoint and constructor order
PARAMS = ("means", "quats", "log_scales", "opacity_logits", "intensities")
CHECKPOINT_MAGIC = b"EGS1"
_FLOATS_PER_GAUSSIAN = 14   # mean 3, quat 4, log_scale 3, opacity_logit 1, intensity 1, pad 2


class Gaussian3D(NamedTuple):
    """One Gaussian's parameters, as GaussianScene.from_gaussians takes them."""

    mean: np.ndarray
    rotation: np.ndarray      # quaternion (w, x, y, z)
    log_scale: np.ndarray
    opacity_logit: float
    intensity: float


@dataclass
class GaussianScene:
    means: np.ndarray           # (N, 3)
    quats: np.ndarray           # (N, 4), re-normalized after optimizer steps
    log_scales: np.ndarray      # (N, 3)
    opacity_logits: np.ndarray  # (N,)
    intensities: np.ndarray     # (N,) grayscale appearance >= 0
    background: float = 0.0

    def __post_init__(self):
        for name in PARAMS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, np.atleast_1d(arr) if name in ("opacity_logits", "intensities")
                    else np.atleast_2d(arr))
        if len({len(p) for p in self.params().values()}) != 1:
            raise ValueError("parameter arrays must share one length")
        if not 0.0 <= self.background <= 1.0:
            raise ValueError("background must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.means)

    @property
    def opacities(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.opacity_logits))

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    def params(self) -> dict[str, np.ndarray]:
        """The parameter arrays by name, as views the optimiser updates in place."""
        return {name: getattr(self, name) for name in PARAMS}

    def take(self, idx) -> "GaussianScene":
        """A new scene of the Gaussians at an index array or boolean mask."""
        return GaussianScene(*(getattr(self, name)[idx] for name in PARAMS), self.background)

    def copy(self) -> "GaussianScene":
        return self.take(np.arange(len(self)))

    @staticmethod
    def concat(scenes) -> "GaussianScene":
        """The Gaussians of every scene in order, on the first scene's background."""
        return GaussianScene(*(np.concatenate([getattr(s, name) for s in scenes])
                               for name in PARAMS), scenes[0].background)

    @classmethod
    def from_gaussians(cls, gaussians, background: float = 0.0) -> "GaussianScene":
        return cls(
            means=np.array([g.mean for g in gaussians], dtype=np.float64),
            quats=np.array([g.rotation for g in gaussians], dtype=np.float64),
            log_scales=np.array([g.log_scale for g in gaussians], dtype=np.float64),
            opacity_logits=np.array([g.opacity_logit for g in gaussians], dtype=np.float64),
            intensities=np.array([g.intensity for g in gaussians], dtype=np.float64),
            background=background,
        )


def save_scene(path: str, scene: GaussianScene) -> None:
    """Write the EGS1 checkpoint (atomic: temp file then rename).

    Layout: magic "EGS1", count as little-endian uint64, then per Gaussian 14
    little-endian float32 (mean 3, quaternion 4, log_scale 3, opacity_logit,
    intensity, 2 zero pads), then the background as one float32.
    """
    n = len(scene)
    block = np.zeros((n, _FLOATS_PER_GAUSSIAN), dtype="<f4")
    block[:, 0:3] = scene.means
    block[:, 3:7] = scene.quats
    block[:, 7:10] = scene.log_scales
    block[:, 10] = scene.opacity_logits
    block[:, 11] = scene.intensities
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", n))
        f.write(block.tobytes())
        f.write(np.float32(scene.background).astype("<f4").tobytes())
    os.replace(tmp, path)


def load_scene(path: str) -> GaussianScene:
    """Read an EGS1 checkpoint.  Raises ValueError on a bad header or a short
    body, and names the first record whose quaternion is zero or whose
    parameters are not finite."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic: {magic!r}")
        (n,) = struct.unpack("<Q", f.read(8))
        data = f.read(n * _FLOATS_PER_GAUSSIAN * 4)
        if len(data) != n * _FLOATS_PER_GAUSSIAN * 4:
            raise ValueError("truncated checkpoint body")
        tail = f.read(4)
        if len(tail) != 4:
            raise ValueError("missing background value")
    block = np.frombuffer(data, dtype="<f4").reshape(n, _FLOATS_PER_GAUSSIAN).astype(np.float64)
    params = (block[:, 0:3], block[:, 3:7], block[:, 7:10], block[:, 10], block[:, 11])
    quats = params[1]
    bad = np.flatnonzero(~np.isfinite(quats).all(axis=1) | ~quats.any(axis=1))
    if bad.size:
        raise ValueError(f"checkpoint record {bad[0]}: quaternion {quats[bad[0]].tolist()} "
                         "is zero or not finite")
    for name, values in zip(PARAMS, params):
        finite = np.isfinite(values)
        bad = np.flatnonzero(~(finite.all(axis=1) if finite.ndim > 1 else finite))
        if bad.size:
            raise ValueError(f"checkpoint record {bad[0]}: {name} "
                             f"{values[bad[0]].tolist()} is not finite")
    background = float(np.frombuffer(tail, dtype="<f4")[0])
    return GaussianScene(*params, background=background)
