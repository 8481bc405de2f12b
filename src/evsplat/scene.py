"""Explicit Gaussian scene representation.

Parameters are stored unconstrained for optimization: rotation as a
(re-normalized) quaternion, scale as log-scale, opacity as a logit.  The
grayscale appearance is a single scalar per Gaussian (spherical-harmonics
degree 0); the background level is fixed, not optimized.

A scene's N Gaussians live in one flat float64 array of 12 N entries, one
block per parameter in PARAMS order: means (N*3), quats (N*4), log-scales
(N*3), opacity logits (N) and intensities (N).  The gradient buffer and
Adam's moments use the same layout; this module alone knows it.
"""

from __future__ import annotations

import os
import struct
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# floats per Gaussian of each parameter block, in flat-array, checkpoint
# and constructor order
_WIDTH = {"means": 3, "quats": 4, "log_scales": 3, "opacity_logits": 1, "intensities": 1}
PARAMS = tuple(_WIDTH)
PARAM_FLOATS = sum(_WIDTH.values())
_START = dict(zip(PARAMS, accumulate(_WIDTH.values(), initial=0)))
CHECKPOINT_MAGIC = b"EGS1"
_RECORD_FLOATS = 14   # the 12 parameters in PARAMS order, then 2 zero pads


def block(flat: np.ndarray, name: str) -> np.ndarray:
    """The named block of a flat parameter-layout array, as a C-contiguous
    view: (N, width), or (N,) for a one-wide block."""
    n = len(flat) // PARAM_FLOATS
    width = _WIDTH[name]
    view = flat[n * _START[name]:n * (_START[name] + width)]
    return view.reshape(n, width) if width > 1 else view


def block_property(name: str, source: str = "x") -> property:
    """A read-only attribute: the named block of the instance's flat array
    `source`.  In-place updates write through; assignment raises."""
    return property(lambda self: block(getattr(self, source), name))


def take_rows(flat: np.ndarray, idx) -> np.ndarray:
    """The flat array of the Gaussians at an index array or boolean mask."""
    return np.concatenate([block(flat, name)[idx].reshape(-1) for name in PARAMS])


def concat_rows(flats) -> np.ndarray:
    """The flat array of every flat array's Gaussians, in order."""
    return np.concatenate([np.concatenate([block(f, name) for f in flats]).reshape(-1)
                           for name in PARAMS])


def nonfinite_block(flat: np.ndarray) -> tuple[str, np.ndarray] | None:
    """The first block, in PARAMS order, holding a non-finite entry, with its
    mask of non-finite entries; None when every entry is finite."""
    bad = ~np.isfinite(flat)
    if not bad.any():
        return None
    name = next(k for k in PARAMS if block(bad, k).any())
    return name, block(bad, name)


def scale_blocks(flat: np.ndarray, factors: dict[str, float]) -> None:
    """Multiply each block of a flat array in place by its name's factor."""
    for name in PARAMS:
        view = block(flat, name)
        view *= factors[name]


class Gaussian3D(NamedTuple):
    """One Gaussian's parameters, as GaussianScene.from_gaussians takes them."""

    mean: np.ndarray
    rotation: np.ndarray      # quaternion (w, x, y, z)
    log_scale: np.ndarray
    opacity_logit: float
    intensity: float


class GaussianScene:
    """N Gaussians: the flat parameter array `x` and a background level.
    Each parameter name reads a view of its block of x."""

    means = block_property("means")                    # (N, 3)
    quats = block_property("quats")                    # (N, 4), re-normalized after optimizer steps
    log_scales = block_property("log_scales")          # (N, 3)
    opacity_logits = block_property("opacity_logits")  # (N,)
    intensities = block_property("intensities")        # (N,) grayscale appearance >= 0

    def __init__(self, means, quats, log_scales, opacity_logits, intensities,
                 background: float = 0.0):
        rows = [np.asarray(a, dtype=np.float64).reshape(-1, width) for a, width in
                zip((means, quats, log_scales, opacity_logits, intensities), _WIDTH.values())]
        if len({len(r) for r in rows}) != 1:
            raise ValueError("parameter arrays must share one length")
        if not 0.0 <= background <= 1.0:
            raise ValueError("background must lie in [0, 1]")
        self.x = np.concatenate([r.reshape(-1) for r in rows])
        self.background = background

    @classmethod
    def _of(cls, x: np.ndarray, background: float) -> "GaussianScene":
        scene = cls.__new__(cls)
        scene.x, scene.background = x, background
        return scene

    def __len__(self) -> int:
        return len(self.x) // PARAM_FLOATS

    @property
    def opacities(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.opacity_logits))

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)

    def take(self, idx) -> "GaussianScene":
        """A new scene of the Gaussians at an index array or boolean mask."""
        return GaussianScene._of(take_rows(self.x, idx), self.background)

    def copy(self) -> "GaussianScene":
        return GaussianScene._of(self.x.copy(), self.background)

    @staticmethod
    def concat(scenes) -> "GaussianScene":
        """The Gaussians of every scene in order, on the first scene's background."""
        return GaussianScene._of(concat_rows([s.x for s in scenes]), scenes[0].background)

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
    little-endian float32 (its 12 parameters in PARAMS order: mean 3,
    quaternion 4, log_scale 3, opacity_logit, intensity; then 2 zero pads),
    then the background as one float32.
    """
    n = len(scene)
    record = np.zeros((n, _RECORD_FLOATS), dtype="<f4")
    record[:, :PARAM_FLOATS] = np.column_stack([getattr(scene, name) for name in PARAMS])
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", n))
        f.write(record.tobytes())
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
        data = f.read(n * _RECORD_FLOATS * 4)
        if len(data) != n * _RECORD_FLOATS * 4:
            raise ValueError("truncated checkpoint body")
        tail = f.read(4)
        if len(tail) != 4:
            raise ValueError("missing background value")
    record = np.frombuffer(data, dtype="<f4").reshape(n, _RECORD_FLOATS).astype(np.float64)
    scene = GaussianScene(*np.split(record[:, :PARAM_FLOATS], list(_START.values())[1:], axis=1),
                          background=float(np.frombuffer(tail, dtype="<f4")[0]))
    quats = scene.quats
    bad = np.flatnonzero(~np.isfinite(quats).all(axis=1) | ~quats.any(axis=1))
    if bad.size:
        raise ValueError(f"checkpoint record {bad[0]}: quaternion {quats[bad[0]].tolist()} "
                         "is zero or not finite")
    found = nonfinite_block(scene.x)
    if found is not None:
        name, bad = found
        row = np.nonzero(bad)[0][0]
        raise ValueError(f"checkpoint record {row}: {name} "
                         f"{getattr(scene, name)[row].tolist()} is not finite")
    return scene
