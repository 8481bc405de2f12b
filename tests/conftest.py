import numpy as np
import pytest

from evsplat.camera import CameraModel
from evsplat.events import EventStream
from evsplat.exposure import transmittance_at
from evsplat.render import (ALPHA_MIN, TERMINATE_TRANSMITTANCE, _project)
from evsplat.scene import GaussianScene

# (number, title, passed, detail) rows appended by the acceptance tests
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {number:2d} ({title}): {verdict}  {detail}")


def random_scene(rng, n, background=0.4, logit_range=(-2.0, 2.0)):
    """Random test scene conditioned for finite-difference validity: pairwise
    depth separation avoids sort-order ties, and the scale floor keeps screen
    footprints >= ~2 px so the O(h^2) truncation of central differences at
    h = 1e-4 stays below the acceptance tolerance floor."""
    xy = rng.uniform(-0.8, 0.8, size=(n, 2))
    step = 1.8 / n
    z = 2.2 + rng.permutation(n) * step + rng.uniform(0, 0.5 * step, size=n)
    means = np.column_stack([xy, z])
    quats = rng.normal(size=(n, 4))
    log_scales = rng.uniform(np.log(0.26), np.log(0.45), size=(n, 3))
    logits = rng.uniform(*logit_range, size=n)
    intens = rng.uniform(0.05, 1.0, size=n)
    return GaussianScene(means, quats, log_scales, logits, intens, background=background)


def scale_foreground(img, mask, factor, ceiling=None):
    """Multiply masked pixels by factor, optionally clipping at a saturation ceiling.

    The ceiling models a frame camera's full-well limit for over-exposure
    studies; event-based exposure simulation is fed the unclipped image.
    """
    if factor <= 0:
        raise ValueError("factor must be > 0")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != np.asarray(img).shape:
        raise ValueError("mask resolution must match the image")
    out = np.array(img, dtype=np.float64, copy=True)
    out[mask] *= factor
    if ceiling is not None:
        out[mask] = np.minimum(out[mask], ceiling)
    return out


def simulate_exposure_events(img, profile, cfg, levels):
    """Full exposure-event stream over the aperture ramp [0, t_end]: the
    sensor model that exposure.simulate_ipe computes the first crossings of.

    The ramp is discretized into `levels` steps; within each step the
    transmittance is held at its midpoint value, so the accumulated charge
    I * h(t) is piecewise linear and threshold crossings invert exactly
    within the step.  Every crossing of a multiple of C is emitted, at its
    time rounded to whole µs (>= 1); all polarities are positive.  Pixels
    with I = 0 emit nothing.
    """
    h_px, w_px = np.shape(img)
    intensity = np.asarray(img, dtype=np.float64).reshape(-1)
    dt = profile.t_end / levels
    mids = transmittance_at(profile, (np.arange(levels) + 0.5) * dt)
    c = cfg.contrast_threshold
    charge = np.zeros_like(intensity)
    base = np.zeros_like(intensity)   # multiples of c reached so far
    xs, ys, ts = [], [], []
    for j in range(levels):
        rate = intensity * mids[j]
        new_charge = charge + rate * dt
        # a 1e-9 relative grace, so accumulated float error cannot miss a
        # hit that lands exactly on a multiple of c
        reached = np.floor(new_charge / c + 1e-9)
        n = (reached - base).astype(np.int64)
        active = np.flatnonzero(n > 0)
        if active.size:
            counts = n[active]
            rep = np.repeat(active, counts)
            offs = np.concatenate(([0], np.cumsum(counts)))[:-1]
            kk = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offs, counts) + 1
            level = (base[rep] + kk) * c
            tt = j * dt + np.maximum(level - charge[rep], 0.0) / rate[rep]
            xs.append((rep % w_px).astype(np.int32))
            ys.append((rep // w_px).astype(np.int32))
            ts.append(np.maximum(np.rint(tt * 1e6).astype(np.int64), 1))
        charge, base = new_charge, reached

    if not ts:
        return EventStream.empty((w_px, h_px))
    t = np.concatenate(ts)
    order = np.argsort(t, kind="stable")
    return EventStream.create((w_px, h_px), np.concatenate(xs)[order],
                              np.concatenate(ys)[order], t[order],
                              np.ones(len(t), dtype=np.int8))


def empty_scene(background=0.0):
    return GaussianScene(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)),
                         np.zeros(0), np.zeros(0), background)


def small_camera(size=16, fx=40.0):
    return CameraModel(fx=fx, fy=fx, cx=(size - 1) / 2.0, cy=(size - 1) / 2.0,
                       width=size, height=size)


def reference_render(scene: GaussianScene, cam: CameraModel) -> np.ndarray:
    """Slow per-pixel compositor mirroring the renderer's exact semantics;
    independent of the vectorized flat/segmented-cumsum path."""
    proj = _project(scene, cam)
    img = np.full((cam.height, cam.width), float(scene.background))
    intens = scene.intensities[proj.orig_idx]
    for py in range(cam.height):
        for px in range(cam.width):
            t = 1.0
            val = 0.0
            for k in range(len(proj.orig_idx)):
                x0, x1, y0, y1 = proj.rect[k]
                if not (x0 <= px <= x1 and y0 <= py <= y1):
                    continue
                d = np.array([px, py], dtype=np.float64) - proj.mean2d[k]
                q = d @ proj.cov2d_inv[k] @ d
                alpha = proj.alpha_base[k] * np.exp(-0.5 * q)
                if alpha < ALPHA_MIN:
                    continue
                if t < TERMINATE_TRANSMITTANCE:
                    break
                val += intens[k] * alpha * t
                t *= 1.0 - alpha
            img[py, px] = val + scene.background * t
    return img


@pytest.fixture
def rng():
    return np.random.default_rng(0)
