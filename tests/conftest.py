import numpy as np
import pytest

from evsplat.camera import CameraModel
from evsplat.events import EventStream
from evsplat.exposure import transmittance_at
from evsplat.render import ALPHA_MIN, CHUNK_PAIRS, TERMINATE_TRANSMITTANCE, _project
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


def multi_chunk_scene(rng, back=40):
    """More than a chunk's pair budget of small opaque Gaussians in front of
    the left half of a 16x16 view, which terminates pixels there, and larger
    translucent Gaussians behind them over the whole view, which fall in later
    chunks.  Each front footprint's ellipse is at least 171 pixels at the
    exact cutoff, so CHUNK_PAIRS // 128 of them overflow the first chunk."""
    n_front = CHUNK_PAIRS // 128
    n = n_front + back
    front = np.arange(n) < n_front
    means = np.column_stack([
        np.where(front, rng.uniform(-0.4, 0.0, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(-0.4, 0.4, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(2.0, 2.4, n), rng.uniform(3.0, 4.0, n))])
    log_scales = np.log(np.where(front, rng.uniform(0.05, 0.08, n),
                                 rng.uniform(0.1, 0.2, n)))[:, None].repeat(3, axis=1)
    logits = np.where(front, 5.0, rng.uniform(-1.0, 1.0, n))
    return GaussianScene(means, rng.normal(size=(n, 4)), log_scales, logits,
                         rng.uniform(0.05, 1.0, n), background=0.4)


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


def reference_adjoint(scene: GaussianScene, cam: CameraModel, upstream: np.ndarray,
                      alpha_min: float = ALPHA_MIN):
    """Slow per-pixel adjoint of sum(upstream * image), independent of the
    tape: each pixel's pairs are found and composited front to back as in
    reference_render, then walked back to front with a running suffix.

    With g the pixel's upstream, w = alpha T and d = pixel - mean2d, each
    live pair contributes u = g alpha dI/dalpha and the terms g w, u, u d_x,
    u d_y, u d_x^2, u d_x d_y, u d_y^2 and 1 to its Gaussian.  Returns the
    (8, M) sums over pairs, indexed like _project's Gaussians, and the (8, M)
    sums of the terms' magnitudes, with u's two parts g alpha c T and
    g alpha suffix / (1 - alpha) taken apart, which bound the rounding of
    any order of summation.
    """
    proj = _project(scene, cam, alpha_min)
    intens = scene.intensities[proj.orig_idx]
    x0, x1, y0, y1 = proj.rect.T
    sums = np.zeros((8, len(intens)))
    magnitudes = np.zeros_like(sums)
    for py in range(cam.height):
        for px in range(cam.width):
            d = np.array([px, py], dtype=np.float64) - proj.mean2d
            q = np.einsum("mi,mij,mj->m", d, proj.cov2d_inv, d)
            alpha = proj.alpha_base * np.exp(-0.5 * q)
            inside = (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)
            pairs, t = [], 1.0
            for k in np.flatnonzero(inside & (alpha >= alpha_min)):
                if t < TERMINATE_TRANSMITTANCE:
                    break
                pairs.append((k, alpha[k], t))
                t *= 1.0 - alpha[k]
            g = upstream[py, px]
            suffix = scene.background * t
            for k, a, t_before in reversed(pairs):
                parts = g * a * np.array([intens[k] * t_before, suffix / (1.0 - a)])
                suffix += intens[k] * a * t_before
                dx, dy = d[k]
                powers = np.array([1.0, dx, dy, dx * dx, dx * dy, dy * dy])
                sums[:, k] += [g * a * t_before, *((parts[0] - parts[1]) * powers), 1.0]
                magnitudes[:, k] += [abs(g * a * t_before),
                                     *(np.abs(parts).sum() * np.abs(powers)), 1.0]
    return sums, magnitudes


@pytest.fixture
def rng():
    return np.random.default_rng(0)
