"""Output checks computed apart from the program.

Each check takes the program's output plus what it is compared against and
returns ``(ok, detail)``.  Nothing here calls evsplat: the reference renderer
has its own quaternion, covariance and projection code and composites every
Gaussian front to back with no cutoff, so the only differences it may show
against the renderer's exact default path are the two truncations that path
states, bounded below.
"""

from __future__ import annotations

import numpy as np

# Truncations of evsplat.render's default path, as its documentation states
# them: footprints end where alpha falls below 1e-12, and a pixel stops
# blending once its transmittance falls below 1e-4.
STATED_ALPHA_MIN = 1e-12
STATED_TERMINATION = 1e-4

# The rendered function itself: opacity is clipped at 0.999, the screen
# covariance is dilated by 0.3 px^2, and Gaussians at or behind z = 0.01 are
# not drawn.
ALPHA_CLIP = 0.999
DILATION = 0.3
NEAR = 0.01


def _rotations(quats: np.ndarray) -> np.ndarray:
    q = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def reference_render(scene, cam) -> np.ndarray:
    """Front-to-back alpha compositing of every Gaussian over every pixel."""
    rot = _rotations(scene.quats)
    var = np.exp(2.0 * scene.log_scales)
    sigma = np.einsum("nij,nj,nkj->nik", rot, var, rot)
    p = scene.means @ cam.R.T + cam.t
    keep = np.flatnonzero(p[:, 2] > NEAR)
    keep = keep[np.argsort(p[keep, 2], kind="stable")]
    x, y, z = p[keep, 0], p[keep, 1], p[keep, 2]
    jac = np.zeros((len(keep), 2, 3))
    jac[:, 0, 0] = cam.fx / z
    jac[:, 0, 2] = -cam.fx * x / z ** 2
    jac[:, 1, 1] = cam.fy / z
    jac[:, 1, 2] = -cam.fy * y / z ** 2
    w = jac @ cam.R
    cov = w @ sigma[keep] @ np.transpose(w, (0, 2, 1)) + DILATION * np.eye(2)
    det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] * cov[:, 1, 0]
    ia, ib, ic = cov[:, 1, 1] / det, -cov[:, 0, 1] / det, cov[:, 0, 0] / det
    mx = cam.fx * x / z + cam.cx
    my = cam.fy * y / z + cam.cy
    opacity = np.minimum(1.0 / (1.0 + np.exp(-scene.opacity_logits[keep])), ALPHA_CLIP)
    color = scene.intensities[keep]
    px, py = np.meshgrid(np.arange(cam.width, dtype=np.float64),
                         np.arange(cam.height, dtype=np.float64))
    trans = np.ones((cam.height, cam.width))
    image = np.zeros((cam.height, cam.width))
    for k in range(len(keep)):
        dx = px - mx[k]
        dy = py - my[k]
        alpha = opacity[k] * np.exp(-0.5 * (ia[k] * dx * dx + 2.0 * ib[k] * dx * dy
                                            + ic[k] * dy * dy))
        image += color[k] * alpha * trans
        trans *= 1.0 - alpha
    return image + float(scene.background) * trans


def render_tolerance(scene) -> float:
    """Largest per-pixel difference the two stated truncations allow.

    Termination drops the blend once transmittance T is below 1e-4; the
    dropped remainder and the background term it replaces both weigh T in
    total, so they differ by at most T * max|c - background|.  Each pair cut
    below alpha_min shifts the pixel by at most 3 * alpha_min * M, M the
    largest magnitude among colours and background.  1e-9 * M covers the
    renderer's log-space transmittance products.
    """
    c = np.asarray(scene.intensities, dtype=np.float64)
    bg = float(scene.background)
    m = max(float(np.abs(c).max(initial=0.0)), abs(bg), 1.0)
    spread = float(np.abs(c - bg).max(initial=0.0))
    return STATED_TERMINATION * spread + 3.0 * len(c) * STATED_ALPHA_MIN * m + 1e-9 * m


def check_render(image: np.ndarray, reference: np.ndarray, tol: float):
    err = float(np.abs(np.asarray(image) - reference).max())
    return err <= tol, f"max |render - reference| {err:.2e} (tol {tol:.2e})"


def check_gradients(params, grads, loss_at, h: float = 1e-4):
    """Central differences of ``loss_at()`` against analytic gradients.

    ``params`` and ``grads`` are matching lists of arrays; each parameter
    array is perturbed in place and restored.  An entry passes when the
    absolute error is at most 1e-7 or the relative error below 1e-4.
    """
    worst, worst_abs, count = 0.0, 0.0, 0
    for arr, grad in zip(params, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss_at()
            flat[k] = orig - h
            lm = loss_at()
            flat[k] = orig
            fd = (lp - lm) / (2.0 * h)
            err = abs(gflat[k] - fd)
            count += 1
            worst_abs = max(worst_abs, err)
            if err > 1e-7:
                rel = err / max(abs(gflat[k]), abs(fd))
                worst = max(worst, rel)
                if rel >= 1e-4:
                    return False, f"analytic {gflat[k]:.6g} vs central difference {fd:.6g}"
    return True, (f"{count} partials, worst absolute error {worst_abs:.1e}, "
                  f"worst relative error above 1e-7 absolute {worst:.1e}")


def check_exposure(frames, truths, rel_tol: float = 0.02, floor: float = 0.05):
    """Mapped frames against max-normalised truth on pixels >= floor * max."""
    worst = 0.0
    for image, truth in zip(frames, truths):
        truth = np.asarray(truth, dtype=np.float64)
        ref = truth / truth.max()
        sel = truth >= floor * truth.max()
        worst = max(worst, float((np.abs(np.asarray(image) - ref) / ref)[sel].max()))
    return worst <= rel_tol, f"{len(frames)} frames, worst relative error {worst:.2e}"


def log_intensity(image: np.ndarray, gamma: float, floor: float = 1e-6) -> np.ndarray:
    return np.log(np.maximum(image, floor)) / gamma


def accumulate(t, x, y, p, width: int, height: int, t0: int, t1: int,
               contrast: float) -> np.ndarray:
    """Signed event count times the contrast per pixel over t0 < t <= t1."""
    sel = (t > t0) & (t <= t1)
    idx = y[sel].astype(np.int64) * width + x[sel]
    return (np.bincount(idx, weights=p[sel].astype(np.float64), minlength=width * height)
            * contrast).reshape(height, width)


def check_motion_events(accumulated: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
                        contrast: float):
    """Events summed between two frame times track the log change within 2C:
    the simulator's reference level stays within C of the log signal."""
    err = float(np.abs(np.asarray(accumulated) - (log_b - log_a)).max())
    return err <= 2.0 * contrast, f"max |events - dlog| {err:.3f} (bound {2 * contrast:.3f})"


def check_motion_loss(values):
    values = np.asarray(values, dtype=np.float64)
    ok = values.size > 0 and bool(np.all((values >= 0.0) & (values <= 4.0)))
    lo = float(values.min()) if values.size else float("nan")
    hi = float(values.max()) if values.size else float("nan")
    return ok, f"{values.size} losses in [{lo:.3f}, {hi:.3f}]"


def check_training(psnr_final: float, psnr_init: float, scene, max_count: int):
    finite = all(np.all(np.isfinite(a)) for a in
                 (scene.means, scene.quats, scene.log_scales,
                  scene.opacity_logits, scene.intensities))
    ok = psnr_final > psnr_init and finite and len(scene) <= max_count
    return ok, (f"psnr {psnr_init:.2f} -> {psnr_final:.2f} dB, finite {finite}, "
                f"count {len(scene)} <= {max_count}")


def check_evt1(written, read):
    same = (tuple(written.resolution) == tuple(read.resolution)
            and all(np.array_equal(getattr(written, f), getattr(read, f))
                    for f in ("t", "x", "y", "p")))
    return same, f"{len(written.t)} events read back {'exactly' if same else 'CHANGED'}"


def check_egs1(saved, loaded):
    """Every stored value equals the original within float32 rounding."""
    worst = 0.0
    for f in ("means", "quats", "log_scales", "opacity_logits", "intensities"):
        a = np.asarray(getattr(saved, f), dtype=np.float64)
        b = np.asarray(getattr(loaded, f), dtype=np.float64)
        if a.shape != b.shape:
            return False, f"{f} shape {a.shape} read back as {b.shape}"
        # round to nearest float32 is within half an ulp: 2**-24 relative
        excess = np.abs(a - b) - 2.0 ** -24 * np.abs(a) - 1e-45
        worst = max(worst, float(excess.max(initial=-np.inf)))
    bg_ok = abs(float(saved.background) - float(loaded.background)) <= 2.0 ** -24
    return worst <= 0.0 and bg_ok, f"{len(saved)} Gaussians within float32 rounding: {worst <= 0.0 and bg_ok}"


def check_call_counts(mode: str, iterations: int, renders: int, backwards: int,
                      skipped: int):
    """Taped renders and backward passes inside the loop against the schedule:
    fast renders the two window poses every iteration and differentiates both
    unless the window is skipped; hq, and a view of the large-scene loop,
    render and differentiate once."""
    if mode == "fast":
        want = (2 * iterations, 2 * (iterations - skipped))
    else:
        want = (iterations, iterations)
    ok = (renders, backwards) == want
    return ok, f"renders {renders}, backward {backwards}; schedule implies {want[0]}, {want[1]}"
