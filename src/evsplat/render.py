"""Forward splatting renderer.

Gaussians are projected to screen space, depth sorted (stable, so equal
depths tie-break by index), and alpha-composited front to back against a
constant background.  Per-pixel blending terminates once transmittance falls
below TERMINATE_TRANSMITTANCE.

The per-Gaussian footprint is the region where the projected Gaussian's
alpha reaches the cutoff alpha_min, the ellipse q <= q_cut in Mahalanobis
distance.  At the default ALPHA_MIN = 1e-12 (about 7.4 sigma) the truncation
sits below double-precision visibility, so the rendered function is smooth
to the resolution of central finite differences, which the analytic
backward pass is verified against.  Training renders at
training.TRAIN_ALPHA_MIN = 1e-3 (about 3.7 sigma at full opacity); each
layer this drops moves a pixel by less than alpha_min times the intensity
range.  The backward pass is then the exact gradient of the truncated image
away from footprint edges, where a pair enters or leaves the footprint with
a jump of about alpha_min.
Pairs are built only on the ellipse's rows and, per row, on the conic's
x-interval, both widened by a small margin; the exact alpha >= alpha_min
test then decides which pairs are composited.  Each pair's log-alpha,
ln alpha_base - q/2, comes from terms of its row (see _chunk_footprints), so
the cutoff is one compare with ln alpha_min and alpha one exp, with no
per-pair lookup of a Gaussian's terms.  Footprint indices are intp, which
numpy gathers with no conversion; a taped render casts them to int32 once
per chunk.  The 2D covariance is T T^T plus dilation, with T = A (R S) and A
the perspective Jacobian times the camera rotation, built entry by entry so
that it is exactly symmetric.

Implementation: flat arrays over (gaussian, pixel-in-footprint) pairs,
processed in depth-ordered chunks of consecutive Gaussians whose estimated
pairs, each footprint's ellipse area pi q_cut sqrt(det), sum to at most
CHUNK_PAIRS, so that a chunk's per-pair arrays stay near the size of a
core's L2 cache.  Within a chunk, elements are stably sorted by pixel id
(radix for 16-bit ids), making the per-pixel compositing order the global
depth order.  One count of the chunk's pairs per pixel gives the sorted
pixel ids and each pixel's segment.  A pair's transmittance is the
transmittance entering the chunk times exp of the chunk's exclusive cumsum
of log(1 - alpha) less that cumsum at its pixel's first pair, where the
difference is exactly 0.  Contributions are summed per segment with
np.add.reduceat.  The live log(1 - alpha) are summed per pixel in pair
order by bincount, as reduceat's pairwise sums would not be, so a
per-pixel replay of the tape gives each chunk's entering transmittance bit
for bit.  Once some pixel has terminated, each later chunk drops the pairs
whose pixel has terminated, with those below the cutoff, before any
transcendental work.  Only a taped render keeps each pair's offset from its
Gaussian's mean.

Importing the module sets two process-wide options of the C library's heap
where it has mallopt (glibc): blocks up to 32 MiB come from the heap rather
than from their own memory maps, and freed heap is kept up to 1 GiB.  A
render's temporaries are then reused by the next render instead of being
returned to the kernel and faulted in again: a repeat render of 240
random-box Gaussians at 64x64 (655k pairs) took 9.9k minor page faults
untaped and 11.7k taped without these options, and 0 with them.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .quat import quat_to_rot
from .scene import GaussianScene

ALPHA_MIN = 1e-12
ALPHA_MAX = 0.999
TERMINATE_TRANSMITTANCE = 1e-4
COV2D_DILATION = 0.3
NEAR_PLANE = 0.01
# estimated (gaussian, pixel) pairs per compositing chunk; see _chunk_bounds
CHUNK_PAIRS = 1 << 16
# pixels added to each side of a footprint's rows and row intervals, plus
# 1e-4 of its radius because the rounding of the interval solve grows with
# it; far above that rounding, so every pixel with q <= q_cut is built
FOOTPRINT_MARGIN = 0.01
# glibc mallopt parameter numbers (malloc.h); see the module docstring
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(M_TRIM_THRESHOLD, 1 << 30)


@dataclass
class Projection:
    """Screen-space quantities for the Gaussians kept after culling, in depth
    order, with the intermediates of the EWA projection the adjoint reads."""

    orig_idx: np.ndarray    # (M,) indices into the scene
    p_cam: np.ndarray       # (M, 3)
    mean2d: np.ndarray      # (M, 2)
    jac: np.ndarray         # (M, 2, 3) perspective Jacobian J at p_cam
    jac_r: np.ndarray       # (M, 2, 3) A = J R, camera rotation R
    rot: np.ndarray         # (M, 3, 3) Gaussian rotation
    scale: np.ndarray       # (M, 3) exp(log_scale)
    rs: np.ndarray          # (M, 3, 3) rot * scale, so sigma = rs rs^T
    jac_rs: np.ndarray      # (M, 2, 3) T = A rs, so A sigma A^T = T T^T
    cov2d: np.ndarray       # (M, 2, 2) T T^T after dilation
    cov2d_inv: np.ndarray   # (M, 2, 2)
    depth: np.ndarray       # (M,) camera z
    alpha_base: np.ndarray  # (M,) clipped sigmoid of opacity logit
    q_cut: np.ndarray       # (M,) Mahalanobis-squared footprint cutoff
    log_alpha_min: float    # ln alpha_min, the pairs' cutoff
    rect: np.ndarray        # (M, 4) x0, x1, y0, y1 inclusive pixel bounds


@dataclass
class RenderTape:
    """Forward state retained for the backward pass (flat arrays concatenated
    over depth chunks; within each chunk, grouped by pixel in depth order)."""

    proj: Projection
    chunk_offsets: np.ndarray   # (n_chunks + 1,) element offsets
    pix: np.ndarray             # (K,) int32 flat pixel ids
    gi: np.ndarray              # (K,) int32 index into proj arrays
    dx: np.ndarray
    dy: np.ndarray
    alpha: np.ndarray
    t_before: np.ndarray
    live: np.ndarray            # (K,) bool
    t_final: np.ndarray         # (P,) per-pixel final transmittance
    width: int
    height: int


@dataclass
class RenderOutput:
    image: np.ndarray
    final_transmittance: np.ndarray
    depth: np.ndarray | None = None
    tape: RenderTape | None = None


def _project(scene: GaussianScene, cam: CameraModel,
             alpha_min: float = ALPHA_MIN) -> Projection:
    p_cam = cam.world_to_cam(scene.means)
    z = p_cam[:, 2]
    idx = np.flatnonzero(z > NEAR_PLANE)
    p_cam = p_cam[idx]
    z = z[idx]
    x, y = p_cam[:, 0], p_cam[:, 1]
    mx = cam.fx * x / z + cam.cx
    my = cam.fy * y / z + cam.cy
    mean2d = np.stack([mx, my], axis=1)

    J = np.zeros((idx.size, 2, 3))
    J[:, 0, 0] = cam.fx / z
    J[:, 0, 2] = -cam.fx * x / (z * z)
    J[:, 1, 1] = cam.fy / z
    J[:, 1, 2] = -cam.fy * y / (z * z)
    A = J @ cam.R
    rot = quat_to_rot(scene.quats[idx])
    scale = np.exp(scene.log_scales[idx])
    rs = rot * scale[:, None, :]
    # A Sigma A^T = T T^T with T = A rs; built entry by entry, b serves both
    # off-diagonal entries, so cov2d is exactly symmetric
    T = A @ rs
    t0, t1 = T[:, 0], T[:, 1]
    a = np.einsum("mk,mk->m", t0, t0) + COV2D_DILATION
    b = np.einsum("mk,mk->m", t0, t1)
    c = np.einsum("mk,mk->m", t1, t1) + COV2D_DILATION
    det = a * c - b * b
    ok = np.isfinite(det) & (det > 1e-12)

    logits = scene.opacity_logits[idx]
    alpha_base = np.minimum(1.0 / (1.0 + np.exp(-logits)), ALPHA_MAX)
    log_alpha_min = float(np.log(alpha_min))
    q_cut = 2.0 * (np.log(np.maximum(alpha_base, 1e-300)) - log_alpha_min)
    ok &= q_cut > 0

    lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    radius = np.sqrt(np.maximum(q_cut, 0.0) * lam_max)
    x0 = np.maximum(np.ceil(mx - radius), 0.0)
    x1 = np.minimum(np.floor(mx + radius), cam.width - 1.0)
    y0 = np.maximum(np.ceil(my - radius), 0.0)
    y1 = np.minimum(np.floor(my + radius), cam.height - 1.0)
    ok &= (x0 <= x1) & (y0 <= y1)

    sel = np.flatnonzero(ok)
    order = sel[np.argsort(z[sel], kind="stable")]

    a, b, c, det = a[order], b[order], c[order], det[order]
    cov = np.empty((order.size, 2, 2))
    cov[:, 0, 0] = a
    cov[:, 0, 1] = cov[:, 1, 0] = b
    cov[:, 1, 1] = c
    inv = np.empty((order.size, 2, 2))
    inv[:, 0, 0] = c / det
    inv[:, 0, 1] = inv[:, 1, 0] = -b / det
    inv[:, 1, 1] = a / det
    rect = np.stack([x0[order], x1[order], y0[order], y1[order]], axis=1).astype(np.int64)
    return Projection(
        orig_idx=idx[order],
        p_cam=p_cam[order],
        mean2d=mean2d[order],
        jac=J[order],
        jac_r=A[order],
        rot=rot[order],
        scale=scale[order],
        rs=rs[order],
        jac_rs=T[order],
        cov2d=cov,
        cov2d_inv=inv,
        depth=z[order],
        alpha_base=alpha_base[order],
        q_cut=q_cut[order],
        log_alpha_min=log_alpha_min,
        rect=rect,
    )


def _chunk_footprints(proj: Projection, lo: int, hi: int, width: int):
    """Flat (gaussian, pixel, log-alpha) intp/intp/float arrays for Gaussians
    [lo, hi): Gaussian-major, row-major, x ascending.

    Each Gaussian covers the rows of its cutoff ellipse q <= q_cut and, on
    each row, the conic's x-interval, both widened by FOOTPRINT_MARGIN and
    clipped to its rect.  With Sigma = [[a, b], [b, c]], the ellipse spans
    dy^2 <= q_cut c, and row dy is centred on x = mx + (b/c) dy, from which
    q = (c/det) (x - centre)^2 + dy^2 / c, so row dy spans
    centre +- sqrt(det (q_cut c - dy^2)) / c.  A pair's log-alpha,
    ln alpha_base - q/2, is its row's ln alpha_base - dy^2 / (2c) less
    c/(2 det) times its squared distance from the row's centre.
    """
    rect = proj.rect[lo:hi]
    mx = proj.mean2d[lo:hi, 0]
    my = proj.mean2d[lo:hi, 1]
    a = proj.cov2d[lo:hi, 0, 0]
    b = proj.cov2d[lo:hi, 0, 1]
    c = proj.cov2d[lo:hi, 1, 1]
    q_cut = proj.q_cut[lo:hi]
    det = a * c - b * b
    ry2 = q_cut * c
    ry = np.sqrt(ry2)
    pad = FOOTPRINT_MARGIN * (1.0 + 1e-4 * np.sqrt(q_cut * (a + c)))
    slope = b / c
    shrink = np.sqrt(det) / c

    y0 = np.maximum(np.ceil(my - ry - pad), rect[:, 2]).astype(np.intp)
    y1 = np.minimum(np.floor(my + ry + pad), rect[:, 3]).astype(np.intp)
    rows = np.maximum(y1 - y0 + 1, 0)

    def per_row(v):
        return np.repeat(v, rows)

    row_start = np.cumsum(rows) - rows
    y = per_row(y0 - row_start) + np.arange(rows.sum())
    dy = y - per_row(my)
    half = per_row(shrink) * np.sqrt(np.maximum(per_row(ry2) - dy * dy, 0.0)) + per_row(pad)
    centre = per_row(mx) + per_row(slope) * dy
    row_log_alpha = per_row(np.log(proj.alpha_base[lo:hi])) - 0.5 * (dy * dy / per_row(c))
    x0 = np.maximum(np.ceil(centre - half), per_row(rect[:, 0])).astype(np.intp)
    x1 = np.minimum(np.floor(centre + half), per_row(rect[:, 1])).astype(np.intp)
    counts = np.maximum(x1 - x0 + 1, 0)
    # one arange gives both each pair's x and its pixel id
    step = np.arange(counts.sum())
    x_base = x0 - (np.cumsum(counts) - counts)
    px = np.repeat(x_base, counts) + step
    pix = np.repeat(x_base + y * width, counts) + step
    gi = np.repeat(per_row(np.arange(lo, hi)), counts)
    t = px - np.repeat(centre, counts)
    log_alpha = (np.repeat(row_log_alpha, counts)
                 - np.repeat(per_row(0.5 * c / det), counts) * (t * t))
    return gi, pix, log_alpha


def _stable_sort_by_pixel(pix: np.ndarray, pcount: int) -> np.ndarray:
    # numpy's stable argsort is radix only for <= 16-bit integer keys
    if pcount <= 65536:
        return np.argsort(pix.astype(np.uint16), kind="stable")
    return np.argsort(pix, kind="stable")


def _chunk_bounds(proj: Projection):
    """Depth-ordered [lo, hi) runs of Gaussians whose estimated pairs, each
    footprint's ellipse area pi q_cut sqrt(det Sigma), sum to at most
    CHUNK_PAIRS; a run always holds at least one Gaussian."""
    cov = proj.cov2d
    det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] * cov[:, 0, 1]
    ends = np.cumsum(np.pi * proj.q_cut * np.sqrt(det))
    lo, m = 0, len(ends)
    while lo < m:
        base = ends[lo - 1] if lo else 0.0
        hi = max(int(np.searchsorted(ends, base + CHUNK_PAIRS, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _composite(proj: Projection, colors: np.ndarray, background_value: float,
               width: int, height: int, keep_tape: bool,
               extra_weights: np.ndarray | None = None):
    """Chunked front-to-back compositor.

    Returns (image, t_final_flat, extra_image, tape_parts).
    """
    pcount = width * height
    t_img = np.ones(pcount)
    image_acc = np.zeros(pcount)
    extra_acc = np.zeros(pcount) if extra_weights is not None else None
    # per pixel t_img >= TERMINATE_TRANSMITTANCE, once some pixel has terminated
    alive = None

    parts = [] if keep_tape else None
    offsets = [0]
    total = 0
    if keep_tape:
        pix_x = np.arange(pcount) % width
        pix_y = np.arange(pcount) // width
        mx, my = proj.mean2d[:, 0].copy(), proj.mean2d[:, 1].copy()

    for lo, hi in _chunk_bounds(proj):
        gi, pix, log_alpha = _chunk_footprints(proj, lo, hi, width)
        # alpha >= alpha_min, tested before the exp
        keep = log_alpha >= proj.log_alpha_min
        if alive is not None:
            keep &= alive[pix]
        if not keep.all():
            gi, pix, log_alpha = gi[keep], pix[keep], log_alpha[keep]
        if len(gi) == 0:
            continue

        perm = _stable_sort_by_pixel(pix, pcount)
        # the sort groups the pairs by pixel, in depth order: the pixel
        # counts give each pixel's segment and the sorted pixel ids
        counts = np.bincount(pix, minlength=pcount)
        seg_pix = np.flatnonzero(counts)
        seg_len = counts[seg_pix]
        starts = np.cumsum(seg_len) - seg_len
        pix = np.repeat(seg_pix, seg_len)
        gi = gi[perm]
        alpha = np.exp(log_alpha[perm])

        ln1m = np.log1p(-alpha)
        # exclusive scan per pixel: the chunk's exclusive cumsum less its value
        # at the pixel's first pair, where the difference is exactly 0
        scan = np.empty_like(ln1m)
        scan[0] = 0.0
        np.cumsum(ln1m[:-1], out=scan[1:])
        scan -= np.repeat(scan[starts], seg_len)
        t_before = np.repeat(t_img[seg_pix], seg_len) * np.exp(scan)
        live = t_before >= TERMINATE_TRANSMITTANCE
        w = alpha * t_before
        if not live.all():
            w[~live] = 0.0
            ln1m = np.where(live, ln1m, 0.0)

        image_acc[seg_pix] += np.add.reduceat(w * colors[gi], starts)
        if extra_acc is not None:
            extra_acc[seg_pix] += np.add.reduceat(w * extra_weights[gi], starts)
        # summed in pair order, as a per-pixel running sum would be
        t_seg = t_img[seg_pix] * np.exp(
            np.bincount(pix, weights=ln1m, minlength=pcount)[seg_pix])
        t_img[seg_pix] = t_seg
        if alive is not None or t_seg.min() < TERMINATE_TRANSMITTANCE:
            alive = t_img >= TERMINATE_TRANSMITTANCE
        if keep_tape:
            dx = pix_x[pix] - mx[gi]
            dy = pix_y[pix] - my[gi]
            parts.append((pix.astype(np.int32), gi.astype(np.int32), dx, dy,
                          alpha, t_before, live))
            total += len(pix)
            offsets.append(total)

    image = (image_acc + background_value * t_img).reshape(height, width)
    extra_image = extra_acc.reshape(height, width) if extra_acc is not None else None

    tape_parts = None
    if keep_tape:
        if parts:
            cat = [np.concatenate([p[i] for p in parts]) for i in range(7)]
        else:
            cat = [np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32),
                   np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
                   np.zeros(0, dtype=bool)]
        tape_parts = (np.asarray(offsets, dtype=np.int64), *cat, t_img)
    return image, t_img.reshape(height, width), extra_image, tape_parts


def render(scene: GaussianScene, cam: CameraModel, *,
           keep_tape: bool = False, compute_depth: bool = False,
           alpha_min: float = ALPHA_MIN) -> RenderOutput:
    """Render the scene from a camera; optionally keep state for render_backward
    and add the alpha-blended expected camera-space depth (background depth 0).
    Footprints end where alpha falls below alpha_min.

    An empty (or fully culled) scene renders the pure background with unit
    transmittance.  The output satisfies
    image == sum of blended contributions + background * final_transmittance.
    """
    proj = _project(scene, cam, alpha_min)
    w, h = cam.width, cam.height
    colors = scene.intensities[proj.orig_idx]
    depths = proj.depth if compute_depth else None
    image, t_final, depth_img, tape_parts = _composite(
        proj, colors, float(scene.background), w, h, keep_tape, extra_weights=depths)
    tape = RenderTape(proj, *tape_parts, w, h) if keep_tape else None
    return RenderOutput(image, t_final, depth_img, tape)
