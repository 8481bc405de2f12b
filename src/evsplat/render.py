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
numpy gathers with no conversion.  The 2D covariance is T T^T plus
dilation, with T = A (R S) and A the perspective Jacobian times the camera
rotation, built entry by entry so that it is exactly symmetric.

Implementation: flat arrays over (gaussian, pixel-in-footprint) pairs,
processed in depth-ordered chunks of consecutive Gaussians whose estimated
pairs, each footprint's ellipse area pi q_cut sqrt(det), sum to at most
CHUNK_PAIRS, so that a chunk's per-pair arrays stay near the size of a
core's L2 cache.  Pairs below the cutoff, and once some pixel has
terminated those of terminated pixels, are not compacted away: they take
the sentinel pixel id pcount, one past the last pixel id.  Within a chunk,
pairs are stably sorted by pixel id, making the per-pixel compositing order
the global depth order and putting the dropped pairs last, where the
permutation is cut off.  The sort is one np.sort of packed keys, each
pair's pixel id above its position in the chunk, 32-bit while both fit and
64-bit otherwise: the keys are unique, so numpy's unstable sort, which it
dispatches to vectorised (AVX2/AVX-512) code, gives the stable order, and
one unpacking of the sorted keys gives both the permutation and the sorted
pixel ids, by the same path at every image size.  Each pixel's segment
starts where the sorted ids change, and termination is marked only at the
chunk's own pixels.  A pair's transmittance is the transmittance entering
the chunk times exp of the chunk's exclusive cumsum of log(1 - alpha) less
that cumsum at its pixel's first pair, where the difference is exactly 0.
Contributions are summed per segment with np.add.reduceat.  The live
log(1 - alpha) are summed per pixel in pair order by bincount, as
reduceat's pairwise sums would not be, so a per-pixel replay of the tape
gives each chunk's entering transmittance bit for bit.  A taped render
keeps one record per chunk as the compositor built it: each pair's intp
pixel and Gaussian ids, alpha, transmittance in front of it and live flag,
and the chunk's pixel segments.  The adjoint walks these records and
rebuilds a pair's offset from its Gaussian's mean from the two ids; the
tape's flat fields are concatenated only when read.

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
from functools import cached_property

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
    p_cam: np.ndarray       # (M, 3); column 2 is the depth
    mean2d: np.ndarray      # (M, 2)
    jac: np.ndarray         # (M, 2, 3) perspective Jacobian J at p_cam
    jac_r: np.ndarray       # (M, 2, 3) A = J R, camera rotation R
    rot: np.ndarray         # (M, 3, 3) Gaussian rotation
    scale: np.ndarray       # (M, 3) exp(log_scale)
    rs: np.ndarray          # (M, 3, 3) rot * scale, so sigma = rs rs^T
    jac_rs: np.ndarray      # (M, 2, 3) T = A rs, so A sigma A^T = T T^T
    cov2d: np.ndarray       # (M, 2, 2) T T^T after dilation
    cov2d_inv: np.ndarray   # (M, 2, 2)
    alpha_base: np.ndarray  # (M,) clipped sigmoid of opacity logit
    q_cut: np.ndarray       # (M,) Mahalanobis-squared footprint cutoff
    log_alpha_min: float    # ln alpha_min, the pairs' cutoff
    rect: np.ndarray        # (M, 4) x0, x1, y0, y1 inclusive pixel bounds


@dataclass
class TapeChunk:
    """One compositing chunk as the compositor built it: its pairs grouped
    by pixel in depth order, and each pixel's segment of them."""

    pix: np.ndarray             # (k,) intp flat pixel ids
    gi: np.ndarray              # (k,) intp index into proj arrays
    alpha: np.ndarray           # (k,)
    t_before: np.ndarray        # (k,) transmittance in front of the pair
    live: np.ndarray            # (k,) bool, t_before >= TERMINATE_TRANSMITTANCE
    seg_pix: np.ndarray         # (s,) the chunk's pixel ids, ascending
    seg_len: np.ndarray         # (s,) each pixel's pair count
    starts: np.ndarray          # (s,) offset of each pixel's first pair


def _flat(name: str, dtype) -> cached_property:
    """A tape field concatenating the chunks' `name` arrays, built on first
    read, so that training, which reads the chunks, never pays for it."""
    return cached_property(lambda tape: np.concatenate(
        [np.zeros(0, dtype)] + [getattr(c, name) for c in tape.chunks]))


@dataclass
class RenderTape:
    """Forward state retained for the backward pass: one record per depth
    chunk, in depth order, and the final transmittance.  The flat fields
    concatenate the chunks' arrays."""

    proj: Projection
    chunks: list[TapeChunk]
    t_final: np.ndarray         # (P,) per-pixel final transmittance

    pix = _flat("pix", np.intp)
    gi = _flat("gi", np.intp)
    alpha = _flat("alpha", np.float64)
    t_before = _flat("t_before", np.float64)
    live = _flat("live", bool)

    @cached_property
    def chunk_offsets(self) -> np.ndarray:
        """(n_chunks + 1,) offsets of each chunk's pairs in the flat fields."""
        return np.cumsum([0] + [len(c.pix) for c in self.chunks], dtype=np.int64)


@dataclass
class RenderOutput:
    image: np.ndarray
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
    pair_end = np.cumsum(counts)
    # one arange gives both each pair's x and its pixel id
    step = np.arange(counts.sum())
    x_base = x0 - (pair_end - counts)
    px = np.repeat(x_base, counts)
    px += step
    pix = np.repeat(x_base + y * width, counts)
    pix += step
    # each Gaussian's pairs end where its last row's pairs end
    gauss_end = np.concatenate(([0], pair_end))[np.cumsum(rows)]
    gi = np.repeat(np.arange(lo, hi), np.diff(gauss_end, prepend=0))
    t = np.repeat(centre, counts)
    np.subtract(px, t, out=t)
    t *= t
    t *= np.repeat(per_row(0.5 * c / det), counts)
    log_alpha = np.repeat(row_log_alpha, counts)
    log_alpha -= t
    return gi, pix, log_alpha


def _stable_sort_by_pixel(pix: np.ndarray, pcount: int):
    """(perm, ids): the stable argsort of pix, whose ids run up to the
    sentinel pcount, and the sorted ids pix[perm], both intp, from one sort
    of unique keys, each id packed above its position (see the module
    docstring)."""
    n = len(pix)
    shift = (n - 1).bit_length()
    if pcount.bit_length() + shift <= 32:
        key = pix.astype(np.uint32)
        key <<= shift
        key |= np.arange(n, dtype=np.uint32)
    else:
        key = pix << shift
        key |= np.arange(n)
    key.sort()
    perm = np.bitwise_and(key, (1 << shift) - 1, out=np.empty(n, np.intp))
    ids = np.right_shift(key, shift, out=np.empty(n, np.intp))
    return perm, ids


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

    Returns (image, extra_image, tape): the images as (height, width),
    extra_image None without extra_weights, and the RenderTape only when
    keep_tape.
    """
    pcount = width * height
    t_img = np.ones(pcount)
    image_acc = np.zeros(pcount)
    extra_acc = np.zeros(pcount) if extra_weights is not None else None
    # per pixel t_img >= TERMINATE_TRANSMITTANCE, once some pixel has terminated
    alive = None
    chunks = []

    for lo, hi in _chunk_bounds(proj):
        gi, pix, log_alpha = _chunk_footprints(proj, lo, hi, width)
        # alpha >= alpha_min, tested before the exp
        keep = log_alpha >= proj.log_alpha_min
        if alive is not None:
            keep &= alive[pix]
        n_keep = int(np.count_nonzero(keep))
        if n_keep == 0:
            continue
        if n_keep < len(pix):
            # dropped pairs take the sentinel id pcount: the stable sort puts
            # them last, where the permutation is cut off
            pix[~keep] = pcount

        perm, pix = _stable_sort_by_pixel(pix, pcount)
        perm, pix = perm[:n_keep], pix[:n_keep]
        # the sort groups the kept pairs by pixel, in depth order: each
        # pixel's segment starts where the sorted ids change
        first = np.empty(n_keep, bool)
        first[0] = True
        np.not_equal(pix[1:], pix[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        seg_pix = pix[starts]
        seg_len = np.diff(starts, append=n_keep)
        gi = gi[perm]
        alpha = log_alpha[perm]
        np.exp(alpha, out=alpha)

        ln1m = np.negative(alpha)
        np.log1p(ln1m, out=ln1m)
        # exclusive scan per pixel: the chunk's exclusive cumsum less its value
        # at the pixel's first pair, where the difference is exactly 0
        scan = np.empty_like(ln1m)
        scan[0] = 0.0
        np.cumsum(ln1m[:-1], out=scan[1:])
        scan -= np.repeat(scan[starts], seg_len)
        t_before = np.exp(scan, out=scan)
        t_before *= np.repeat(t_img[seg_pix], seg_len)
        live = t_before >= TERMINATE_TRANSMITTANCE
        w = alpha * t_before
        if not live.all():
            dead = ~live
            w[dead] = 0.0
            ln1m[dead] = 0.0

        cw = colors[gi]
        cw *= w
        image_acc[seg_pix] += np.add.reduceat(cw, starts)
        if extra_acc is not None:
            extra_acc[seg_pix] += np.add.reduceat(w * extra_weights[gi], starts)
        # summed in pair order, as a per-pixel running sum would be
        t_seg = t_img[seg_pix] * np.exp(
            np.bincount(pix, weights=ln1m)[seg_pix])
        t_img[seg_pix] = t_seg
        # only the chunk's own pixels can have terminated in it
        if alive is None and t_seg.min() < TERMINATE_TRANSMITTANCE:
            alive = np.ones(pcount, bool)
        if alive is not None:
            alive[seg_pix] = t_seg >= TERMINATE_TRANSMITTANCE
        if keep_tape:
            chunks.append(TapeChunk(pix, gi, alpha, t_before, live,
                                    seg_pix, seg_len, starts))

    image = (image_acc + background_value * t_img).reshape(height, width)
    extra_image = extra_acc.reshape(height, width) if extra_acc is not None else None
    tape = RenderTape(proj, chunks, t_img) if keep_tape else None
    return image, extra_image, tape


def render(scene: GaussianScene, cam: CameraModel, *,
           keep_tape: bool = False, compute_depth: bool = False,
           alpha_min: float = ALPHA_MIN) -> RenderOutput:
    """Render the scene from a camera; optionally keep state for render_backward
    and add the alpha-blended expected camera-space depth (background depth 0).
    Footprints end where alpha falls below alpha_min.

    An empty (or fully culled) scene renders the pure background with unit
    transmittance.  The output satisfies image == sum of blended
    contributions + background * final transmittance, which a taped render
    keeps as tape.t_final.
    """
    proj = _project(scene, cam, alpha_min)
    w, h = cam.width, cam.height
    colors = scene.intensities[proj.orig_idx]
    depths = proj.p_cam[:, 2] if compute_depth else None
    return RenderOutput(*_composite(proj, colors, float(scene.background), w, h,
                                    keep_tape, extra_weights=depths))
