"""Analytic adjoint of the forward renderer.

Given per-pixel upstream gradients dLoss/dImage, produces exact partials for
every Gaussian parameter in its unconstrained form (mean, raw quaternion,
log-scale, opacity logit, intensity).  The compositing adjoint uses per-pixel
suffix sums: with contributions w_i = alpha_i * T_i and colors c_i,

    dI/dalpha_i = c_i T_i - (sum_{j>i} c_j w_j + background * T_final) / (1 - alpha_i)

for live elements; elements dropped by the transmittance termination receive
zero gradient, matching the forward replay, and are dropped before any work.
The tape's flat arrays are grouped per depth chunk, so chunks are walked in
reverse with one per-pixel array `later`, background * T_final plus every
later chunk's contributions.  Within a chunk, with incl the running sum of
c w over the chunk's pairs, each pixel's head is `later` plus incl at its
last pair, and each pair's parenthesised suffix is head - incl: one gather
per pair.

Each pair then contributes u = g * alpha * dI/dalpha, g its pixel's
upstream, and, with d = pixel - mean2d and alpha = alpha_base exp(-q/2),
q = d^T Minv d, only seven per-Gaussian moments are summed over pairs:
sum g w, sum u, sum u d_x, sum u d_y, sum u d_x^2, sum u d_x d_y and
sum u d_y^2.  The per-Gaussian constants come out of the sums afterwards:
dL/dalpha_base = sum u / alpha_base, dL/dmean2d = Minv (sum u d), and
dL/dMinv = -1/2 sum u d d^T.  Screen-space positional gradient magnitudes
and touch flags (any live pair) are kept for adaptive density control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .render import ALPHA_MAX, RenderTape, render
from .scene import PARAMS, GaussianScene


@dataclass
class GradientBuffer:
    """Per-Gaussian partials, d_<name> for each name in scene.PARAMS, plus
    densification statistics."""

    d_means: np.ndarray
    d_quats: np.ndarray
    d_log_scales: np.ndarray
    d_opacity_logits: np.ndarray
    d_intensities: np.ndarray
    pos_grad_norm: np.ndarray   # screen-space |dLoss/dmean2d| per Gaussian
    touched: np.ndarray         # 1 where the Gaussian contributed to any pixel

    @classmethod
    def zeros(cls, n: int) -> "GradientBuffer":
        return cls(np.zeros((n, 3)), np.zeros((n, 4)), np.zeros((n, 3)),
                   np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))

    def add_(self, other: "GradientBuffer", weight: float = 1.0) -> "GradientBuffer":
        for name in PARAMS:
            getattr(self, "d_" + name)[...] += weight * getattr(other, "d_" + name)
        self.pos_grad_norm += abs(weight) * other.pos_grad_norm
        self.touched += other.touched
        return self


def _segment_first(sorted_keys: np.ndarray) -> np.ndarray:
    first = np.empty(len(sorted_keys), dtype=bool)
    if len(sorted_keys):
        first[0] = True
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _quat_rotation_adjoint(g_r: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """Chain dLoss/dR (M,3,3) through R(q_hat) and q_hat = q / |q|."""
    norm = np.linalg.norm(quats, axis=1, keepdims=True)
    qh = quats / norm
    w, x, y, z = qh[:, 0], qh[:, 1], qh[:, 2], qh[:, 3]
    g = g_r
    gw = 2.0 * (-g[:, 0, 1] * z + g[:, 0, 2] * y + g[:, 1, 0] * z - g[:, 1, 2] * x
                - g[:, 2, 0] * y + g[:, 2, 1] * x)
    gx = 2.0 * (g[:, 0, 1] * y + g[:, 0, 2] * z + g[:, 1, 0] * y - 2 * g[:, 1, 1] * x
                - g[:, 1, 2] * w + g[:, 2, 0] * z + g[:, 2, 1] * w - 2 * g[:, 2, 2] * x)
    gy = 2.0 * (-2 * g[:, 0, 0] * y + g[:, 0, 1] * x + g[:, 0, 2] * w + g[:, 1, 0] * x
                + g[:, 1, 2] * z - g[:, 2, 0] * w + g[:, 2, 1] * z - 2 * g[:, 2, 2] * y)
    gz = 2.0 * (-2 * g[:, 0, 0] * z - g[:, 0, 1] * w + g[:, 0, 2] * x + g[:, 1, 0] * w
                - 2 * g[:, 1, 1] * z + g[:, 1, 2] * y + g[:, 2, 0] * x + g[:, 2, 1] * y)
    g_qh = np.stack([gw, gx, gy, gz], axis=1)
    proj = np.sum(g_qh * qh, axis=1, keepdims=True)
    return (g_qh - qh * proj) / norm


def render_backward(scene: GaussianScene, cam: CameraModel, upstream: np.ndarray,
                    tape: RenderTape | None = None) -> GradientBuffer:
    """Exact gradients of sum(upstream * image) w.r.t. all Gaussian parameters.

    The forward tape is replayed when provided, otherwise recomputed
    identically (same sort order and termination masks).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (cam.height, cam.width):
        raise ValueError("upstream resolution must match the camera")
    if tape is None:
        tape = render(scene, cam, keep_tape=True).tape
    buf = GradientBuffer.zeros(len(scene))
    proj = tape.proj
    m = len(proj.orig_idx)
    if m == 0 or len(tape.pix) == 0:
        return buf

    colors = scene.intensities[proj.orig_idx]
    ups_flat = upstream.reshape(-1)

    # per-Gaussian moments of the per-pair terms, summed over the chunks
    sum_gw, sum_u, sum_udx, sum_udy, sum_udxx, sum_udxy, sum_udyy = np.zeros((7, m))
    touched = np.zeros(m, dtype=bool)
    # per pixel: background * T_final plus every later chunk's contributions
    later = float(scene.background) * tape.t_final

    offs = tape.chunk_offsets
    for c in range(len(offs) - 2, -1, -1):
        sl = slice(int(offs[c]), int(offs[c + 1]))
        live = tape.live[sl]
        # dead pairs contribute nothing and receive no gradient
        parts = (tape.pix[sl], tape.gi[sl], tape.dx[sl], tape.dy[sl],
                 tape.alpha[sl], tape.t_before[sl])
        if not live.all():
            parts = tuple(v[live] for v in parts)
        pix, gi, dx, dy, alpha, t_before = parts
        # intp indices gather and bincount faster than the tape's int32
        pix = pix.astype(np.intp)
        gi = gi.astype(np.intp)

        w = alpha * t_before
        cw = w * colors[gi]
        incl = np.cumsum(cw)
        starts = np.flatnonzero(_segment_first(pix))
        ends = np.append(starts[1:], len(pix)) - 1
        seg_pix = pix[starts]
        # later becomes the head of each pixel's suffix in this chunk; the
        # suffix after a pair, background term included, is head - incl
        later[seg_pix] += incl[ends]
        suffix_bg = later[pix] - incl
        later[seg_pix] -= incl[starts] - cw[starts]

        g_px = ups_flat[pix]
        # u = g_px alpha dI/dalpha
        u = g_px * (cw - suffix_bg * (alpha / (1.0 - alpha)))
        udx = u * dx
        udy = u * dy

        def per_gaussian(v):
            return np.bincount(gi, weights=v, minlength=m)

        sum_gw += per_gaussian(g_px * w)
        sum_u += per_gaussian(u)
        sum_udx += per_gaussian(udx)
        sum_udy += per_gaussian(udy)
        sum_udxx += per_gaussian(udx * dx)
        sum_udxy += per_gaussian(udx * dy)
        sum_udyy += per_gaussian(udy * dy)
        touched[gi] = True

    # alpha = alpha_base exp(-q/2) with q = d^T Minv d, d = pixel - mean2d
    minv = proj.cov2d_inv
    ia, ib, ic = minv[:, 0, 0], minv[:, 0, 1], minv[:, 1, 1]
    grad_ab = sum_u / proj.alpha_base
    grad_mx = ia * sum_udx + ib * sum_udy
    grad_my = ib * sum_udx + ic * sum_udy
    # unconstrained matrix cotangent of q: dq/dMinv[i,j] = d_i d_j
    g_m = np.empty((m, 2, 2))
    g_m[:, 0, 0] = -0.5 * sum_udxx
    g_m[:, 0, 1] = g_m[:, 1, 0] = -0.5 * sum_udxy
    g_m[:, 1, 1] = -0.5 * sum_udyy
    # chain grad of cov2d inverse to cov2d: dL/dS' = -Minv G Minv
    g_cov2d = -(minv @ g_m @ minv)

    # projection chain, through the intermediates _project kept
    z = proj.depth
    x = proj.p_cam[:, 0]
    y = proj.p_cam[:, 1]
    # cov2d = T T^T + dilation with T = A rs and A = J R_cam, so
    # dL/dT = 2 g_cov2d T, dL/dJ = dL/dT rs^T R_cam^T and dL/drs = A^T dL/dT
    g_t = 2.0 * (g_cov2d @ proj.jac_rs)
    g_j = (g_t @ proj.rs.transpose(0, 2, 1)) @ cam.R.T

    gm2d = np.stack([grad_mx, grad_my], axis=1)
    grad_pcam = np.einsum("mij,mi->mj", proj.jac, gm2d)
    z2 = z * z
    z3 = z2 * z
    grad_pcam[:, 0] += g_j[:, 0, 2] * (-cam.fx / z2)
    grad_pcam[:, 1] += g_j[:, 1, 2] * (-cam.fy / z2)
    grad_pcam[:, 2] += (g_j[:, 0, 0] * (-cam.fx / z2) + g_j[:, 1, 1] * (-cam.fy / z2)
                        + g_j[:, 0, 2] * (2.0 * cam.fx * x / z3)
                        + g_j[:, 1, 2] * (2.0 * cam.fy * y / z3))
    grad_mean = grad_pcam @ cam.R

    g_rs = proj.jac_r.transpose(0, 2, 1) @ g_t
    grad_log_scale = np.einsum("mik,mik->mk", proj.rot, g_rs) * proj.scale
    g_r3 = g_rs * proj.scale[:, None, :]
    grad_quat = _quat_rotation_adjoint(g_r3, scene.quats[proj.orig_idx])

    sig = 1.0 / (1.0 + np.exp(-scene.opacity_logits[proj.orig_idx]))
    dab = np.where(sig <= ALPHA_MAX, sig * (1.0 - sig), 0.0)
    grad_logit = grad_ab * dab

    oi = proj.orig_idx
    buf.d_means[oi] = grad_mean
    buf.d_quats[oi] = grad_quat
    buf.d_log_scales[oi] = grad_log_scale
    buf.d_opacity_logits[oi] = grad_logit
    buf.d_intensities[oi] = sum_gw
    buf.pos_grad_norm[oi] = np.hypot(grad_mx, grad_my)
    buf.touched[oi] = touched
    return buf
