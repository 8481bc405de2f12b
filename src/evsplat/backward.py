"""Analytic adjoint of the forward renderer.

Given per-pixel upstream gradients dLoss/dImage, produces exact partials for
every Gaussian parameter in its unconstrained form (mean, raw quaternion,
log-scale, opacity logit, intensity).  The compositing adjoint uses per-pixel
suffix sums: with contributions w_i = alpha_i * T_i and colors c_i,

    dI/dalpha_i = c_i T_i - (sum_{j>i} c_j w_j + background * T_final) / (1 - alpha_i)

for live elements; elements dropped by the transmittance termination receive
zero gradient, matching the forward replay.  The tape's flat arrays are
grouped per depth chunk, so chunks are walked in reverse with a running
image of later-chunk contributions.  Screen-space positional gradient
magnitudes and touch counts are accumulated for adaptive density control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .render import ALPHA_MAX, RenderTape, _segment_first, render
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

    pcount = tape.width * tape.height
    background = float(scene.background)
    colors = scene.intensities[proj.orig_idx]
    ups_flat = upstream.reshape(-1)
    bg_term = background * tape.t_final

    grad_c = np.zeros(m)
    grad_ab = np.zeros(m)
    grad_mx = np.zeros(m)
    grad_my = np.zeros(m)
    g_ia = np.zeros(m)
    g_ib = np.zeros(m)
    g_ic = np.zeros(m)
    touched = np.zeros(m)
    s_later = np.zeros(pcount)

    offs = tape.chunk_offsets
    for c in range(len(offs) - 2, -1, -1):
        sl = slice(int(offs[c]), int(offs[c + 1]))
        pix = tape.pix[sl]
        gi = tape.gi[sl]
        dx = tape.dx[sl]
        dy = tape.dy[sl]
        alpha = tape.alpha[sl]
        t_before = tape.t_before[sl]
        live = tape.live[sl]

        w_c = np.where(live, alpha * t_before, 0.0)
        cw = w_c * colors[gi]
        first = _segment_first(pix)
        incl = np.cumsum(cw)
        seg_id = np.cumsum(first) - 1
        incl_within = incl - (incl - cw)[first][seg_id]
        tot = np.bincount(pix, weights=cw, minlength=pcount)
        suffix_after = (tot[pix] - incl_within) + s_later[pix]
        s_later += tot

        g_px = ups_flat[pix]
        di_dalpha = np.where(
            live,
            colors[gi] * t_before - (suffix_after + bg_term[pix]) / (1.0 - alpha),
            0.0)
        grad_alpha = g_px * di_dalpha
        grad_c_flat = g_px * w_c
        gauss_weight = alpha / proj.alpha_base[gi]      # exp(-q/2)
        grad_ab_flat = grad_alpha * gauss_weight
        grad_q_flat = grad_alpha * (-0.5 * alpha)

        ia = proj.cov2d_inv[gi, 0, 0]
        ib = proj.cov2d_inv[gi, 0, 1]
        ic = proj.cov2d_inv[gi, 1, 1]
        grad_dx = grad_q_flat * 2.0 * (ia * dx + ib * dy)
        grad_dy = grad_q_flat * 2.0 * (ib * dx + ic * dy)

        def per_gaussian(v):
            return np.bincount(gi, weights=v, minlength=m)

        grad_c += per_gaussian(grad_c_flat)
        grad_ab += per_gaussian(grad_ab_flat)
        grad_mx -= per_gaussian(grad_dx)
        grad_my -= per_gaussian(grad_dy)
        # unconstrained matrix cotangent of q = d^T Minv d: dq/dMinv[i,j] = d_i d_j
        g_ia += per_gaussian(grad_q_flat * dx * dx)
        g_ib += per_gaussian(grad_q_flat * dx * dy)
        g_ic += per_gaussian(grad_q_flat * dy * dy)
        touched += per_gaussian(live.astype(np.float64))

    # chain grad of cov2d inverse to cov2d: dL/dS' = -Minv G Minv
    g_m = np.empty((m, 2, 2))
    g_m[:, 0, 0] = g_ia
    g_m[:, 0, 1] = g_ib
    g_m[:, 1, 0] = g_ib
    g_m[:, 1, 1] = g_ic
    minv = proj.cov2d_inv
    g_cov2d = -np.einsum("mij,mjk,mkl->mil", minv, g_m, minv)

    # projection chain, through the intermediates _project kept
    z = proj.depth
    x = proj.p_cam[:, 0]
    y = proj.p_cam[:, 1]
    A = proj.jac_r
    g_sigma = np.einsum("mij,mil,mlk->mjk", A, g_cov2d, A)
    g_a_mat = 2.0 * np.einsum("mil,mlk,mkj->mij", g_cov2d, A, proj.sigma)
    g_j = np.einsum("mik,jk->mij", g_a_mat, cam.R)

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

    g_m3 = 2.0 * np.einsum("mij,mjk->mik", g_sigma, proj.rs)
    grad_log_scale = np.einsum("mik,mik->mk", proj.rot, g_m3) * proj.scale
    g_r3 = g_m3 * proj.scale[:, None, :]
    grad_quat = _quat_rotation_adjoint(g_r3, scene.quats[proj.orig_idx])

    sig = 1.0 / (1.0 + np.exp(-scene.opacity_logits[proj.orig_idx]))
    dab = np.where(sig <= ALPHA_MAX, sig * (1.0 - sig), 0.0)
    grad_logit = grad_ab * dab

    oi = proj.orig_idx
    buf.d_means[oi] = grad_mean
    buf.d_quats[oi] = grad_quat
    buf.d_log_scales[oi] = grad_log_scale
    buf.d_opacity_logits[oi] = grad_logit
    buf.d_intensities[oi] = grad_c
    buf.pos_grad_norm[oi] = np.hypot(grad_mx, grad_my)
    buf.touched[oi] = (touched > 0).astype(np.float64)
    return buf
