"""Analytic adjoint of the forward renderer.

Given per-pixel upstream gradients dLoss/dImage, produces exact partials for
every Gaussian parameter in its unconstrained form (mean, raw quaternion,
log-scale, opacity logit, intensity).  The compositing adjoint uses per-pixel
suffix sums: with contributions w_i = alpha_i * T_i and colors c_i,

    dI/dalpha_i = c_i T_i - (sum_{j>i} c_j w_j + background * T_final) / (1 - alpha_i)

for live elements; elements dropped by the transmittance termination receive
zero gradient, matching the forward replay.  The tape's chunk records are
walked in reverse, as the compositor built them, with one per-pixel array
`later`, background * T_final plus every later chunk's contributions, and
each chunk's pixel segments read off its record.  Within a chunk, with incl
the running sum of c w over the chunk's pairs, each pixel's head is `later`
plus incl at its last pair, and each pair's parenthesised suffix is
head - incl: one gather per pair.  Dead pairs stay in place with w and u
masked to zero: they end their pixels' segments, so every running sum and
per-Gaussian sum sees the live pairs' values in the same order as if the
dead pairs were removed.

Each pair then contributes u = g * alpha * dI/dalpha, g its pixel's
upstream.  With alpha = alpha_base exp(-q/2), q = d^T Minv d and
d = pixel - mean2d, rebuilt for each pair from its pixel's coordinates
and its Gaussian's mean through the tape's two ids, only seven
per-Gaussian moments are summed over pairs: sum g w, sum u, sum u d_x,
sum u d_y, sum u d_x^2, sum u d_x d_y and sum u d_y^2.  The per-Gaussian
constants come out of the sums afterwards: dL/dalpha_base =
sum u / alpha_base, dL/dmean2d = Minv (sum u d), and dL/dMinv =
-1/2 sum u d d^T.  Screen-space positional gradient magnitudes
and touch flags (a nonzero count of live pairs) are kept for adaptive
density control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .render import ALPHA_MAX, RenderTape, render
from .scene import PARAM_FLOATS, GaussianScene, block_property


@dataclass
class GradientBuffer:
    """Per-Gaussian partials in the scene's flat layout, with a d_<name> view
    of each parameter's block, plus densification statistics."""

    grad: np.ndarray            # dLoss/dx for the scene's flat parameter array x
    pos_grad_norm: np.ndarray   # screen-space |dLoss/dmean2d| per Gaussian
    touched: np.ndarray         # 1 where the Gaussian contributed to any pixel

    d_means = block_property("means", "grad")
    d_quats = block_property("quats", "grad")
    d_log_scales = block_property("log_scales", "grad")
    d_opacity_logits = block_property("opacity_logits", "grad")
    d_intensities = block_property("intensities", "grad")

    @classmethod
    def zeros(cls, n: int) -> "GradientBuffer":
        return cls(np.zeros(n * PARAM_FLOATS), np.zeros(n), np.zeros(n))

    def add_(self, other: "GradientBuffer", weight: float = 1.0) -> "GradientBuffer":
        self.grad += weight * other.grad
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


def _pair_moments(tape: RenderTape, colors: np.ndarray, background: float,
                  upstream: np.ndarray) -> np.ndarray:
    """The compositing adjoint: an (8, M) array holding, per Gaussian, the
    seven moments of its live pairs' terms, sum g w, sum u, sum u d_x,
    sum u d_y, sum u d_x^2, sum u d_x d_y and sum u d_y^2, and its count
    of live pairs."""
    m = len(tape.proj.orig_idx)
    ups_flat = upstream.reshape(-1)
    # gathered per pair for d = pixel - mean2d
    pix_y, pix_x = np.divmod(np.arange(ups_flat.size), upstream.shape[1])
    mx, my = tape.proj.mean2d[:, 0].copy(), tape.proj.mean2d[:, 1].copy()

    moments = np.zeros((8, m))
    sum_gw, sum_u, sum_udx, sum_udy, sum_udxx, sum_udxy, sum_udyy, n_live = moments
    # per pixel: background * T_final plus every later chunk's contributions
    later = background * tape.t_final

    for chunk in reversed(tape.chunks):
        pix, gi, alpha, live = chunk.pix, chunk.gi, chunk.alpha, chunk.live
        dead = None if live.all() else ~live
        dx = mx[gi]
        np.subtract(pix_x[pix], dx, out=dx)
        dy = my[gi]
        np.subtract(pix_y[pix], dy, out=dy)

        w = alpha * chunk.t_before
        # dead pairs contribute nothing and receive no gradient; they end
        # their pixels' segments, so zeros leave every running sum as it was
        if dead is not None:
            w[dead] = 0.0
        cw = colors[gi]
        cw *= w
        incl = np.cumsum(cw)
        seg_pix, starts = chunk.seg_pix, chunk.starts
        ends = starts + chunk.seg_len - 1
        # later becomes the head of each pixel's suffix in this chunk; the
        # suffix after a pair, background term included, is head - incl
        later[seg_pix] += incl[ends]
        suffix_bg = later[pix]
        suffix_bg -= incl
        later[seg_pix] -= incl[starts] - cw[starts]

        g_px = ups_flat[pix]
        # u = g_px alpha dI/dalpha = g_px (cw - suffix_bg alpha / (1 - alpha))
        u = 1.0 - alpha
        np.divide(alpha, u, out=u)
        u *= suffix_bg
        np.subtract(cw, u, out=u)
        u *= g_px
        if dead is not None:
            u[dead] = 0.0

        def per_gaussian(v):
            return np.bincount(gi, weights=v, minlength=m)

        g_px *= w
        sum_gw += per_gaussian(g_px)
        sum_u += per_gaussian(u)
        udx = u * dx
        sum_udx += per_gaussian(udx)
        udy = np.multiply(u, dy, out=u)
        sum_udy += per_gaussian(udy)
        sum_udxx += per_gaussian(np.multiply(udx, dx, out=dx))
        sum_udxy += per_gaussian(np.multiply(udx, dy, out=udx))
        sum_udyy += per_gaussian(np.multiply(udy, dy, out=dy))
        n_live += per_gaussian(live)

    return moments


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
    sum_gw, sum_u, sum_udx, sum_udy, sum_udxx, sum_udxy, sum_udyy, n_live = _pair_moments(
        tape, scene.intensities[proj.orig_idx], float(scene.background), upstream)

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
    z = proj.p_cam[:, 2]
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
    buf.touched[oi] = n_live > 0
    return buf
