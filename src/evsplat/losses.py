"""Supervision losses: normalized motion-event direction loss, masked exposure
L2 loss, and their convex combination."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .events import EventModelConfig


NORM_FLOOR = 1e-9


class LossResult(NamedTuple):
    value: float
    grad: np.ndarray
    skip: bool = False


def motion_event_loss(pred, gt) -> LossResult:
    """|| pred/|pred| - gt/|gt| ||^2 over the full pixel set.

    Invariant to positive rescaling of either argument (and therefore to the
    simulator's contrast threshold in the ground truth).  Both norms zero
    gives loss 0 with zero gradient; exactly one zero norm signals a skipped
    window via the skip flag.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("resolution mismatch")
    pf = p.reshape(-1)
    gf = g.reshape(-1)
    np_norm = np.linalg.norm(pf)
    ng_norm = np.linalg.norm(gf)
    # norms at float-residue level are degenerate zeros: normalizing them
    # amplifies noise by 1/norm and poisons the optimizer's moment estimates
    if np_norm <= NORM_FLOOR and ng_norm <= NORM_FLOOR:
        return LossResult(0.0, np.zeros_like(p), False)
    if np_norm <= NORM_FLOOR or ng_norm <= NORM_FLOOR:
        return LossResult(0.0, np.zeros_like(p), True)
    u = pf / np_norm
    v = gf / ng_norm
    diff = u - v
    value = float(diff @ diff)
    # adjoint of u = p/|p|:  (I - u u^T)/|p| applied to dL/du = 2 diff
    du = 2.0 * diff
    grad = (du - u * (u @ du)) / np_norm
    return LossResult(value, grad.reshape(p.shape), False)


def exposure_loss(pred: np.ndarray, frame) -> LossResult:
    """Mean squared error over mask-valid pixels of an exposure frame."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(frame.image, dtype=np.float64)
    mask = np.asarray(frame.mask, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError("resolution mismatch")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("exposure frame has an empty validity mask")
    diff = np.where(mask, pred - gt, 0.0)
    value = float(np.sum(diff * diff) / n_valid)
    grad = 2.0 * diff / n_valid
    return LossResult(value, grad, False)


def combined_loss(l_evs: float, l_img: float, lam: float) -> float:
    """lam * event loss + (1 - lam) * image loss; lam in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return lam * l_evs + (1.0 - lam) * l_img


def log_intensity_upstream(image: np.ndarray, upstream_log: np.ndarray,
                           cfg: EventModelConfig) -> np.ndarray:
    """Chain an upstream gradient on log_intensity(image) back to the image.

    Pixels clamped by the intensity floor carry zero gradient.
    """
    image = np.asarray(image, dtype=np.float64)
    scale = np.where(image > cfg.intensity_floor,
                     1.0 / (cfg.gamma * np.maximum(image, cfg.intensity_floor)), 0.0)
    return upstream_log * scale
