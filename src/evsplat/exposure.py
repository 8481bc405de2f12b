"""Transmittance-controlled exposure imaging.

An aperture ramps its transmittance from 0 to 1 over [0, t_end].  A pixel of
scene intensity I accumulates charge I * h(t), h(t) = integral of TR up to t,
and fires an event at every crossing of the threshold charge C.  The first
positive event's timestamp t* encodes intensity as C / h(t*); dividing by the
frame maximum yields a normalized grayscale image whose scale is independent
of global illumination.

Frames need only that initial positive event (IPE): `extract_ipe` reads it
from a recorded event stream, and `simulate_ipe` simulates it directly,
without building the stream of later crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventModelConfig, EventStream, IntensityImage


@dataclass(frozen=True)
class TransmittanceProfile:
    """Aperture transmittance TR(t) on [0, t_end] (seconds); 1 beyond t_end.

    kind "linear" is t / t_end.  kind "sampled" interpolates a monotone table
    of (t, TR) rows covering [0, t_end].
    """

    kind: str = "linear"
    t_end: float = 1.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")
        if self.kind == "linear":
            if self.samples is not None:
                raise ValueError("linear profile takes no samples")
        elif self.kind == "sampled":
            s = np.asarray(self.samples, dtype=np.float64)
            if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
                raise ValueError("samples must be an (M, 2) table with M >= 2")
            if np.any(np.diff(s[:, 0]) <= 0):
                raise ValueError("sample times must be strictly increasing")
            if s[0, 0] != 0.0 or abs(s[-1, 0] - self.t_end) > 1e-12:
                raise ValueError("samples must cover [0, t_end]")
            if np.any(np.diff(s[:, 1]) < 0) or s[0, 1] < 0 or s[-1, 1] > 1:
                raise ValueError("TR samples must be non-decreasing within [0, 1]")
            object.__setattr__(self, "samples", s)
        else:
            raise ValueError(f"unknown profile kind: {self.kind!r}")


@dataclass(frozen=True)
class ExposureFrame:
    """Normalized [0, 1] grayscale image mapped from exposure events.

    mask is False on pixels that never fired a positive event; those render
    as 0 and carry no intensity claim.
    """

    image: np.ndarray
    mask: np.ndarray
    pose_id: int | None = None


def transmittance_at(profile: TransmittanceProfile, t):
    """TR(t) for scalar or array t >= 0."""
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    if profile.kind == "linear":
        tr = np.minimum(t_arr / profile.t_end, 1.0)
    else:
        s = profile.samples
        tr = np.interp(t_arr, s[:, 0], s[:, 1])
        tr = np.where(t_arr > profile.t_end, 1.0, tr)
    return float(tr) if np.isscalar(t) else tr


def cumulative_exposure(profile: TransmittanceProfile, t_star):
    """h(t*) = integral of TR from 0 to t*, in seconds of full-open-equivalent exposure.

    Closed form for the linear ramp; trapezoidal integration of the sample
    table otherwise.  Beyond t_end the integrand is 1.
    """
    t_arr = np.asarray(t_star, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValueError("t_star must be >= 0")
    te = profile.t_end
    if profile.kind == "linear":
        inside = np.minimum(t_arr, te)
        h = inside * inside / (2.0 * te) + np.maximum(t_arr - te, 0.0)
    else:
        s = profile.samples
        seg = np.concatenate(([0.0], np.cumsum(np.diff(s[:, 0]) * (s[:, 1][1:] + s[:, 1][:-1]) / 2.0)))
        inside = np.minimum(t_arr, te)
        idx = np.clip(np.searchsorted(s[:, 0], inside, side="right") - 1, 0, len(s) - 2)
        t_lo = s[idx, 0]
        tr_lo = s[idx, 1]
        tr_at = tr_lo + (inside - t_lo) * (s[idx + 1, 1] - tr_lo) / (s[idx + 1, 0] - t_lo)
        h = seg[idx] + (inside - t_lo) * (tr_lo + tr_at) / 2.0
        h = h + np.maximum(t_arr - te, 0.0)
    return float(h) if np.isscalar(t_star) else h


def extract_ipe(stream: EventStream, t_open: int = 0) -> np.ndarray:
    """(H, W) time in seconds of each pixel's initial positive event at or
    after t_open; NaN where the pixel has none."""
    w, h = stream.resolution
    t_star = np.full(h * w, np.nan)
    if len(stream):
        sel = np.flatnonzero((stream.p > 0) & (stream.t >= t_open))
        if sel.size:
            idx = stream.y[sel].astype(np.int64) * w + stream.x[sel]
            # stream is time sorted, so the first occurrence per pixel is the IPE
            uniq, first = np.unique(idx, return_index=True)
            t_star[uniq] = (stream.t[sel[first]] - t_open) * 1e-6
    return t_star.reshape(h, w)


def map_temporal_to_intensity(
    t_star: np.ndarray,
    profile: TransmittanceProfile,
    clip_percentile: float | None = None,
) -> ExposureFrame:
    """Convert (H, W) IPE timestamps in seconds to a max-normalized intensity frame.

    Valid pixels get 1 / h(t*), then every valid value is divided by the
    maximum over valid pixels (scale-only normalization, zeros preserved), so
    the threshold C of C / h(t*) cancels and the mapping does not take it.
    Invalid pixels (no IPE, or t* <= 0) become 0 with the mask cleared.
    The optional percentile clip guards against simulated hot pixels.
    """
    valid = np.isfinite(t_star) & (t_star > 0)
    if not valid.any():
        raise ValueError("no valid pixels to normalize")
    image = np.zeros_like(t_star, dtype=np.float64)
    raw = 1.0 / cumulative_exposure(profile, t_star[valid])
    if clip_percentile is not None:
        # "lower" picks an actual data value, so one extreme outlier cannot
        # drag the clip level toward itself by interpolation
        raw = np.minimum(raw, np.percentile(raw, clip_percentile, method="lower"))
    image[valid] = raw / raw.max()
    return ExposureFrame(image=image, mask=valid)


# relative grace on the crossing quantizer so accumulated float error can
# not miss a threshold hit that lands exactly on a multiple of C
_EPS = 1e-9


def simulate_ipe(
    img: IntensityImage,
    profile: TransmittanceProfile,
    cfg: EventModelConfig,
    levels: int,
) -> np.ndarray:
    """(H, W) time in seconds of each pixel's initial positive exposure
    event; NaN where a pixel never fires.

    The ramp [0, t_end] is discretized into `levels` steps; within each step
    the transmittance is held at its midpoint value, so the accumulated
    charge I * h(t) is piecewise linear and the first crossing of the
    threshold C inverts exactly within its step, rounded to whole µs (>= 1).
    Pixels with I = 0 never fire.  Each pixel is dropped once it has fired,
    so only first crossings are computed and no event stream is built.
    """
    flat = np.asarray(img, dtype=np.float64).reshape(-1)
    if np.any(flat < 0):
        raise ValueError("intensity values must be >= 0")
    if levels < 2:
        raise ValueError("levels must be >= 2")
    dt = profile.t_end / levels
    mids = transmittance_at(profile, (np.arange(levels) + 0.5) * dt)
    c = cfg.contrast_threshold
    t_star = np.full(flat.shape, np.nan)
    pix = np.flatnonzero(flat > 0)
    intensity = flat[pix]
    charge = np.zeros_like(intensity)
    for j in range(levels):
        if not pix.size:
            break
        rate = intensity * mids[j]
        new_charge = charge + rate * dt
        # an unfired pixel has reached no multiple of c, so its first crossing is c
        fired = np.floor(new_charge / c + _EPS) > 0
        if fired.any():
            tt = j * dt + np.maximum(c - charge[fired], 0.0) / rate[fired]
            t_star[pix[fired]] = np.maximum(np.rint(tt * 1e6).astype(np.int64), 1) * 1e-6
            left = ~fired
            pix, intensity, new_charge = pix[left], intensity[left], new_charge[left]
        charge = new_charge
    return t_star.reshape(np.shape(img))
