"""Event-camera domain: log-intensity transform, event streams, brightness-change
accumulation, and an idealized contrast-threshold motion-event simulator.

Timestamps are int64 microseconds throughout.  Images are float64 ndarrays of
shape (height, width); linear intensities are >= 0, log images are natural log
of the floored intensity divided by the gamma factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Plain ndarray aliases used in signatures for readability.
IntensityImage = np.ndarray   # (H, W) float, values >= 0
LogImage = np.ndarray         # (H, W) float, log-brightness


@dataclass(frozen=True)
class EventModelConfig:
    """Contrast threshold, gamma correction factor, and dark-pixel floor.

    The log transform is the natural logarithm; gamma divides the log value
    (default 2.2).  The intensity floor avoids -inf on zero pixels while
    keeping dark pixels ordered.
    """

    contrast_threshold: float = 0.1
    gamma: float = 2.2
    intensity_floor: float = 1e-6

    def __post_init__(self):
        if self.contrast_threshold <= 0:
            raise ValueError("contrast_threshold must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.intensity_floor <= 0:
            raise ValueError("intensity_floor must be > 0")


@dataclass(frozen=True)
class EventStream:
    """A time-sorted sequence of events on a fixed sensor resolution.

    Component arrays (x, y int32; t int64 microseconds; p int8 in {+1, -1})
    are treated as immutable after construction.
    """

    resolution: tuple[int, int]   # (width, height)
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray

    @classmethod
    def create(cls, resolution, x, y, t, p) -> "EventStream":
        """Build a validated stream; raises ValueError naming the first
        offending record on any invariant breach."""
        w, h = int(resolution[0]), int(resolution[1])
        # checked before the casts, so an out-of-range value cannot wrap
        x, y, t, p = (np.asarray(a) for a in (x, y, t, p))
        n = len(t)
        if not (len(x) == len(y) == len(p) == n):
            raise ValueError("component arrays must share one length")
        bad = np.flatnonzero(np.diff(t) < 0)
        if bad.size:
            raise ValueError(f"unsorted timestamp at record {int(bad[0]) + 1}")
        bad = np.flatnonzero((x < 0) | (x >= w) | (y < 0) | (y >= h))
        if bad.size:
            raise ValueError(f"out-of-bounds coordinates at record {int(bad[0])}")
        bad = np.flatnonzero((p != 1) & (p != -1))
        if bad.size:
            raise ValueError(f"invalid polarity at record {int(bad[0])}")
        return cls((w, h), np.asarray(x, dtype=np.int32), np.asarray(y, dtype=np.int32),
                   np.asarray(t, dtype=np.int64), np.asarray(p, dtype=np.int8))

    @classmethod
    def empty(cls, resolution) -> "EventStream":
        return cls.create(resolution, [], [], [], [])

    def __len__(self) -> int:
        return len(self.t)


def log_intensity(img: IntensityImage, cfg: EventModelConfig) -> LogImage:
    """Floored natural-log transform of a linear intensity image, divided by gamma."""
    img = np.asarray(img, dtype=np.float64)
    if np.any(img < 0):
        raise ValueError("intensity values must be >= 0")
    return np.log(np.maximum(img, cfg.intensity_floor)) / cfg.gamma


def accumulate_events(stream: EventStream, t0, t1, cfg: EventModelConfig) -> LogImage:
    """Sum p * C per pixel over events with t0 < t <= t1, as an (H, W) array;
    pixels with no event in the window map to zero."""
    if not t0 < t1:
        raise ValueError("require t0 < t1")
    w, h = stream.resolution
    lo = np.searchsorted(stream.t, t0, side="right")
    hi = np.searchsorted(stream.t, t1, side="right")
    idx = stream.y[lo:hi].astype(np.int64) * w + stream.x[lo:hi]
    values = np.bincount(idx, weights=stream.p[lo:hi].astype(np.float64),
                         minlength=h * w)
    return (values * cfg.contrast_threshold).reshape(h, w)


def simulate_motion_events(
    frames: Sequence[tuple[int, IntensityImage]],
    cfg: EventModelConfig,
) -> EventStream:
    """Ideal contrast-threshold simulation of a frame sequence.

    Each pixel keeps a reference log level (reset to the exact crossing level
    after every event).  Between consecutive frames the log value is
    interpolated linearly in time; one event is emitted per +-C crossing.
    Crossing timestamps are rounded to microseconds and clamped into
    (t_prev, t_next] so window accumulation aligned to frame times stays exact.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    times = np.array([int(t) for t, _ in frames], dtype=np.int64)
    if np.any(np.diff(times) <= 0):
        raise ValueError("frame timestamps must be strictly increasing")
    shape = np.asarray(frames[0][1]).shape
    for _, img in frames:
        if np.asarray(img).shape != shape:
            raise ValueError("all frames must share one resolution")
    h, w = shape
    c = cfg.contrast_threshold

    ref = log_intensity(frames[0][1], cfg).reshape(-1)
    prev_log = ref.copy()
    xs, ys, ts, ps = [], [], [], []
    for k in range(1, len(frames)):
        ta, tb = int(times[k - 1]), int(times[k])
        cur_log = log_intensity(frames[k][1], cfg).reshape(-1)
        delta = cur_log - prev_log
        direction = np.sign(delta)
        n = np.floor(direction * (cur_log - ref) / c)
        n = np.where(direction != 0, np.maximum(n, 0), 0).astype(np.int64)
        active = np.flatnonzero(n > 0)
        if active.size:
            counts = n[active]
            rep = np.repeat(active, counts)
            # crossing index 1..n within each pixel
            offs = np.concatenate(([0], np.cumsum(counts)))[:-1]
            kk = np.arange(counts.sum(), dtype=np.int64) - np.repeat(offs, counts) + 1
            level = ref[rep] + direction[rep] * kk * c
            frac = (level - prev_log[rep]) / delta[rep]
            tt = np.rint(ta + frac * (tb - ta)).astype(np.int64)
            tt = np.clip(tt, ta + 1, tb)
            xs.append((rep % w).astype(np.int32))
            ys.append((rep // w).astype(np.int32))
            ts.append(tt)
            ps.append(direction[rep].astype(np.int8))
            ref[active] += direction[active] * counts * c
        prev_log = cur_log

    if not ts:
        return EventStream.empty((w, h))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    t = np.concatenate(ts)
    p = np.concatenate(ps)
    order = np.argsort(t, kind="stable")
    return EventStream.create((w, h), x[order], y[order], t[order], p[order])
