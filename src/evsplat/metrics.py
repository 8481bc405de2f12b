"""Grayscale image-quality metrics: PSNR and single-scale SSIM."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
PSNR_CAP_DB = 99.0


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 log10(1 / MSE) for images on [0, 1], capped at 99 dB for
    (near-)identical images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("resolution mismatch")
    mse = float(np.mean((a - b) ** 2))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (r / sigma) ** 2)
    k2 = np.outer(k, k)
    return k2 / k2.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM of images on [0, 1], 11x11 Gaussian window (sigma 1.5),
    K1 = 0.01, K2 = 0.03.

    Windows are taken fully inside the image (valid positions only), so
    inputs must be at least 11x11.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("resolution mismatch")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    kern = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)

    def filt(img):
        win = np.lib.stride_tricks.sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
        return np.tensordot(win, kern, axes=([2, 3], [0, 1]))

    mu_a = filt(a)
    mu_b = filt(b)
    var_a = filt(a * a) - mu_a * mu_a
    var_b = filt(b * b) - mu_b * mu_b
    cov = filt(a * b) - mu_a * mu_b
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


@dataclass
class MetricReport:
    """Per-frame PSNR/SSIM values plus their arithmetic means."""

    frames: list[int] = field(default_factory=list)
    psnr_values: list[float] = field(default_factory=list)
    ssim_values: list[float] = field(default_factory=list)

    def add(self, frame: int, psnr_db: float, ssim_value: float) -> None:
        self.frames.append(frame)
        self.psnr_values.append(psnr_db)
        self.ssim_values.append(ssim_value)

    @property
    def psnr_avg(self) -> float:
        return float(np.mean(self.psnr_values)) if self.psnr_values else float("nan")

    @property
    def ssim_avg(self) -> float:
        return float(np.mean(self.ssim_values)) if self.ssim_values else float("nan")

    def to_json(self) -> str:
        return json.dumps({
            "per_frame": [
                {"frame": f, "psnr": p, "ssim": s}
                for f, p, s in zip(self.frames, self.psnr_values, self.ssim_values)
            ],
            "psnr_avg": self.psnr_avg,
            "ssim_avg": self.ssim_avg,
        }, indent=2, sort_keys=True)

    def table(self) -> str:
        lines = [f"{'frame':>8} {'PSNR(dB)':>10} {'SSIM':>8}"]
        for f, p, s in zip(self.frames, self.psnr_values, self.ssim_values):
            lines.append(f"{f:>8d} {p:>10.2f} {s:>8.4f}")
        lines.append(f"{'avg':>8} {self.psnr_avg:>10.2f} {self.ssim_avg:>8.4f}")
        return "\n".join(lines)
