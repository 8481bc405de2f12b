"""Training engine: randomized event-window sampling, per-group Adam with
warmup and positional decay, adaptive density control, and the mode-driven
optimization loop (fast = motion events only, hq = exposure frames only,
hybrid = both at equal weight)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .backward import GradientBuffer, render_backward
from .camera import Trajectory, pose_at_time
from .events import EventModelConfig, EventStream, accumulate_events, log_intensity
from .exposure import ExposureFrame
from .losses import combined_loss, exposure_loss, log_intensity_upstream, motion_event_loss
from .metrics import psnr
from .quat import quat_normalize, quat_to_rot
from .render import render
from .scene import PARAMS, GaussianScene

MODE_LAMBDA = {"fast": 1.0, "hq": 0.0, "hybrid": 0.5}
MODE_ITERATIONS = {"fast": 10_000, "hq": 30_000, "hybrid": 30_000}
MODE_LR = {"fast": 1.6e-5, "hq": 1.6e-4, "hybrid": 1.6e-4}
# Footprint cutoff of the taped training renders, about 3.7 sigma at full
# opacity, chosen by time to PSNR with acceptance criteria 6-8 passing;
# evaluation renders at the renderer's exact default
TRAIN_ALPHA_MIN = 1e-3

# Group rates relative to the mean-position rate, following common splatting
# practice (expressed so that the hq default reproduces the usual absolute
# rates: opacity 0.048, scale 4.8e-3, rotation ~1e-3, appearance 2.4e-3).
GROUP_LR_MULTIPLIER = {
    "means": 1.0,
    "quats": 6.0,
    "log_scales": 30.0,
    "opacity_logits": 300.0,
    "intensities": 15.0,
}
MEANS_LR_FINAL_FRACTION = 0.01   # exponential decay target at the last iteration
PERCENT_DENSE = 0.01             # split-vs-clone size threshold vs scene extent
SPLIT_SCALE_SHRINK = 1.6
# Adam's moment decay rates and the guard on its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-15


@dataclass(frozen=True)
class SamplerConfig:
    n_windows: int = 200
    l_max: float = 1.0e6    # window length cap, same time units as the event stream

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.l_max <= 0:
            raise ValueError("l_max must be > 0")


@dataclass(frozen=True)
class DensifyConfig:
    interval: int = 100
    start_iter: int = 500
    stop_iter: int = 15_000
    grad_threshold: float = 2e-5
    min_opacity: float = 0.005
    max_count: int = 100_000


@dataclass(frozen=True)
class TrainConfig:
    """Mode plus schedule; iterations / lr_initial left unset take the mode's
    MODE_ITERATIONS / MODE_LR when the config is built."""

    mode: str = "hybrid"
    iterations: int | None = None
    warmup_iters: int = 500
    lr_initial: float | None = None
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = 0
    log_interval: int = 100
    eval_interval: int = 0   # 0 disables periodic held-out evaluation

    def __post_init__(self):
        if self.mode not in MODE_LAMBDA:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.iterations is None:
            object.__setattr__(self, "iterations", MODE_ITERATIONS[self.mode])
        if self.lr_initial is None:
            object.__setattr__(self, "lr_initial", MODE_LR[self.mode])
        if not self.iterations > self.warmup_iters >= 0:
            raise ValueError(f"require iterations ({self.iterations}) > warmup_iters "
                             f"({self.warmup_iters}) >= 0")

    @property
    def lambda_weight(self) -> float:
        return MODE_LAMBDA[self.mode]


def sample_window(rng: np.random.Generator, t_end_of_window: float, l_max: float):
    """Window end fixed; start uniform over [end - l_max, end), so the length
    is drawn from U(0, l_max]."""
    if l_max <= 0:
        raise ValueError("l_max must be > 0")
    t0 = rng.uniform(t_end_of_window - l_max, t_end_of_window)
    return t0, t_end_of_window


def learning_rates(cfg: TrainConfig, scene_extent: float, iteration: int) -> dict[str, float]:
    """Per-group rates at an iteration: linear warmup ramp for every group,
    then exponential decay on the mean-position group to 1% at the end.
    The mean rate is scaled by the scene extent (world-unit invariance)."""
    ramp = min(1.0, iteration / cfg.warmup_iters) if cfg.warmup_iters > 0 else 1.0
    lrs = {}
    for name, mult in GROUP_LR_MULTIPLIER.items():
        lrs[name] = cfg.lr_initial * mult * ramp
    decay = 1.0
    if iteration > cfg.warmup_iters:
        frac = (iteration - cfg.warmup_iters) / (cfg.iterations - cfg.warmup_iters)
        decay = MEANS_LR_FINAL_FRACTION ** frac
    lrs["means"] = cfg.lr_initial * scene_extent * ramp * decay
    return lrs


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    skipped_nonfinite: int = 0

    @classmethod
    def for_scene(cls, scene: GaussianScene) -> "AdamState":
        params = scene.params()
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lrs: dict[str, float]) -> None:
    """In-place adaptive update with bias correction (ADAM_BETA1, ADAM_BETA2,
    ADAM_EPS).

    Entries with non-finite gradients are skipped entirely (moments and
    parameter untouched) and counted on the state.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        finite = np.isfinite(g)
        n_bad = g.size - int(finite.sum())
        if n_bad:
            state.skipped_nonfinite += n_bad
        gs = np.where(finite, g, 0.0)
        m, v = state.m[name], state.v[name]
        m_new = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * gs
        v_new = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * gs * gs
        np.copyto(m, np.where(finite, m_new, m))
        np.copyto(v, np.where(finite, v_new, v))
        update = lrs[name] * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= np.where(finite, update, 0.0)


def optimizer_step(scene: GaussianScene, buf: GradientBuffer, state: AdamState,
                   lrs: dict[str, float]) -> None:
    """Adam update of every parameter, then quaternion re-normalisation.

    Raises RuntimeError, naming the parameter, when the update leaves a
    non-finite entry (a zero quaternion normalises to NaN), so that a run
    stops at the step instead of saving a scene that cannot be loaded.
    """
    adam_step(scene.params(), {k: getattr(buf, "d_" + k) for k in PARAMS}, state, lrs)
    with np.errstate(invalid="ignore", divide="ignore"):
        scene.quats = quat_normalize(scene.quats)
    for name, value in scene.params().items():
        bad = int(np.count_nonzero(~np.isfinite(value)))
        if bad:
            raise RuntimeError(f"{bad} non-finite {name} entries after optimizer "
                               f"step {state.step}")


def densify_and_prune(scene: GaussianScene, state: AdamState,
                      pos_accum: np.ndarray, touch_accum: np.ndarray,
                      cfg: DensifyConfig, scene_extent: float,
                      rng: np.random.Generator):
    """Clone small / split large high-gradient Gaussians and prune transparent ones.

    Split positions are sampled from the parent's own distribution with scales
    shrunk by 1.6.  Growth is capped at max_count, preferring the largest
    accumulated gradients.  Optimizer moments follow the topology change:
    survivors keep theirs, new entries start at zero.
    Returns (scene, state).
    """
    mean_grad = pos_accum / np.maximum(touch_accum, 1.0)
    high = (mean_grad > cfg.grad_threshold) & (touch_accum > 0)
    max_scale = scene.scales.max(axis=1)
    large = max_scale > PERCENT_DENSE * scene_extent
    prune = scene.opacities < cfg.min_opacity

    clone_mask = high & ~large & ~prune
    split_mask = high & large & ~prune

    # every unpruned Gaussian stays unless it is split; a clone or a split
    # each adds one Gaussian, chosen by highest mean gradient within the cap
    budget = max(cfg.max_count - int(np.count_nonzero(~prune)), 0)
    cand = np.flatnonzero(clone_mask | split_mask)
    chosen = cand[np.argsort(-mean_grad[cand], kind="stable")[:budget]]
    clone_idx = np.sort(chosen[clone_mask[chosen]])
    split_idx = np.sort(chosen[split_mask[chosen]])
    survivors = ~prune
    survivors[split_idx] = False

    parts = [scene.take(survivors), scene.take(clone_idx)]
    if len(split_idx):
        split = scene.take(np.repeat(split_idx, 2))
        noise = rng.standard_normal((len(split), 3))
        R = quat_to_rot(quat_normalize(split.quats))
        split.means += np.einsum("nij,nj->ni", R, split.scales * noise)
        split.log_scales -= np.log(SPLIT_SCALE_SHRINK)
        parts.append(split)
    new_scene = GaussianScene.concat(parts)

    n_new = len(new_scene) - int(survivors.sum())
    new_state = AdamState(
        {k: _resize_moment(mv, survivors, n_new) for k, mv in state.m.items()},
        {k: _resize_moment(vv, survivors, n_new) for k, vv in state.v.items()},
        step=state.step, skipped_nonfinite=state.skipped_nonfinite)
    return new_scene, new_state


def _resize_moment(arr: np.ndarray, survivors: np.ndarray, n_new: int) -> np.ndarray:
    tail_shape = (n_new,) + arr.shape[1:]
    return np.concatenate([arr[survivors], np.zeros(tail_shape)])


@dataclass
class TrainData:
    """Everything the loop needs; exposure frames should already be the
    training (given) split.  eval_frames pair pose ids with ground-truth
    images for periodic held-out PSNR."""

    trajectory: Trajectory
    init_scene: GaussianScene
    events: EventStream | None = None
    exposure_frames: list[ExposureFrame] | None = None
    pose_times: list[float] | None = None         # seconds, indexed by pose_id
    eval_frames: list[tuple[int, np.ndarray]] | None = None
    event_config: EventModelConfig = field(default_factory=EventModelConfig)
    scene_extent: float | None = None


def _eval_psnr(scene: GaussianScene, data: TrainData) -> float:
    vals = []
    for pose_id, gt in data.eval_frames:
        cam = pose_at_time(data.trajectory, data.pose_times[pose_id])
        vals.append(psnr(render(scene, cam).image, gt))
    return float(np.mean(vals))


def train(data: TrainData, cfg: TrainConfig):
    """Run the configured mode; returns (scene, log records).

    The log is a list of dicts: periodic progress records, optional held-out
    PSNR records, and one final summary record.
    """
    lam = cfg.lambda_weight
    use_events = lam > 0.0
    use_frames = lam < 1.0
    if use_events and data.events is None:
        raise ValueError(f"mode {cfg.mode!r} requires an event stream")
    if use_frames and not data.exposure_frames:
        raise ValueError(f"mode {cfg.mode!r} requires exposure frames")

    rng = np.random.default_rng(cfg.seed)
    scene = data.init_scene.copy()
    state = AdamState.for_scene(scene)
    if data.scene_extent is not None:
        extent = float(data.scene_extent)
    else:
        center = scene.means.mean(axis=0)
        extent = max(float(np.linalg.norm(scene.means - center, axis=1).max()), 1e-6)
    span_us = data.trajectory.span * 1e6
    dens = cfg.densify
    pos_accum = np.zeros(len(scene))
    touch_accum = np.zeros(len(scene))
    log: list[dict] = []
    psnr_eval = None
    t_start = time.perf_counter()

    for it in range(1, cfg.iterations + 1):
        buf = GradientBuffer.zeros(len(scene))
        l_evs = 0.0
        l_img = 0.0

        if use_events and len(data.events):
            i = int(rng.integers(1, cfg.sampler.n_windows + 1))
            t1 = i / cfg.sampler.n_windows * span_us
            t0, t1 = sample_window(rng, t1, cfg.sampler.l_max)
            t0 = max(t0, 0.0)
            cam0 = pose_at_time(data.trajectory, t0 * 1e-6)
            cam1 = pose_at_time(data.trajectory, t1 * 1e-6)
            gt = accumulate_events(data.events, t0, t1, data.event_config)
            out0 = render(scene, cam0, keep_tape=True, alpha_min=TRAIN_ALPHA_MIN)
            out1 = render(scene, cam1, keep_tape=True, alpha_min=TRAIN_ALPHA_MIN)
            # Adam can drive intensities, and so rendered pixels, below 0;
            # those sit under the log floor and pass no gradient
            pred = log_intensity(np.maximum(out1.image, 0.0), data.event_config) \
                - log_intensity(np.maximum(out0.image, 0.0), data.event_config)
            res = motion_event_loss(pred, gt)
            if not res.skip:
                l_evs = res.value
                up1 = log_intensity_upstream(out1.image, res.grad, data.event_config)
                up0 = log_intensity_upstream(out0.image, -res.grad, data.event_config)
                buf.add_(render_backward(scene, cam1, up1, out1.tape), lam)
                buf.add_(render_backward(scene, cam0, up0, out0.tape), lam)

        if use_frames:
            j = int(rng.integers(len(data.exposure_frames)))
            fr = data.exposure_frames[j]
            cam = pose_at_time(data.trajectory, data.pose_times[fr.pose_id])
            out = render(scene, cam, keep_tape=True, alpha_min=TRAIN_ALPHA_MIN)
            res = exposure_loss(out.image, fr)
            l_img = res.value
            buf.add_(render_backward(scene, cam, res.grad, out.tape), 1.0 - lam)

        loss = combined_loss(l_evs, l_img, lam)
        lrs = learning_rates(cfg, extent, it)
        optimizer_step(scene, buf, state, lrs)
        pos_accum += buf.pos_grad_norm
        touch_accum += buf.touched

        if (dens.start_iter <= it <= dens.stop_iter and dens.interval > 0
                and it % dens.interval == 0):
            scene, state = densify_and_prune(scene, state, pos_accum, touch_accum,
                                             dens, extent, rng)
            pos_accum = np.zeros(len(scene))
            touch_accum = np.zeros(len(scene))

        if cfg.log_interval > 0 and (it % cfg.log_interval == 0 or it == cfg.iterations):
            log.append({"iter": it, "loss": loss, "l_evs": l_evs, "l_img": l_img,
                        "lambda": lam, "count": len(scene), "lr_means": lrs["means"],
                        "elapsed_s": round(time.perf_counter() - t_start, 3)})
        if (cfg.eval_interval > 0 and data.eval_frames
                and (it % cfg.eval_interval == 0 or it == cfg.iterations)):
            psnr_eval = _eval_psnr(scene, data)
            log.append({"iter": it, "psnr_eval": psnr_eval})

    summary = {"event": "final", "iterations": cfg.iterations, "mode": cfg.mode,
               "count": len(scene),
               "elapsed_s": round(time.perf_counter() - t_start, 3)}
    if data.eval_frames:
        # the loop's evaluation at the last iteration, when there was one
        summary["psnr_eval"] = (_eval_psnr(scene, data) if psnr_eval is None
                                else psnr_eval)
    log.append(summary)
    return scene, log
