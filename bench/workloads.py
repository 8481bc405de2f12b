"""The benchmark's workloads: set-up, timed measurement and output checks.

``hq_ply`` and ``fast_random`` train on the seeded 64x64 toy turntable;
``large_scene`` renders and differentiates a seeded 5000-Gaussian shell.
Every input is drawn from the run's seed.  evsplat is called only through
the names collected in ``P``, so the traced run can wrap them.
"""

from __future__ import annotations

import importlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import checks
from gauge import Gauge
from spans import Tracer

from evsplat import cli
from evsplat.camera import CameraModel, pose_at_time
from evsplat.dataset import (SyntheticSceneSpec, generate_synthetic_scene,
                             init_point_cloud, load_dataset, write_dataset)
from evsplat.events import EventModelConfig
from evsplat.metrics import psnr
from evsplat.scene import GaussianScene, load_scene, save_scene
from evsplat.training import DensifyConfig, SamplerConfig, TrainConfig, train

R = importlib.import_module("evsplat.render")
B = importlib.import_module("evsplat.backward")
T = importlib.import_module("evsplat.training")
D = importlib.import_module("evsplat.dataset")

P = SimpleNamespace(
    generate_synthetic_scene=generate_synthetic_scene, write_dataset=write_dataset,
    load_dataset=load_dataset, make_train_data=cli.make_train_data,
    init_point_cloud=init_point_cloud, train=train, render=R.render,
    render_backward=B.render_backward, save_scene=save_scene, load_scene=load_scene,
    psnr=psnr, pose_at_time=pose_at_time)

# --------------------------------------------------------------------------
# inputs

# The acceptance suite's toy turntable: three Gaussians, 180 motion frames,
# 200 exposure stops at 100 ramp levels; the seed draws the PLY init cloud.
TOY_SPEC = dict(resolution=(64, 64), frames=180, stops=200, init_points=240)
EVAL_STRIDE = 25          # train's periodic evaluation: novel views 0, 50, 100, 150
GRAD_STRIDE = 10          # gradient steps on every 10th novel view
RANDOM_INIT = dict(n=240, bbox=[[-0.6] * 3, [0.6] * 3])

# Schedules whose held-out PSNR rises steadily; each target sits on the
# rising part of its curve (see README).
SCHEDULES = {
    "hq_ply": dict(
        init="ply", target_db=30.0,
        config=dict(mode="hq", iterations=600, warmup_iters=50, lr_initial=5e-5,
                    densify=DensifyConfig(interval=100, start_iter=200, stop_iter=500,
                                          grad_threshold=2e-5, max_count=900),
                    log_interval=1, eval_interval=10)),
    # The random box and the window sampler are fixed: across seeds the
    # iterations fast mode needs to reach a target spread by ~40% (quartile
    # distance over median, 10 seeds), which would hide any change in speed.
    "fast_random": dict(
        init="random", target_db=23.5, fixed_seed=0,
        config=dict(mode="fast", iterations=32, warmup_iters=1, lr_initial=4e-4,
                    densify=DensifyConfig(start_iter=10 ** 9),
                    sampler=SamplerConfig(n_windows=200, l_max=3e6),
                    log_interval=1, eval_interval=4)),
}

# Acceptance criterion 9's shell and 128x128 camera; the seed draws the
# shell and seven more views around it.
SHELL_N = 5000
SHELL_CENTER = np.array([0.0, 0.0, 3.5])
SHELL_VIEWS = 8
FOCAL = 160.0
SIZE = 128

# A small dataset for the checks of large_scene, which simulates nothing.
CHECK_SPEC = dict(resolution=(32, 32), frames=12, stops=6, init_points=24)

# End-to-end times are scaled to the gauge's reference speed (see gauge.py)
# by the samples taken while they were measured: training or the view loop.
# setup_s stays the wall time of one cold set-up from process start.
TRAINING_TIMES = ("iter_ms", "time_to_psnr_s")
VIEW_TIMES = ("render_ms", "grad_step_ms")
GAUGE_PER_EVAL = 2        # gauge samples after each of train's evaluations
GAUGE_RENDER_STRIDE = 10  # and after every 10th view render and every gradient step

END_TO_END = {"setup_s": "s", "iter_ms": "ms", "time_to_psnr_s": "s",
              "psnr_novel_db": "dB", "render_ms": "ms", "grad_step_ms": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "render.project_ms": "ms", "render.footprint_ms": "ms", "render.sort_ms": "ms",
    "render.composite_ms": "ms", "render.footprint_pairs": "count",
    "render.pairs": "count", "render.live_fraction": "ratio", "render.chunks": "count",
    "render.gaussians_culled": "count", "render.tile_culled": "count",
    "backward.ms": "ms", "backward.pairs": "count",
    "losses.exposure_ms": "ms", "losses.motion_ms": "ms", "losses.upstream_ms": "ms",
    "losses.skipped_windows": "count", "events.accumulate_ms": "ms",
    "events.window_events": "count", "events.simulate_s": "s",
    "exposure.simulate_s": "s", "exposure.ipe_s": "s", "exposure.map_s": "s",
    "exposure.events": "count", "training.adam_ms": "ms", "training.densify_ms": "ms",
    "training.loop_self_ms": "ms", "training.eval_ms": "ms",
    "training.gaussians_final": "count", "training.nonfinite_skipped": "count",
    "dataset.write_s": "s", "dataset.load_s": "s", "dataset.bytes": "B",
    "scene.save_ms": "ms", "scene.load_ms": "ms",
    "trace.iter_ms": "ms", "trace.untraced_iter_ms": "ms", "trace.overhead_pct": "%",
    "machine.gauge_ms": "ms",
}
WORKLOADS = ("hq_ply", "fast_random", "large_scene")


def look_at(eye: np.ndarray, target: np.ndarray) -> CameraModel:
    forward = (target - eye) / np.linalg.norm(target - eye)
    hint = np.array([0.0, 0.0, 1.0]) if abs(forward[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, hint)
    right /= np.linalg.norm(right)
    rot = np.stack([right, np.cross(forward, right), forward])
    c = (SIZE - 1) / 2.0
    return CameraModel(FOCAL, FOCAL, c, c, SIZE, SIZE, rot, -rot @ eye)


def shell_scene(rng: np.random.Generator) -> GaussianScene:
    n = SHELL_N
    theta = rng.uniform(0, 2 * np.pi, n)
    phi = np.arccos(rng.uniform(-1, 1, n))
    r = 0.7 + 0.05 * rng.normal(size=n)
    means = SHELL_CENTER + np.column_stack([r * np.sin(phi) * np.cos(theta),
                                            r * np.sin(phi) * np.sin(theta),
                                            r * np.cos(phi)])
    return GaussianScene(means, rng.normal(size=(n, 4)),
                         np.log(rng.uniform(0.008, 0.016, size=(n, 3))),
                         rng.uniform(1.0, 4.0, n), rng.uniform(0.1, 1.0, n),
                         background=0.3)


def shell_views(rng: np.random.Generator) -> list[CameraModel]:
    views = [look_at(np.zeros(3), SHELL_CENTER)]
    for _ in range(SHELL_VIEWS - 1):
        d = rng.normal(size=3)
        views.append(look_at(SHELL_CENTER + 3.5 * d / np.linalg.norm(d), SHELL_CENTER))
    return views


def gradient_scene(rng: np.random.Generator, n: int = 5) -> GaussianScene:
    """Small scene for finite differences: depths kept apart so the sort
    order cannot flip under a perturbation, footprints >= ~2 px so the
    O(h^2) truncation stays below the tolerance."""
    xy = rng.uniform(-0.8, 0.8, size=(n, 2))
    step = 1.8 / n
    z = 2.2 + rng.permutation(n) * step + rng.uniform(0, 0.5 * step, size=n)
    return GaussianScene(np.column_stack([xy, z]), rng.normal(size=(n, 4)),
                         rng.uniform(np.log(0.26), np.log(0.45), size=(n, 3)),
                         rng.uniform(-2.0, 2.0, n), rng.uniform(0.05, 1.0, n),
                         background=0.4)


def dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


# --------------------------------------------------------------------------
# tracing


def install_tracer(tracer: Tracer) -> None:
    """Wrap the names evsplat resolves at call time, and the benchmark's own."""
    c = tracer.counts

    def on_render(out, scene, *args, **kwargs):
        tape = out.tape
        if tape is None:
            return
        rect = tape.proj.rect
        c["render.taped"] += 1
        c["render.pairs"] += len(tape.pix)
        c["render.live"] += int(np.count_nonzero(tape.live))
        c["render.chunks"] += len(tape.chunk_offsets) - 1
        c["render.footprint_pairs"] += int(((rect[:, 1] - rect[:, 0] + 1)
                                            * (rect[:, 3] - rect[:, 2] + 1)).sum())
        c["render.gaussians_culled"] += len(scene) - len(tape.proj.orig_idx)

    # Tile culling drops whole Gaussians inside _composite, before their
    # footprints are built: a render's tile culls are the Gaussians it
    # projected minus those _chunk_footprints was given.
    pending = [0]

    def on_footprints(_, proj, lo, hi, width, keep_idx=None):
        pending[0] += (hi - lo) if keep_idx is None else len(keep_idx)

    def on_composite(_, proj, colors, bg, width, height, keep_tape, *args, **kwargs):
        if keep_tape:
            c["render.tile_culled"] += len(proj.orig_idx) - pending[0]
        pending[0] = 0

    def on_backward(buf, scene, cam, upstream, tape=None):
        c["backward.calls"] += 1
        c["backward.pairs"] += len(tape.pix) if tape is not None else 0

    def on_motion(res, *args):
        c["losses.skipped_windows"] += int(res.skip)

    def on_accumulate(delta, stream, t0, t1, *args):
        c["events.windows"] += 1
        c["events.window_events"] += int(np.searchsorted(stream.t, t1, side="right")
                                         - np.searchsorted(stream.t, t0, side="right"))

    def on_adam(_, scene, buf, state, lrs):
        c["training.nonfinite_skipped"] = state.skipped_nonfinite

    def on_exposure(stream, *args, **kwargs):
        c["exposure.events"] += len(stream)

    for owner, attr, span, after in (
        (T, "render", "render", on_render),
        (T, "render_backward", "backward", on_backward),
        (T, "exposure_loss", "losses.exposure", None),
        (T, "motion_event_loss", "losses.motion", on_motion),
        (T, "log_intensity_upstream", "losses.upstream", None),
        (T, "accumulate_events", "events.accumulate", on_accumulate),
        (T, "densify_and_prune", "training.densify", None),
        (T, "_eval_psnr", "training.eval", None),
        (R, "_project", "render.project", None),
        (R, "_composite", "render.composite", on_composite),
        (R, "_chunk_footprints", "render.footprint", on_footprints),
        (R, "_stable_sort_by_pixel", "render.sort", None),
        (D, "simulate_motion_events", "events.simulate", None),
        (D, "simulate_exposure_events", "exposure.simulate", on_exposure),
        (D, "extract_ipe", "exposure.ipe", None),
        (D, "map_temporal_to_intensity", "exposure.map", None),
        (P, "write_dataset", "dataset.write", None),
        (P, "load_dataset", "dataset.load", None),
        (P, "save_scene", "scene.save", None),
        (P, "load_scene", "scene.load", None),
        (P, "render", "render", on_render),
        (P, "render_backward", "backward", on_backward),
    ):
        tracer.wrap(owner, attr, span, after)
    tracer.wrap(T, "optimizer_step", "training.adam", on_adam, step=True)


def per_layer_metrics(tracer: Tracer, exclude: set[int], dataset_bytes: int,
                      gaussians_final: int, training: bool) -> dict[str, float]:
    lt = tracer.layer_times(exclude)
    c = tracer.counts

    def get(name, key):
        return lt[name][key] if name in lt else 0.0

    def per(num, den):
        return c[num] / c[den] if c[den] else 0.0

    traced, untraced = tracer.step_times(exclude)
    it_t = statistics.median(traced) if traced else 0.0
    it_u = statistics.median(untraced) if untraced else 0.0
    return {
        "render.project_ms": get("render.project", "step_ms"),
        "render.footprint_ms": get("render.footprint", "step_ms"),
        "render.sort_ms": get("render.sort", "step_ms"),
        "render.composite_ms": get("render.composite", "self_step_ms"),
        "render.footprint_pairs": per("render.footprint_pairs", "render.taped"),
        "render.pairs": per("render.pairs", "render.taped"),
        "render.live_fraction": per("render.live", "render.pairs"),
        "render.chunks": per("render.chunks", "render.taped"),
        "render.gaussians_culled": per("render.gaussians_culled", "render.taped"),
        "render.tile_culled": per("render.tile_culled", "render.taped"),
        "backward.ms": get("backward", "step_ms"),
        "backward.pairs": per("backward.pairs", "backward.calls"),
        "losses.exposure_ms": get("losses.exposure", "step_ms"),
        "losses.motion_ms": get("losses.motion", "step_ms"),
        "losses.upstream_ms": get("losses.upstream", "step_ms"),
        "losses.skipped_windows": c["losses.skipped_windows"],
        "events.accumulate_ms": get("events.accumulate", "step_ms"),
        "events.window_events": per("events.window_events", "events.windows"),
        "events.simulate_s": get("events.simulate", "outside_s"),
        "exposure.simulate_s": get("exposure.simulate", "outside_s"),
        "exposure.ipe_s": get("exposure.ipe", "outside_s"),
        "exposure.map_s": get("exposure.map", "outside_s"),
        "exposure.events": c["exposure.events"],
        "training.adam_ms": get("training.adam", "step_ms"),
        "training.densify_ms": get("training.densify", "call_ms"),
        "training.loop_self_ms": get("step", "self_step_ms") if training else 0.0,
        "training.eval_ms": get("training.eval", "call_ms"),
        "training.gaussians_final": gaussians_final,
        "training.nonfinite_skipped": c["training.nonfinite_skipped"],
        "dataset.write_s": get("dataset.write", "outside_s"),
        "dataset.load_s": get("dataset.load", "outside_s"),
        "dataset.bytes": dataset_bytes,
        "scene.save_ms": get("scene.save", "outside_s") * 1e3,
        "scene.load_ms": get("scene.load", "outside_s") * 1e3,
        "trace.iter_ms": it_t,
        "trace.untraced_iter_ms": it_u,
        "trace.overhead_pct": 100.0 * (it_t / it_u - 1.0) if it_u else 0.0,
    }


# --------------------------------------------------------------------------
# shared checks


def gradient_check(seed: int):
    rng = np.random.default_rng(seed)
    scene = gradient_scene(rng)
    cam = CameraModel(40.0, 40.0, 7.5, 7.5, 16, 16)
    upstream = rng.normal(size=(16, 16))
    buf = P.render_backward(scene, cam, upstream)
    params = [scene.means, scene.quats, scene.log_scales, scene.opacity_logits,
              scene.intensities]
    grads = [buf.d_means, buf.d_quats, buf.d_log_scales, buf.d_opacity_logits,
             buf.d_intensities]
    return checks.check_gradients(
        params, grads, lambda: float(np.sum(upstream * P.render(scene, cam).image)))


def dataset_checks(ds, loaded) -> list[tuple[str, tuple[bool, str]]]:
    """Exposure frames, motion events and EVT1 of a simulated dataset."""
    spec = ds.spec
    out = [("exposure round trip",
            checks.check_exposure([f.image for f in ds.exposure_frames], ds.gt_frames)),
           ("EVT1 round trip", checks.check_evt1(ds.events, loaded.events))]
    w, h = spec.resolution
    ev = loaded.events
    quarter = spec.frames // 4
    for a, b in ((0, quarter), (quarter, 3 * quarter)):
        ta, tb = a * spec.span / spec.frames, b * spec.span / spec.frames
        logs = [checks.log_intensity(
                    checks.reference_render(ds.gt_scene, P.pose_at_time(ds.trajectory, t)),
                    spec.gamma) for t in (ta, tb)]
        acc = checks.accumulate(ev.t, ev.x, ev.y, ev.p, w, h, int(round(ta * 1e6)),
                                int(round(tb * 1e6)), spec.motion_contrast)
        out.append((f"motion events {a}->{b}",
                    checks.check_motion_events(acc, logs[0], logs[1], spec.motion_contrast)))
    return out


def fast_losses(data, seed: int) -> list[float]:
    """Motion losses of a few fast-mode iterations."""
    cfg = TrainConfig(mode="fast", iterations=4, warmup_iters=1, lr_initial=1.6e-4,
                      densify=DensifyConfig(start_iter=10 ** 9), seed=seed,
                      log_interval=1, eval_interval=0)
    _, log = P.train(data, cfg)
    return [r["l_evs"] for r in log if "l_evs" in r]


def mean_psnr(scene, cams, truths) -> float:
    return float(np.mean([P.psnr(P.render(scene, cam).image, gt)
                          for cam, gt in zip(cams, truths)]))


def attempt(failures: list[str], op, *args, **kwargs):
    """Run one view operation; an exception is recorded in ``failures``
    and the loop goes on.  Returns None for a failed operation."""
    try:
        return op(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any fault of the program counts
        failures.append(f"{op.__name__}: {exc!r}")
        return None


def grad_step(scene, cam, upstream):
    out = P.render(scene, cam, keep_tape=True)
    return P.render_backward(scene, cam, upstream, out.tape)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Phase:
    """Records spans outside steps and counts work while tracing; no-op otherwise."""

    def __init__(self, tracer: Tracer | None, counting: bool):
        self.tracer, self.counting = tracer, counting

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.recording = True
            self.tracer.counting = self.counting

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.recording = False
            self.tracer.counting = False


# --------------------------------------------------------------------------
# toy workloads


def time_to_target(log: list[dict], target: float, psnr_init: float) -> float | None:
    """Training wall time at which held-out PSNR first reaches ``target``,
    interpolated linearly between the evaluations that bracket it (the
    init scene counts as an evaluation at time 0)."""
    elapsed = {r["iter"]: r["elapsed_s"] for r in log if "elapsed_s" in r and "iter" in r}
    prev_t, prev_p = 0.0, psnr_init
    for r in log:
        if "psnr_eval" not in r or "iter" not in r:
            continue
        t, p = elapsed[r["iter"]], r["psnr_eval"]
        if p >= target:
            return prev_t + (target - prev_p) / (p - prev_p) * (t - prev_t)
        prev_t, prev_p = t, p
    return None


def without_gauge(log: list[dict], gauge_s: list[tuple[int, float]]) -> list[dict]:
    """The log with the gauge's time taken out of ``elapsed_s``.

    ``gauge_s`` holds (iteration, seconds) per evaluation, in call order.  A
    record of iteration ``it`` is logged before that iteration's evaluation,
    so it carries the gauge time of the evaluations before ``it``; the final
    record carries all but the last, which follows the summary."""
    out = []
    for r in log:
        if "elapsed_s" in r:
            before = ([s for j, s in gauge_s if j < r["iter"]] if "iter" in r
                      else [s for _, s in gauge_s[:-1]])
            r = dict(r, elapsed_s=r["elapsed_s"] - sum(before))
        out.append(r)
    return out


def run_toy(name: str, seed: int, seconds: float, tracer: Tracer | None,
            gauge: Gauge, t_start: float, tmp: str):
    sched = SCHEDULES[name]
    train_seed = sched.get("fixed_seed", seed)
    with _Phase(tracer, counting=True):
        ds = P.generate_synthetic_scene(SyntheticSceneSpec(**TOY_SPEC, seed=seed))
        root = os.path.join(tmp, "toy")
        P.write_dataset(root, ds)
        loaded = P.load_dataset(root)
        bg = loaded.manifest.background
        if sched["init"] == "ply":
            init = P.init_point_cloud("ply", cloud=loaded.init_cloud, background=bg)
        else:
            init = P.init_point_cloud("random", rng=np.random.default_rng(train_seed),
                                      background=bg, **RANDOM_INIT)
        data = P.make_train_data(loaded, init, EventModelConfig(
            contrast_threshold=ds.spec.motion_contrast, gamma=ds.spec.gamma))
    setup_s = time.perf_counter() - t_start

    novel = list(loaded.manifest.split["novel"])
    gts = loaded.gt_frames
    cams = {k: P.pose_at_time(data.trajectory, data.pose_times[k]) for k in novel}
    eval_ids = novel[::EVAL_STRIDE]
    data = replace(data, eval_frames=[(k, gts[k]) for k in eval_ids])
    eval_cams, eval_gts = [cams[k] for k in eval_ids], [gts[k] for k in eval_ids]
    psnr_init = mean_psnr(init, eval_cams, eval_gts)
    if psnr_init >= sched["target_db"]:
        raise RuntimeError(f"init scene already at {psnr_init:.2f} dB, above the target")
    cfg = TrainConfig(seed=train_seed, **sched["config"])

    # One clock read per iteration; an iteration fails when its gradient
    # holds a non-finite entry, which the optimiser drops.
    ticks: list[float] = []
    failures: list[str] = []
    orig_step = T.optimizer_step

    def clocked(scene, buf, state, lrs):
        ticks.append(time.perf_counter())
        before = state.skipped_nonfinite
        orig_step(scene, buf, state, lrs)
        if state.skipped_nonfinite > before:
            failures.append(f"iteration {len(ticks)}: non-finite gradient")

    # The gauge samples the machine's speed after each evaluation, whose
    # iterations iter_ms leaves out; its time is taken out of the log.
    gauge_s: list[tuple[int, float]] = []
    orig_eval = T._eval_psnr

    def gauged_eval(*args, **kwargs):
        result = orig_eval(*args, **kwargs)
        t0 = time.perf_counter()
        gauge.sample(GAUGE_PER_EVAL)
        gauge_s.append((len(ticks), time.perf_counter() - t0))
        return result

    T.optimizer_step, T._eval_psnr = clocked, gauged_eval
    if tracer is not None:
        tracer.counting = True
    t_meas = time.perf_counter()
    try:
        scene, log = P.train(data, cfg)
    finally:
        T.optimizer_step, T._eval_psnr = orig_step, orig_eval
        if tracer is not None:
            tracer.end_steps()
            tracer.counting = False
    n_training = len(gauge.ms)
    with _Phase(tracer, counting=False):
        ckpt = os.path.join(tmp, "final.egs")
        P.save_scene(ckpt, scene)
        reloaded = P.load_scene(ckpt)

    evals = {k for k in range(1, cfg.iterations + 1) if k % cfg.eval_interval == 0}
    attempted = cfg.iterations
    counted = []
    if tracer is not None:
        # the checks below train and render again: stop tracing first
        tracer.restore()
        c = tracer.counts
        counted = [("loop call counts", checks.check_call_counts(
            cfg.mode, cfg.iterations, c["render.taped"], c["backward.calls"],
            c["losses.skipped_windows"]))]
        metrics = per_layer_metrics(tracer, evals, dir_bytes(root), len(scene), True)
    else:
        steps = [(b - a) * 1e3 for n, (a, b) in enumerate(zip(ticks, ticks[1:]), 1)
                 if n not in evals]
        timed_log = without_gauge(log, gauge_s)
        ttp = time_to_target(timed_log, sched["target_db"], psnr_init)
        if ttp is None:
            print(f"bench: {name} never reached {sched['target_db']} dB; "
                  "reporting the whole training time", file=sys.stderr)
            ttp = next(r["elapsed_s"] for r in timed_log if r.get("event") == "final")
        grad_ids = novel[::GRAD_STRIDE]
        upstream = np.random.default_rng(seed).standard_normal(gts[novel[0]].shape)
        render_t, grad_t, psnrs, rounds = [], [], [], 0
        while True:
            for n, k in enumerate(novel, 1):
                t0 = time.perf_counter()
                out = attempt(failures, P.render, scene, cams[k])
                if out is not None:
                    render_t.append(time.perf_counter() - t0)
                    if rounds == 0:
                        psnrs.append(P.psnr(out.image, gts[k]))
                if n % GAUGE_RENDER_STRIDE == 0:
                    gauge.sample()
            for k in grad_ids:
                t0 = time.perf_counter()
                if attempt(failures, grad_step, scene, cams[k], upstream) is not None:
                    grad_t.append(time.perf_counter() - t0)
                gauge.sample()
            rounds += 1
            if time.perf_counter() - t_meas >= seconds:
                break
        attempted += rounds * (len(novel) + len(grad_ids))
        metrics = {"setup_s": setup_s, "iter_ms": statistics.median(steps),
                   "time_to_psnr_s": ttp, "psnr_novel_db": float(np.mean(psnrs)),
                   "render_ms": statistics.median(render_t) * 1e3,
                   "grad_step_ms": statistics.median(grad_t) * 1e3,
                   "peak_rss_mb": peak_rss_mb()}
        scale(metrics, TRAINING_TIMES, gauge, 0, n_training)
        scale(metrics, VIEW_TIMES, gauge, n_training, None)

    results = [
        ("training", checks.check_training(mean_psnr(scene, eval_cams, eval_gts),
                                           psnr_init, scene, cfg.densify.max_count)),
        ("reference render", checks.check_render(
            P.render(scene, cams[novel[0]]).image,
            checks.reference_render(scene, cams[novel[0]]),
            checks.render_tolerance(scene))),
        ("gradient", gradient_check(seed)),
        ("EGS1 round trip", checks.check_egs1(scene, reloaded)),
        ("motion loss", checks.check_motion_loss(
            [r["l_evs"] for r in log if "l_evs" in r] if cfg.mode == "fast"
            else fast_losses(replace(data, init_scene=init), seed))),
    ] + dataset_checks(ds, loaded)
    return metrics, attempted, failures, results + counted


# --------------------------------------------------------------------------
# large scene


def run_large(seed: int, seconds: float, tracer: Tracer | None, gauge: Gauge,
              t_start: float, tmp: str):
    rng = np.random.default_rng(seed)
    with _Phase(tracer, counting=False):
        built = shell_scene(rng)
        path = os.path.join(tmp, "shell.egs")
        P.save_scene(path, built)
        scene = P.load_scene(path)
    setup_s = time.perf_counter() - t_start

    views = shell_views(rng)
    upstream = rng.standard_normal((SIZE, SIZE))
    if tracer is not None:
        tracer.counting = True
    render_t, grad_t, step_t, round_t, rounds = [], [], [], [], 0
    images: list = [None] * 2
    failures: list[str] = []
    t_meas = time.perf_counter()
    while True:
        round_s = 0.0
        for i, cam in enumerate(views):
            if tracer is not None:
                tracer.step(record=rounds % 2 == 1)
            t0 = time.perf_counter()
            out = attempt(failures, P.render, scene, cam)
            t1 = time.perf_counter()
            grad = attempt(failures, grad_step, scene, cam, upstream)
            t2 = time.perf_counter()
            round_s += t2 - t0
            if out is not None:
                render_t.append(t1 - t0)
                if i < len(images) and images[i] is None:
                    images[i] = out.image
            if grad is not None:
                grad_t.append(t2 - t1)
            if out is not None and grad is not None:
                step_t.append(t2 - t0)
            gauge.sample()
        rounds += 1
        round_t.append(round_s)
        if time.perf_counter() - t_meas >= seconds:
            break
    rss = peak_rss_mb()
    counted = []
    if tracer is not None:
        tracer.end_steps()
        tracer.restore()
        c = tracer.counts
        counted = [("view call counts", checks.check_call_counts(
            "views", rounds * len(views), c["render.taped"], c["backward.calls"], 0))]

    # a view whose every render failed has no image to check
    checked = [(i, img) for i, img in enumerate(images) if img is not None]
    refs = [checks.reference_render(scene, views[i]) for i, _ in checked]
    tol = checks.render_tolerance(scene)
    results = [(f"reference render view {i}", checks.check_render(img, ref, tol))
               for (i, img), ref in zip(checked, refs)]
    results += [("gradient", gradient_check(seed)),
                ("EGS1 round trip", checks.check_egs1(built, scene))]
    ds = P.generate_synthetic_scene(SyntheticSceneSpec(**CHECK_SPEC, seed=seed))
    root = os.path.join(tmp, "check")
    P.write_dataset(root, ds)
    loaded = P.load_dataset(root)
    results += dataset_checks(ds, loaded)
    init = P.init_point_cloud("ply", cloud=loaded.init_cloud,
                              background=loaded.manifest.background)
    data = P.make_train_data(loaded, init, EventModelConfig(
        contrast_threshold=ds.spec.motion_contrast, gamma=ds.spec.gamma))
    results.append(("motion loss", checks.check_motion_loss(fast_losses(data, seed))))

    results += counted
    attempted = 2 * rounds * len(views)
    if tracer is not None:
        return per_layer_metrics(tracer, set(), 0, 0, False), attempted, failures, results
    metrics = {"setup_s": setup_s, "iter_ms": statistics.median(step_t) * 1e3,
               "time_to_psnr_s": statistics.median(round_t),
               "psnr_novel_db": float(np.mean([P.psnr(img, r)
                                               for (_, img), r in zip(checked, refs)])),
               "render_ms": statistics.median(render_t) * 1e3,
               "grad_step_ms": statistics.median(grad_t) * 1e3,
               "peak_rss_mb": rss}
    scale(metrics, TRAINING_TIMES + VIEW_TIMES, gauge, 0, None)
    return metrics, attempted, failures, results


def scale(metrics: dict, names: tuple, gauge: Gauge, start: int, stop: int | None):
    """Scale wall times to the gauge's reference speed by the gauge samples
    ``start:stop``, and report the wall times on standard error."""
    factor = gauge.factor(start, stop)
    print(f"bench: scale {factor:.4f} from gauge samples {start}:{stop or len(gauge.ms)}; "
          "wall times " + ", ".join(f"{k} {metrics[k]:.6g}" for k in names), file=sys.stderr)
    for k in names:
        metrics[k] *= factor


def run(workload: str, seed: int, seconds: float, trace: bool, t_start: float,
        out_dir: str) -> dict:
    tracer = None
    if trace:
        tracer = Tracer()
        install_tracer(tracer)
    gauge = Gauge()
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        if workload == "large_scene":
            metrics, attempted, failures, results = run_large(seed, seconds, tracer, gauge,
                                                              t_start, tmp)
        else:
            metrics, attempted, failures, results = run_toy(workload, seed, seconds,
                                                            tracer, gauge, t_start, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tracer is not None:
            tracer.restore()
    if failures:
        print(f"bench: {len(failures)} failed operations, first: {failures[0]}",
              file=sys.stderr)
    for label, (ok, detail) in results:
        print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}", file=sys.stderr)
    if tracer is not None:
        if tracer.absent:
            print(f"bench: absent stages: {', '.join(tracer.absent)}", file=sys.stderr)
        tracer.write(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"))
    print(f"bench: gauge median {gauge.median_ms():.3f} ms over {len(gauge.ms)} samples",
          file=sys.stderr)
    if trace:
        metrics["machine.gauge_ms"] = gauge.median_ms()
    units = PER_LAYER if trace else END_TO_END
    return {"correct": all(ok for _, (ok, _) in results), "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
