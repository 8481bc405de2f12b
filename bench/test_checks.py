"""Each output check accepts the program's output and rejects a deliberately
corrupted copy of it.  Run with ``python -m pytest bench``."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from spans import Tracer
from evsplat.camera import CameraModel
from evsplat.dataset import SyntheticSceneSpec
from evsplat.scene import load_scene, save_scene

P = workloads.P


@pytest.fixture(scope="module")
def small_ds():
    spec = SyntheticSceneSpec(**workloads.CHECK_SPEC, seed=3)
    return P.generate_synthetic_scene(spec)


def test_reference_render_accepts_render_and_rejects_corruption():
    rng = np.random.default_rng(0)
    scene = workloads.gradient_scene(rng, n=12)
    cam = CameraModel(40.0, 40.0, 11.5, 11.5, 24, 24)
    image = P.render(scene, cam).image
    ref = checks.reference_render(scene, cam)
    tol = checks.render_tolerance(scene)
    assert checks.check_render(image, ref, tol)[0]
    bad = image.copy()
    bad[5, 7] += 3 * tol
    assert not checks.check_render(bad, ref, tol)[0]


def test_reference_render_bound_holds_where_pixels_terminate():
    scene = workloads.shell_scene(np.random.default_rng(1))
    cam = workloads.shell_views(np.random.default_rng(1))[0]
    ok, detail = checks.check_render(P.render(scene, cam).image,
                                     checks.reference_render(scene, cam),
                                     checks.render_tolerance(scene))
    assert ok, detail


def test_gradient_check_rejects_a_wrong_partial():
    assert workloads.gradient_check(0)[0]
    rng = np.random.default_rng(0)
    scene = workloads.gradient_scene(rng)
    cam = CameraModel(40.0, 40.0, 7.5, 7.5, 16, 16)
    upstream = rng.normal(size=(16, 16))
    buf = P.render_backward(scene, cam, upstream)
    buf.d_log_scales[2, 1] *= 1.01

    def loss():
        return float(np.sum(upstream * P.render(scene, cam).image))

    ok, _ = checks.check_gradients(
        [scene.means, scene.log_scales], [buf.d_means, buf.d_log_scales], loss)
    assert not ok


def test_exposure_check_rejects_a_shifted_pixel(small_ds):
    frames = [f.image for f in small_ds.exposure_frames]
    assert checks.check_exposure(frames, small_ds.gt_frames)[0]
    frames[2] = frames[2].copy()
    frames[2][10, 10] *= 1.03
    assert not checks.check_exposure(frames, small_ds.gt_frames)[0]


def test_motion_event_check_rejects_extra_events(small_ds, tmp_path):
    P.write_dataset(str(tmp_path), small_ds)
    loaded = P.load_dataset(str(tmp_path))
    assert all(ok for _, (ok, _) in workloads.dataset_checks(small_ds, loaded))
    ev = loaded.events
    spec = small_ds.spec
    w, h = spec.resolution
    tb = spec.span / 4
    logs = [checks.log_intensity(checks.reference_render(
        small_ds.gt_scene, P.pose_at_time(small_ds.trajectory, t)), spec.gamma)
        for t in (0.0, tb)]
    acc = checks.accumulate(ev.t, ev.x, ev.y, ev.p, w, h, 0, int(round(tb * 1e6)),
                            spec.motion_contrast)
    c = spec.motion_contrast
    assert checks.check_motion_events(acc, logs[0], logs[1], c)[0]
    acc[4, 4] += 3 * c
    assert not checks.check_motion_events(acc, logs[0], logs[1], c)[0]


def test_motion_loss_check_bounds():
    assert checks.check_motion_loss([0.0, 1.3, 4.0])[0]
    assert not checks.check_motion_loss([0.5, 4.01])[0]
    assert not checks.check_motion_loss([-1e-9])[0]
    assert not checks.check_motion_loss([])[0]


def test_training_check_rejects_each_fault():
    scene = workloads.gradient_scene(np.random.default_rng(0))
    assert checks.check_training(30.0, 22.0, scene, 5)[0]
    assert not checks.check_training(22.0, 22.0, scene, 5)[0]
    assert not checks.check_training(30.0, 22.0, scene, 4)[0]
    scene.intensities[1] = np.nan
    assert not checks.check_training(30.0, 22.0, scene, 5)[0]


def test_evt1_check_rejects_a_changed_timestamp(small_ds, tmp_path):
    P.write_dataset(str(tmp_path), small_ds)
    read = P.load_dataset(str(tmp_path)).events
    assert checks.check_evt1(small_ds.events, read)[0]
    t = read.t.copy()
    t[len(t) // 2] += 1
    changed = SimpleNamespace(resolution=read.resolution, t=t, x=read.x, y=read.y, p=read.p)
    assert not checks.check_evt1(small_ds.events, changed)[0]


def test_egs1_check_rejects_a_value_beyond_float32_rounding(tmp_path):
    scene = workloads.shell_scene(np.random.default_rng(2))
    path = str(tmp_path / "s.egs")
    save_scene(path, scene)
    back = load_scene(path)
    assert checks.check_egs1(scene, back)[0]
    back.means[7, 2] *= 1.0 + 2.0 ** -20
    assert not checks.check_egs1(scene, back)[0]


def test_call_count_check():
    assert checks.check_call_counts("hq", 20, 20, 20, 0)[0]
    assert not checks.check_call_counts("hq", 20, 21, 20, 0)[0]
    assert checks.check_call_counts("fast", 10, 20, 16, 2)[0]
    assert not checks.check_call_counts("fast", 10, 20, 20, 2)[0]


def test_time_to_target_interpolates_between_evaluations():
    log = [{"iter": 10, "elapsed_s": 1.0}, {"iter": 10, "psnr_eval": 24.0},
           {"iter": 20, "elapsed_s": 2.0}, {"iter": 20, "psnr_eval": 26.0},
           {"event": "final", "psnr_eval": 26.0, "elapsed_s": 2.5}]
    assert workloads.time_to_target(log, 25.0, 22.0) == pytest.approx(1.5)
    assert workloads.time_to_target(log, 23.0, 22.0) == pytest.approx(0.5)
    assert workloads.time_to_target(log, 27.0, 22.0) is None


def test_gauge_time_is_taken_out_of_the_log():
    log = [{"iter": 10, "elapsed_s": 1.0}, {"iter": 10, "psnr_eval": 24.0},
           {"iter": 20, "elapsed_s": 2.0}, {"iter": 20, "psnr_eval": 26.0},
           {"event": "final", "psnr_eval": 26.0, "elapsed_s": 2.5}]
    timed = workloads.without_gauge(log, [(10, 0.1), (20, 0.2), (20, 0.4)])
    assert [r["elapsed_s"] for r in timed if "elapsed_s" in r] == pytest.approx([1.0, 1.9, 2.2])


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_tracer_alternates_steps_and_keeps_layers_of_excluded_steps():
    tracer = Tracer()
    ns = SimpleNamespace(tick=lambda: None, work=lambda: None)
    tick = ns.tick
    tracer.wrap(ns, "tick", "adam", step=True)
    tracer.wrap(ns, "work", "densify")
    tracer.wrap(ns, "missing", "absent stage")
    for k in range(1, 7):
        ns.tick()
        if k == 4:
            ns.work()
    tracer.end_steps()
    traced, untraced = tracer.step_times(exclude={4})
    assert (len(traced), len(untraced)) == (1, 3)      # steps 2 | 1, 3, 5; 6 has no end
    layers = tracer.layer_times(exclude={4})
    assert layers["densify"]["call_ms"] > 0.0
    assert layers["densify"]["step_ms"] == 0.0
    assert tracer.absent == ["absent stage"]
    tracer.restore()
    assert ns.tick is tick


def test_tracer_counts_tile_culled_gaussians():
    # an opaque front layer of one full chunk terminates every pixel, so the
    # second chunk's small Gaussians behind it are culled whole, by tile
    rng = np.random.default_rng(0)
    front, back = workloads.R.CHUNK_SIZE, 40
    means = np.column_stack([
        np.concatenate([rng.uniform(-1.3, 1.3, front), rng.uniform(-0.8, 0.8, back)]),
        np.concatenate([rng.uniform(-1.3, 1.3, front), rng.uniform(-0.8, 0.8, back)]),
        np.concatenate([np.full(front, 2.0), np.full(back, 4.0)])])
    scene = workloads.GaussianScene(
        means, np.tile([1.0, 0.0, 0.0, 0.0], (front + back, 1)),
        np.log(np.concatenate([np.full((front, 3), 0.2), np.full((back, 3), 0.02)])),
        np.full(front + back, 8.0), np.ones(front + back), background=0.0)
    tracer = Tracer()
    workloads.install_tracer(tracer)
    try:
        tracer.counting = True
        P.render(scene, CameraModel(32.0, 32.0, 15.5, 15.5, 32, 32), keep_tape=True)
    finally:
        tracer.restore()
    assert tracer.counts["render.gaussians_culled"] == 0
    assert tracer.counts["render.tile_culled"] == back


def test_attempt_counts_a_failing_operation():
    failures = []

    def broken():
        raise ValueError("bad input")

    assert workloads.attempt(failures, broken) is None
    assert workloads.attempt(failures, abs, -2) == 2
    assert failures == ["broken: ValueError('bad input')"]
