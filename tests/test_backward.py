import numpy as np
import pytest

from conftest import (empty_scene, multi_chunk_scene, random_scene, reference_adjoint,
                      small_camera)

import evsplat.render as R
from evsplat.backward import GradientBuffer, _pair_moments, render_backward
from evsplat.render import ALPHA_MIN, render
from evsplat.scene import PARAMS, Gaussian3D, GaussianScene
from evsplat.training import TRAIN_ALPHA_MIN


def fd_check(scene, cam, upstream, h=1e-4, rel_tol=1e-4, abs_tol=1e-7):
    """Central finite differences on every unconstrained parameter."""
    buf = render_backward(scene, cam, upstream)
    params = [
        ("means", scene.means, buf.d_means),
        ("quats", scene.quats, buf.d_quats),
        ("log_scales", scene.log_scales, buf.d_log_scales),
        ("opacity_logits", scene.opacity_logits, buf.d_opacity_logits),
        ("intensities", scene.intensities, buf.d_intensities),
    ]
    failures = []
    for name, arr, grad in params:
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = float(np.sum(upstream * render(scene, cam).image))
            flat[k] = orig - h
            lm = float(np.sum(upstream * render(scene, cam).image))
            flat[k] = orig
            fd = (lp - lm) / (2 * h)
            an = gflat[k]
            err = abs(an - fd)
            if err > abs_tol and err / max(abs(an), abs(fd)) > rel_tol:
                failures.append((name, k, an, fd, err))
    return failures


class TestGradientCheck:
    def test_zero_upstream_zero_buffer(self, rng):
        scene = random_scene(rng, 8)
        buf = render_backward(scene, small_camera(), np.zeros((16, 16)))
        np.testing.assert_array_equal(buf.grad, 0.0)

    def test_intensity_gradient_equals_alpha_weights(self):
        # single near-opaque gaussian, unit upstream: d image / d intensity per
        # pixel is that pixel's blended alpha; oracle via finite differences
        g = Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                       np.log([0.08] * 3), 4.0, 0.7)
        scene = GaussianScene.from_gaussians([g], background=0.0)
        cam = small_camera()
        upstream = np.ones((16, 16))
        buf = render_backward(scene, cam, upstream)
        h = 1e-6
        scene.intensities[0] += h
        lp = float(np.sum(upstream * render(scene, cam).image))
        scene.intensities[0] -= 2 * h
        lm = float(np.sum(upstream * render(scene, cam).image))
        scene.intensities[0] += h
        assert buf.d_intensities[0] == pytest.approx((lp - lm) / (2 * h), rel=1e-8)
        # also equals the total blended alpha over the footprint
        t_final = render(scene, cam, keep_tape=True).tape.t_final
        assert buf.d_intensities[0] == pytest.approx(float((1.0 - t_final).sum()), rel=1e-12)

    def test_opacity_gradient_sign_brighter_than_background(self):
        g = Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                       np.log([0.08] * 3), 0.0, 0.9)
        scene = GaussianScene.from_gaussians([g], background=0.1)
        buf = render_backward(scene, small_camera(), np.ones((16, 16)))
        assert buf.d_opacity_logits[0] > 0

    def test_random_scenes_match_finite_differences(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            scene = random_scene(rng, int(rng.integers(3, 16)))
            cam = small_camera()
            upstream = rng.normal(size=(16, 16))
            failures = fd_check(scene, cam, upstream)
            assert not failures, f"seed {seed}: {failures[:3]}"

    def test_upstream_resolution_mismatch_rejected(self, rng):
        scene = random_scene(rng, 4)
        with pytest.raises(ValueError):
            render_backward(scene, small_camera(), np.zeros((8, 8)))

    @pytest.mark.parametrize("case", ["empty", "behind_camera", "no_pair_passes_cutoff"])
    def test_scene_without_pairs_gets_zero_buffer(self, rng, case):
        def gaussian(z, log_scale, logit):
            return Gaussian3D(np.array([0.0, 0.0, z]), np.array([1.0, 0, 0, 0]),
                              np.full(3, log_scale), logit, 0.6)

        # no_pair_passes_cutoff: the Gaussian projects between four pixel
        # centres, q = 1.67 at each, with q_cut = 1.2 (alpha_base =
        # alpha_min e^0.6), so its rect holds pixels but none passes the cutoff
        scene = {"empty": empty_scene(0.3),
                 "behind_camera": GaussianScene.from_gaussians(
                     [gaussian(-2.0, -2.0, 3.0), gaussian(0.005, -2.0, 3.0)], 0.3),
                 "no_pair_passes_cutoff": GaussianScene.from_gaussians(
                     [gaussian(2.0, -9.0, np.log(1e-12) + 0.6)], 0.3)}[case]
        cam = small_camera()
        tape = render(scene, cam, keep_tape=True).tape
        assert len(tape.pix) == 0
        assert len(tape.proj.orig_idx) == (case == "no_pair_passes_cutoff")
        buf = render_backward(scene, cam, rng.normal(size=(16, 16)), tape)
        zeros = GradientBuffer.zeros(len(scene))
        for name in ("grad", "pos_grad_norm", "touched"):
            assert np.array_equal(getattr(buf, name), getattr(zeros, name)), name

    def test_tape_and_recompute_agree(self, rng):
        scene = random_scene(rng, 10)
        cam = small_camera()
        upstream = rng.normal(size=(16, 16))
        out = render(scene, cam, keep_tape=True)
        a = render_backward(scene, cam, upstream, out.tape)
        b = render_backward(scene, cam, upstream)
        for name in ("grad", "pos_grad_norm", "touched"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)

    def test_densify_stats(self, rng):
        scene = random_scene(rng, 6)
        cam = small_camera()
        buf = render_backward(scene, cam, np.ones((16, 16)))
        assert np.all(buf.touched[buf.pos_grad_norm > 0] == 1)
        assert np.all(buf.pos_grad_norm >= 0)

    def test_touched_only_through_live_pairs(self, rng):
        # two wide opaque Gaussians terminate every pixel of the small one
        # behind them in the same chunk, so all of its pairs are on the tape
        # but dead
        def gaussian(z, scale, logit):
            return Gaussian3D(np.array([0.0, 0.0, z]), np.array([1.0, 0, 0, 0]),
                              np.log([scale] * 3), logit, 0.6)

        scene = GaussianScene.from_gaussians(
            [gaussian(2.0, 1.0, 10.0), gaussian(2.1, 1.0, 10.0), gaussian(3.0, 0.002, 0.0)],
            background=0.2)
        cam = small_camera()
        tape = render(scene, cam, keep_tape=True, alpha_min=TRAIN_ALPHA_MIN).tape
        assert len(tape.chunk_offsets) == 2
        hidden = tape.gi == np.flatnonzero(tape.proj.orig_idx == 2)[0]
        assert hidden.any() and not tape.live[hidden].any()
        buf = render_backward(scene, cam, rng.normal(size=(16, 16)), tape)
        np.testing.assert_array_equal(buf.touched, [1.0, 1.0, 0.0])
        for name in PARAMS:
            assert not getattr(buf, "d_" + name)[2].any()
        assert buf.pos_grad_norm[2] == 0.0

    def test_buffer_weighted_accumulation(self, rng):
        scene = random_scene(rng, 5)
        cam = small_camera()
        up = rng.normal(size=(16, 16))
        b1 = render_backward(scene, cam, up)
        total = GradientBuffer.zeros(len(scene))
        total.add_(b1, 0.25)
        np.testing.assert_allclose(total.grad, 0.25 * b1.grad)
        np.testing.assert_allclose(total.pos_grad_norm, 0.25 * b1.pos_grad_norm)
        np.testing.assert_array_equal(total.touched, b1.touched)


@pytest.mark.parametrize("alpha_min", [ALPHA_MIN, TRAIN_ALPHA_MIN])
def test_matches_the_per_pixel_reference_adjoint(alpha_min, rng, monkeypatch):
    # a budget of 8192 pairs spreads the scene over several chunks, so pixels
    # terminate inside a middle chunk and inside a later one, and the chunks
    # after each drop those pixels' pairs before sorting
    monkeypatch.setattr(R, "CHUNK_PAIRS", 8192)
    scene = multi_chunk_scene(rng)
    cam = small_camera()
    upstream = rng.normal(size=(16, 16))
    tape = render(scene, cam, keep_tape=True, alpha_min=alpha_min).tape
    n = len(tape.chunks)
    dying = [i for i, c in enumerate(tape.chunks) if not c.live.all()]
    middle = [i for i in dying if 0 < i < n - 1]
    assert middle and dying[-1] > middle[0]

    ref, magnitude = reference_adjoint(scene, cam, upstream, alpha_min)
    oi = tape.proj.orig_idx
    moments = _pair_moments(tape, scene.intensities[oi], scene.background, upstream)
    assert np.all(np.abs(moments - ref) <= 1e-10 * magnitude)
    buf = render_backward(scene, cam, upstream, tape)
    assert np.all(np.abs(buf.d_intensities[oi] - ref[0]) <= 1e-10 * magnitude[0])
    np.testing.assert_array_equal(buf.touched[oi], ref[7] > 0)
    assert not buf.touched[oi].all()
