import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_scene, random_scene, reference_render, small_camera

import evsplat
from evsplat.backward import render_backward
from evsplat.camera import CameraModel
from evsplat.quat import quat_normalize, quat_to_rot, rot_to_quat
import evsplat.render as R
from evsplat.render import (ALPHA_MIN, CHUNK_PAIRS, COV2D_DILATION,
                            TERMINATE_TRANSMITTANCE, _project, render)
from evsplat.scene import Gaussian3D, GaussianScene
from evsplat.training import TRAIN_ALPHA_MIN


def single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=12.0, intensity=0.8,
                          scale=0.05, background=0.0):
    g = Gaussian3D(np.array(mean), np.array([1.0, 0, 0, 0]),
                   np.log([scale] * 3), logit, intensity)
    return GaussianScene.from_gaussians([g], background=background)


def multi_chunk_scene(rng, back=40):
    """More than a chunk's pair budget of small opaque Gaussians in front of
    the left half of a 16x16 view, which terminates pixels there, and larger
    translucent Gaussians behind them over the whole view, which fall in later
    chunks.  Each front footprint's ellipse is at least 171 pixels at the
    exact cutoff, so CHUNK_PAIRS // 128 of them overflow the first chunk."""
    n_front = CHUNK_PAIRS // 128
    n = n_front + back
    front = np.arange(n) < n_front
    means = np.column_stack([
        np.where(front, rng.uniform(-0.4, 0.0, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(-0.4, 0.4, n), rng.uniform(-0.7, 0.7, n)),
        np.where(front, rng.uniform(2.0, 2.4, n), rng.uniform(3.0, 4.0, n))])
    log_scales = np.log(np.where(front, rng.uniform(0.05, 0.08, n),
                                 rng.uniform(0.1, 0.2, n)))[:, None].repeat(3, axis=1)
    logits = np.where(front, 5.0, rng.uniform(-1.0, 1.0, n))
    return GaussianScene(means, rng.normal(size=(n, 4)), log_scales, logits,
                         rng.uniform(0.05, 1.0, n), background=0.4)


PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)
TAPE_FIELDS = ("chunk_offsets", "pix", "gi", "dx", "dy", "alpha", "t_before",
               "live", "t_final")


def render_arrays(out):
    return [out.image, out.final_transmittance] + [getattr(out.tape, f) for f in TAPE_FIELDS]


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# logit -27.631 is alpha = ALPHA_MIN, where q_cut reaches 0
LOGITS = st.one_of(floats(-27.6, 9.0), floats(-27.631, -27.55))
GAUSSIAN = st.tuples(
    st.tuples(floats(-3.0, 3.0), floats(-3.0, 3.0), floats(0.02, 8.0)),
    st.tuples(floats(-1.0, 1.0), floats(-1.0, 1.0), floats(-1.0, 1.0),
              floats(-1.0, 1.0)).filter(lambda q: np.linalg.norm(q) > 1e-3),
    st.tuples(floats(-7.0, 1.5), floats(-7.0, 1.5), floats(-7.0, 1.5)),
    LOGITS, floats(0.0, 1.0))


@st.composite
def scenes_and_cameras(draw, max_n=8):
    """Gaussians of extreme anisotropy, any rotation and any size down to
    sub-pixel, seen by a camera whose principal point may lie off screen, so
    footprints are clipped at every image edge."""
    gs = draw(st.lists(GAUSSIAN, min_size=1, max_size=max_n))
    scene = GaussianScene(np.array([g[0] for g in gs]), np.array([g[1] for g in gs]),
                          np.array([g[2] for g in gs]), np.array([g[3] for g in gs]),
                          np.array([g[4] for g in gs]), background=draw(floats(0.0, 1.0)))
    f = draw(floats(3.0, 400.0))
    cam = CameraModel(fx=f, fy=f * draw(floats(0.3, 3.0)), cx=draw(floats(-30.0, 80.0)),
                      cy=draw(floats(-30.0, 80.0)), width=draw(st.integers(1, 48)),
                      height=draw(st.integers(1, 48)))
    return scene, cam


def rect_footprints(proj, lo, hi, width):
    """Reference expansion: every pixel of each Gaussian's bounding rectangle,
    Gaussian-major, row-major, with log-alpha in the renderer's row form,
    evaluated the same way."""
    parts = []
    log_ab = np.log(proj.alpha_base[lo:hi])
    for g in range(lo, hi):
        x0, x1, y0, y1 = proj.rect[g]
        (a, b), (_, c) = proj.cov2d[g]
        ys, xs = (v.ravel() for v in np.mgrid[y0:y1 + 1, x0:x1 + 1].astype(np.intp))
        dy = ys - proj.mean2d[g, 1]
        t = xs - (proj.mean2d[g, 0] + b / c * dy)
        row = log_ab[g - lo] - 0.5 * (dy * dy / c)
        parts.append((np.full(xs.size, g, dtype=np.intp), ys * width + xs,
                      row - 0.5 * c / (a * c - b * b) * (t * t)))
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


def quadratic_form(proj, gi, pix, width):
    """q = d^T Sigma^-1 d from the inverse covariance, and the sum of its
    terms' magnitudes, which bounds its rounding."""
    dx = pix % width - proj.mean2d[gi, 0]
    dy = pix // width - proj.mean2d[gi, 1]
    inv = proj.cov2d_inv[gi]
    terms = (inv[:, 0, 0] * dx * dx, 2.0 * inv[:, 0, 1] * dx * dy, inv[:, 1, 1] * dy * dy)
    return sum(terms), sum(np.abs(v) for v in terms)


def assert_same_survivors(proj, lo, hi, width):
    tight = R._chunk_footprints(proj, lo, hi, width)
    ref = rect_footprints(proj, lo, hi, width)
    gi, pix, log_alpha = tight
    assert (gi.dtype, pix.dtype, log_alpha.dtype) == (np.intp, np.intp, np.float64)
    px, py = pix % width, pix // width
    rect = proj.rect[gi]
    assert np.all((rect[:, 0] <= px) & (px <= rect[:, 1])
                  & (rect[:, 2] <= py) & (py <= rect[:, 3]))
    # the row form is ln alpha_base less half the Mahalanobis distance
    quad, scale = quadratic_form(proj, gi, pix, width)
    log_ab = np.log(proj.alpha_base[gi])
    assert np.all(np.abs(log_alpha - (log_ab - 0.5 * quad))
                  <= 1e-9 * scale + 1e-12 * (1.0 + np.abs(log_ab)))
    keep_t = log_alpha >= proj.log_alpha_min
    keep_r = ref[2] >= proj.log_alpha_min
    for t, r in zip(tight, ref):
        np.testing.assert_array_equal(t[keep_t], r[keep_r])
    return len(gi), len(ref[0])


class TestProjection:
    def test_axis_aligned_example(self):
        # camera-frame mean (0,0,2), fx = fy = 100, unit covariance
        scene = single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=0.0, scale=1.0)
        cam = CameraModel(fx=100.0, fy=100.0, cx=8.0, cy=8.0, width=16, height=16)
        proj = _project(scene, cam)
        np.testing.assert_array_equal(proj.orig_idx, [0])
        np.testing.assert_allclose(proj.mean2d[0], [8.0, 8.0])
        np.testing.assert_allclose(proj.jac[0], [[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        np.testing.assert_allclose(proj.rs[0] @ proj.rs[0].T, np.eye(3))
        np.testing.assert_allclose(proj.cov2d[0], np.diag([2500.0 + COV2D_DILATION] * 2))
        assert proj.depth[0] == 2.0

    def test_optical_axis_hits_principal_point(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, 3.7), logit=0.0, scale=0.1)
        cam = CameraModel(fx=55.0, fy=44.0, cx=3.25, cy=9.5, width=16, height=16)
        np.testing.assert_allclose(_project(scene, cam).mean2d, [[3.25, 9.5]])

    def test_cov2d_is_a_sigma_a_transposed(self, rng):
        # random rotations and scales spread over three orders of magnitude
        n = 64
        means = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(2.0, 6.0, n)])
        scene = GaussianScene(means, rng.normal(size=(n, 4)),
                              rng.uniform(np.log(1e-3), np.log(1.0), (n, 3)),
                              np.zeros(n), np.ones(n))
        cam = CameraModel.looking_at(np.array([0.3, -0.2, -0.5]), np.array([0.0, 0.0, 4.0]),
                                     np.array([0.0, -1.0, 0.0]), 60.0, 80.0, 7.5, 7.5, 16, 16)
        proj = _project(scene, cam)
        assert len(proj.orig_idx) > n // 2
        cov = proj.cov2d
        np.testing.assert_array_equal(cov, np.swapaxes(cov, 1, 2))
        A = proj.jac_r
        sigma = np.einsum("mik,mjk->mij", proj.rs, proj.rs)
        want = np.einsum("mij,mjk,mlk->mil", A, sigma, A) + COV2D_DILATION * np.eye(2)
        # each entry within rounding of its sum of |terms|
        bound = np.einsum("mij,mjk,mlk->mil", np.abs(A), np.abs(sigma), np.abs(A))
        assert np.all(np.abs(cov - want) <= 1e-14 * bound + 1e-15)

    def test_behind_camera_culled(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, -1.0), logit=0.0, scale=1.0)
        assert len(_project(scene, small_camera()).orig_idx) == 0


class TestRenderForward:
    @PROPERTY
    @given(floats(0.0, 1.0), st.integers(1, 48), st.integers(1, 48), st.booleans())
    def test_empty_scene_pure_background(self, background, w, h, behind):
        cam = CameraModel(fx=30.0, fy=30.0, cx=w / 2, cy=h / 2, width=w, height=h)
        scene = empty_scene(background)
        if behind:  # a Gaussian behind the camera is culled
            scene = single_gaussian_scene(mean=(0.0, 0.0, -2.0), background=background)
        out = render(scene, cam, keep_tape=True)
        np.testing.assert_array_equal(out.image, np.full((h, w), background))
        np.testing.assert_array_equal(out.final_transmittance, np.ones((h, w)))
        assert len(out.tape.pix) == 0

    def test_single_opaque_gaussian_center_value(self):
        scene = single_gaussian_scene(intensity=0.8)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        out = render(scene, cam)
        # alpha clamps at 0.999: center pixel = 0.999 * 0.8
        assert out.image[8, 8] == pytest.approx(0.8, abs=2e-3)

    def test_two_coincident_gaussians(self):
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 2.5]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 0.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        out = render(scene, cam)
        assert out.image[8, 8] == pytest.approx(0.5, abs=1e-6)

    def test_matches_reference_compositor(self, rng):
        scenes = [random_scene(r, int(r.integers(3, 24)))
                  for r in map(np.random.default_rng, range(8))]
        scenes.append(multi_chunk_scene(rng))
        cam = small_camera()
        for scene in scenes:
            fast = render(scene, cam).image
            slow = reference_render(scene, cam)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

        # the last scene terminates pixels inside its first chunk, so its
        # second chunk goes through the per-pair termination filter
        tape = render(scene, cam, keep_tape=True).tape
        assert len(tape.chunk_offsets) - 1 >= 2
        assert not tape.live[:tape.chunk_offsets[1]].all()
        upstream = rng.normal(size=(16, 16))
        buf = render_backward(scene, cam, upstream, tape)

        # the adjoint of a first-chunk Gaussian reads every later chunk's
        # contributions; a later-chunk Gaussian's goes through the filter
        def largest(sl):
            ids = tape.proj.orig_idx[np.unique(tape.gi[sl])]
            return ids[np.argsort(-np.abs(buf.d_intensities[ids]))[:3]]

        split = tape.chunk_offsets[1]
        picks = np.concatenate([largest(slice(0, split)), largest(slice(split, None))])

        def loss():
            return float(np.sum(upstream * render(scene, cam).image))

        for arr, grad, h in ((scene.intensities, buf.d_intensities, 1e-4),
                             (scene.opacity_logits, buf.d_opacity_logits, 1e-5),
                             (scene.means, buf.d_means, 1e-5),
                             (scene.log_scales, buf.d_log_scales, 1e-5)):
            for k in picks:
                for j in np.ndindex(arr.shape[1:]):
                    orig = arr[(k, *j)]
                    arr[(k, *j)] = orig + h
                    lp = loss()
                    arr[(k, *j)] = orig - h
                    lm = loss()
                    arr[(k, *j)] = orig
                    assert grad[(k, *j)] == pytest.approx((lp - lm) / (2 * h),
                                                          rel=1e-5, abs=1e-9)

    def test_any_pair_budget_matches_reference(self):
        # one Gaussian per chunk, the default budget, and a single chunk
        cam = small_camera()
        for scene in (random_scene(np.random.default_rng(20), 16),
                      multi_chunk_scene(np.random.default_rng(21))):
            slow = reference_render(scene, cam)
            chunks = []
            for budget in (1, CHUNK_PAIRS, np.inf):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(R, "CHUNK_PAIRS", budget)
                    out = render(scene, cam, keep_tape=True)
                np.testing.assert_allclose(out.image, slow, atol=1e-12)
                chunks.append(len(out.tape.chunk_offsets) - 1)
            assert chunks[0] >= chunks[1] >= chunks[2] == 1
        assert chunks[1] >= 2

    def test_chunks_fill_the_pair_budget_in_depth_order(self):
        proj = _project(multi_chunk_scene(np.random.default_rng(4)), small_camera())
        cov = proj.cov2d
        estimate = np.pi * proj.q_cut * np.sqrt(cov[:, 0, 0] * cov[:, 1, 1]
                                                - cov[:, 0, 1] ** 2)
        bounds = list(R._chunk_bounds(proj))
        assert len(bounds) >= 2
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == len(proj.orig_idx)
        for lo, hi in bounds:
            assert hi - lo == 1 or estimate[lo:hi].sum() <= CHUNK_PAIRS
        for lo, hi in bounds[:-1]:
            assert estimate[lo:hi + 1].sum() > CHUNK_PAIRS

    def test_matches_reference_past_16_bit_pixel_ids(self):
        # 257x256 pixels take the 32-bit sort key; pixel k of the top row and
        # pixel 65536 + k of the bottom row share a 16-bit key.  Two Gaussians
        # at the top and two at the bottom, alternating in depth, leave each
        # pixel's pairs split apart in the sort if those keys collided.
        w, h, f, z = 257, 256, 200.0, 3.0
        gs = [Gaussian3D(np.array([0.0, (v - 127.5) * (z + dz) / f, z + dz]),
                         np.array([1.0, 0, 0, 0]), np.log([0.12] * 3), 1.0, c)
              for v, dz, c in ((5.0, 0.0, 0.9), (250.0, 0.2, 0.3),
                               (8.0, 0.4, 0.6), (247.0, 0.6, 0.7))]
        scene = GaussianScene.from_gaussians(gs, background=0.2)
        cam = CameraModel(fx=f, fy=f, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
        out = render(scene, cam, keep_tape=True)
        assert out.tape.pix.min() < 65536 <= out.tape.pix.max()
        np.testing.assert_allclose(out.image, reference_render(scene, cam), atol=1e-12)

    @PROPERTY
    @given(scenes_and_cameras(max_n=30))
    def test_compositing_identity(self, view):
        # image == blended contributions + background * final transmittance
        scene, cam = view
        out = render(scene, cam, keep_tape=True)
        tape = out.tape
        assert (tape.pix.dtype, tape.gi.dtype) == (np.int32, np.int32)
        # the tape keeps each pair's offset from its Gaussian's mean
        mean = tape.proj.mean2d[tape.gi]
        np.testing.assert_array_equal(tape.dx, tape.pix % cam.width - mean[:, 0])
        np.testing.assert_array_equal(tape.dy, tape.pix // cam.width - mean[:, 1])
        weights = np.where(tape.live, tape.alpha * tape.t_before, 0.0)
        colors = scene.intensities[tape.proj.orig_idx][tape.gi]
        contributions = np.bincount(tape.pix, weights=weights * colors,
                                    minlength=cam.width * cam.height)
        np.testing.assert_allclose(
            out.image.ravel(), contributions + scene.background * tape.t_final,
            rtol=0, atol=1e-12)

    @PROPERTY
    @given(scenes_and_cameras(max_n=30))
    def test_taped_render_matches_untaped(self, view):
        assert_taped_matches_untaped(*view)

    @pytest.mark.parametrize("alpha_min", [ALPHA_MIN, TRAIN_ALPHA_MIN])
    def test_taped_render_matches_untaped_past_termination(self, alpha_min):
        for seed in range(3):
            scene = multi_chunk_scene(np.random.default_rng(seed))
            out = assert_taped_matches_untaped(scene, small_camera(), alpha_min)
            assert not out.tape.live.all()

    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_transmittance_never_increases_across_chunks(self, seed, back):
        scene = multi_chunk_scene(np.random.default_rng(seed), back=back)
        tape = render(scene, small_camera(), keep_tape=True).tape
        assert len(tape.chunk_offsets) - 1 >= 2
        t = np.ones(16 * 16)
        for lo, hi in zip(tape.chunk_offsets[:-1], tape.chunk_offsets[1:]):
            pix, alpha, live = tape.pix[lo:hi], tape.alpha[lo:hi], tape.live[lo:hi]
            assert np.all(tape.t_before[lo:hi] <= t[pix])
            step = np.exp(np.bincount(pix, weights=np.where(live, np.log1p(-alpha), 0.0),
                                      minlength=t.size))
            assert np.all(step <= 1.0)
            t = t * step
        np.testing.assert_allclose(t, tape.t_final, rtol=1e-12, atol=0)

    def test_energy_bound(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed + 100)
            scene = random_scene(r, 20)
            out = render(scene, small_camera())
            hi = max(scene.background, scene.intensities.max())
            assert out.image.min() >= 0.0
            assert out.image.max() <= hi + 1e-12

    def test_rotation_invariance(self, rng):
        scene = random_scene(rng, 10)
        cam = small_camera()
        axis = quat_normalize(np.array([0.9, 0.2, -0.3, 0.4]))
        Q = quat_to_rot(axis)
        rotated = GaussianScene(
            scene.means @ Q.T,
            np.array([rot_to_quat(Q @ quat_to_rot(q)) for q in scene.quats]),
            scene.log_scales, scene.opacity_logits, scene.intensities,
            scene.background)
        cam_rot = cam.with_pose(cam.R @ Q.T, cam.t)
        a = render(scene, cam).image
        b = render(rotated, cam_rot).image
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_bit_reproducible(self, rng):
        scene = random_scene(rng, 15)
        cam = small_camera()
        a = render(scene, cam).image
        b = render(scene, cam).image
        np.testing.assert_array_equal(a, b)

    def test_depth_tiebreak_by_index(self):
        # two coincident gaussians at identical depth: stable order blends 0 first
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 0.0, 0.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        assert render(scene, cam).image[8, 8] == pytest.approx(0.5, abs=1e-6)


def assert_taped_matches_untaped(scene, cam, alpha_min=ALPHA_MIN):
    """Image, final transmittance and depth of a taped render equal the
    untaped render's bit for bit; returns the taped output."""
    taped = render(scene, cam, keep_tape=True, compute_depth=True, alpha_min=alpha_min)
    plain = render(scene, cam, compute_depth=True, alpha_min=alpha_min)
    for name in ("image", "final_transmittance", "depth"):
        np.testing.assert_array_equal(getattr(taped, name), getattr(plain, name))
    return taped


class TestRenderDepth:
    def test_empty_scene_sentinel(self):
        depth = render(empty_scene(background=0.7), small_camera(),
                       compute_depth=True).depth
        np.testing.assert_array_equal(depth, np.zeros((16, 16)))

    def test_single_opaque_gaussian_depth(self):
        scene = single_gaussian_scene(mean=(0.0, 0.0, 2.0), logit=12.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        depth = render(scene, cam, compute_depth=True).depth
        assert depth[8, 8] == pytest.approx(2.0, abs=5e-3)

    def test_front_depth_dominates(self):
        gs = [Gaussian3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.05] * 3), 12.0, 1.0),
              Gaussian3D(np.array([0.0, 0.0, 4.0]), np.array([1.0, 0, 0, 0]),
                         np.log([0.1] * 3), 12.0, 1.0)]
        scene = GaussianScene.from_gaussians(gs, background=0.0)
        cam = CameraModel(fx=40.0, fy=40.0, cx=8.0, cy=8.0, width=16, height=16)
        depth = render(scene, cam, compute_depth=True).depth
        assert depth[8, 8] == pytest.approx(2.0, abs=1e-2)


class TestTightFootprints:
    @PROPERTY
    @given(scenes_and_cameras(), st.integers(0, 7))
    def test_every_pixel_within_cutoff_is_built(self, view, lo):
        scene, cam = view
        proj = _project(scene, cam)
        m = len(proj.orig_idx)
        if m:
            assert_same_survivors(proj, min(lo, m - 1), m, cam.width)

    @PROPERTY
    @given(GAUSSIAN, st.sampled_from(["top", "bottom", "left", "right"]),
           st.integers(0, 23), st.integers(0, 23), floats(3.0, 400.0))
    def test_tangent_point_on_a_pixel_centre(self, g, side, tx, ty, f):
        # the rows and the x-interval are tightest where the ellipse touches
        # a pixel centre; the margin must keep that pixel
        scene = GaussianScene.from_gaussians([Gaussian3D(*(np.array(v) for v in g))])
        cam = CameraModel(fx=f, fy=f, cx=12.0, cy=12.0, width=24, height=24)
        proj = _project(scene, cam)
        if not len(proj.orig_idx):
            return
        (a, b), (_, c) = proj.cov2d[0]
        ry, rx = np.sqrt(proj.q_cut[0] * c), np.sqrt(proj.q_cut[0] * a)
        proj.mean2d[0] = {"top": (tx + b / c * ry, ty + ry),
                          "bottom": (tx - b / c * ry, ty - ry),
                          "left": (tx + rx, ty + b / a * rx),
                          "right": (tx - rx, ty - b / a * rx)}[side]
        proj.rect[0] = (0, 23, 0, 23)
        assert_same_survivors(proj, 0, 1, cam.width)

    def test_fewer_pairs_than_the_rectangle(self):
        scene = multi_chunk_scene(np.random.default_rng(3))
        proj = _project(scene, small_camera())
        built, rect = assert_same_survivors(proj, 0, len(proj.orig_idx), 16)
        assert built < rect

    @PROPERTY
    @given(scenes_and_cameras(max_n=30))
    def test_render_matches_rectangle_expansion(self, view):
        scene, cam = view
        self._assert_bit_identical(scene, cam)

    def test_multi_chunk_render_matches_rectangle_expansion(self):
        for seed in range(3):
            self._assert_bit_identical(multi_chunk_scene(np.random.default_rng(seed)),
                                       small_camera())

    @staticmethod
    def _assert_bit_identical(scene, cam):
        upstream = np.random.default_rng(0).normal(size=(cam.height, cam.width))
        runs = []
        for footprints in (R._chunk_footprints, rect_footprints):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(R, "_chunk_footprints", footprints)
                out = render(scene, cam, keep_tape=True)
            buf = render_backward(scene, cam, upstream, out.tape)
            runs.append(render_arrays(out) + [getattr(buf, f) for f in vars(buf)])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestAlphaCutoff:
    CUTOFFS = st.one_of(st.just(TRAIN_ALPHA_MIN), floats(-11.9, -0.3).map(lambda e: 10.0 ** e))

    @PROPERTY
    @given(scenes_and_cameras(max_n=30))
    def test_explicit_default_is_the_default(self, view):
        scene, cam = view
        default = render(scene, cam, keep_tape=True)
        explicit = render(scene, cam, keep_tape=True, alpha_min=ALPHA_MIN)
        for got, want in zip(render_arrays(explicit), render_arrays(default)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @PROPERTY
    @given(scenes_and_cameras(max_n=30), CUTOFFS)
    def test_truncated_render_stays_within_its_bound(self, view, alpha_min):
        assert_within_truncation_bound(*view, alpha_min)

    @pytest.mark.parametrize("alpha_min", [1e-6, TRAIN_ALPHA_MIN])
    def test_terminated_pixels_stay_within_the_bound(self, alpha_min):
        for seed in range(3):
            scene = multi_chunk_scene(np.random.default_rng(seed))
            terminated = assert_within_truncation_bound(scene, small_camera(), alpha_min)
            assert terminated.any()


def assert_within_truncation_bound(scene, cam, alpha_min):
    """Check a render at alpha_min against the exact one; returns the mask of
    pixels where the exact render terminated."""
    exact = render(scene, cam, keep_tape=True)
    cut = render(scene, cam, keep_tape=True, alpha_min=alpha_min)
    # the exp that gives alpha rounds by a few ulps at the cutoff itself
    assert np.all(cut.tape.alpha >= alpha_min * (1.0 - 1e-12))
    # Removing one layer of alpha a, under transmittance T <= 1, changes a
    # pixel by a T (c - R), with its colour c and the composite R behind it
    # both in [0, top]; so the pairs of the exact tape below alpha_min move a
    # pixel by at most their count * alpha_min * top.  Where the exact pixel
    # terminated, each render also differs from its unterminated composite by
    # under TERMINATE_TRANSMITTANCE * top, and layers behind the termination
    # may count too, so every projected Gaussian counts.
    top = max(float(scene.intensities.max()), float(scene.background))
    dropped = np.bincount(exact.tape.pix[exact.tape.alpha < alpha_min * (1.0 + 1e-9)],
                          minlength=cam.width * cam.height)
    terminated = exact.tape.t_final < TERMINATE_TRANSMITTANCE * (1.0 + 1e-9)
    layers = np.where(terminated, len(exact.tape.proj.orig_idx), dropped)
    bound = top * (layers * alpha_min
                   + np.where(terminated, 2 * TERMINATE_TRANSMITTANCE, 0.0))
    diff = np.abs(cut.image - exact.image).ravel()
    assert np.all(diff <= bound + 1e-12)
    return terminated


# Fresh process: render a 64x64 view of 240 random-box Gaussians (the toy
# random init) once untaped and once taped to warm the heap, then count the
# minor page faults of one more render of each, the previous output dropped.
HEAP_PROBE = """
import ctypes, json, resource
import numpy as np
from evsplat.camera import CameraModel
from evsplat.dataset import init_point_cloud
from evsplat.render import M_MMAP_THRESHOLD, render

scene = init_point_cloud("random", n=240, bbox=[[-1.2] * 3, [1.2] * 3],
                         rng=np.random.default_rng(0), background=0.4)
cam = CameraModel.looking_at(np.array([0.0, -4.0, 1.2]), np.zeros(3),
                             np.array([0.0, 0.0, 1.0]), 120.0, 120.0, 31.5, 31.5, 64, 64)
result = {}
for keep in (False, True):
    out = render(scene, cam, keep_tape=keep)
    if keep:
        result["pairs"] = len(out.tape.pix)
    out = None
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = render(scene, cam, keep_tape=keep)
    result["taped" if keep else "untaped"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    out = None
mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
# the same value again, so only the return value is new
result["mallopt"] = mallopt is not None and mallopt(M_MMAP_THRESHOLD, 32 << 20) != 0
print(json.dumps(result))
"""


def test_repeat_renders_reuse_the_heap():
    src = os.path.dirname(os.path.dirname(evsplat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    if not result["mallopt"]:
        pytest.skip("the C library has no working mallopt")
    assert result["pairs"] >= 250_000
    # without the heap options these read about 9.9k and 11.7k
    assert result["untaped"] < 200
    assert result["taped"] < 200


def test_render_module_is_not_shadowed():
    import evsplat.render as R
    assert isinstance(R, types.ModuleType)
