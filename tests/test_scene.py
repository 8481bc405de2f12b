import numpy as np
import pytest

from conftest import empty_scene

from evsplat.camera import CameraModel
from evsplat.quat import quat_normalize, quat_slerp, quat_to_rot, rot_to_quat
from evsplat.render import _project
from evsplat.scene import PARAMS, Gaussian3D, GaussianScene, load_scene, save_scene


def world_covariance(quats, log_scales):
    """World covariances as the renderer builds them, in scene order."""
    q, ls = np.atleast_2d(quats), np.atleast_2d(log_scales)
    n = len(q)
    scene = GaussianScene(np.tile([0.0, 0.0, 5.0], (n, 1)), q, ls, np.zeros(n), np.ones(n))
    proj = _project(scene, CameraModel(10.0, 10.0, 7.5, 7.5, 16, 16))
    assert len(proj.orig_idx) == n
    sigma = np.empty((n, 3, 3))
    sigma[proj.orig_idx] = np.einsum("mik,mjk->mij", proj.rs, proj.rs)
    return sigma if np.ndim(quats) > 1 else sigma[0]


class TestQuaternions:
    def test_identity(self):
        np.testing.assert_allclose(quat_to_rot(np.array([1.0, 0, 0, 0])), np.eye(3))

    def test_round_trip(self, rng):
        for _ in range(50):
            q = quat_normalize(rng.normal(size=4))
            if q[0] < 0:
                q = -q
            r = quat_to_rot(q)
            np.testing.assert_allclose(rot_to_quat(r), q, atol=1e-12)

    def test_slerp_midpoint_of_z_rotations(self):
        qa = np.array([1.0, 0.0, 0.0, 0.0])                      # 0 degrees
        qb = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])  # 90 about z
        mid = quat_to_rot(quat_slerp(qa, qb, 0.5))
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        expected = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        np.testing.assert_allclose(mid, expected, atol=1e-12)

    def test_slerp_endpoints(self, rng):
        qa = quat_normalize(rng.normal(size=4))
        qb = quat_normalize(rng.normal(size=4))
        np.testing.assert_allclose(quat_to_rot(quat_slerp(qa, qb, 0.0)),
                                   quat_to_rot(qa), atol=1e-12)
        np.testing.assert_allclose(quat_to_rot(quat_slerp(qa, qb, 1.0)),
                                   quat_to_rot(qb), atol=1e-12)


class TestCovariance:
    def test_identity_rotation_diag(self):
        sigma = world_covariance(np.array([1.0, 0, 0, 0]), np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sigma, np.diag([1.0, 4.0, 9.0]), atol=1e-12)

    def test_symmetric_exactly(self, rng):
        sigma = world_covariance(rng.normal(size=(16, 4)), rng.normal(size=(16, 3)))
        np.testing.assert_array_equal(sigma, np.swapaxes(sigma, 1, 2))

    def test_quarter_turn_about_z(self):
        # hand expansion: R_z(90) diag(1,4,1) R_z(90)^T = diag(4,1,1)
        q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        sigma = world_covariance(q, np.log([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(sigma, np.diag([4.0, 1.0, 1.0]), atol=1e-12)

    def test_eigenvalues_are_squared_scales(self, rng):
        ls = rng.uniform(-1, 0.5, size=3)
        sigma = world_covariance(quat_normalize(rng.normal(size=4)), ls)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(sigma)),
                                   np.sort(np.exp(2 * ls)), rtol=1e-10)


class TestCheckpoint:
    def _scene(self, rng, n=17):
        return GaussianScene(rng.normal(size=(n, 3)), rng.normal(size=(n, 4)),
                             rng.normal(size=(n, 3)), rng.normal(size=n),
                             rng.uniform(0, 1, size=n), background=0.25)

    def test_round_trip_at_f32_precision(self, rng, tmp_path):
        scene = self._scene(rng)
        path = str(tmp_path / "scene.egs")
        save_scene(path, scene)
        back = load_scene(path)
        np.testing.assert_array_equal(back.means, scene.means.astype(np.float32))
        np.testing.assert_array_equal(back.quats, scene.quats.astype(np.float32))
        np.testing.assert_array_equal(back.log_scales, scene.log_scales.astype(np.float32))
        np.testing.assert_array_equal(back.opacity_logits,
                                      scene.opacity_logits.astype(np.float32))
        np.testing.assert_array_equal(back.intensities,
                                      scene.intensities.astype(np.float32))
        assert back.background == np.float32(scene.background)

    def test_second_write_is_bytewise_fixpoint(self, rng, tmp_path):
        scene = self._scene(rng)
        p1, p2 = str(tmp_path / "a.egs"), str(tmp_path / "b.egs")
        save_scene(p1, scene)
        save_scene(p2, load_scene(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_layout(self, rng, tmp_path):
        scene = self._scene(rng, n=3)
        path = str(tmp_path / "scene.egs")
        save_scene(path, scene)
        blob = open(path, "rb").read()
        assert blob[:4] == b"EGS1"
        assert len(blob) == 4 + 8 + 3 * 14 * 4 + 4
        assert int.from_bytes(blob[4:12], "little") == 3

    def test_empty_scene(self, tmp_path):
        path = str(tmp_path / "empty.egs")
        save_scene(path, empty_scene(background=0.5))
        back = load_scene(path)
        assert len(back) == 0
        assert back.background == np.float32(0.5)
        for name, shape in (("means", (0, 3)), ("quats", (0, 4)), ("log_scales", (0, 3)),
                            ("opacity_logits", (0,)), ("intensities", (0,))):
            assert getattr(back, name).shape == shape
            assert getattr(back, name).dtype == np.float64

    @pytest.mark.parametrize("quat", [(0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, -0.0, 0.0),
                                      (np.nan, 0.0, 0.0, 1.0), (1.0, np.inf, 0.0, 0.0)])
    def test_degenerate_quaternion_rejected(self, rng, tmp_path, quat):
        scene = self._scene(rng, n=4)
        scene.quats[2] = quat
        path = str(tmp_path / "bad_quat.egs")
        save_scene(path, scene)
        with pytest.raises(ValueError, match="record 2: quaternion"):
            load_scene(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["means", "log_scales", "opacity_logits", "intensities"])
    def test_nonfinite_parameter_rejected(self, rng, tmp_path, name, value):
        scene = self._scene(rng, n=4)
        getattr(scene, name).reshape(4, -1)[2, -1] = value
        path = str(tmp_path / "bad_value.egs")
        save_scene(path, scene)
        with pytest.raises(ValueError, match=f"record 2: {name} .* is not finite"):
            load_scene(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.egs")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_scene(path)


class TestSceneContainer:
    def test_from_gaussians_accessor(self, rng):
        gs = [Gaussian3D(rng.normal(size=3), quat_normalize(rng.normal(size=4)),
                         rng.normal(size=3), float(rng.normal()), float(rng.uniform()))
              for _ in range(4)]
        scene = GaussianScene.from_gaussians(gs, background=0.3)
        assert len(scene) == 4
        np.testing.assert_array_equal(scene.means[2], gs[2].mean)
        assert scene.intensities[2] == gs[2].intensity

    def test_opacities_in_unit_interval(self, rng):
        scene = GaussianScene(rng.normal(size=(8, 3)), rng.normal(size=(8, 4)),
                              rng.normal(size=(8, 3)), rng.normal(size=8) * 5,
                              rng.uniform(size=8))
        assert np.all((scene.opacities > 0) & (scene.opacities < 1))

    def test_take_concat_copy(self, rng):
        scene = GaussianScene(rng.normal(size=(5, 3)), rng.normal(size=(5, 4)),
                              rng.normal(size=(5, 3)), rng.normal(size=5),
                              rng.uniform(size=5), background=0.3)
        picked = scene.take(np.array([4, 1, 1]))
        halves = GaussianScene.concat([scene.take(np.arange(5) < 2),
                                       scene.take(np.arange(5) >= 2)])
        copy = scene.copy()
        copy.means[0] = 9.0
        for name in PARAMS:
            arr = getattr(scene, name)
            np.testing.assert_array_equal(getattr(picked, name), arr[[4, 1, 1]])
            np.testing.assert_array_equal(getattr(halves, name), arr)
        assert picked.background == halves.background == 0.3
        assert scene.means[0, 0] != 9.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GaussianScene(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 3)),
                          np.zeros(2), np.zeros(2))
