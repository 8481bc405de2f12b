import numpy as np
import pytest

import evsplat
from evsplat.dataset import (FormatError, PointCloud, SyntheticSceneSpec,
                             generate_synthetic_scene, init_point_cloud, load_dataset,
                             read_events, read_manifest, read_ply_points, read_pnm,
                             serialize_manifest, write_dataset, write_events,
                             write_manifest, write_ply_points, write_pnm)
from evsplat.events import EventStream


def random_stream(rng, max_events=40, max_side=50):
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    n = int(rng.integers(0, max_events))
    t = np.sort(rng.integers(-1000, 100_000, size=n))
    return EventStream.create((w, h), rng.integers(0, w, n), rng.integers(0, h, n),
                              t, rng.choice([-1, 1], n).astype(np.int8))


class TestEventFormat:
    def test_round_trip(self, rng, tmp_path):
        path = str(tmp_path / "e.evt1")
        for seed in range(50):
            s = random_stream(np.random.default_rng(seed))
            write_events(path, s)
            back = read_events(path)
            assert back.resolution == s.resolution
            np.testing.assert_array_equal(back.t, s.t)
            np.testing.assert_array_equal(back.x, s.x)
            np.testing.assert_array_equal(back.y, s.y)
            np.testing.assert_array_equal(back.p, s.p)

    def test_empty_stream_is_16_byte_header(self, tmp_path):
        path = str(tmp_path / "empty.evt1")
        write_events(path, EventStream.empty((8, 4)))
        blob = open(path, "rb").read()
        assert len(blob) == 16
        assert blob[:4] == b"EVT1"

    def test_record_is_13_bytes(self, tmp_path):
        path = str(tmp_path / "one.evt1")
        write_events(path, EventStream.create((4, 4), [1], [2], [77], [1]))
        assert len(open(path, "rb").read()) == 16 + 13

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.evt1")
        with open(path, "wb") as f:
            f.write(b"XXXX" + bytes(12))
        with pytest.raises(FormatError):
            read_events(path)

    def test_zero_polarity_rejected_with_index(self, tmp_path):
        path = str(tmp_path / "p0.evt1")
        write_events(path, EventStream.create((4, 4), [0, 1, 2], [0, 0, 0],
                                              [1, 2, 3], [1, 1, 1]))
        blob = bytearray(open(path, "rb").read())
        blob[16 + 13 + 12] = 0   # polarity byte of record 1
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="record 1"):
            read_events(path)

    def test_unsorted_rejected(self, tmp_path):
        path = str(tmp_path / "uns.evt1")
        write_events(path, EventStream.create((4, 4), [0, 1], [0, 0], [5, 9], [1, 1]))
        blob = bytearray(open(path, "rb").read())
        blob[16:24] = (99).to_bytes(8, "little")   # first timestamp now 99 > 9
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="unsorted"):
            read_events(path)

    def test_out_of_bounds_rejected(self, tmp_path):
        path = str(tmp_path / "oob.evt1")
        write_events(path, EventStream.create((4, 4), [0], [0], [5], [1]))
        blob = bytearray(open(path, "rb").read())
        blob[24:26] = (7).to_bytes(2, "little")    # x = 7 >= width 4
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="out-of-bounds"):
            read_events(path)

    def test_csv_read(self, tmp_path):
        path = str(tmp_path / "e.csv")
        with open(path, "w") as f:
            f.write("t,x,y,p\n10,1,2,1\n20,3,0,-1\n")
        s = read_events(path)
        assert len(s) == 2
        assert (s.x[1], s.y[1], s.t[1], s.p[1]) == (3, 0, 20, -1)

    def test_csv_bad_polarity(self, tmp_path):
        path = str(tmp_path / "e.csv")
        with open(path, "w") as f:
            f.write("10,1,2,0\n")
        with pytest.raises(FormatError):
            read_events(path)


class TestPnm:
    def test_round_trip_quantized(self, rng, tmp_path):
        img = rng.uniform(size=(13, 9))
        path = str(tmp_path / "img.pnm")
        write_pnm(path, img)
        back = read_pnm(path)
        assert back.shape == img.shape
        np.testing.assert_allclose(back, img, atol=0.5 / 65535)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "img.pnm")
        write_pnm(path, np.zeros((3, 5)))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P5\n5 3\n65535\n")
        assert len(blob) == len(b"P5\n5 3\n65535\n") + 3 * 5 * 2

    def test_big_endian_samples(self, tmp_path):
        path = str(tmp_path / "one.pnm")
        write_pnm(path, np.array([[1.0]]))
        assert open(path, "rb").read()[-2:] == b"\xff\xff"


class TestPly:
    def test_three_point_round_trip(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 1.5, -2.0], [3.25, 4.0, 5.0], [6, 7, 8]]))
        path = str(tmp_path / "c.ply")
        write_ply_points(path, cloud)
        back = read_ply_points(path)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_extra_properties_skipped(self, tmp_path):
        path = str(tmp_path / "c.ply")
        with open(path, "w") as f:
            f.write("ply\nformat ascii 1.0\nelement vertex 2\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                    "end_header\n1 2 3 255 0 0\n4 5 6 0 255 0\n")
        cloud = read_ply_points(path)
        np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_short_body_rejected(self, tmp_path):
        path = str(tmp_path / "c.ply")
        with open(path, "w") as f:
            f.write("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n1 2 3\n4 5 6\n")
        with pytest.raises(FormatError):
            read_ply_points(path)

    def test_binary_rejected(self, tmp_path):
        path = str(tmp_path / "c.ply")
        with open(path, "w") as f:
            f.write("ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
                    "property float x\nproperty float y\nproperty float z\nend_header\n")
        with pytest.raises(FormatError):
            read_ply_points(path)

    def test_missing_coordinate_rejected(self, tmp_path):
        path = str(tmp_path / "c.ply")
        with open(path, "w") as f:
            f.write("ply\nformat ascii 1.0\nelement vertex 1\n"
                    "property float x\nproperty float y\nend_header\n1 2\n")
        with pytest.raises(FormatError):
            read_ply_points(path)

    def test_no_vertices_read_as_an_empty_cloud(self, tmp_path):
        path = str(tmp_path / "c.ply")
        write_ply_points(path, PointCloud(np.zeros((0, 3))))
        assert read_ply_points(path).points.shape == (0, 3)
        with pytest.raises(ValueError, match="non-empty cloud"):
            init_point_cloud("ply", cloud=read_ply_points(path))

    def test_short_vertex_row_names_its_line(self, tmp_path):
        path = str(tmp_path / "c.ply")
        with open(path, "w") as f:
            f.write("ply\nformat ascii 1.0\nelement vertex 2\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n1 2 3\n4 5\n")
        with pytest.raises(FormatError, match="line 9 has 2 values for 3 properties"):
            read_ply_points(path)


class TestManifest:
    def turntable_manifest(self, tmp_path):
        spec = SyntheticSceneSpec(resolution=(16, 16), frames=4, stops=4,
                                  init_points=9, levels=20)
        ds = generate_synthetic_scene(spec)
        write_dataset(str(tmp_path), ds)
        return str(tmp_path / "manifest.json")

    def test_turntable_periodicity(self, tmp_path):
        from evsplat.camera import pose_at_time
        m = read_manifest(self.turntable_manifest(tmp_path))
        a = pose_at_time(m.trajectory, 0.0)
        b = pose_at_time(m.trajectory, m.trajectory.span)
        np.testing.assert_allclose(a.R, b.R, atol=1e-9)
        np.testing.assert_allclose(a.t, b.t, atol=1e-9)

    def test_serialize_parse_fixpoint(self, tmp_path):
        path = self.turntable_manifest(tmp_path)
        m1 = read_manifest(path)
        s1 = serialize_manifest(m1)
        import json
        from evsplat.dataset import parse_manifest
        s2 = serialize_manifest(parse_manifest(json.loads(s1)))
        assert s1 == s2

    def test_keyframe_round_trip(self, tmp_path):
        from evsplat.camera import CameraModel, KeyframeTrajectory
        from evsplat.dataset import SceneManifest
        c, s = np.cos(0.3), np.sin(0.3)
        r1 = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        traj = KeyframeTrajectory(
            CameraModel(50, 50, 7.5, 7.5, 16, 16),
            np.array([0.0, 1.0]), np.stack([np.eye(3), r1]),
            np.array([[0, 0, 0], [1.0, 0, 0]]))
        m = SceneManifest((16, 16), (50, 50, 7.5, 7.5), traj, pose_times=[0.0, 1.0])
        path = str(tmp_path / "kf.json")
        write_manifest(path, m)
        back = read_manifest(path)
        np.testing.assert_allclose(back.trajectory.rotations[1], r1, atol=1e-12)

    def test_reflection_rejected(self, tmp_path):
        doc = {
            "resolution": [8, 8],
            "intrinsics": {"fx": 10, "fy": 10, "cx": 3.5, "cy": 3.5},
            "trajectory": {"kind": "keyframes", "keyframes": [
                {"t": 0.0,
                 "world_to_camera": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1]},
            ]},
        }
        import json
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatError, match="reflection"):
            read_manifest(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["split"]["novel"].append(999), "split novel[2]: pose id 999"),
        (lambda d: d["split"]["given"].__setitem__(0, 1.0), "split given[0]: pose id 1.0"),
        (lambda d: d["split"]["given"].__setitem__(1, True), "split given[1]: pose id True"),
        (lambda d: d["exposure_frames"][1].__setitem__("pose_id", -1),
         "exposure_frames[1]: pose id -1"),
        (lambda d: d["gt_frames"][3].__setitem__("pose_id", "3"), "gt_frames[3]: pose id '3'"),
        (lambda d: d["gt_frames"][0].pop("pose_id"), "gt_frames[0]: pose id None"),
        (lambda d: d.__setitem__("exposure_frames", [2]), "exposure_frames[0] must be an object"),
        (lambda d: d.__setitem__("split", [0, 1]), "split must be an object"),
        (lambda d: d["split"].__setitem__("novel", 2), "split novel must be a list"),
    ])
    def test_bad_pose_reference_rejected(self, tmp_path, edit, named):
        import json
        from evsplat.dataset import parse_manifest
        doc = json.load(open(self.turntable_manifest(tmp_path)))
        edit(doc)
        with pytest.raises(FormatError) as exc:
            parse_manifest(doc)
        assert named in str(exc.value)

    def test_missing_split_lists_read_empty(self, tmp_path):
        import json
        from evsplat.dataset import parse_manifest
        doc = json.load(open(self.turntable_manifest(tmp_path)))
        del doc["split"]["novel"]
        assert parse_manifest(doc).split == {"given": [1, 3], "novel": []}
        del doc["split"]
        assert parse_manifest(doc).split == {"given": [], "novel": []}

    def test_missing_key_rejected(self, tmp_path):
        import json
        path = str(tmp_path / "missing.json")
        with open(path, "w") as f:
            json.dump({"resolution": [8, 8]}, f)
        with pytest.raises(FormatError, match="missing key"):
            read_manifest(path)


class TestInitPointCloud:
    def test_random_inside_bbox(self, rng):
        scene = init_point_cloud("random", n=1000,
                                 bbox=[[-1, -2, 0], [1, 0, 3]], rng=rng)
        assert len(scene) == 1000
        assert np.all(scene.means >= [-1, -2, 0])
        assert np.all(scene.means <= [1, 0, 3])

    def test_ply_means_exact(self, rng):
        cloud = PointCloud(rng.normal(size=(20, 3)))
        scene = init_point_cloud("ply", cloud=cloud)
        np.testing.assert_array_equal(scene.means, cloud.points)

    def test_seeded_identical(self):
        a = init_point_cloud("random", n=50, bbox=[[-1] * 3, [1] * 3],
                             rng=np.random.default_rng(4))
        b = init_point_cloud("random", n=50, bbox=[[-1] * 3, [1] * 3],
                             rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a.means, b.means)

    def test_random_needs_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            init_point_cloud("random", n=5, bbox=[[-1] * 3, [1] * 3])

    def test_initial_opacity_and_intensity(self, rng):
        scene = init_point_cloud("random", n=10, bbox=[[-1] * 3, [1] * 3], rng=rng)
        np.testing.assert_allclose(scene.opacities, 0.1, atol=1e-12)
        np.testing.assert_allclose(scene.intensities, 0.5)

    def test_scale_is_nearest_neighbor_distance(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]]))
        scene = init_point_cloud("ply", cloud=cloud)
        np.testing.assert_allclose(np.exp(scene.log_scales[:, 0]), [1.0, 1.0, 4.0])


class TestSyntheticGeneration:
    def test_default_spec_shape(self):
        spec = SyntheticSceneSpec()
        assert spec.stops == 200 and spec.resolution == (64, 64) and spec.frames == 60

    def test_small_scene_contract(self):
        spec = SyntheticSceneSpec(resolution=(24, 24), frames=8, stops=6,
                                  init_points=12, levels=30)
        ds = generate_synthetic_scene(spec)
        assert len(ds.events) > 0
        assert len(ds.exposure_frames) == 6
        assert sorted(ds.split_given + ds.split_novel) == list(range(6))
        # IPE monotone in brightness: mapped frame tracks normalized gt
        for k in (0, 3):
            ref = ds.gt_frames[k] / ds.gt_frames[k].max()
            assert np.abs(ds.exposure_frames[k].image - ref).max() < 0.01

    def test_static_spec_empty_stream(self):
        spec = SyntheticSceneSpec(resolution=(24, 24), frames=4, stops=2,
                                  turns=0.0, init_points=6, levels=20)
        ds = generate_synthetic_scene(spec)
        assert len(ds.events) == 0

    def test_same_seed_identical(self):
        spec = SyntheticSceneSpec(resolution=(16, 16), frames=4, stops=3,
                                  init_points=9, levels=20, seed=3)
        a = generate_synthetic_scene(spec)
        b = generate_synthetic_scene(spec)
        np.testing.assert_array_equal(a.events.t, b.events.t)
        np.testing.assert_array_equal(a.gt_frames, b.gt_frames)
        np.testing.assert_array_equal(a.init_cloud.points, b.init_cloud.points)

    def test_write_load_round_trip(self, tmp_path):
        spec = SyntheticSceneSpec(resolution=(16, 16), frames=4, stops=4,
                                  init_points=9, levels=20)
        ds = generate_synthetic_scene(spec)
        write_dataset(str(tmp_path), ds)
        loaded = load_dataset(str(tmp_path))
        assert len(loaded.events) == len(ds.events)
        assert len(loaded.exposure_frames) == 4
        assert loaded.gt_frames[0].shape == (16, 16)
        np.testing.assert_allclose(loaded.exposure_frames[1].image,
                                   ds.exposure_frames[1].image, atol=1e-4)
        assert loaded.init_cloud is not None

    def test_empty_exposure_mask_rejected_at_load(self, tmp_path):
        # on a black background the dim Gaussian tails never fire, so masks are written
        spec = SyntheticSceneSpec(resolution=(16, 16), frames=4, stops=4,
                                  init_points=9, levels=20, background=0.0)
        write_dataset(str(tmp_path), generate_synthetic_scene(spec))
        masks = [e["mask"] for e in load_dataset(str(tmp_path)).manifest.exposure_frames
                 if e["mask"]]
        assert masks
        write_pnm(str(tmp_path / masks[-1]), np.zeros((16, 16)))
        with pytest.raises(FormatError, match=masks[-1]):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("kind", ["exposure", "mask", "gt", "events"])
    def test_wrong_size_rejected_at_load(self, tmp_path, kind):
        spec = SyntheticSceneSpec(resolution=(16, 16), frames=4, stops=4,
                                  init_points=9, levels=20, background=0.0)
        write_dataset(str(tmp_path), generate_synthetic_scene(spec))
        manifest = read_manifest(str(tmp_path / "manifest.json"))
        name = {"exposure": manifest.exposure_frames[2]["image"],
                "mask": [e["mask"] for e in manifest.exposure_frames if e["mask"]][-1],
                "gt": manifest.gt_frames[2]["image"],
                "events": manifest.event_file}[kind]
        if kind == "events":
            write_events(str(tmp_path / name), EventStream.empty((8, 8)))
        else:
            write_pnm(str(tmp_path / name), np.ones((8, 8)))
        with pytest.raises(FormatError, match=f"'{name}' is 8x8, but the manifest's "
                                              "resolution is 16x16"):
            load_dataset(str(tmp_path))
