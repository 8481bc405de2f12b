import json
import os

import numpy as np
import pytest

from evsplat.cli import Command, main, parse_args, run
from evsplat.dataset import read_events, read_pnm, write_events, write_pnm
from evsplat.events import EventStream


TRAIN_FAST = ["train", "--data", "d", "--mode", "fast"]


def parse(argv):
    return parse_args(argv)


class TestParseArgs:
    def test_train_fast_mode(self, tmp_path):
        cmd = parse(["train", "--data", "d", "--mode", "fast", "--out", str(tmp_path)])
        assert cmd.subcommand == "train"
        assert cmd.config.mode == "fast"
        assert cmd.config.seed == 0

    def test_mode_defaults_follow_schedules(self):
        from evsplat.training import MODE_ITERATIONS, MODE_LAMBDA, MODE_LR, TrainConfig
        for mode, lam, iters, lr in (("fast", 1.0, 10_000, 1.6e-5),
                                     ("hq", 0.0, 30_000, 1.6e-4),
                                     ("hybrid", 0.5, 30_000, 1.6e-4)):
            cfg = TrainConfig(mode=mode)
            assert cfg.lambda_weight == lam
            assert cfg.iterations == iters
            assert cfg.lr_initial == lr
            assert cfg.warmup_iters == 500

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["--help"])
        assert exc.value.code == 0
        assert "evsplat" in capsys.readouterr().out

    def test_invalid_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["train", "--data", "d", "--mode", "warp", "--out", "o"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, doc, named", [
        (TRAIN_FAST, {"bogus_key": 1}, "bogus_key"),
        (TRAIN_FAST + ["--set", "densify.bogus=1"], {}, "densify.bogus"),
        (TRAIN_FAST + ["--set", "init.bogus=1"], {}, "init.bogus"),
        (["map-exposure", "--set", "events=e.evt1", "--set", "profile.bogus=1"], {},
         "profile.bogus"),
        (TRAIN_FAST + ["--set", "sampler.n_windows=0"], {}, "n_windows"),
        (TRAIN_FAST + ["--set", "iterations=3"], {}, "warmup_iters"),
        (["make-synthetic", "--set", "resolution=5"], {}, "resolution"),
        (TRAIN_FAST + ["--set", "seed=1"], [1], "JSON object"),
    ], ids=["bogus_key", "densify.bogus", "init.bogus", "profile.bogus",
            "sampler.n_windows", "iterations", "resolution", "list_file"])
    def test_unknown_config_key_exits_two(self, argv, doc, named, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            parse(argv + ["--out", "o", "--config", str(cfg)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    RENDER = ["render", "--data", "d", "--checkpoint", "c.egs", "--frame", "0"]
    EVAL = ["eval", "--data", "d", "--checkpoint", "c.egs"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "1"],
        ["map-exposure", "--seed", "1"],
        RENDER + ["--seed", "1"],
        EVAL + ["--seed", "1"],
        RENDER + ["--config", "c.json"],
        RENDER + ["--set", "a=1"],
        EVAL + ["--config", "c.json"],
        EVAL + ["--set", "a=1"],
    ], ids=["simulate-seed", "map-exposure-seed", "render-seed", "eval-seed",
            "render-config", "render-set", "eval-config", "eval-set"])
    def test_flag_of_another_subcommand_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv + ["--out", "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_sets_config_seed(self):
        assert parse(["make-synthetic", "--out", "o", "--seed", "3"]).config.seed == 3
        assert parse(TRAIN_FAST + ["--out", "o", "--seed", "4"]).config.seed == 4
        # without --seed the config file's seed, or the dataclass default, holds
        assert parse(TRAIN_FAST + ["--out", "o", "--set", "seed=5"]).config.seed == 5
        assert parse(["make-synthetic", "--out", "o"]).config.seed == 0

    @pytest.mark.parametrize("head", [["make-synthetic"], TRAIN_FAST],
                             ids=["make-synthetic", "train"])
    def test_explicit_seed_wins_over_config_and_overrides(self, head, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 6}))
        base = head + ["--out", "o", "--seed", "4"]
        assert parse(base + ["--set", "seed=5"]).config.seed == 4
        assert parse(base + ["--config", str(cfg)]).config.seed == 4
        assert parse(base + ["--config", str(cfg), "--set", "seed=5"]).config.seed == 4

    def test_unreadable_config_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            parse(["train", "--data", "d", "--mode", "fast", "--out", "o",
                   "--config", "/nonexistent.json"])
        assert exc.value.code == 2

    def test_overrides_win_over_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"iterations": 50, "warmup_iters": 5,
                                   "densify": {"interval": 100}}))
        cmd = parse(["train", "--data", "d", "--mode", "fast", "--out", "o",
                     "--config", str(cfg), "--set", "iterations=75",
                     "--set", "densify.interval=10"])
        assert cmd.config.iterations == 75
        assert cmd.config.densify.interval == 10


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    code = run(parse(["make-synthetic", "--out", out,
                      "--set", "resolution=[24,24]", "--set", "frames=6",
                      "--set", "stops=6", "--set", "init_points=12",
                      "--set", "levels=30"]))
    assert code == 0
    return out


class TestPipeline:
    def test_make_synthetic_outputs(self, tiny_dataset):
        names = set(os.listdir(tiny_dataset))
        assert {"manifest.json", "events.evt1", "gt_scene.egs",
                "init_points.ply", "exposure", "gt"} <= names

    def test_train_render_eval(self, tiny_dataset, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        code = run(parse(["train", "--data", tiny_dataset, "--mode", "hq",
                          "--out", run_dir, "--set", "iterations=12",
                          "--set", "warmup_iters=2",
                          "--set", "densify.start_iter=1000000",
                          "--set", "log_interval=6"]))
        assert code == 0
        assert os.path.exists(os.path.join(run_dir, "scene.egs"))
        assert os.path.exists(os.path.join(run_dir, "train_log.jsonl"))

        code = run(parse(["render", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(run_dir, "scene.egs"), "--frame", "0",
                          "--out", str(tmp_path / "r")]))
        assert code == 0
        files = os.listdir(str(tmp_path / "r"))
        assert files == ["render_000.pnm"]

        code = run(parse(["eval", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(run_dir, "scene.egs"), "--split", "both",
                          "--out", str(tmp_path / "e")]))
        assert code == 0
        report = json.load(open(str(tmp_path / "e" / "report.json")))
        assert "given" in report and "novel" in report
        assert "psnr_avg" in report["given"]
        out = capsys.readouterr().out
        assert "split given" in out and "split novel" in out

    def test_train_missing_supervision_exits_one(self, tiny_dataset, tmp_path, capsys):
        # drop the event file reference: fast mode must fail before training
        import shutil
        broken = str(tmp_path / "broken")
        shutil.copytree(tiny_dataset, broken)
        manifest = json.load(open(os.path.join(broken, "manifest.json")))
        manifest["event_file"] = None
        json.dump(manifest, open(os.path.join(broken, "manifest.json"), "w"))
        out_dir = str(tmp_path / "runx")
        code = run(parse(["train", "--data", broken, "--mode", "fast",
                          "--out", out_dir, "--set", "iterations=5",
                          "--set", "warmup_iters=1"]))
        assert code == 1
        assert not os.path.exists(os.path.join(out_dir, "scene.egs"))
        assert "requires an event stream" in capsys.readouterr().err

    def test_train_empty_exposure_mask_exits_one(self, tiny_dataset, tmp_path, capsys):
        import shutil
        broken = str(tmp_path / "broken")
        shutil.copytree(tiny_dataset, broken)
        write_pnm(os.path.join(broken, "exposure", "mask_001.pnm"), np.zeros((24, 24)))
        path = os.path.join(broken, "manifest.json")
        manifest = json.load(open(path))
        manifest["exposure_frames"][1]["mask"] = "exposure/mask_001.pnm"
        json.dump(manifest, open(path, "w"))
        out_dir = str(tmp_path / "runm")
        code = run(parse(["train", "--data", broken, "--mode", "hq", "--out", out_dir,
                          "--set", "iterations=5", "--set", "warmup_iters=1"]))
        assert code == 1
        assert os.listdir(out_dir) == []
        assert "mask_001.pnm" in capsys.readouterr().err

    def test_wrong_size_frame_exits_one(self, tiny_dataset, tmp_path, capsys):
        # a ground-truth frame of the wrong size fails at load, not at the
        # held-out evaluation after training
        import shutil
        broken = str(tmp_path / "broken")
        shutil.copytree(tiny_dataset, broken)
        write_pnm(os.path.join(broken, "gt", "stop_002.pnm"), np.ones((8, 8)))
        out_dir = str(tmp_path / "out")
        code = run(parse(["train", "--data", broken, "--mode", "hq", "--out", out_dir,
                          "--set", "iterations=20", "--set", "warmup_iters=1"]))
        assert code == 1
        assert os.listdir(out_dir) == []
        assert "'gt/stop_002.pnm' is 8x8" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, code, message", [
        ("train", 1, "ply initialization needs a non-empty cloud"),
        ("eval", 0, "split novel")])
    def test_empty_init_cloud(self, sub, code, message, tiny_dataset, tmp_path, capsys):
        # eval never uses the init cloud; ply training refuses an empty one
        import shutil
        from evsplat.dataset import PointCloud, write_ply_points
        broken = str(tmp_path / "broken")
        shutil.copytree(tiny_dataset, broken)
        write_ply_points(os.path.join(broken, "init_points.ply"), PointCloud(np.zeros((0, 3))))
        out_dir = str(tmp_path / "out")
        argv = {"train": ["--mode", "hq", "--set", "iterations=3", "--set", "warmup_iters=1"],
                "eval": ["--checkpoint", os.path.join(broken, "gt_scene.egs")]}[sub]
        assert run(parse([sub, "--data", broken, "--out", out_dir] + argv)) == code
        captured = capsys.readouterr()
        assert message in (captured.err if code else captured.out)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("sub", ["train", "eval"])
    def test_unknown_pose_id_exits_one(self, sub, tiny_dataset, tmp_path, capsys):
        # a novel view outside the pose table, with a ground-truth frame,
        # fails at load instead of at the first evaluation
        import shutil
        broken = str(tmp_path / "broken")
        shutil.copytree(tiny_dataset, broken)
        path = os.path.join(broken, "manifest.json")
        manifest = json.load(open(path))
        manifest["split"]["novel"].append(999)
        manifest["gt_frames"].append({"pose_id": 999, "image": "gt/stop_000.pnm"})
        json.dump(manifest, open(path, "w"))
        out_dir = str(tmp_path / "out")
        argv = {"train": ["--mode", "hq", "--set", "iterations=20", "--set", "warmup_iters=1",
                          "--set", "eval_interval=10"],
                "eval": ["--checkpoint", os.path.join(broken, "gt_scene.egs")]}[sub]
        assert run(parse([sub, "--data", broken, "--out", out_dir] + argv)) == 1
        assert os.listdir(out_dir) == []
        assert "split novel[3]: pose id 999" in capsys.readouterr().err

    def test_render_reads_only_the_manifest(self, tiny_dataset, tmp_path):
        import shutil
        argv = ["render", "--checkpoint", os.path.join(tiny_dataset, "gt_scene.egs"),
                "--frame", "2"]
        assert run(parse(argv + ["--data", tiny_dataset, "--out", str(tmp_path / "a")])) == 0
        partial = str(tmp_path / "partial")
        shutil.copytree(tiny_dataset, partial)
        os.remove(os.path.join(partial, "events.evt1"))
        os.remove(os.path.join(partial, "gt", "stop_002.pnm"))
        assert run(parse(argv + ["--data", partial, "--out", str(tmp_path / "b")])) == 0
        name = "render_002.pnm"
        assert (open(str(tmp_path / "a" / name), "rb").read()
                == open(str(tmp_path / "b" / name), "rb").read())

    def test_unused_event_file_not_read(self, tiny_dataset, tmp_path, capsys):
        # eval and hq training never read the motion-event stream
        import shutil
        partial = str(tmp_path / "partial")
        shutil.copytree(tiny_dataset, partial)
        os.remove(os.path.join(partial, "events.evt1"))
        train = ["train", "--data", partial, "--set", "iterations=3",
                 "--set", "warmup_iters=1"]
        assert run(parse(train + ["--mode", "hq", "--out", str(tmp_path / "hq")])) == 0
        assert run(parse(["eval", "--data", partial, "--checkpoint",
                          os.path.join(tiny_dataset, "gt_scene.egs"),
                          "--out", str(tmp_path / "e")])) == 0
        capsys.readouterr()
        assert run(parse(train + ["--mode", "fast", "--out", str(tmp_path / "fast")])) == 1
        assert "events.evt1" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["render", "eval"])
    def test_zero_quaternion_checkpoint_exits_one(self, sub, tiny_dataset, tmp_path, capsys):
        from evsplat.scene import load_scene, save_scene
        scene = load_scene(os.path.join(tiny_dataset, "gt_scene.egs"))
        scene.quats[1] = 0.0
        ckpt = str(tmp_path / "zero.egs")
        save_scene(ckpt, scene)
        argv = [sub, "--data", tiny_dataset, "--checkpoint", ckpt, "--out", str(tmp_path / "o")]
        assert run(parse(argv + (["--frame", "0"] if sub == "render" else []))) == 1
        assert "record 1" in capsys.readouterr().err
        assert os.listdir(str(tmp_path / "o")) == []

    @pytest.mark.parametrize("sub", ["render", "eval"])
    def test_nonfinite_intensity_checkpoint_exits_one(self, sub, tiny_dataset, tmp_path, capsys):
        from evsplat.scene import load_scene, save_scene
        scene = load_scene(os.path.join(tiny_dataset, "gt_scene.egs"))
        scene.intensities[1] = np.nan
        ckpt = str(tmp_path / "nan.egs")
        save_scene(ckpt, scene)
        argv = [sub, "--data", tiny_dataset, "--checkpoint", ckpt, "--out", str(tmp_path / "o")]
        assert run(parse(argv + (["--frame", "0"] if sub == "render" else []))) == 1
        assert "record 1: intensities" in capsys.readouterr().err
        assert os.listdir(str(tmp_path / "o")) == []

    def test_nonfinite_step_exits_one(self, tiny_dataset, tmp_path, capsys, monkeypatch):
        from evsplat import training
        step = training.adam_step

        def step_to_zero_quaternion(params, *args):
            step(params, *args)
            params["quats"][3] = 0.0

        monkeypatch.setattr(training, "adam_step", step_to_zero_quaternion)
        out_dir = str(tmp_path / "nan")
        code = run(parse(["train", "--data", tiny_dataset, "--mode", "hq", "--out", out_dir,
                          "--set", "iterations=3", "--set", "warmup_iters=1"]))
        assert code == 1
        err = capsys.readouterr().err
        assert "error: 4 non-finite quats entries after optimizer step 1" in err
        assert "Traceback" not in err
        assert os.listdir(out_dir) == []

    def test_render_bad_frame_exits_one(self, tiny_dataset, tmp_path, capsys):
        code = run(parse(["render", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(tiny_dataset, "gt_scene.egs"),
                          "--frame", "999", "--out", str(tmp_path / "rr")]))
        assert code == 1

    def test_lock_refuses_concurrent_use(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "locked")
        os.makedirs(out)
        open(os.path.join(out, ".evsplat.lock"), "w").close()
        code = run(parse(["render", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(tiny_dataset, "gt_scene.egs"),
                          "--frame", "0", "--out", out]))
        assert code == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_refuses_live_owner(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "locked")
        os.makedirs(out)
        lock = os.path.join(out, ".evsplat.lock")
        with open(lock, "w") as f:
            f.write(str(os.getpid()))
        code = run(parse(["render", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(tiny_dataset, "gt_scene.egs"),
                          "--frame", "0", "--out", out]))
        assert code == 1
        assert "locked" in capsys.readouterr().err
        assert open(lock).read() == str(os.getpid())

    def test_lock_of_dead_owner_taken_over(self, tiny_dataset, tmp_path):
        import subprocess
        import sys
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()   # reaped: its pid names no process
        out = str(tmp_path / "stale")
        os.makedirs(out)
        lock = os.path.join(out, ".evsplat.lock")
        with open(lock, "w") as f:
            f.write(str(child.pid))
        code = run(parse(["render", "--data", tiny_dataset, "--checkpoint",
                          os.path.join(tiny_dataset, "gt_scene.egs"),
                          "--frame", "0", "--out", out]))
        assert code == 0
        assert os.path.exists(os.path.join(out, "render_000.pnm"))
        assert not os.path.exists(lock)

    def test_lock_holds_owner_pid(self, tmp_path):
        from evsplat.cli import _OutputLock
        with _OutputLock(str(tmp_path)) as held:
            assert open(held.path).read() == str(os.getpid())
        assert not os.path.exists(held.path)

    def test_simulate_and_map_exposure(self, tmp_path, rng):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        base = rng.uniform(0.2, 0.8, size=(16, 16))
        for i in range(3):
            write_pnm(str(frames_dir / f"f{i}.pnm"), np.clip(base * (1 + 0.4 * i), 0, 1))
        sim_out = str(tmp_path / "sim")
        code = run(parse(["simulate", "--out", sim_out,
                          "--set", f"frames_dir={frames_dir}",
                          "--set", "interval_us=1000"]))
        assert code == 0
        stream = read_events(os.path.join(sim_out, "events.evt1"))
        assert len(stream) > 0

        # exposure mapping from a hand-built positive stream
        exp_events = str(tmp_path / "exp.evt1")
        s = EventStream.create((2, 1), [0, 1], [0, 0], [200_000, 400_000], [1, 1])
        write_events(exp_events, s)
        map_out = str(tmp_path / "map")
        code = run(parse(["map-exposure", "--out", map_out,
                          "--set", f"events={exp_events}"]))
        assert code == 0
        img = read_pnm(os.path.join(map_out, "frame.pnm"))
        assert img.shape == (1, 2)
        assert img[0, 0] == pytest.approx(1.0)          # earlier IPE = brighter
        assert img[0, 1] == pytest.approx(0.25, abs=1e-3)

    def test_deterministic_artifacts(self, tiny_dataset, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            run_dir = str(tmp_path / name)
            code = run(parse(["train", "--data", tiny_dataset, "--mode", "hq",
                              "--out", run_dir, "--set", "iterations=10",
                              "--set", "warmup_iters=2", "--set", "seed=7",
                              "--set", "densify.start_iter=1000000"]))
            assert code == 0
            outs.append(open(os.path.join(run_dir, "scene.egs"), "rb").read())
        assert outs[0] == outs[1]
