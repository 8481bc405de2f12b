"""Operator surface: generate synthetic data, simulate events, map exposure
events to frames, train, render, and evaluate.

Config files use JSON; ``--set key=value`` overrides (dotted paths) win over
file values.  Exit codes: 0 success, 1 runtime failure, 2 usage or config
errors.  Concurrent runs on one output directory are refused via a lock file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import dataset as dio
from .camera import pose_at_time
from .events import EventModelConfig, simulate_motion_events
from .exposure import TransmittanceProfile, extract_ipe, map_temporal_to_intensity
from .metrics import MetricReport, psnr, ssim
from .render import render
from .scene import load_scene, save_scene
from .training import MODE_LAMBDA, TrainConfig, TrainData, train


@dataclass(frozen=True)
class SimulateConfig:
    """``simulate``: the .pnm frames of frames_dir in name order, at
    timestamps_us (default: one every interval_us), to an EVT1 file."""

    frames_dir: str
    timestamps_us: list | None = None
    interval_us: int = 10_000
    contrast_threshold: float = EventModelConfig.contrast_threshold
    gamma: float = EventModelConfig.gamma
    output: str = "events.evt1"


@dataclass(frozen=True)
class MapExposureConfig:
    """``map-exposure``: the frame mapped from an exposure-event file."""

    events: str
    t_open_us: int = 0
    profile: TransmittanceProfile = field(default_factory=TransmittanceProfile)
    clip_percentile: float | None = None
    output: str = "frame.pnm"


@dataclass(frozen=True)
class InitConfig:
    """How ``train`` starts the scene: ``ply`` from the dataset's
    init_points.ply, or ``random`` with n points in bbox.  A background of
    None takes the dataset's."""

    mode: str = "ply"
    n: int = 200
    bbox: tuple = ((-0.8, -0.8, -0.8), (0.8, 0.8, 0.8))
    background: float | None = None

    def __post_init__(self):
        if self.mode not in ("ply", "random"):
            raise ValueError(f"mode must be 'ply' or 'random', not {self.mode!r}")


@dataclass(frozen=True)
class TrainJob(TrainConfig):
    """``train``: the TrainConfig keys, the scene's init and the event model."""

    init: InitConfig = field(default_factory=InitConfig)
    event: EventModelConfig = field(default_factory=EventModelConfig)


# JSON kinds a field takes, by the type of its default; a field that has no
# default, or defaults to None, takes any value
_JSON_KINDS = {int: int, float: (int, float), str: str, tuple: (list, tuple)}


def _from_config(cls, doc, where: str = "", **fixed):
    """Build dataclass ``cls`` from a config object.

    Keys must name fields of ``cls`` not in ``fixed``; a field whose default
    is a dataclass takes a nested object; omitted fields keep their defaults.
    Raises ValueError naming the dotted key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config {where or 'file'} must be an object, not {doc!r}")
    known = {f.name: f for f in fields(cls) if f.name not in fixed}
    kwargs = dict(fixed)
    for key, value in doc.items():
        dotted = f"{where}.{key}" if where else key
        f = known.get(key)
        if f is None:
            raise ValueError(f"unknown config key {dotted!r}")
        if is_dataclass(f.default_factory):
            value = _from_config(f.default_factory, value, dotted)
        kind = _JSON_KINDS.get(type(f.default))
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"config key {dotted!r} takes a {type(f.default).__name__}, "
                             f"not {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config{' ' + where if where else ''}: {exc}") from None


@dataclass
class Command:
    subcommand: str
    config: object = None   # the subcommand's config dataclass; render and eval take none
    out: str = "."
    data: str | None = None
    checkpoint: str | None = None
    frame: int | None = None
    split: str = "both"
    depth: bool = False


def _parse_override(text: str):
    if "=" not in text:
        raise ValueError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_override(config: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = config
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {dotted!r} crosses a non-object value")
    node[parts[-1]] = value


# config dataclass of each subcommand that takes config keys, with the fields
# set apart from the config; a subcommand whose dataclass has a seed field
# also takes --seed
_CONFIGS = {
    "make-synthetic": (dio.SyntheticSceneSpec, {"gaussians": None}),  # built-in toy
    "simulate": (SimulateConfig, {}),
    "map-exposure": (MapExposureConfig, {}),
    "train": (TrainJob, {}),
}


def parse_args(argv) -> Command:
    parser = argparse.ArgumentParser(
        prog="evsplat",
        description="Event-based Gaussian splatting: simulation, training, evaluation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output directory")
        if name in _CONFIGS:
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="KEY=VALUE", help="dotted config override")
            if any(f.name == "seed" for f in fields(_CONFIGS[name][0])):
                p.add_argument("--seed", type=int)
        return p

    add("make-synthetic", "generate a synthetic turntable dataset")
    add("simulate", "simulate motion events from frames")
    add("map-exposure", "map exposure events to a grayscale frame")

    p_train = add("train", "optimize a scene from a dataset")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--mode", required=True, choices=list(MODE_LAMBDA))

    p_render = add("render", "render one frame from a checkpoint")
    p_render.add_argument("--data", required=True)
    p_render.add_argument("--checkpoint", required=True)
    p_render.add_argument("--frame", type=int, required=True)
    p_render.add_argument("--depth", action="store_true")

    p_eval = add("eval", "evaluate a checkpoint against a dataset split")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["given", "novel", "both"], default="both")

    args = parser.parse_args(argv)
    settings = _build_config(parser, args) if args.subcommand in _CONFIGS else None
    return Command(
        subcommand=args.subcommand, config=settings, out=args.out,
        data=getattr(args, "data", None), checkpoint=getattr(args, "checkpoint", None),
        frame=getattr(args, "frame", None),
        split=getattr(args, "split", "both"), depth=getattr(args, "depth", False))


def _build_config(parser, args):
    """The subcommand's config dataclass from --config, then --set, then
    --seed, each winning over those before it; exits 2 through the parser on
    any config error."""
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"unreadable config {args.config!r}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {args.config!r} must hold a JSON object")
    cls, fixed = _CONFIGS[args.subcommand]
    if hasattr(args, "mode"):
        fixed = {**fixed, "mode": args.mode}
    try:
        for item in args.overrides:
            key, value = _parse_override(item)
            _apply_override(config, key, value)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        return _from_config(cls, config, **fixed)
    except ValueError as exc:
        parser.error(str(exc))


class _OutputLock:
    """Refuses concurrent subcommands on one output directory.

    The lock file holds the owner's pid.  A lock whose pid names a process
    that no longer exists is left by a run that died, and is taken over; a
    lock that names a live process, or no pid, is refused."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, ".evsplat.lock")
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._owner_is_dead():
                raise RuntimeError(f"output directory is locked by another run: {self.path}")
            os.unlink(self.path)
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def _owner_is_dead(self) -> bool:
        try:
            with open(self.path) as f:
                pid = int(f.read())
            if pid > 0:   # 0 and negative pids would address process groups
                os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError, OverflowError):
            pass   # unreadable, no pid, or another user's live process
        return False

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)
        return False


def _run_make_synthetic(cmd: Command) -> int:
    ds = dio.generate_synthetic_scene(cmd.config)
    dio.write_dataset(cmd.out, ds)
    print(f"wrote synthetic dataset to {cmd.out} "
          f"({len(ds.events)} events, {len(ds.exposure_frames)} exposure stops)")
    return 0


def _run_simulate(cmd: Command) -> int:
    cfg = cmd.config
    names = sorted(fn for fn in os.listdir(cfg.frames_dir) if fn.endswith(".pnm"))
    if len(names) < 2:
        raise RuntimeError("need at least two .pnm frames")
    images = [dio.read_pnm(os.path.join(cfg.frames_dir, fn)) for fn in names]
    if cfg.timestamps_us is not None:
        times = [int(t) for t in cfg.timestamps_us]
        if len(times) != len(images):
            raise RuntimeError("timestamps_us length must match the frame count")
    else:
        times = [i * cfg.interval_us for i in range(len(images))]
    event = EventModelConfig(contrast_threshold=cfg.contrast_threshold, gamma=cfg.gamma)
    stream = simulate_motion_events(list(zip(times, images)), event)
    out_path = os.path.join(cmd.out, cfg.output)
    dio.write_events(out_path, stream)
    print(f"wrote {len(stream)} events to {out_path}")
    return 0


def _run_map_exposure(cmd: Command) -> int:
    cfg = cmd.config
    stream = dio.read_events(cfg.events)
    t_star = extract_ipe(stream, cfg.t_open_us)
    frame = map_temporal_to_intensity(t_star, cfg.profile,
                                      clip_percentile=cfg.clip_percentile)
    out_path = os.path.join(cmd.out, cfg.output)
    dio.write_pnm(out_path, frame.image)
    print(f"wrote mapped exposure frame to {out_path}")
    return 0


def make_train_data(loaded: dio.LoadedDataset, init_scene, event_cfg) -> TrainData:
    """Assemble loop inputs from a dataset directory: training uses the given
    split (exposure frames), evaluation the novel split (ground-truth frames
    when present, mapped exposure frames otherwise)."""
    manifest = loaded.manifest
    given = set(manifest.split["given"])
    novel = manifest.split["novel"]
    frames = [f for f in loaded.exposure_frames if f.pose_id in given]
    gt = loaded.gt_frames
    if gt:
        eval_frames = [(k, gt[k]) for k in novel if k in gt]
    else:
        eval_frames = [(f.pose_id, f.image) for f in loaded.exposure_frames
                       if f.pose_id in set(novel)]
    traj = manifest.trajectory
    return TrainData(
        trajectory=traj, init_scene=init_scene,
        events=loaded.events, exposure_frames=frames,
        pose_times=manifest.pose_times, eval_frames=eval_frames,
        event_config=event_cfg,
        scene_extent=getattr(traj, "radius", None))


def _run_train(cmd: Command) -> int:
    cfg = cmd.config
    loaded = dio.load_dataset(cmd.data, with_events=cfg.lambda_weight > 0.0)
    background = cfg.init.background
    if background is None:
        background = loaded.manifest.background
    background = 0.5 if background is None else float(background)
    if cfg.init.mode == "random":
        init_scene = dio.init_point_cloud("random", n=cfg.init.n, bbox=cfg.init.bbox,
                                          rng=np.random.default_rng(cfg.seed),
                                          background=background)
    else:
        if loaded.init_cloud is None:
            raise RuntimeError("dataset has no init_points.ply; use init.mode=random")
        init_scene = dio.init_point_cloud("ply", cloud=loaded.init_cloud,
                                          background=background)
    data = make_train_data(loaded, init_scene, cfg.event)

    scene, log = train(data, cfg)
    save_scene(os.path.join(cmd.out, "scene.egs"), scene)
    with open(os.path.join(cmd.out, "train_log.jsonl"), "w") as f:
        for rec in log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    final = log[-1]
    print(f"trained {cfg.mode} for {final['iterations']} iterations, "
          f"{final['count']} Gaussians"
          + (f", held-out PSNR {final['psnr_eval']:.2f} dB" if "psnr_eval" in final else ""))
    return 0


def _run_render(cmd: Command) -> int:
    scene = load_scene(cmd.checkpoint)
    manifest = dio.read_manifest(os.path.join(cmd.data, "manifest.json"))
    if not 0 <= cmd.frame < len(manifest.pose_times):
        raise RuntimeError(f"frame {cmd.frame} outside pose table")
    cam = pose_at_time(manifest.trajectory, manifest.pose_times[cmd.frame])
    out = render(scene, cam, compute_depth=cmd.depth)
    img_path = os.path.join(cmd.out, f"render_{cmd.frame:03d}.pnm")
    dio.write_pnm(img_path, out.image)
    written = [img_path]
    if cmd.depth:
        peak = out.depth.max()
        depth_path = os.path.join(cmd.out, f"depth_{cmd.frame:03d}.pnm")
        dio.write_pnm(depth_path, out.depth / peak if peak > 0 else out.depth)
        written.append(depth_path)
    print("wrote " + ", ".join(written))
    return 0


def _run_eval(cmd: Command) -> int:
    scene = load_scene(cmd.checkpoint)
    loaded = dio.load_dataset(cmd.data, with_events=False)
    manifest = loaded.manifest
    gt = loaded.gt_frames
    if not gt:
        gt = {f.pose_id: f.image for f in loaded.exposure_frames}
    splits = ["given", "novel"] if cmd.split == "both" else [cmd.split]
    report_doc = {}
    for name in splits:
        rep = MetricReport()
        for pose_id in manifest.split[name]:
            if pose_id not in gt:
                continue
            cam = pose_at_time(manifest.trajectory, manifest.pose_times[pose_id])
            img = render(scene, cam).image
            rep.add(pose_id, psnr(img, gt[pose_id]), ssim(img, gt[pose_id]))
        print(f"split {name}:")
        print(rep.table())
        report_doc[name] = json.loads(rep.to_json())
    with open(os.path.join(cmd.out, "report.json"), "w") as f:
        json.dump(report_doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


_RUNNERS = {
    "make-synthetic": _run_make_synthetic,
    "simulate": _run_simulate,
    "map-exposure": _run_map_exposure,
    "train": _run_train,
    "render": _run_render,
    "eval": _run_eval,
}


def run(cmd: Command) -> int:
    """Execute a parsed command; 0 on success, 1 on runtime failure."""
    try:
        os.makedirs(cmd.out, exist_ok=True)
        with _OutputLock(cmd.out):
            return _RUNNERS[cmd.subcommand](cmd)
    except (RuntimeError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(parse_args(sys.argv[1:])))


if __name__ == "__main__":
    main()
