"""Serialization and dataset assembly.

Formats (all bit-exact):
  - EVT1 event files: 16-byte header (magic "EVT1", width u16 LE, height u16
    LE, count u64 LE) followed by 13-byte records (t i64 LE microseconds,
    x u16 LE, y u16 LE, p i8).  A CSV alternative "t,x,y,p" per line is
    accepted on read by file extension.
  - Scene manifests: JSON with documented keys; keyframe poses are validated
    rigid (orthonormality residual <= 1e-6, det > 0).
  - ASCII PLY point clouds (float x, y, z required, unknown properties
    skipped, optional per-point intensity).
  - 16-bit grayscale PNM (P5, maxval 65535, big-endian samples).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .camera import CameraModel, KeyframeTrajectory, Trajectory, TurntableTrajectory, pose_at_time
from .events import EventModelConfig, EventStream, simulate_motion_events
from .exposure import (ExposureFrame, TransmittanceProfile, map_temporal_to_intensity,
                       simulate_ipe)
from .render import render
from .scene import Gaussian3D, GaussianScene

EVENT_MAGIC = b"EVT1"
EVENT_RECORD = np.dtype([("t", "<i8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
OPACITY_LOGIT_INIT = float(np.log(0.1 / 0.9))   # initial opacity 0.1
INTENSITY_INIT = 0.5


class FormatError(ValueError):
    """Malformed on-disk data; the message carries the first offending record."""


# ---------------------------------------------------------------------------
# events

def write_events(path: str, stream: EventStream) -> None:
    w, h = stream.resolution
    rec = np.empty(len(stream), dtype=EVENT_RECORD)
    rec["t"] = stream.t
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["p"] = stream.p
    with open(path, "wb") as f:
        f.write(EVENT_MAGIC)
        f.write(np.uint16(w).astype("<u2").tobytes())
        f.write(np.uint16(h).astype("<u2").tobytes())
        f.write(np.uint64(len(stream)).astype("<u8").tobytes())
        f.write(rec.tobytes())


def read_events(path: str, resolution: tuple[int, int] | None = None) -> EventStream:
    """Read an EVT1 file, or CSV when the extension is .csv.

    CSV carries no resolution header; it is inferred from the coordinate
    maxima unless an explicit resolution is provided.
    """
    if str(path).lower().endswith(".csv"):
        resolution, t, x, y, p = _read_events_csv(path, resolution)
    else:
        with open(path, "rb") as f:
            head = f.read(16)
            if len(head) < 16 or head[:4] != EVENT_MAGIC:
                raise FormatError(f"bad magic in {path!r}")
            w = int(np.frombuffer(head[4:6], dtype="<u2")[0])
            h = int(np.frombuffer(head[6:8], dtype="<u2")[0])
            n = int(np.frombuffer(head[8:16], dtype="<u8")[0])
            body = f.read(n * EVENT_RECORD.itemsize)
        if len(body) != n * EVENT_RECORD.itemsize:
            raise FormatError(f"truncated event body (expected {n} records)")
        rec = np.frombuffer(body, dtype=EVENT_RECORD)
        resolution = (w, h)
        t, x, y, p = (rec["t"].astype(np.int64), rec["x"].astype(np.int32),
                      rec["y"].astype(np.int32), rec["p"].astype(np.int8))
    # EventStream.create names the first record that breaks an invariant
    try:
        return EventStream.create(resolution, x, y, t, p)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _read_events_csv(path: str, resolution):
    rows = []
    with open(path, "r") as f:
        for ln, line in enumerate(f):
            line = line.strip()
            if not line or (ln == 0 and line.replace(" ", "") == "t,x,y,p"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"expected 4 fields at line {ln}")
            try:
                rows.append([int(v) for v in parts])
            except ValueError as exc:
                raise FormatError(f"non-integer field at line {ln}") from exc
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    t, x, y, p = arr.T
    if resolution is None:
        if len(arr) == 0:
            raise FormatError("cannot infer resolution from an empty CSV")
        resolution = (int(x.max()) + 1, int(y.max()) + 1)
    return resolution, t, x, y, p


# ---------------------------------------------------------------------------
# PNM images (P5, 16-bit big-endian)

def write_pnm(path: str, image: np.ndarray) -> None:
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    h, w = img.shape
    data = np.rint(img * 65535.0).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode())
        f.write(data.tobytes())


def read_pnm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"P5"):
        raise FormatError("not a P5 PNM file")
    # header: three whitespace-separated tokens after the magic
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PNM header")
        tokens.append(int(blob[start:pos]))
    pos += 1   # single whitespace after maxval
    w, h, maxval = tokens
    if maxval == 65535:
        data = np.frombuffer(blob, dtype=">u2", count=w * h, offset=pos)
    elif maxval == 255:
        data = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    else:
        raise FormatError(f"unsupported maxval {maxval}")
    if data.size != w * h:
        raise FormatError("truncated PNM body")
    return data.reshape(h, w).astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# PLY point clouds (ASCII)

@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray                    # (N, 3) float64
    intensity: np.ndarray | None = None   # optional per-point value

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)


def read_ply_points(path: str) -> PointCloud:
    """Read an ASCII PLY's vertex coordinates; every error names the file,
    and the line where there is one."""
    with open(path, "rb") as f:
        lines = f.read().decode("ascii", errors="replace").splitlines()

    def fail(what: str):
        raise FormatError(f"{path!r}: {what}")

    if not lines or lines[0].strip() != "ply":
        fail("not a PLY file")
    n_vertex = None
    skip = 0   # body rows of the elements declared before the vertices
    props: list[str] = []
    in_vertex = False
    body_at = None
    fmt_ok = False
    for i, raw in enumerate(lines[1:], start=1):
        line = raw.strip()
        parts = line.split()
        if line.startswith("format"):
            if "ascii" not in line:
                fail("binary PLY is not supported")
            fmt_ok = True
        elif line.startswith("comment"):
            continue
        elif line.startswith("element"):
            if len(parts) != 3:
                fail(f"line {i + 1}: an element line needs a name and a count")
            if not parts[2].isdecimal():
                fail(f"line {i + 1}: {parts[1]} count {parts[2]!r} is not a whole number")
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                n_vertex = int(parts[2])
            elif n_vertex is None:
                skip += int(parts[2])
        elif line.startswith("property"):
            if len(parts) < 3:
                fail(f"line {i + 1}: a property line needs a type and a name")
            if in_vertex:
                if parts[1] == "list":
                    fail(f"line {i + 1}: list properties on vertices are not supported")
                props.append(parts[2])
        elif line == "end_header":
            body_at = i + 1
            break
    if not fmt_ok or n_vertex is None or body_at is None:
        fail("malformed PLY header")
    for need in ("x", "y", "z"):
        if need not in props:
            fail(f"missing vertex property {need!r}")
    xyz = [props.index(need) for need in ("x", "y", "z")]
    nonblank = ((i + 1, ln.split()) for i, ln in enumerate(lines[body_at:], start=body_at)
                if ln.strip())
    rows = list(islice(nonblank, skip, skip + n_vertex))
    if len(rows) < n_vertex:
        fail(f"header claims {n_vertex} vertices, found {len(rows)}")
    data = np.empty((n_vertex, len(props)))
    for k, (line_no, r) in enumerate(rows):
        if len(r) < len(props):
            fail(f"vertex row at line {line_no} has {len(r)} values "
                 f"for {len(props)} properties")
        try:
            data[k] = [float(v) for v in r[:len(props)]]
        except ValueError as exc:
            fail(f"vertex row at line {line_no}: {exc}")
    bad = np.flatnonzero(~np.isfinite(data[:, xyz]).all(axis=1))
    if bad.size:
        fail(f"vertex row at line {rows[bad[0]][0]} has a non-finite coordinate")
    inten = data[:, props.index("intensity")] if "intensity" in props else None
    return PointCloud(data[:, xyz], inten)


def write_ply_points(path: str, cloud: PointCloud) -> None:
    n = len(cloud.points)
    with_i = cloud.intensity is not None
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {n}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if with_i:
            f.write("property float intensity\n")
        f.write("end_header\n")
        for i in range(n):
            row = " ".join(repr(float(v)) for v in cloud.points[i])
            if with_i:
                row += f" {float(cloud.intensity[i])!r}"
            f.write(row + "\n")


# ---------------------------------------------------------------------------
# scene manifests

@dataclass
class SceneManifest:
    resolution: tuple[int, int]
    intrinsics: tuple[float, float, float, float]     # fx, fy, cx, cy
    trajectory: Trajectory
    pose_times: list[float] = field(default_factory=list)
    exposure_frames: list[dict] = field(default_factory=list)  # {pose_id, image, mask}
    gt_frames: list[dict] = field(default_factory=list)        # {pose_id, image}
    event_file: str | None = None
    split: dict = field(default_factory=lambda: {"given": [], "novel": []})
    background: float | None = None   # constant scene background level, when known


def _trajectory_to_dict(traj: Trajectory) -> dict:
    if isinstance(traj, TurntableTrajectory):
        return {"kind": "turntable", "axis": list(traj.axis), "center": list(traj.center),
                "radius": traj.radius, "height": traj.height,
                "angular_rate": traj.angular_rate, "span": traj.span, "phase": traj.phase}
    return {"kind": "keyframes", "keyframes": [
        {"t": float(t), "world_to_camera": [float(v) for v in
                                            _pose_matrix(R, tr).reshape(-1)]}
        for t, R, tr in zip(traj.times, traj.rotations, traj.translations)]}


def _pose_matrix(R, t) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = R
    m[:3, 3] = t
    return m


def serialize_manifest(m: SceneManifest) -> str:
    doc = {
        "resolution": [int(m.resolution[0]), int(m.resolution[1])],
        "intrinsics": {"fx": m.intrinsics[0], "fy": m.intrinsics[1],
                       "cx": m.intrinsics[2], "cy": m.intrinsics[3]},
        "trajectory": _trajectory_to_dict(m.trajectory),
        "pose_times": [float(t) for t in m.pose_times],
        "exposure_frames": m.exposure_frames,
        "gt_frames": m.gt_frames,
        "event_file": m.event_file,
        "split": {"given": list(m.split["given"]), "novel": list(m.split["novel"])},
        "background": m.background,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def write_manifest(path: str, m: SceneManifest) -> None:
    with open(path, "w") as f:
        f.write(serialize_manifest(m) + "\n")


# turntable keys a manifest may leave out, taking TurntableTrajectory's defaults
_TURNTABLE_OPTIONAL = {"height": float, "axis": tuple, "center": tuple, "phase": float}


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"manifest {where} must be a list, not {value!r}")
    return value


def _check_pose_id(pose_id, where: str, n_poses: int) -> None:
    if isinstance(pose_id, bool) or not isinstance(pose_id, int) \
            or not 0 <= pose_id < n_poses:
        raise FormatError(f"manifest {where}: pose id {pose_id!r} is not an int "
                          f"in [0, {n_poses})")


def parse_manifest(doc: dict) -> SceneManifest:
    try:
        width, height = doc["resolution"][0], doc["resolution"][1]
        intr = doc["intrinsics"]
        intrinsics = (float(intr["fx"]), float(intr["fy"]),
                      float(intr["cx"]), float(intr["cy"]))
        traj_doc = doc["trajectory"]
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc.args[0]!r}") from exc
    try:
        cam = CameraModel(*intrinsics, width, height)
    except ValueError as exc:
        raise FormatError(f"manifest {exc}") from exc
    resolution = (cam.width, cam.height)
    kind = traj_doc.get("kind")
    if kind == "turntable":
        traj = TurntableTrajectory(
            camera=cam, radius=float(traj_doc["radius"]),
            angular_rate=float(traj_doc["angular_rate"]), span=float(traj_doc["span"]),
            **{k: conv(traj_doc[k]) for k, conv in _TURNTABLE_OPTIONAL.items()
               if k in traj_doc})
    elif kind == "keyframes":
        times, rots, trans = [], [], []
        for kf in traj_doc["keyframes"]:
            mat = np.array(kf["world_to_camera"], dtype=np.float64).reshape(4, 4)
            R = mat[:3, :3]
            residual = float(np.abs(R @ R.T - np.eye(3)).max())
            if residual > 1e-6:
                raise FormatError(f"non-rigid keyframe pose (residual {residual:.2e})")
            if np.linalg.det(R) < 0:
                raise FormatError("keyframe pose contains a reflection")
            times.append(float(kf["t"]))
            rots.append(R)
            trans.append(mat[:3, 3])
        traj = KeyframeTrajectory(cam, np.array(times), np.array(rots), np.array(trans))
    else:
        raise FormatError(f"unknown trajectory kind {kind!r}")
    pose_times = [float(t) for t in doc.get("pose_times", [])]
    if any(b <= a for a, b in zip(pose_times, pose_times[1:])):
        raise FormatError("pose_times must be strictly increasing")
    n_poses = len(pose_times)
    split = doc.get("split", {})
    if not isinstance(split, dict):
        raise FormatError(f"manifest split must be an object, not {split!r}")
    split = {name: _json_list(split.get(name, []), f"split {name}") for name in ("given", "novel")}
    for name, ids in split.items():
        for i, pose_id in enumerate(ids):
            _check_pose_id(pose_id, f"split {name}[{i}]", n_poses)
    frames = {key: _json_list(doc.get(key, []), key) for key in ("exposure_frames", "gt_frames")}
    for key, entries in frames.items():
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise FormatError(f"manifest {key}[{i}] must be an object, not {entry!r}")
            _check_pose_id(entry.get("pose_id"), f"{key}[{i}]", n_poses)
    return SceneManifest(
        resolution=resolution, intrinsics=intrinsics, trajectory=traj,
        pose_times=pose_times,
        exposure_frames=frames["exposure_frames"],
        gt_frames=frames["gt_frames"],
        event_file=doc.get("event_file"),
        split=split,
        background=(None if doc.get("background") is None
                    else float(doc["background"])),
    )


def read_manifest(path: str) -> SceneManifest:
    with open(path, "r") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    return parse_manifest(doc)


# ---------------------------------------------------------------------------
# initialization

def init_point_cloud(mode: str, n: int | None = None, bbox=None,
                     rng: np.random.Generator | None = None,
                     cloud: PointCloud | None = None,
                     background: float = 0.0) -> GaussianScene:
    """One isotropic Gaussian per point: random positions in a box, or a cloud.

    Initial scale is the per-point nearest-neighbor distance, opacity starts
    at 0.1, intensity at 0.5.
    """
    if mode == "random":
        if n is None or n < 1:
            raise ValueError("random initialization needs n >= 1")
        if bbox is None:
            raise ValueError("random initialization needs a bbox")
        if rng is None:
            raise ValueError("random initialization needs an rng")
        lo, hi = np.asarray(bbox[0], dtype=np.float64), np.asarray(bbox[1], dtype=np.float64)
        points = rng.uniform(lo, hi, size=(n, 3))
    elif mode == "ply":
        if cloud is None or len(cloud.points) == 0:
            raise ValueError("ply initialization needs a non-empty cloud")
        points = cloud.points.copy()
    else:
        raise ValueError(f"unknown initialization mode {mode!r}")
    m = len(points)
    scale = np.full(m, 0.1)
    if m > 1:
        nn = _nearest_neighbor_dist(points)
        scale = np.maximum(nn, 1e-7)
    log_scales = np.log(scale)[:, None].repeat(3, axis=1)
    quats = np.zeros((m, 4))
    quats[:, 0] = 1.0
    return GaussianScene(points, quats, log_scales,
                         np.full(m, OPACITY_LOGIT_INIT),
                         np.full(m, INTENSITY_INIT), background)


def _nearest_neighbor_dist(points: np.ndarray, chunk: int = 512) -> np.ndarray:
    n = len(points)
    out = np.empty(n)
    for s in range(0, n, chunk):
        block = points[s:s + chunk]
        d2 = np.sum((block[:, None, :] - points[None, :, :]) ** 2, axis=2)
        d2[np.arange(len(block)), s + np.arange(len(block))] = np.inf
        out[s:s + chunk] = np.sqrt(d2.min(axis=1))
    return out


# ---------------------------------------------------------------------------
# synthetic scenes

def _default_toy_gaussians() -> list[Gaussian3D]:
    def g(mean, quat, scales, logit, intensity):
        return Gaussian3D(np.array(mean), np.array(quat), np.log(np.array(scales)),
                          logit, intensity)
    return [
        g((0.25, 0.05, 0.10), (0.96, 0.0, 0.0, 0.28), (0.22, 0.15, 0.15), 6.0, 1.0),
        g((-0.30, 0.22, -0.15), (1.0, 0.0, 0.0, 0.0), (0.18, 0.18, 0.18), 3.0, 0.15),
        g((0.02, -0.30, 0.28), (0.9, 0.31, 0.0, 0.31), (0.26, 0.12, 0.17), 2.0, 0.62),
    ]


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Turntable toy scene: renders, motion events over one full rotation,
    and exposure stops at uniform angular increments."""

    gaussians: tuple | None = None     # None selects the built-in 3-Gaussian toy
    resolution: tuple[int, int] = (64, 64)
    frames: int = 60
    stops: int = 200
    span: float = 10.0
    turns: float = 1.0
    radius: float = 4.0
    height: float = 1.2
    focal: float = 120.0
    background: float = 0.4   # off the 0.5 init intensity so fresh scenes are visible
    exposure_t_end: float = TransmittanceProfile.t_end
    levels: int = 100
    exposure_contrast: float = 0.02
    motion_contrast: float = EventModelConfig.contrast_threshold
    gamma: float = EventModelConfig.gamma
    init_points: int = 240
    init_noise: float = 0.06
    seed: int = 0

    def __post_init__(self):
        res = tuple(self.resolution)
        if len(res) != 2 or not all(isinstance(v, int) and v > 0 for v in res):
            raise ValueError(f"resolution must be [width, height] in pixels, not {res!r}")
        object.__setattr__(self, "resolution", res)
        if self.frames < 2:
            raise ValueError("frames must be >= 2")
        if self.stops < 1:
            raise ValueError("stops must be >= 1")


@dataclass
class SyntheticDataset:
    spec: SyntheticSceneSpec
    gt_scene: GaussianScene
    trajectory: TurntableTrajectory
    pose_times: list[float]
    gt_frames: np.ndarray            # (stops, H, W)
    events: EventStream
    exposure_frames: list[ExposureFrame]
    split_given: list[int]
    split_novel: list[int]
    init_cloud: PointCloud


def generate_synthetic_scene(spec: SyntheticSceneSpec,
                             rng: np.random.Generator | None = None) -> SyntheticDataset:
    """Render ground truth along the turntable, simulate motion events over the
    full rotation, and map each stop's exposure IPE times to a frame.

    Each stop's IPE times come from `simulate_ipe`, since the frames use
    only each pixel's initial positive event; the stops' exposure events are
    neither built nor part of the dataset."""
    rng = rng or np.random.default_rng(spec.seed)
    w, h = spec.resolution
    gaussians = list(spec.gaussians) if spec.gaussians else _default_toy_gaussians()
    gt_scene = GaussianScene.from_gaussians(gaussians, background=spec.background)
    cam = CameraModel(spec.focal, spec.focal, (w - 1) / 2.0, (h - 1) / 2.0, w, h)
    trajectory = TurntableTrajectory(
        camera=cam, radius=spec.radius, height=spec.height,
        angular_rate=2.0 * np.pi * spec.turns / spec.span, span=spec.span)

    motion_cfg = EventModelConfig(contrast_threshold=spec.motion_contrast, gamma=spec.gamma)
    frame_times = [i * spec.span / spec.frames for i in range(spec.frames + 1)]
    motion_frames = [(int(round(t * 1e6)),
                      render(gt_scene, pose_at_time(trajectory, t)).image)
                     for t in frame_times]
    events = simulate_motion_events(motion_frames, motion_cfg)

    profile = TransmittanceProfile(kind="linear", t_end=spec.exposure_t_end)
    exp_cfg = EventModelConfig(contrast_threshold=spec.exposure_contrast, gamma=spec.gamma)
    pose_times = [k * spec.span / spec.stops for k in range(spec.stops)]
    gt_frames = np.empty((spec.stops, h, w))
    exposure_frames = []
    for k, t in enumerate(pose_times):
        gt = render(gt_scene, pose_at_time(trajectory, t)).image
        gt_frames[k] = gt
        t_star = simulate_ipe(gt, profile, exp_cfg, levels=spec.levels)
        frame = map_temporal_to_intensity(t_star, profile)
        exposure_frames.append(replace(frame, pose_id=k))

    split_given = [k for k in range(spec.stops) if k % 2 == 1]
    split_novel = [k for k in range(spec.stops) if k % 2 == 0]

    n_g = len(gaussians)
    reps = [spec.init_points // n_g + (1 if i < spec.init_points % n_g else 0)
            for i in range(n_g)]
    pts = np.concatenate([
        gaussians[i].mean + spec.init_noise * rng.standard_normal((reps[i], 3))
        for i in range(n_g)])
    init_cloud = PointCloud(pts)

    return SyntheticDataset(spec, gt_scene, trajectory, pose_times, gt_frames,
                            events, exposure_frames, split_given, split_novel,
                            init_cloud)


def write_dataset(out_dir: str, ds: SyntheticDataset) -> None:
    from .scene import save_scene
    os.makedirs(os.path.join(out_dir, "exposure"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "gt"), exist_ok=True)
    write_events(os.path.join(out_dir, "events.evt1"), ds.events)
    exposure_entries = []
    gt_entries = []
    for k, frame in enumerate(ds.exposure_frames):
        rel = f"exposure/stop_{k:03d}.pnm"
        write_pnm(os.path.join(out_dir, rel), frame.image)
        entry = {"pose_id": k, "image": rel, "mask": None}
        if not frame.mask.all():
            mrel = f"exposure/mask_{k:03d}.pnm"
            write_pnm(os.path.join(out_dir, mrel), frame.mask.astype(np.float64))
            entry["mask"] = mrel
        exposure_entries.append(entry)
        grel = f"gt/stop_{k:03d}.pnm"
        write_pnm(os.path.join(out_dir, grel), ds.gt_frames[k])
        gt_entries.append({"pose_id": k, "image": grel})
    save_scene(os.path.join(out_dir, "gt_scene.egs"), ds.gt_scene)
    write_ply_points(os.path.join(out_dir, "init_points.ply"), ds.init_cloud)
    cam = ds.trajectory.camera
    manifest = SceneManifest(
        resolution=(cam.width, cam.height),
        intrinsics=(cam.fx, cam.fy, cam.cx, cam.cy),
        trajectory=ds.trajectory,
        pose_times=ds.pose_times,
        exposure_frames=exposure_entries,
        gt_frames=gt_entries,
        event_file="events.evt1",
        split={"given": ds.split_given, "novel": ds.split_novel},
        background=ds.spec.background,
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)


@dataclass
class LoadedDataset:
    manifest: SceneManifest
    events: EventStream | None
    exposure_frames: list[ExposureFrame]
    gt_frames: dict[int, np.ndarray]
    init_cloud: PointCloud | None


def load_dataset(root: str, with_events: bool = True) -> LoadedDataset:
    """Read a dataset directory; the event stream only ``with_events``.
    Every image and the event stream must have the manifest's resolution."""
    manifest = read_manifest(os.path.join(root, "manifest.json"))
    w, h = manifest.resolution

    def check_size(name, size):
        if tuple(size) != (w, h):
            raise FormatError(f"{name!r} is {size[0]}x{size[1]}, but the manifest's "
                              f"resolution is {w}x{h}")

    def image(name):
        img = read_pnm(os.path.join(root, name))
        check_size(name, img.shape[::-1])
        return img

    events = None
    if with_events and manifest.event_file:
        events = read_events(os.path.join(root, manifest.event_file), manifest.resolution)
        check_size(manifest.event_file, events.resolution)
    frames = []
    for entry in manifest.exposure_frames:
        img = image(entry["image"])
        mask = np.ones_like(img, dtype=bool)
        if entry.get("mask"):
            mask = image(entry["mask"]) > 0.5
            if not mask.any():
                raise FormatError(f"exposure mask {entry['mask']!r} selects no pixel")
        frames.append(ExposureFrame(img, mask, pose_id=entry["pose_id"]))
    gt = {e["pose_id"]: image(e["image"]) for e in manifest.gt_frames}
    cloud_path = os.path.join(root, "init_points.ply")
    init_cloud = read_ply_points(cloud_path) if os.path.exists(cloud_path) else None
    return LoadedDataset(manifest, events, frames, gt, init_cloud)
