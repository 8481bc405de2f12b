"""The names, call shapes and tape fields the benchmark's tracer relies on.

`install_tracer` in bench/workloads.py replaces these module attributes by
recording wrappers and hands each call's arguments to a callback with a
fixed signature; its counts read a taped render's fields.  A rename or a
changed call shape leaves a span silently absent or breaks a traced run,
so it is pinned here.
"""

import importlib
import inspect

import numpy as np
import pytest

from conftest import multi_chunk_scene, small_camera

import evsplat.render as R
from evsplat.backward import render_backward

# wrapped attributes by module; the tracer also wraps evsplat.dataset's
# simulate_exposure_events and extract_ipe, which that module no longer
# imports, so their exposure spans stay absent
WRAPPED = {
    "evsplat.training": ("render", "render_backward", "exposure_loss", "motion_event_loss",
                         "log_intensity_upstream", "accumulate_events", "densify_and_prune",
                         "_eval_psnr", "optimizer_step"),
    "evsplat.render": ("render", "_project", "_composite", "_chunk_footprints",
                       "_stable_sort_by_pixel"),
    "evsplat.backward": ("render_backward",),
    "evsplat.dataset": ("simulate_motion_events", "map_temporal_to_intensity",
                        "write_dataset", "load_dataset"),
    "evsplat.scene": ("save_scene", "load_scene"),
}


# the positional shapes the tracer's callbacks bind each call's arguments to
def _project_shape(scene, cam, *args, **kwargs): ...
def _composite_shape(proj, colors, bg, width, height, keep_tape, *args, **kwargs): ...
def _chunk_footprints_shape(proj, lo, hi, width, keep_idx=None): ...
def _stable_sort_by_pixel_shape(pix, pcount): ...


SHAPES = {"_project": _project_shape, "_composite": _composite_shape,
          "_chunk_footprints": _chunk_footprints_shape,
          "_stable_sort_by_pixel": _stable_sort_by_pixel_shape}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in WRAPPED.items()
                                          for n in names])
def test_wrapped_names_exist(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_render_internals_are_called_in_the_tracer_shapes(monkeypatch):
    calls = {name: [] for name in SHAPES}
    for name, shape in SHAPES.items():
        def wrapper(*args, _orig=getattr(R, name), _name=name, _shape=shape, **kwargs):
            inspect.signature(_shape).bind(*args, **kwargs)
            calls[_name].append(args)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(R, name, wrapper)

    scene, cam = multi_chunk_scene(np.random.default_rng(0)), small_camera()
    tape = R.render(scene, cam, keep_tape=True).tape
    assert all(calls.values())
    (proj, _, _, width, height, keep_tape), = (c[:6] for c in calls["_composite"])
    assert (width, height, keep_tape) == (cam.width, cam.height, True)
    # the tracer counts tile culls as the Gaussians projected less those
    # handed to _chunk_footprints
    assert sum(hi - lo for _, lo, hi, _ in calls["_chunk_footprints"]) == len(proj.orig_idx)

    # the fields its counts read
    assert tape.proj is proj
    assert tape.proj.rect.shape == (len(tape.proj.orig_idx), 4)
    assert len(tape.chunk_offsets) - 1 == len(calls["_stable_sort_by_pixel"]) >= 2
    k = tape.chunk_offsets[-1]
    assert len(tape.pix) == len(tape.gi) == len(tape.live) == k > 0
    assert tape.live.dtype == bool


def test_backward_takes_the_tape_last_and_optional():
    params = inspect.signature(render_backward).parameters
    assert list(params)[:4] == ["scene", "cam", "upstream", "tape"]
    assert params["tape"].default is None
