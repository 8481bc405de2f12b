"""numpy is the only runtime dependency: importing every evsplat module in a
fresh interpreter loads no other third-party module."""

import json
import os
import subprocess
import sys

import evsplat

IMPORT_ALL = """
import importlib, json, pkgutil, sys
at_start = set(sys.modules)
import evsplat
for info in pkgutil.iter_modules(evsplat.__path__):
    importlib.import_module("evsplat." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - at_start})))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = os.path.dirname(os.path.dirname(evsplat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert "evsplat" in loaded and "numpy" in loaded
    others = [name for name in loaded
              if name not in sys.stdlib_module_names and name not in ("numpy", "evsplat")]
    assert not others, f"evsplat imports third-party modules {others}"
