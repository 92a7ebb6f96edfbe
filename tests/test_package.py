import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import msgfem


def test_every_export_resolves():
    # a stale name among the package's own imports fails the import here
    package = importlib.import_module("msgfem")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"msgfem.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


@pytest.mark.parametrize("code", [
    # the root holds the config API alone, so the CLI can pin BLAS before numpy loads
    "import sys, msgfem; assert 'numpy' not in sys.modules",
    # the forms live in dg_forms, so no import order has to break a cycle
    "import msgfem.local_problems",
    # the oracles stand apart from the coarse stage
    "import sys, msgfem.verification; assert 'msgfem.gfem' not in sys.modules",
])
def test_module_layering_in_a_fresh_interpreter(code):
    src = str(Path(msgfem.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
