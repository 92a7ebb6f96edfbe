import ast
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


def _unused_imports(source: str) -> list:
    """The names a module's imports bind that it never reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # the scan flags a leftover import and passes a used or re-exported one
    assert _unused_imports("from .decomposition import Decomposition\n"
                           "import numpy as np\nfrom .errors import ConfigError\n"
                           "__all__ = ['ConfigError']\nnp.zeros(1)\n") == ["Decomposition"]
    # the package root's imports are its re-exports
    modules = sorted(Path(msgfem.__file__).parent.glob("[!_]*.py"))
    assert "gfem.py" in {path.name for path in modules}
    unused = {path.name: _unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
