import importlib
import pkgutil


def test_every_export_resolves():
    # a stale name among the package's own imports fails the import here
    package = importlib.import_module("msgfem")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"msgfem.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
