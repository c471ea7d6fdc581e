import importlib
import pkgutil

import zerokit


def test_every_export_resolves_and_packages_reexport_nothing():
    # Each name is imported from the module that defines it: every __all__
    # entry must exist there, and the two packages bind no public name
    # beyond __version__ and their submodules (which importing them binds).
    modules = [info.name for info in pkgutil.walk_packages(zerokit.__path__, "zerokit.")]
    assert "zerokit.dirichlet.hurwitz" in modules and "zerokit.verify" in modules
    for name in modules:
        module = importlib.import_module(name)
        missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
        assert not missing, (name, missing)
    assert zerokit.__version__
    for package in (zerokit, importlib.import_module("zerokit.dirichlet")):
        submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
        public = {name for name in vars(package) if not name.startswith("_")} - submodules
        assert not public, (package.__name__, sorted(public))
        assert not hasattr(package, "__all__")
