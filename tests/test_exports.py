import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# The __all__ names that no src code outside their own definition imports,
# calls or reads as an attribute, each with the reason it stays in src.
# Everything else a module exports must be reached from src: a name only
# the tests reach belongs under tests/ (tests/oracles.py holds the
# references), and one nothing reaches is deleted.
UNREACHED = {
    "lmo_witness": "acceptance criterion 4 checks it; the ROADMAP plans it for the detector rows of verify",
    "ks_witness": "acceptance criterion 4 checks it; the ROADMAP plans it for the detector rows of verify",
    "ks_ratio": "acceptance criterion 4 checks it; the ROADMAP plans it for the detector rows of verify",
    "psi_mellin": "acceptance criterion 7 checks it; the ROADMAP plans it for the smoothed explicit formula",
    "e_kernel_bound_check": "acceptance criterion 7 checks it; the ROADMAP plans it for the smoothed explicit formula",
    "e_kernel_partial_sum": "acceptance criterion 7 checks it; the ROADMAP plans it for the smoothed explicit formula",
    "detector_window_sum": "the ROADMAP plans it for the detector rows of verify",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _reached(tree: ast.Module) -> set[str]:
    """Names the module imports, loads or reads as an attribute, outside the top-level definition of each."""
    reached = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = {node.attr}
            else:
                continue
            reached |= names - {own}
    return reached


def test_src_imports_only_exported_names():
    # The reverse of the reached-check below: a name that one src module
    # imports from another belongs to the defining module's interface, so
    # that module's __all__ lists it.  Submodules are imported by name.
    unlisted = []
    for path in sorted(Path(zerokit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("zerokit")):
                assert not node.level, f"{path.name}: relative import"
                module = importlib.import_module(node.module)
                exported = getattr(module, "__all__", ())
                for name in (alias.name for alias in node.names):
                    if not inspect.ismodule(getattr(module, name)) and name not in exported:
                        unlisted.append(f"{path.name}: {node.module}.{name}")
    assert not unlisted, unlisted


def test_src_exports_only_what_src_reaches():
    trees = [ast.parse(path.read_text()) for path in sorted(Path(zerokit.__file__).parent.rglob("*.py"))]
    exported = {name for tree in trees for name in _exports(tree)}
    reached = set().union(*map(_reached, trees))
    unreached = exported - reached
    assert not unreached - set(UNREACHED), f"exported, reached by no src code: {sorted(unreached - set(UNREACHED))}"
    assert not set(UNREACHED) - unreached, f"listed, but reached by src or no longer exported: {sorted(set(UNREACHED) - unreached)}"
