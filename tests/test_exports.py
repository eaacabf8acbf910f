"""The package's names are its modules' __all__ lists, each name once."""

import importlib
import pkgutil

import schmidtkit

REEXPORTED = ("state", "fixtures", "bipartite", "multipartite", "partition",
              "compose", "purify", "io", "errors")


def test_package_all_concatenates_the_module_lists():
    modules = [importlib.import_module(f"schmidtkit.{name}") for name in REEXPORTED]
    names = [name for module in modules for name in module.__all__]
    assert schmidtkit.__all__ == ["__version__"] + names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(schmidtkit, name) is getattr(module, name), name
    # both share a name with their module; the package holds the functions
    assert schmidtkit.compose is modules[REEXPORTED.index("compose")].compose
    assert schmidtkit.purify is modules[REEXPORTED.index("purify")].purify


def test_every_other_module_stays_out_of_the_package_namespace():
    others = {info.name for info in pkgutil.iter_modules(schmidtkit.__path__)}
    assert others - set(REEXPORTED) == {"cli", "linalg", "tolerances"}
    assert not hasattr(schmidtkit, "main")
    assert not hasattr(schmidtkit, "polar")
