"""The package's names are its modules' __all__ lists, each name once."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import schmidtkit
from schmidtkit import errors

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


def constructed_names(source: str) -> set[str]:
    """Names called as Name(...) or module.Name(...) in source."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_constructed_names_sees_calls_only():
    assert constructed_names("raise A('x')\nb = errors.B()\nc = C\nf(D)") == {"A", "B", "f"}


def test_every_public_error_is_raised_under_src():
    # a class whose last raise is deleted goes with it
    package = Path(schmidtkit.__file__).parent
    called = set().union(*(constructed_names(path.read_text())
                           for path in package.rglob("*.py")))
    assert set(errors.__all__) - called == set()


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no code outside their own body names.

    sources maps a module name to its text.  A reference is a Name or
    an attribute of that name anywhere in any module, or the original
    name of an import whose local name is referenced in its module; one
    inside the definition itself, as in a recursive call, does not count.
    """
    def names(nodes) -> Counter:
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in nodes if isinstance(node, (ast.Name, ast.Attribute)))

    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        local = names(ast.walk(tree))
        total += local + Counter(alias.name for node in ast.walk(tree)
                                 if isinstance(node, ast.ImportFrom) for alias in node.names
                                 if local[alias.asname or alias.name])
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == names(ast.walk(node))[node.name]]


def test_every_private_helper_has_a_caller_under_src():
    package = Path(schmidtkit.__file__).parent
    sources = {path.stem: path.read_text() for path in package.rglob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_private_helper_guard_ignores_self_recursion():
    sources = {"walker": "def _walk(v):\n    return [_walk(x) for x in v]\n\n"
                         "def _used():\n    return 1\n",
               "caller": "from .walker import _used as _one\n\nvalue = _one()\n"}
    assert unreferenced_private_names(sources) == ["walker._walk"]
