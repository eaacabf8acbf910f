"""README's inline signatures match the package's functions.

Every backticked `name(args)` in README.md whose name is exported (in
`__all__` of schmidtkit or one of its modules) must read exactly as the
name followed by its inspect.signature, without annotations.  A
parameter added, renamed or removed in code then fails here until the
README follows.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import schmidtkit

README = Path(__file__).resolve().parents[1] / "README.md"
CALL = re.compile(r"`([A-Za-z_]\w*)\(([^`]*)\)`")


def _exported() -> dict:
    modules = [schmidtkit] + [importlib.import_module(f"schmidtkit.{info.name}")
                              for info in pkgutil.iter_modules(schmidtkit.__path__)]
    return {name: getattr(module, name)
            for module in modules for name in getattr(module, "__all__", ())}


def _signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def stale_signatures(text: str, exported: dict) -> list[tuple[str, str]]:
    """(written, actual) for each documented signature that differs."""
    stale = []
    for match in CALL.finditer(text):
        name, args = match.groups()
        if name in exported:
            written = f"{name}({' '.join(args.split())})"
            actual = name + _signature(exported[name])
            if written != actual:
                stale.append((written, actual))
    return stale


def test_readme_signatures_match_code():
    text = README.read_text()
    exported = _exported()
    documented = [m.group(1) for m in CALL.finditer(text) if m.group(1) in exported]
    assert len(documented) >= 8
    assert stale_signatures(text, exported) == []


def test_signature_guard_flags_stale_signatures_only():
    def probe(state, seed=0):
        pass

    exported = {"probe": probe}
    text = ("`probe(state, seed=0)` and `probe(state,\n  seed=0)` are current; "
            "`probe(state)` is stale; `other(x)` and `probe` are not checked")
    assert stale_signatures(text, exported) == [("probe(state)", "probe(state, seed=0)")]
