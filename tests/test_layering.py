"""Layers use each other's public API only.

A module under src/wormdb/ may read ``obj._name`` only when it defines
``_name`` itself (as a function, class, method, attribute or variable).
``self`` and ``cls`` are the module's own objects; ``os._exit`` is the
standard library's documented way to end a process at once.
"""

import ast
from pathlib import Path

import wormdb

PACKAGE = Path(wormdb.__file__).resolve().parent
EXEMPT_OWNERS = {"self", "cls", "os"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return {name for name in names if _private(name)}


def foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """(line, "owner._name") for each read of a private name the module
    does not define."""
    tree = ast.parse(source)
    own = _defined(tree)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _private(node.attr) and node.attr not in own):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in EXEMPT_OWNERS:
            continue
        found.append((node.lineno, f"{ast.unparse(owner)}.{node.attr}"))
    return found


def test_detector_flags_foreign_private_reads():
    source = (
        "def f(store):\n"
        "    return store._read_master()\n"
        "class A:\n"
        "    def _mine(self):\n"
        "        return self._other + os._exit\n"
        "def g(a):\n"
        "    return a._mine()\n"
    )
    assert foreign_private_reads(source) == [(2, "store._read_master")]


def test_modules_use_only_public_api_of_other_modules():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, expr in foreign_private_reads(path.read_text("utf-8")):
            offences.append(f"{path.name}:{line}: {expr}")
    assert offences == []
