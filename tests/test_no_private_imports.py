"""No package module reads another module's underscore name.

A leading underscore marks a helper as its own module's business.  A
module that imports one (`from .lattice import _helper`) or reads one
through a module name (`lattice._helper`) depends on a detail its owner
may change without notice; the owner should make the helper public or
offer the same through its public API instead.
"""

import ast
from pathlib import Path

import grosslat

SRC = Path(grosslat.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(tree):
    """(line, "module.name") for each underscore name read from a module."""
    found = []
    modules = {}   # local name -> what it was imported as
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    modules[top] = top
                if any(_private(part) for part in alias.name.split(".")):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                full = source + alias.name if node.module is None else (
                    f"{source}.{alias.name}"
                )
                if _private(alias.name):
                    found.append((node.lineno, full))
                else:   # `from . import lattice` binds a module
                    modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_no_private_names_across_package_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in private_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "another module's private name:\n" + "\n".join(found)


def test_detector_sees_every_form():
    code = (
        "from __future__ import annotations\n"
        "import sys\nimport os.path as osp\n"
        "from . import lattice as lat\nfrom .lattice import _norm_pools\n"
        "from .orders import enumerate_types, _walk as w\n"
        "from grosslat.exact import hnf\nimport grosslat._x\n"
        "def f(self):\n"
        "    return lat._minimal_basis, sys._getframe, osp._x, self._y, hnf.__doc__\n"
    )
    assert private_uses(ast.parse(code)) == [
        (5, ".lattice._norm_pools"),
        (6, ".orders._walk"),
        (8, "grosslat._x"),
        (10, ".lattice._minimal_basis"),
        (10, "os.path._x"),
        (10, "sys._getframe"),
    ]
