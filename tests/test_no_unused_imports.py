"""Every name a package module imports is used by that module.

An import nobody reads still couples the modules and hides which helpers
a module really depends on.  `__init__.py` is exempt: its imports are the
package's re-exported surface.
"""

import ast
from pathlib import Path

import grosslat

SRC = Path(grosslat.__file__).resolve().parent


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_detector_sees_every_import_form():
    code = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\n"
        "from math import gcd, isqrt\nfrom . import cl\n"
        "from .m import a as b\n"
        "gcd(os.sep, cl.x)\n"
    )
    assert unused_imports(ast.parse(code)) == [(4, "j"), (5, "isqrt"), (7, "b")]
