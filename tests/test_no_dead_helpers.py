"""Every function, class and method the package defines is used or exported.

A definition counts as used when its name is read somewhere in the package
(as a bare name or as an attribute) outside the definition itself, or when
`grosslat.__all__` lists it.  Methods are matched by name alone, and dunder
methods are exempt: the interpreter calls them.  Code that only a test
calls belongs in the tests.
"""

import ast
from pathlib import Path

import grosslat

SRC = Path(grosslat.__file__).resolve().parent


def _definitions(tree):
    """(name, node) for each top-level def/class and each non-dunder method."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def dead_helpers(sources, exported=()):
    """Unused definitions in {module name: source}, as "module:line: name"."""
    trees = {mod: ast.parse(src, mod) for mod, src in sources.items()}
    reads = []   # (module, line, name)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((mod, node.lineno, node.attr))
    dead = []
    for mod, tree in trees.items():
        for name, node in _definitions(tree):
            if name in exported:
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            if not any(
                n == name and not (m == mod and line in lines)
                for m, line, n in reads
            ):
                dead.append((mod, node.lineno, name))
    return [f"{mod}:{line}: {name}" for mod, line, name in sorted(dead)]


def test_no_dead_helpers_in_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 1
    dead = dead_helpers(sources, set(grosslat.__all__))
    assert not dead, "defined but never used in the package:\n" + "\n".join(dead)


def test_detector_sees_functions_classes_and_methods():
    sources = {
        "a.py": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def exported():\n    pass\n"
            "class Order:\n"
            "    def __init__(self):\n        self.x = used()\n"
            "    def is_ring(self):\n        return self.is_ring()\n"
            "    def called(self):\n        return 0\n"
            "class Unused:\n    pass\n"
        ),
        "b.py": "from .a import Order\nOrder().called()\n",
    }
    assert dead_helpers(sources, {"exported"}) == [
        "a.py:3: recursive",
        "a.py:10: is_ring",
        "a.py:14: Unused",
    ]
