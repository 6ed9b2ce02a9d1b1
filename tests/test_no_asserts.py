"""The package checks its invariants with typed errors, never `assert`.

`python -O` strips assert statements, so a load-bearing assert silently
stops checking; `raise AssertionError` reads as one and is banned with it.
"""

import ast
from pathlib import Path

import grosslat

SRC = Path(grosslat.__file__).resolve().parent


def assert_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_asserts_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in assert_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "use a typed error instead:\n" + "\n".join(found)


def test_detector_sees_both_forms():
    code = "assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError"
    assert [what for _, what in assert_sites(ast.parse(code))] == [
        "assert statement",
        "raise AssertionError",
        "raise AssertionError",
    ]
