"""Source guards: runtime invariants of the library raise typed errors, never
`assert` statements (which `python -O` strips) or bare AssertionError."""

import ast
from pathlib import Path

import koszulkit

SRC = Path(koszulkit.__file__).parent


def test_library_has_no_assert_or_assertion_error():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, "\n".join(found)
