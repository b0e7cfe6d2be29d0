"""Checks on the package's source text."""

import ast
from pathlib import Path

import weylchow

SOURCES = sorted(Path(weylchow.__file__).parent.glob("*.py"))


def _asserts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_assertion_errors_in_the_package():
    # `python -O` drops assert statements, and an AssertionError is no documented exit code:
    # a violated invariant raises InternalComputationError (exit 4)
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{line}: {what}" for path in SOURCES
             for line, what in _asserts(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
