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


#: private module-level names kept although no package code reads them, with the reason
UNREFERENCED_ALLOWED = {
    "_poly_limit": "perfbench/record_golden.py reads the route split its golden pools were drawn with",
}


#: methods besides `Record.__init__` that store record fields with `object.__setattr__`,
#: with the reason
SETATTR_ALLOWED = {
    "ChowClass.__init__": "on the products hot path (846 classes per products-e6p1 round), "
                          "where Record.__init__ costs about 0.5 us more per class",
}


def _setattr_calls(tree):
    """'Class.method' for every method of a top-level class that reads object.__setattr__,
    and the bare line number for a read anywhere else."""
    inside = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    inside.update((n, f"{cls.name}.{fn.name}") for n in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
                and getattr(node.value, "id", None) == "object":
            yield inside.get(node, str(node.lineno))


def test_only_the_record_constructor_stores_fields():
    # a record stores its fields through Record.__init__, which refuses a missing, unknown
    # or repeated field; only the allowlisted methods store their own
    found = {where for path in SOURCES
             for where in _setattr_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"Record.__init__", *SETATTR_ALLOWED}


def _references(tree, skip=None):
    """Names and attribute names read anywhere in tree, imported names included, apart
    from the lines of the node `skip` (a definition's own body)."""
    lines = range(skip.lineno, skip.end_lineno + 1) if skip else ()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in lines:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_definition_is_referenced_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    everywhere = {path: set(_references(tree)) for path, tree in trees.items()}
    unreferenced = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__") or name in UNREFERENCED_ALLOWED:
                continue
            used = any(name in refs for other, refs in everywhere.items() if other != path)
            if not (used or name in set(_references(tree, skip=node))):
                unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []
    assert set(UNREFERENCED_ALLOWED) <= {node.name for tree in trees.values() for node in tree.body
                                         if isinstance(node, ast.FunctionDef)}


def _defaulted(fn, method):
    """{parameter name: its position in a call} for the parameters of fn with a default;
    a method's position counts from the argument after self."""
    args = fn.args.posonlyargs + fn.args.args
    skip = 1 if method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list) else 0
    out = {a.arg: i - skip for i, a in enumerate(args) if i >= len(args) - len(fn.args.defaults)}
    out.update((a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d)
    return out


def test_every_private_default_is_passed_by_some_package_call():
    # a defaulted parameter of a private function that no package call passes is an
    # option only tests can set: its default is the behaviour, so it is a constant
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defs = []
    for tree in trees:
        for node in ast.walk(tree):
            body = node.body if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.Module)) else []
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") \
                        and not fn.name.endswith("__"):
                    defs.append((fn, isinstance(node, ast.ClassDef)))
    most = {}      # function name -> most positional arguments a package call passes
    keywords = {}  # function name -> keywords a package call passes ("**" for a mapping)
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                most[name] = max(most.get(name, 0), float("inf") if starred else len(call.args))
                keywords.setdefault(name, set()).update(kw.arg or "**" for kw in call.keywords)
    unpassed = [f"{fn.name}({param}=)" for fn, method in defs
                for param, position in _defaulted(fn, method).items()
                if not ((position is not None and most.get(fn.name, 0) > position)
                        or {param, "**"} & keywords.get(fn.name, set()))]
    assert unpassed == []
