"""The package's public API has callers in the package.

A public module-level function or class, or a public method or property of
a module-level class, must be referenced in ``src/finevo`` outside its own
definition, or be exported in ``finevo.__all__``. References are matched by
name (a bare name or an attribute), so this catches names nothing calls,
not every unused overload of a common attribute name.
"""

import ast
from pathlib import Path

import finevo

SRC = Path(finevo.__file__).parent


def _public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes and of the public methods and properties of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if qualname in finevo.__all__:
                continue
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in own for m, line in uses.get(name, ())):
                unused.append(f"{module}: {qualname}")
    assert unused == []
