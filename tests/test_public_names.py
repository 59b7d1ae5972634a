"""The package's public functions and classes are all used by the package itself.

A public name that only the tests call is a second API beside the one the
command line runs; the tests' own routes live in ``tests/support.py``.
"""

import ast
from pathlib import Path

import spinphase

SOURCES = sorted(p for p in Path(spinphase.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_public_definition_is_referenced_outside_its_own_body():
    # Each top-level statement of every module, with the names it reads: an
    # ast.Name or the attribute of an ast.Attribute.  Imports, docstrings and
    # comments read none, so re-exports do not count as uses.
    statements = [(path.name, node) for path in SOURCES for node in ast.parse(path.read_text()).body]
    reads = [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for _, node in statements
    ]
    unused = [
        f"{module}:{node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert unused == []
