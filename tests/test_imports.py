"""Every name a module of the package imports is used in that module.

The scan reads each module's syntax tree. An import binds the name it is
imported as (`from x import a as b` binds b, `import a.b` binds a), and
the binding is used when the module reads the name anywhere (a Name node
in load context, attribute bases included) or lists it in __all__, as the
package's __init__ re-exports its imports. `from __future__` imports bind
nothing. With `from __future__ import annotations` annotations are still
parsed, so a name read in an annotation counts as used.
"""

import ast
from pathlib import Path

import stackyring

PACKAGE = Path(stackyring.__file__).parent

# bindings that no code of their module reads: benchmark/spans.py's tracer
# replaces each function on every module that holds a reference to it, and
# benchmark/tests/test_benchmark.py pins these two aliases in stacky
KEPT_FOR_THE_TRACER = {("stacky", "cokernel"),
                       ("stacky", "solve_integer_linear")}


def unused_imports(source):
    """Names that the module source imports and never uses, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    found = {(path.stem, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for name in unused_imports(path.read_text())}
    assert found == KEPT_FOR_THE_TRACER


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, lcm as least\n"
              "__all__ = ['gcd']\n"
              "def f(x: Fraction) -> int:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["least"]
