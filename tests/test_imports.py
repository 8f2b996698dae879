"""Every name a module of the package imports is used in that module,
and every private helper it defines is read somewhere in the package.

The scan reads each module's syntax tree. An import binds the name it is
imported as (`from x import a as b` binds b, `import a.b` binds a), and
the binding is used when the module reads the name anywhere (a Name node
in load context, attribute bases included) or lists it in __all__, as the
package's __init__ re-exports its imports. `from __future__` imports bind
nothing. With `from __future__ import annotations` annotations are still
parsed, so a name read in an annotation counts as used.

A private helper is a function, method or class whose name starts with
one underscore (dunder methods are the language's, not helpers). It has a
caller when some module of the package reads its name: a Name node in
load context, or an Attribute node in load context (self._helper,
linalg._helper). Docstrings, comments and other strings do not count.
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


def unused_helpers(sources):
    """(module, name) of each private helper that the {module: source}
    sources define and no source reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        (module, node.name) for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read)


def test_every_private_helper_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_helpers(sources) == []


def test_the_scan_sees_an_unused_helper():
    source = ("class _Kept:\n"
              "    def _read(self):\n"
              "        return 1\n"
              "    def _unread(self):\n"
              "        '_unread and _never are named in strings only'\n"
              "    def __len__(self):\n"
              "        return self._read()\n"
              "def _never():\n"
              "    return _Kept\n")
    other = "from m import _Kept\n_Kept()\n"
    assert unused_helpers({"m": source, "n": other}) == [
        ("m", "_never"), ("m", "_unread")]
