"""Every ``raise`` in ``autodiss`` is a bare re-raise or names a class the
module imports from ``autodiss.errors``, so that one ``except
AutomataError`` catches whatever the package refuses.

An ``ast`` scan of the package's modules, like ``test_imports``.  Three
raises are required by a protocol and allowed by name: ``IndexError``
from the ``__getitem__`` that ``turing``'s read-only sequences share,
``AttributeError`` from a module ``__getattr__`` and
``argparse.ArgumentTypeError`` from an argparse ``type`` function.
"""

import ast
import pathlib

import autodiss

PACKAGE = pathlib.Path(autodiss.__file__).parent

# (module file, enclosing function, raised class)
ALLOWED = {
    ("turing.py", "_TupleView.__getitem__", "IndexError"),
    ("__init__.py", "__getattr__", "AttributeError"),
    ("cli.py", "_non_negative_int", "argparse.ArgumentTypeError"),
}


def foreign_raises(source, module):
    """(line, enclosing function, raised expression) of each ``raise`` in
    ``source`` that re-raises nothing, names no class imported from
    ``.errors`` and is not in ``ALLOWED`` for ``module``."""
    tree = ast.parse(source)
    ours = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
            for alias in node.names}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                raised, where = ast.unparse(exc), ".".join(scope)
                if raised not in ours and (module, where, raised) not in ALLOWED:
                    found.append((child.lineno, where, raised))
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_scan_finds_foreign_raises():
    source = (
        "from .errors import ParseError\n"
        "def f(x):\n"
        "    try:\n"
        "        return int(x)\n"
        "    except KeyError:\n"
        "        raise\n"
        "    except ValueError as e:\n"
        "        raise ParseError(1, 'x') from e\n"
        "    raise ValueError('x')\n"
        "class T:\n"
        "    def __getitem__(self, i):\n"
        "        raise IndexError(i)\n"
    )
    assert foreign_raises(source, "m.py") == [(9, "f", "ValueError"),
                                              (12, "T.__getitem__", "IndexError")]
    assert foreign_raises(source.replace("class T", "class _TupleView"), "turing.py") == [
        (9, "f", "ValueError")]


def test_package_modules_raise_only_package_errors():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}:{line}: {where}: {raised}"
                  for line, where, raised in foreign_raises(path.read_text(encoding="utf-8"),
                                                            path.name)]
    assert found == []
