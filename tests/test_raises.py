"""Every ``raise`` in ``autodiss`` is a bare re-raise or names a class the
module imports from ``autodiss.errors``, so that one ``except
AutomataError`` catches whatever the package refuses.

A filter over ``astscan.nodes``, like the rules of ``test_imports``.  Three
raises are required by a protocol and allowed by name: ``IndexError``
from the ``__getitem__`` that ``core``'s read-only sequences share,
``AttributeError`` from a module ``__getattr__`` and
``argparse.ArgumentTypeError`` from an argparse ``type`` function.
"""

import ast

import astscan

# (module file, enclosing function, raised class)
ALLOWED = {
    ("core.py", "_TupleView.__getitem__", "IndexError"),
    ("__init__.py", "__getattr__", "AttributeError"),
    ("cli.py", "_non_negative_int", "argparse.ArgumentTypeError"),
}


def foreign_raises(source, module):
    """(line, enclosing function, raised expression) of each ``raise`` in
    ``source`` that re-raises nothing, names no class imported from
    ``.errors`` and is not in ``ALLOWED`` for ``module``."""
    walked = astscan.nodes(source)
    ours = {alias.asname or alias.name for node, _, _ in walked
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
            for alias in node.names}
    raises = [(node.lineno, where,
               ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
              for node, where, _ in walked if isinstance(node, ast.Raise) and node.exc is not None]
    return [(line, where, raised) for line, where, raised in raises
            if raised not in ours and (module, where, raised) not in ALLOWED]


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
    assert foreign_raises(source.replace("class T", "class _TupleView"), "core.py") == [
        (9, "f", "ValueError")]


def test_package_modules_raise_only_package_errors():
    assert astscan.scan(foreign_raises, by_name=True) == []
