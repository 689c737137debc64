"""One walk and one loop for the ``ast`` scans that hold ``autodiss`` to
its design rules.  A rule is a filter: a function of a module's source
that lists its hits, each a tuple that starts with a line number.
"""

import ast
import pathlib

import autodiss

PACKAGE = pathlib.Path(autodiss.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def nodes(source):
    """(node, where, in_function) for every node of ``source``, in source
    order.  ``where`` is the dotted name of the classes and functions that
    enclose the node, ``""`` at module level, and ``in_function`` says
    whether one of them is a function.  A ``def`` or ``class`` is listed
    where it stands; its decorators, arguments and body are inside it."""
    found = []

    def walk(node, where, in_function):
        found.append((node, where, in_function))
        if isinstance(node, SCOPES):
            where = f"{where}.{node.name}" if where else node.name
            in_function = in_function or not isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            walk(child, where, in_function)

    walk(ast.parse(source), "", False)
    return found


def scan(find, *modules, by_name=False):
    """``file:line: rest`` for each hit of ``find`` in the package's
    modules, or in the named ones.  ``find`` is called with a module's
    source, and with its file name too when ``by_name`` is set."""
    found = []
    for name in modules or MODULES:
        source = (PACKAGE / name).read_text(encoding="utf-8")
        found += [f"{name}:{line}: {', '.join(map(repr, rest))}"
                  for line, *rest in (find(source, name) if by_name else find(source))]
    return found
