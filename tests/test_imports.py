"""Every name a module of ``autodiss`` imports is used in that module.

A standard-library stand-in for a linter's unused-import rule: an ``ast``
scan of the package's modules.  ``__init__.py`` is skipped, since its
imports are the public re-exports.
"""

import ast
import pathlib

import autodiss

PACKAGE = pathlib.Path(autodiss.__file__).parent


def unused_imports(source):
    """(line, name) of each imported name never loaded in ``source``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_unused_imports():
    source = "import os, sys\nfrom typing import Optional as Opt, Sequence\nx: Opt[int] = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (2, "Sequence")]


def test_package_modules_use_every_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{line}: {name}"
                      for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
