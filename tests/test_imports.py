"""Every name a module of ``autodiss`` imports is used in that module,
and the graph walkers read only the integer rows.

A standard-library stand-in for a linter's unused-import rule: an ``ast``
scan of the package's modules.  ``__init__.py`` is skipped, since its
imports are the public re-exports.  A second scan keeps ``conformance``
and ``composition`` off the named arrow views and ``Arrow``: their tours,
searches and tuple graphs walk ``moves`` and ``successors``.  A third
keeps every module off an input model's names-keyed ``probs`` view and
``arrow_probability``, outside ``InputModel`` itself: models are read as
weight rows.  A fourth keeps a machine's rules in two readers: only the
stepper ``_advance`` and the log replay ``Trajectory._replay`` apply
``step_rules``, and only ``step_rules`` itself and ``head_automaton``
read ``rules``.  A fifth keeps the choice-bits sum ``_bits`` in two
callers: a model's per-row memo ``InputModel._choice_bits``, which every
charge reads, and ``cmd_wire``'s per-degree cache, which has no model.  A
sixth keeps a configuration's cells in one decoder: only ``_tape`` reads
``.cells``, and ``Trajectory._replay`` only to check ``self.end``.  A
seventh keeps the package's ``__getattr__`` the one lazy loader of its
submodules: no function imports anything but numpy, so a module reaches
another as an attribute of the package or imports it at module level.
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


NAMED_VIEWS = {"by_source", "by_pair", "arrows"}


def named_arrow_uses(source):
    """(line, name) of each read of a named arrow view and each mention
    of ``Arrow`` in ``source``: a name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NAMED_VIEWS | {"Arrow"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "Arrow":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "Arrow"]
    return sorted(found)


def test_the_scan_finds_named_arrow_uses():
    source = ("from .core import Arrow as A, Automaton\n"
              "def f(a: Automaton) -> list['A']:\n"
              "    return [a.by_source, a.moves, a.arrows, a.successors]\n"
              "g = lambda a: [core.Arrow(*k) for k in a.by_pair]\n"
              "h: Arrow\n")
    assert named_arrow_uses(source) == [
        (1, "Arrow"), (3, "arrows"), (3, "by_source"), (4, "Arrow"), (4, "by_pair"), (5, "Arrow"),
    ]


def test_graph_walkers_read_only_the_integer_rows():
    found = [f"{name}:{line}: {what}" for name in ("conformance.py", "composition.py")
             for line, what in named_arrow_uses((PACKAGE / name).read_text(encoding="utf-8"))]
    assert found == []


NAMED_MODEL_READS = {"probs", "arrow_probability"}


def named_model_reads(source):
    """(line, name) of each read of ``probs`` or ``arrow_probability`` in
    ``source``, outside the body of a class named ``InputModel``."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "InputModel":
            return
        if isinstance(node, ast.Attribute) and node.attr in NAMED_MODEL_READS:
            found.append((node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_the_scan_finds_named_model_reads():
    source = ("class InputModel:\n"
              "    def p(self, q, ar):\n"
              "        return self.probs[q].get(ar.key)\n"
              "def f(m, q, ar):\n"
              "    return m.probs[q], m.arrow_probability(q, ar), m.weights\n"
              "class Other:\n"
              "    x = staticmethod(lambda m: m.probs)\n")
    assert named_model_reads(source) == [(5, "arrow_probability"), (5, "probs"), (7, "probs")]


def test_models_are_read_as_weight_rows():
    found = [f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
             for line, what in named_model_reads(path.read_text(encoding="utf-8"))]
    assert found == []


RULE_READERS = {"step_rules": {"_advance", "Trajectory._replay"},
                "rules": {"TuringMachine.step_rules", "head_automaton"}}


def rule_reads(source):
    """(line, name, where) of each read of ``.step_rules`` or ``.rules`` in
    ``source`` outside the functions ``RULE_READERS`` allows; ``where`` is
    the dotted name of the enclosing classes and functions."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif (isinstance(node, ast.Attribute) and node.attr in RULE_READERS
              and where not in RULE_READERS[node.attr]):
            found.append((node.lineno, node.attr, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_scan_finds_rule_reads():
    source = ("class TuringMachine:\n"
              "    def step_rules(self):\n"
              "        return self.rules\n"
              "def _advance(tm):\n"
              "    return tm.step_rules, tm.rules\n"
              "class Trajectory:\n"
              "    def _replay(self):\n"
              "        return [self.tm.step_rules for _ in self.log]\n"
              "def bennett_simulate(tm):\n"
              "    return tm.rules[('q', 'a')], tm.halting\n"
              "first = tm.step_rules\n")
    assert rule_reads(source) == [
        (5, "rules", "_advance"), (10, "rules", "bennett_simulate"), (11, "step_rules", ""),
    ]


def test_only_the_stepper_and_the_replay_apply_rules():
    found = [f"{path.name}:{line}: {name} in {where or 'module'}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name, where in rule_reads(path.read_text(encoding="utf-8"))]
    assert found == []


BITS_CALLERS = {"InputModel._choice_bits", "cmd_wire"}


def bits_uses(source):
    """(line, where) of each read of ``_bits``, as a name or an attribute, in
    ``source`` outside the functions ``BITS_CALLERS`` names; ``where`` is as
    in :func:`rule_reads`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif ((isinstance(node, ast.Name) and node.id == "_bits"
               or isinstance(node, ast.Attribute) and node.attr == "_bits")
              and isinstance(node.ctx, ast.Load) and where not in BITS_CALLERS):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_scan_finds_bits_uses():
    source = ("def _bits(row):\n"
              "    return sum(row)\n"
              "class InputModel:\n"
              "    def _choice_bits(self):\n"
              "        return [_bits(r) for r in self.weights]\n"
              "def cmd_wire(args):\n"
              "    return (lambda d: dissipation._bits([1 / d] * d))(2)\n"
              "def ensemble(weights):\n"
              "    return list(map(_bits, weights)), dissipation._bits(())\n"
              "charge = _bits\n")
    assert bits_uses(source) == [(9, "ensemble"), (9, "ensemble"), (10, "")]


def test_choice_bits_are_summed_only_by_the_model_memo():
    found = [f"{path.name}:{line}: _bits in {where or 'module'}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, where in bits_uses(path.read_text(encoding="utf-8"))]
    assert found == []



# where ``.cells`` may be read: anywhere in ``_tape``, and of ``self.end`` in the replay
CELL_READERS = {"_tape": None, "Trajectory._replay": "self.end"}


def cell_reads(source):
    """(line, where) of each read of ``.cells`` in ``source`` that
    ``CELL_READERS`` does not allow; ``where`` is as in :func:`rule_reads`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "cells" and isinstance(node.ctx, ast.Load)
              and CELL_READERS.get(where, False) not in (None, ast.unparse(node.value))):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_scan_finds_cell_reads():
    source = ("class Configuration:\n"
              "    cells: tuple\n"
              "    def read(self, blank):\n"
              "        return dict(self.cells).get(self.head, blank)\n"
              "def _tape(c, blank):\n"
              "    return list(c.cells)\n"
              "class Trajectory:\n"
              "    def _replay(self, c):\n"
              "        return c.cells, self.end.cells, self.start.cells\n"
              "def tm_run(tm):\n"
              "    return Configuration(cells=()), end.cells\n"
              "first = start.cells\n")
    assert cell_reads(source) == [
        (4, "Configuration.read"), (9, "Trajectory._replay"), (9, "Trajectory._replay"),
        (11, "tm_run"), (12, ""),
    ]


def test_configurations_are_decoded_only_by_tape():
    found = [f"{path.name}:{line}: cells in {where or 'module'}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, where in cell_reads(path.read_text(encoding="utf-8"))]
    assert found == []


# what a function may import: numpy, which the ensemble functions load on first use
FUNCTION_IMPORTS = {"numpy"}


def function_imports(source):
    """(line, where, statement) of each import inside a function in ``source``
    of a module ``FUNCTION_IMPORTS`` does not name; ``where`` is as in
    :func:`rule_reads`."""
    found = []

    def visit(node, where, in_function):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
            in_function = in_function or not isinstance(node, ast.ClassDef)
        elif in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else ["." * node.level + (node.module or "")])
            if not {m.partition(".")[0] for m in modules} <= FUNCTION_IMPORTS:
                found.append((node.lineno, where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_function)

    visit(ast.parse(source), "", False)
    return sorted(found)


def test_the_scan_finds_function_imports():
    source = ("from typing import TYPE_CHECKING\n"
              "import autodiss as ad\n"
              "if TYPE_CHECKING:\n"
              "    from .turing import TuringMachine\n"
              "def f():\n"
              "    from . import fileformat, turing\n"
              "    import numpy as np\n"
              "    return ad.core.run\n"
              "class C:\n"
              "    import json\n"
              "    def g(self):\n"
              "        from .core import run\n"
              "        import autodiss.dot, numpy\n"
              "        def h():\n"
              "            from numpy import zeros\n"
              "            from json import dumps\n")
    assert function_imports(source) == [
        (6, "f", "from . import fileformat, turing"), (12, "C.g", "from .core import run"),
        (13, "C.g", "import autodiss.dot, numpy"), (16, "C.g.h", "from json import dumps"),
    ]


def test_only_the_package_loads_its_submodules_lazily():
    found = [f"{path.name}:{line}: {statement} in {where}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, where, statement in function_imports(path.read_text(encoding="utf-8"))]
    assert found == []
