"""The design rules of ``autodiss``, each an ``ast`` scan of the package's
modules with a self-test on a small source.  A scan is a filter over
:func:`astscan.nodes`, the one walk, which names the classes and functions
around every node, and :func:`astscan.scan` runs it over the modules.

1. Every name a module imports is used in it: a standard-library stand-in
   for a linter's rule.  ``__init__.py`` is skipped, since its imports are
   the public re-exports.
2. ``conformance`` and ``composition`` stay off the named arrow views and
   ``Arrow``: their tours, searches and tuple graphs walk ``moves`` and
   ``successors``.
3. No module reads an input model's names-keyed ``probs`` view or
   ``arrow_probability``, outside ``InputModel`` itself: models are read
   as weight rows.
4. A machine's rules have two readers: only the stepper ``_advance`` and
   the log replay ``Trajectory._replay`` apply ``step_rules``, and only
   ``step_rules`` itself and ``head_automaton`` read ``rules``.
5. The choice-bits sum ``_bits`` has two callers: a model's per-row memo
   ``InputModel._choice_bits``, which every charge reads, and
   ``cmd_wire``'s per-degree cache, which has no model.
6. A configuration's cells have one decoder: only ``_tape`` reads
   ``.cells``, and ``Trajectory._replay`` only to check ``self.end``.
7. The package's ``__getattr__`` is the one lazy loader of its submodules:
   no function imports anything but numpy, so a module reaches another as
   an attribute of the package or imports it at module level.
8. Only ``tm_run`` and ``tm_step`` run a machine through ``_advance``; a
   stored run is read from its log.
9. Every ``raise`` names a package error, so that one ``except
   AutomataError`` catches every refusal: ``tests/test_raises.py``.
10. The reachability walks ``core._reached`` and
    ``composition.reachable_subgraph`` read ``.moves`` only by index, so
    that a walk computes the rows it reaches and never folds a tuple graph's.
11. A tuple graph's ``moves`` come from one place: only ``_tuple_graph``
    calls ``_TupleRows(...)``, so every product and wiring is built there,
    and no code writes ``moves`` through an instance ``__dict__``.  An
    ``isinstance`` check or another reference to the class is no build.
12. The memo of held automaton parses has one reader and one writer: only
    ``parse_automaton`` names ``_PARSES``, past the binding that makes it.
13. The tuple index has one owner: no module but ``composition`` names a
    row view's tables ``_radix``, ``_free`` or ``_driven``; others read a
    tuple state's module states through ``_TupleRows._at``.
"""

import ast

import astscan


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
    assert astscan.scan(unused_imports, *(m for m in astscan.MODULES if m != "__init__.py")) == []


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
    assert astscan.scan(named_arrow_uses, "conformance.py", "composition.py") == []


NAMED_MODEL_READS = {"probs", "arrow_probability"}


def named_model_reads(source):
    """(line, name) of each read of ``probs`` or ``arrow_probability`` in
    ``source``, outside the body of a class (or function) named ``InputModel``."""
    return sorted((node.lineno, node.attr) for node, where, _ in astscan.nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr in NAMED_MODEL_READS
                  and "InputModel" not in where.split("."))


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
    assert astscan.scan(named_model_reads) == []


RULE_READERS = {"step_rules": {"_advance", "Trajectory._replay"},
                "rules": {"TuringMachine.step_rules", "head_automaton"}}


def rule_reads(source):
    """(line, name, where) of each read of ``.step_rules`` or ``.rules`` in
    ``source`` outside the functions ``RULE_READERS`` allows; ``where`` is
    as in :func:`astscan.nodes`."""
    return sorted((node.lineno, node.attr, where) for node, where, _ in astscan.nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr in RULE_READERS
                  and where not in RULE_READERS[node.attr])


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
    assert astscan.scan(rule_reads) == []


BITS_CALLERS = {"InputModel._choice_bits", "cmd_wire"}


def loaded(node):
    """The name a ``Name`` or ``Attribute`` node reads, else ``None``."""
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        return node.id if isinstance(node, ast.Name) else node.attr
    return None


def bits_uses(source):
    """(line, where) of each read of ``_bits``, as a name or an attribute, in
    ``source`` outside the functions ``BITS_CALLERS`` names; ``where`` is as
    in :func:`astscan.nodes`."""
    return sorted((node.lineno, where) for node, where, _ in astscan.nodes(source)
                  if loaded(node) == "_bits" and where not in BITS_CALLERS)


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
    assert astscan.scan(bits_uses) == []


# where ``.cells`` may be read: anywhere in ``_tape``, and of ``self.end`` in the replay
CELL_READERS = {"_tape": None, "Trajectory._replay": "self.end"}


def cell_reads(source):
    """(line, where) of each read of ``.cells`` in ``source`` that
    ``CELL_READERS`` does not allow; ``where`` is as in :func:`astscan.nodes`."""
    return sorted((node.lineno, where) for node, where, _ in astscan.nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr == "cells"
                  and isinstance(node.ctx, ast.Load)
                  and CELL_READERS.get(where, False) not in (None, ast.unparse(node.value)))


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
    assert astscan.scan(cell_reads) == []


# what a function may import: numpy, which the ensemble functions load on first use
FUNCTION_IMPORTS = {"numpy"}


def function_imports(source):
    """(line, where, statement) of each import inside a function in ``source``
    of a module ``FUNCTION_IMPORTS`` does not name; ``where`` is as in
    :func:`astscan.nodes`."""
    found = []
    for node, where, in_function in astscan.nodes(source):
        if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else ["." * node.level + (node.module or "")])
            if not {m.partition(".")[0] for m in modules} <= FUNCTION_IMPORTS:
                found.append((node.lineno, where, ast.unparse(node)))
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
    assert astscan.scan(function_imports) == []


# who may run a machine: the one-step and the budgeted run
ADVANCE_CALLERS = {"tm_step", "tm_run"}


def advance_calls(source):
    """(line, where) of each read of ``_advance``, as a name or an attribute,
    in ``source`` outside the functions ``ADVANCE_CALLERS`` names; ``where``
    is as in :func:`astscan.nodes`."""
    return sorted((node.lineno, where) for node, where, _ in astscan.nodes(source)
                  if loaded(node) == "_advance" and where not in ADVANCE_CALLERS)


def test_the_scan_finds_advance_calls():
    source = ("def _advance(tm, c, max_steps):\n"
              "    return [], c\n"
              "def tm_step(tm, c):\n"
              "    return _advance(tm, c, 1)[1]\n"
              "def tm_run(tm, start):\n"
              "    return turing._advance(tm, start, 10)\n"
              "class Trajectory:\n"
              "    def _items(self, picks):\n"
              "        return [_advance(self.tm, self.start, i)[1] for i in picks]\n"
              "step = turing._advance\n")
    assert advance_calls(source) == [(9, "Trajectory._items"), (10, "")]


def test_only_tm_run_and_tm_step_run_the_machine():
    assert astscan.scan(advance_calls) == []


# the walks that must read ``.moves`` by index only
WALKERS = {"_reached", "reachable_subgraph"}


def unindexed_moves(source):
    """(line, where) of each read of ``.moves`` in ``source``, inside a
    function ``WALKERS`` names, that is not subscripted by an index (a
    slice counts as unindexed); ``where`` is as in :func:`astscan.nodes`."""
    found = astscan.nodes(source)
    indexed = {id(node.value) for node, _, _ in found
               if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice)}
    return sorted((node.lineno, where) for node, where, _ in found
                  if loaded(node) == "moves" and isinstance(node, ast.Attribute)
                  and WALKERS & set(where.split(".")) and id(node) not in indexed)


def test_the_scan_finds_unindexed_moves():
    source = ("def _reached(a, i):\n"
              "    rows = {i: a.moves[i]}\n"
              "    return rows, a.moves[1:], len(a.moves)\n"
              "def reachable_subgraph(a):\n"
              "    def row(i):\n"
              "        return list(a.moves)[i]\n"
              "    moves = [a.moves[i] for i in range(3)]\n"
              "    return [r for r in a.moves], moves\n"
              "def equivalent(a):\n"
              "    return tuple(a.moves)\n")
    assert unindexed_moves(source) == [
        (3, "_reached"), (3, "_reached"), (6, "reachable_subgraph.row"), (8, "reachable_subgraph"),
    ]


def test_reachability_walks_read_moves_only_by_index():
    assert astscan.scan(unindexed_moves, "core.py", "composition.py") == []


# who may build a tuple graph's row view: its one constructor
TABLE_BUILDERS = {"_tuple_graph"}
DICT_WRITES = {"update", "setdefault", "__setitem__", "pop", "__delitem__"}


def _instance_dict(node):
    """Whether ``node`` reads an instance dict: ``x.__dict__`` or ``vars(x)``."""
    return (loaded(node) == "__dict__" or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "vars")


def _names_moves(nodes):
    """Whether any of ``nodes`` holds the string ``"moves"``."""
    return any(isinstance(n, ast.Constant) and n.value == "moves"
               for node in nodes for n in ast.walk(node))


def tuple_table_builds(source):
    """(line, where, what) of each call of ``_TupleRows``, as a name or an
    attribute, in ``source`` outside the functions ``TABLE_BUILDERS`` names,
    and of each write of ``"moves"`` into an instance dict: a subscript stored
    or deleted, or a ``DICT_WRITES`` method called with it as an argument or a
    keyword; ``where`` is as in :func:`astscan.nodes`."""
    found = []
    for node, where, _ in astscan.nodes(source):
        if isinstance(node, ast.Call) and loaded(node.func) == "_TupleRows" and where not in TABLE_BUILDERS:
            found.append((node.lineno, where, "_TupleRows"))
        elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
              and _instance_dict(node.value) and _names_moves([node.slice])):
            found.append((node.lineno, where, "__dict__"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_WRITES and _instance_dict(node.func.value)
              and (_names_moves(node.args) or any(k.arg == "moves" for k in node.keywords))):
            found.append((node.lineno, where, "__dict__"))
    return sorted(found)


def test_the_scan_finds_tuple_table_builds():
    source = ("def _tuple_graph(cls, comps, reads):\n"
              "    return cls(moves=_TupleRows(comps, reads))\n"
              "class ProductAutomaton:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'moves', _TupleRows(self.c, [None]))\n"
              "        print(self.__dict__['moves'], vars(self).get('moves'))\n"
              "    def __eq__(self, other):\n"
              "        self.__dict__['moves'] = composition._TupleRows(self.c, [])\n"
              "        del vars(other)['moves']\n"
              "        return isinstance(other.moves, composition._TupleRows)\n"
              "def wire(w):\n"
              "    rows = _TupleRows\n"
              "    w.__dict__.update(moves=rows(w.c, w.reads))\n"
              "    vars(w).setdefault('moves', rows)\n"
              "    w.__dict__['name'] = vars(w)['moves']\n")
    assert tuple_table_builds(source) == [
        (5, "ProductAutomaton.__post_init__", "_TupleRows"),
        (8, "ProductAutomaton.__eq__", "_TupleRows"), (8, "ProductAutomaton.__eq__", "__dict__"),
        (9, "ProductAutomaton.__eq__", "__dict__"), (13, "wire", "__dict__"), (14, "wire", "__dict__"),
    ]


def test_tuple_graph_moves_come_from_one_place():
    assert astscan.scan(tuple_table_builds) == []


# the row view's tables of the tuple index, and the one module that may name them
VIEW_TABLES, VIEW_OWNER = {"_radix", "_free", "_driven"}, "composition.py"


def view_table_uses(source, name):
    """(line, where, attribute) of each attribute ``VIEW_TABLES`` names, read or
    written, in ``source``, the package file ``name``, unless it is ``VIEW_OWNER``;
    ``where`` is as in :func:`astscan.nodes`."""
    if name == VIEW_OWNER:
        return []
    return sorted((node.lineno, where, node.attr) for node, where, _ in astscan.nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr in VIEW_TABLES)


def test_the_scan_finds_view_table_uses():
    source = ("def cmd_wire(args):\n"
              "    auto = wire(args)\n"
              "    degrees = [i // s % n for s, n in auto.moves._radix]\n"
              "    _radix = auto.moves._at(0)\n"
              "    return getattr(auto.moves, '_driven')._free, _radix, degrees\n"
              "class View:\n"
              "    def __init__(self):\n"
              "        self._driven = []\n")
    assert view_table_uses(source, "cli.py") == [
        (3, "cmd_wire", "_radix"), (5, "cmd_wire", "_free"), (8, "View.__init__", "_driven"),
    ]
    assert view_table_uses(source, "composition.py") == []


def test_only_composition_names_the_tuple_index_tables():
    assert astscan.scan(view_table_uses, by_name=True) == []


# who may read or write the memo of held parses: the parser whose results it holds
MEMO_USERS = {"parse_automaton"}


def _mention(node):
    """The name a ``Name``, ``Attribute`` or imported ``alias`` node mentions, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else node.name if isinstance(node, ast.alias) else None


def memo_uses(source):
    """(line, where) of each mention of ``_PARSES`` in ``source`` outside the
    functions ``MEMO_USERS`` names: a name, an attribute or an imported name,
    except the first binding of the name at module level, which makes the
    memo; ``where`` is as in :func:`astscan.nodes`."""
    hits = [(node, where) for node, where, _ in astscan.nodes(source)
            if _mention(node) == "_PARSES" and where not in MEMO_USERS]
    made = next((node for node, where in hits if where == "" and isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)), None)
    return sorted((node.lineno, where) for node, where in hits if node is not made)


def test_the_scan_finds_memo_uses():
    source = ("_PARSES = weakref.WeakValueDictionary()\n"
              "def parse_automaton(text):\n"
              "    if (held := _PARSES.get(text)) is not None:\n"
              "        return held.automaton, held\n"
              "    model = _PARSES[text] = build(text)\n"
              "def parse_wiring(text):\n"
              "    return fileformat._PARSES.get(text)\n"
              "from .fileformat import _PARSES as memo\n"
              "class Loader:\n"
              "    def clear(self):\n"
              "        _PARSES.clear()\n"
              "_PARSES = {}\n")
    assert memo_uses(source) == [(7, "parse_wiring"), (8, ""), (11, "Loader.clear"), (12, "")]


def test_only_parse_automaton_reads_and_writes_the_parse_memo():
    assert astscan.scan(memo_uses) == []
