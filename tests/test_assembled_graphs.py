"""Graphs derived from valid ones skip ``validate``: products, wirings
(of a lone free module too), reachable parts and the global graphs of
runs and Bennett traces.  Each must equal, field by field with dict
orders, what ``validate`` builds from the same parts, and all but
Bennett graphs must survive a round trip through the text format, which
validates them again; writing a Bennett graph is refused.  Their arrow
views are built on first read only, once, and the product, wiring,
reachability, tour, equivalence and text-form paths build none.  A
product's tuple moves, as a wiring's, are folded on first iteration,
once: one that is only counted, measured or compared to an equal one
folds no row, and as a dataclass it behaves as one given its rows."""

import copy
import dataclasses
import functools
import pickle
import random
import re
from collections import Counter

import composition_oracle
import pytest
from hypothesis import given, settings

from autodiss import (
    Arrow,
    Automaton,
    Connection,
    InputModel,
    ProductAutomaton,
    Wiring,
    bennett_simulate,
    choice_information,
    equivalent,
    global_graph,
    product_input_model,
    product_many,
    reachable_subgraph,
    tm_run,
    transition_tour,
    validate,
    wire,
)
from autodiss import composition, core
from autodiss.errors import ArityMismatch, AutomataError, ValidationError
from autodiss.fileformat import parse_automaton, write_automaton
from test_composition import _fields, _model, _module, _outcome, _wiring
from test_tm_properties import machines


def check_as_validated(x, cls=Automaton, text_form=True):
    want = validate(
        x.name, x.input_alphabet, x.output_alphabet, x.states, x.initial, x.output_map,
        [(q, s, t) for (q, s), t in x.transitions.items()],
    )
    _, want_fields = _fields(want)
    kind, got = _fields(x)
    # a product carries its module provenance after the graph's fields
    assert kind is cls and got[: len(want_fields)] == want_fields
    assert x.arrow_count == want.arrow_count
    if text_form:
        assert parse_automaton(write_automaton(x))[0] == want


def test_products_and_their_reachable_parts_match_validate():
    rng = random.Random(51)
    built = 0
    for _ in range(600):
        tricky = rng.random() < 0.4
        mods = [_module(rng, f"m{i}", tricky) for i in range(rng.randint(1, 4))]
        try:
            prod = product_many(mods)
        except AutomataError:
            continue
        check_as_validated(prod, ProductAutomaton)
        if prod.initial is not None:
            check_as_validated(reachable_subgraph(prod))
        built += 1
    assert built > 300


# Plain state names, then names whose tuples sort otherwise than their
# parts: ``*`` and ``+`` sort below ``,``, and ``!`` and ``'`` below
# ``)`` too, so ``(a+,b)`` precedes ``(a,b)`` and ``(a!)`` precedes
# ``(a)``; the empty name is a prefix of every name and sorts as a part does.
# Last, the boundary: ``,`` itself, so ``(a,,b)`` precedes ``(a,b)``, and ``-``,
# the character just above it, with which tuple names sort as their parts.
_ORDER_POOLS = (["0", "1", "q", "a"], ["a", "a+", "a*", "a!", "a'b", "b", ""], ["a", "a,", "b", "-"])


def test_product_views_read_off_modules_match_validate():
    """A product's arrow count, ``successors`` and input model are read
    off its modules, in module order only where tuple names sort part by
    part; on both sides of that condition they equal what ``validate``
    and the oracle build from the product's parts."""
    rng = random.Random(53)
    sides = Counter()
    for _ in range(400):
        mods = []
        for i in range(rng.randint(1, 3)):
            states = rng.sample(rng.choice(_ORDER_POOLS), rng.randint(2, 4))
            inputs = [f"x{j}" for j in range(rng.randint(1, 4))]
            mods.append(validate(
                f"m{i}", inputs, ["o" + q for q in states], states, initial=states[0],
                output_map={q: "o" + q for q in states},
                transitions=[(q, s, rng.choice(states)) for q in states for s in inputs
                             if rng.random() < 0.8],
            ))
        prod = product_many(mods)
        models = [_model(rng, c) for c in mods]
        sides[prod._module_ordered] += 1
        assert (_outcome(product_input_model, prod, models)
                == _outcome(composition_oracle.product_input_model, prod, models))
        check_as_validated(prod, ProductAutomaton, text_form=False)
    assert min(sides[True], sides[False]) >= 50, sides
    blank = validate("e", ["x"], ["o"], [""], "", {"": "o"}, [("", "x", "")])
    prod = product_many([blank, blank])  # no character in any state name
    assert prod._module_ordered and prod.successors == ((0,),)


def test_wirings_and_their_reachable_parts_match_validate():
    rng = random.Random(52)
    built, lone = 0, 0
    for case in range(1200):
        w = _wiring(rng, case)
        try:
            closed = wire(w)
        except AutomataError:
            continue
        check_as_validated(closed.automaton)
        if closed.automaton.initial is not None:
            check_as_validated(reachable_subgraph(closed))
        built += 1
        lone += len(w.modules) == 1 and bool(closed.free_modules)
    assert built > 300 and lone > 30


@settings(max_examples=200, deadline=None)
@given(machines())
def test_global_graphs_match_validate(case):
    tm, _, tape, budget = case
    try:
        trace = tm_run(tm, tape, max_steps=budget)
    except AutomataError:
        return
    if not trace.halted:
        return
    check_as_validated(global_graph(trace))
    # Bennett state names join their parts with ``#``, the comment
    # marker of the text format, so writing them is refused.
    bennett = global_graph(bennett_simulate(tm, tape, max_steps=budget))
    check_as_validated(bennett, text_form=False)
    with pytest.raises(ValidationError, match=re.escape(repr(bennett.states[0]))):
        write_automaton(bennett)


def _count_arrows(monkeypatch):
    """The list of parts of every ``Arrow`` built from now on."""
    built = []
    monkeypatch.setattr(core, "Arrow", lambda *parts: built.append(parts) or Arrow(*parts))
    return built


def _count_folds(monkeypatch):
    """The ``_TupleRows`` view of every tuple-move fold from now on: each
    computation of all its rows, which iteration and slices keep."""
    folds, fold = [], composition._TupleRows._folded.func
    counted = functools.cached_property(lambda view: folds.append(view) or fold(view))
    counted.__set_name__(composition._TupleRows, "_folded")
    monkeypatch.setattr(composition._TupleRows, "_folded", counted)
    return folds


def _unordered():
    """A sinkless module whose state names hold ``+`` and ``!``, which
    sort below ``,``: its tuple names do not sort as their parts do."""
    states = ["a+", "a", "b!"]
    return validate("u", ["x", "y"], ["o0", "o1", "o2"], states, "a",
                    dict(zip(states, ["o0", "o1", "o2"])),
                    [("a+", "x", "a"), ("a+", "y", "b!"), ("a", "x", "a+"),
                     ("b!", "x", "b!"), ("b!", "y", "a")])


def test_arrow_views_are_built_on_first_read_only(monkeypatch, tff, tff_wiring, bb2):
    built, folds = _count_arrows(monkeypatch), _count_folds(monkeypatch)
    auto, model = tff
    # Products, their input models, choice bits and arrow counts read the
    # modules only and fold no tuple move, also where tuple names do not
    # sort as their parts do.
    prod = product_many([auto] * 4)
    pm = product_input_model(prod, [model] * 4)
    bits = [choice_information(prod, pm, q) for q in prod.states]
    u = _unordered()
    odd = product_many([u, auto])
    om = product_input_model(odd, [InputModel.uniform(u), model])
    odd_bits = [choice_information(odd, om, q) for q in odd.states]
    assert not odd._module_ordered
    assert (prod.arrow_count, bits) == (256, [4.0] * 16)
    assert (odd.arrow_count, odd_bits) == (20, [2.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    assert folds == []
    # The first iteration of a product's moves folds them, once.
    for p in (prod, odd):
        rows = p.moves
        assert p.moves is rows and "_folded" not in vars(rows) and folds == []
        assert list(rows) == list(p.moves) and folds == [rows]
        folds.clear()
    check_as_validated(odd, ProductAutomaton, text_form=False)
    built.clear()
    # Wirings and reachable parts read the integer views only.
    closed = wire(tff_wiring).automaton
    sub = reachable_subgraph(closed)
    assert len(sub.states) == 4
    assert built == []
    assert "successors" not in vars(prod)  # count and model are read off the modules
    # Tours, equivalence, reachable parts and the text form walk the rows.
    for g in (prod, closed):
        same = {s: s for s in g.input_alphabet}
        tour = transition_tour(g, g.initial)
        assert len(tour.covered) == g.arrow_count <= tour.length
        assert equivalent(g, g) and equivalent(g, g, same)
        assert write_automaton(g).count("\ntrans ") == sum(map(len, g.moves))
        assert reachable_subgraph(g).moves
    assert built == []
    assert not any("transitions" in vars(g) for g in (prod, closed, sub))
    graphs = [prod, closed, global_graph(tm_run(bb2))]
    for g in graphs:
        assert built == []
        views = (g.arrows, g.by_source, g.by_pair)
        assert len(built) == g.arrow_count > 0  # one Arrow per merged arrow
        check_as_validated(g, type(g), text_form=False)
        built.clear()
        assert all(again is view for again, view in zip((g.arrows, g.by_source, g.by_pair), views))
        assert built == []


def test_a_product_folding_its_moves_is_the_same_dataclass(monkeypatch, tff):
    """Before and after its moves are first folded, a product compares,
    prints, pickles, copies and is replaced as one given its rows; rows
    given are kept as given, and a product missing its rows, its modules
    or both is refused."""
    mods = [_unordered(), tff[0]]
    names = [f.name for f in dataclasses.fields(ProductAutomaton)]
    assert names == [f.name for f in dataclasses.fields(Automaton)] + ["module_names",
                                                                        "components"]
    kept = ProductAutomaton(*[getattr(product_many(mods), name) for name in names])
    folds = _count_folds(monkeypatch)
    rows = kept.moves
    bare = tuple(() for _ in kept.states)
    assert dataclasses.replace(kept, moves=bare).moves is bare and folds == []
    # Products and wirings hold the one view that _tuple_graph builds.
    built, lone = product_many(mods), wire(Wiring("w", (("u", mods[0]),)))
    assert {type(built.moves), type(rows), type(lone.automaton.moves)} == {composition._TupleRows}
    assert built == kept and folds == []
    ops = {
        "eq": lambda p: (p == kept, kept == p, p != product_many(mods[::-1])),
        "repr": repr,
        "pickle": lambda p: _fields(pickle.loads(pickle.dumps(p))),
        "copy": lambda p: _fields(copy.copy(p)),
        "replace": lambda p: _fields(dataclasses.replace(p)),
    }
    want = {op: f(kept) for op, f in ops.items()}
    assert want["eq"] == (True, True, True) and "moves=((" in want["repr"]
    for read in (False, True):
        for op, f in ops.items():
            p = product_many(mods)
            if read:
                assert tuple(p.moves) == tuple(rows) and "_folded" in vars(p.moves)
            assert f(p) == want[op], (op, read)
            assert p.moves == rows and p.components == kept.components
    for missing in (lambda: dataclasses.replace(kept, moves=None),
                    lambda: dataclasses.replace(kept, components=()),
                    lambda: ProductAutomaton(*[getattr(kept, name) for name in names[:6]])):
        with pytest.raises(ArityMismatch, match="needs both its moves and its components"):
            missing()


def test_a_product_given_rows_and_no_components_is_refused(tff):
    """A product is its modules: given its rows without them it is
    refused, and the all-free wiring of the same modules, whose rows are
    the product's but which holds no modules, is no product to build an
    input model on."""
    for mods in ([_unordered(), tff[0]], [tff[0], tff[0]]):
        p = product_many(mods)
        graph = {f.name: getattr(p, f.name) for f in dataclasses.fields(Automaton)}
        with pytest.raises(ArityMismatch, match="needs both its moves and its components"):
            ProductAutomaton(**graph, module_names=p.module_names, components=())
        free = wire(Wiring("free", tuple((f"m{i}", m) for i, m in enumerate(mods)))).automaton
        assert (free.states, free.moves) == (p.states, p.moves)
        with pytest.raises(ArityMismatch, match="'free' is not a product of modules"):
            product_input_model(free, [InputModel.uniform(m) for m in mods])


def test_reachable_part_of_a_ring_builds_no_arrow(monkeypatch, tff):
    """A clock-driven ring of 14 T-flip-flops has 2**14 tuple states, of
    which 16 are reached; finding them walks the integer rows, computing
    one row per reached tuple and folding none of the others."""
    built = _count_arrows(monkeypatch)
    rows, index = [], composition._TupleRows.__getitem__
    monkeypatch.setattr(composition._TupleRows, "__getitem__",
                        lambda view, i: rows.append(i) or index(view, i))
    auto, _ = tff
    n = 14
    ring = Wiring("ring", tuple((f"m{i}", auto) for i in range(n)),
                  tuple(Connection(f"m{i - 1}", f"m{i}", {"Q0": "T0", "Q1": "T1"})
                        for i in range(1, n)),
                  (("m0", "T1"),))
    closed = wire(ring)
    sub = reachable_subgraph(closed)
    assert len(sub.states) == 16 and sub.arrow_count == 16
    assert built == []
    # The walk finds its start without indexing the 2**14 tuple states.
    assert "index" not in vars(closed.automaton)
    assert len(closed.automaton.moves) == 2**n
    assert sorted(rows) == sorted(set(rows)) and len(rows) <= 16
    assert "_folded" not in vars(closed.automaton.moves)


def test_a_closed_system_computes_each_row_on_index_as_its_fold_keeps_it():
    """A wiring's rows, each computed on index, negative indices included,
    are the rows its fold keeps, and indexing folds nothing; the view has
    the tuple's ``len``, slices, ``==``, ``hash`` and ``repr``, refuses an
    index out of range, and its automaton pickles to an equal one."""
    rng = random.Random(53)
    built = 0
    for case in range(600):
        try:
            closed = wire(_wiring(rng, case))
        except AutomataError:
            continue
        moves = closed.automaton.moves
        n = len(moves)
        rows = tuple(moves[i] for i in range(n))
        assert tuple(moves[i] for i in range(-n, 0)) == rows and "_folded" not in vars(moves), case
        with pytest.raises(IndexError):
            moves[n]
        assert moves[1::2] == rows[1::2] and moves == rows and rows == moves, case
        assert list(moves) == list(rows) and hash(moves) == hash(rows), case
        assert repr(moves) == repr(rows) and moves[n // 2] is moves._folded[n // 2], case
        back = pickle.loads(pickle.dumps(closed.automaton))
        assert back.moves == rows and back == closed.automaton, case
        built += 1
    assert built > 300


def test_tuple_rows_of_one_length_differ_by_a_retargeted_arrow(tff, tff_wiring):
    """Two products, or two wirings, of modules of equal sizes, one module
    arrow retargeted: their rows have one length but other module tables,
    so ``==`` compares the rows, and they and their automata are unequal,
    in both orders."""
    auto = tff[0]
    moved = dataclasses.replace(auto, moves=(((0, 1), (1, 1)),) + auto.moves[1:])
    (driven, _), *rest = tff_wiring.modules  # reads its source's output: its arrows matter
    pairs = [(product_many([auto, auto]), product_many([moved, auto])),
             (wire(tff_wiring).automaton,
              wire(dataclasses.replace(tff_wiring, modules=((driven, moved), *rest))).automaton)]
    for a, b in pairs:
        assert len(a.moves) == len(b.moves) and tuple(a.moves) != tuple(b.moves)
        assert (a.moves == b.moves, b.moves == a.moves, a.moves != b.moves) == (False, False, True)
        assert (a == b, b == a, a != b, b != a) == (False, False, True, True)


def test_tuple_names_are_checked_only_where_they_can_collide(monkeypatch):
    """Counted, not timed: products and wirings of validated modules whose
    tokens hold no separator (``,`` in states, ``|`` in symbols and outputs)
    join their tuple names unchecked; modules built through the bare
    constructor that repeat a state, a free symbol or an output, with no
    separator in any token, are refused as the oracle refuses them."""
    rng = random.Random(54)
    plain = [_wiring(rng, case, lambda rng, name, tricky: _module(rng, name, False))
             for case in range(300)]
    x = validate("x", ["a", "b"], ["o", "p"], ["0", "1"], "0", {"0": "o", "1": "p"},
                 [("0", "a", "1"), ("1", "b", "0")])
    bare = [Automaton("twice", ("a",), ("o", "p"), ("0", "0"), "0", {"0": "o"}, (((0, 1),), ())),
            Automaton("same", ("a", "a"), ("o",), ("0",), "0", {"0": "o"}, (((0, 0),),)),
            Automaton("mute", ("a",), ("o",), ("0", "1"), "0", {"0": "o", "1": "o"},
                      (((0, 1),), ((0, 0),)))]
    checked = []
    unique, injective = core._ordered_unique, core._check_injective
    monkeypatch.setattr(core, "_ordered_unique",
                        lambda tokens, kind, *rest: checked.append(kind) or unique(tokens, kind, *rest))
    monkeypatch.setattr(core, "_check_injective",
                        lambda *args: checked.append("outputs") or injective(*args))
    built = 0
    for w in plain:
        product_many([m for _, m in w.modules])
        built += _outcome(wire, w)[0] == "ok"
    assert set(checked) == {"modules"} and built > 100
    refused = set()
    for y in bare:
        for mods in ([y], [x, y], [y, x]):
            w = Wiring("w", tuple((f"w{i}", m) for i, m in enumerate(mods)))
            for got, want in ((_outcome(product_many, mods),
                               _outcome(composition_oracle.product_many, mods)),
                              (_outcome(wire, w), _outcome(composition_oracle.wire, w))):
                assert got == want and got[0] != "ok", (y.name, mods)
                refused.add(got[0].__name__)
    assert refused == {"DuplicateIdentifier", "NonInjectiveOutput"}
