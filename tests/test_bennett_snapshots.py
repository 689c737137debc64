"""Bennett's snapshots read off the forward run.

``BennettTrace.global_configs`` is a view that builds a snapshot only
when it is indexed.  On every halting bundled machine and on seeded
sweepers it equals, in every tuple operation, the tuple of snapshots
built by the three-phase formula.  ``bennett_simulate`` and the global
chain build no snapshot, and the chain refuses names past its character
limit before building any.  Products of equal modules share an input
model without folding their moves, and a product is unequal to a plain
automaton of the same fields without folding them either.
"""

import copy
import dataclasses
import os
import pickle
import random
import tracemalloc

import pytest

from autodiss import (
    Automaton,
    bennett_simulate,
    choice_information,
    global_graph,
    head_automaton,
    load_machine,
    parse_machine,
    product_input_model,
    product_many,
    turing,
)
from autodiss.errors import AutomataError, SizeLimit
from autodiss.turing import GlobalConfig
from test_assembled_graphs import _count_folds, _unordered

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ASSETS = os.path.join(ROOT, "src", "autodiss", "assets")
# (seed, width, sweeps) of gen.sweeper_text machines: width + sweeps * (width + 1) steps
SWEEPS = ((1, 3, 2), (2, 12, 9), (3, 1, 1), (4, 25, 12))
# a sweeper of 1,516 steps, whose Bennett chain names hold 13.5 million characters
LONG = (7, 36, 40)


def _sweeper(gen, seed, width, sweeps):
    return parse_machine(gen.sweeper_text(random.Random(seed), f"sw{seed}", width, sweeps))


def _traces(gen):
    """Bennett traces of every bundled machine that halts, on a few
    tapes, and of the seeded sweepers."""
    traces = []
    for name in sorted(os.listdir(ASSETS)):
        if name.endswith(".tm"):
            for tape in ([], ["1"], ["0", "1", "1"]):
                try:
                    traces.append(bennett_simulate(load_machine(os.path.join(ASSETS, name)), tape))
                except AutomataError:  # does not halt, or leaves its tape cap
                    pass
    assert {t.machine for t in traces} == {"bb2"}
    return traces + [bennett_simulate(_sweeper(gen, *case)) for case in SWEEPS]


def three_phase(trace):
    """The snapshots as a tuple: compute, copy the result, uncompute."""
    run, n, r = trace.forward, trace.forward.steps, trace.forward.result_length
    return (tuple(GlobalConfig("compute", t, 0, run) for t in range(n + 1))
            + tuple(GlobalConfig("copy", n, j, run) for j in range(1, r + 1))
            + tuple(GlobalConfig("uncompute", t, r, run) for t in range(n - 1, -1, -1)))


def test_the_snapshot_view_is_the_tuple_it_replaces(gen):
    rng = random.Random(23)
    for trace in _traces(gen):
        view, want = trace.global_configs, three_phase(trace)
        n, r = trace.forward.steps, trace.forward.result_length
        assert not isinstance(view, tuple)
        assert len(view) == len(want) == 2 * n + r + 1 == trace.total_steps + 1
        assert view == want and want == view and view == view
        assert view != want[:-1] and view != list(want)
        assert hash(view) == hash(want)
        assert tuple(view) == want and tuple(reversed(view)) == want[::-1]
        for i in (-1, 0, n, n + 1, 2 * n + r, -len(want)):
            assert view[i]._key() == want[i]._key() and view[i] == want[i], i
        cases = [slice(None, None, 2), slice(1, None, 3), slice(None, None, -1),
                 slice(n, n + r + 2), slice(-3, None), slice(5, 1, -2), slice(n + 1, n)]
        k = len(want)
        cases += [slice(rng.randint(-k - 2, k + 2), rng.randint(-k - 2, k + 2),
                        rng.choice([None, 1, 2, 5, -1, -3])) for _ in range(20)]
        for sl in cases:
            got = view[sl]
            assert got == want[sl] and [g._key() for g in got] == [g._key() for g in want[sl]], sl
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                view[i]
        # with the machine's head automaton and the run's renders kept
        tm, chain = trace.forward.configurations.tm, global_graph(trace)
        head = head_automaton(tm)
        for again in (pickle.loads(pickle.dumps(trace)), copy.copy(trace), copy.deepcopy(trace)):
            assert again == trace and again.global_configs == want
            assert [g._key() for g in again.global_configs] == [g._key() for g in want]
            assert again.global_configs[-1].config == again.global_configs[0].config
            assert global_graph(again) == chain
        for again in (pickle.loads(pickle.dumps(tm)), copy.copy(tm), copy.deepcopy(tm)):
            assert again == tm and head_automaton(again) == head


def test_simulation_and_its_chain_build_no_snapshot(monkeypatch, gen):
    made, real = [], turing.GlobalConfig
    monkeypatch.setattr(turing, "GlobalConfig", lambda *a: made.append(a) or real(*a))
    tm = _sweeper(gen, 4, 25, 12)
    trace = bennett_simulate(tm)
    graph = global_graph(trace)
    assert made == [] and len(graph.states) == len(trace.global_configs)
    n = trace.forward.steps
    assert trace.global_configs[n + 1].phase == "copy" and len(made) == 1


def test_chain_names_over_the_character_limit_are_refused(monkeypatch, gen):
    sized = [(trace, sum(map(len, global_graph(trace).states))) for trace in _traces(gen)]
    for trace, chars in sized:
        monkeypatch.setattr(turing, "BENNETT_CHAR_LIMIT", chars)  # at the limit: built
        assert sum(map(len, global_graph(trace).states)) == chars
        monkeypatch.setattr(turing, "BENNETT_CHAR_LIMIT", chars - 1)
        with pytest.raises(SizeLimit) as err:
            global_graph(trace)
        assert (err.value.size, err.value.limit) == (chars, chars - 1)
        assert str(err.value) == f"{chars} characters exceed the monolithic limit of {chars - 1}"
    # No name is built before the refusal.
    trace = bennett_simulate(_sweeper(gen, *LONG))
    monkeypatch.setattr(turing, "BENNETT_CHAR_LIMIT", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit) as err:
            global_graph(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.size == 13_513_996 and peak < 10**6


def test_equal_products_share_a_model_without_folding(monkeypatch, tff):
    folds = _count_folds(monkeypatch)
    auto, model = tff
    own, other = product_many([auto] * 8), product_many([auto] * 8)
    own_model, other_model = (product_input_model(p, [model] * 8) for p in (own, other))
    bits = [choice_information(own, other_model, q) for q in own.states]
    assert bits == [choice_information(own, own_model, q) for q in own.states]
    assert folds == [] and len(bits) == 256


def _dataclass_eq(a, b):
    """``==`` as the generated dataclass method answers it: the class, then
    every compared field."""
    return a.__class__ is b.__class__ and all(
        getattr(a, f.name) == getattr(b, f.name) for f in dataclasses.fields(a) if f.compare)


def _pairs(u, auto):
    """(label, a, b) products whose ``==`` is checked; ``extra`` differs from
    ``u`` only by an output symbol no state shows, so the products agree."""
    mods, extra = [u, auto], dataclasses.replace(u, output_alphabet=u.output_alphabet + ("o9",))
    folded = product_many(mods)
    assert list(folded.moves) and "_folded" in vars(folded.moves)
    return [("equal", product_many(mods), product_many(mods)),
            ("one side folded", folded, product_many(mods)),
            ("moves given", dataclasses.replace(product_many(mods), moves=folded.moves),
             product_many(mods)),
            ("names", product_many(mods), product_many(mods, name="other")),
            ("module order", product_many(mods[::-1]), product_many(mods)),
            ("other modules, equal fields", product_many([extra, auto]), product_many(mods))]


def test_product_equality_answers_as_the_dataclass_does(monkeypatch, tff):
    u, auto = _unordered(), tff[0]
    wants = {label: _dataclass_eq(a, b) for label, a, b in _pairs(u, auto)}
    assert list(wants.values()) == [True, True, True, False, False, True]
    for label, a, b in _pairs(u, auto):
        assert (a == b, b == a, a != b) == (wants[label], wants[label], not wants[label]), label
    folds = _count_folds(monkeypatch)
    a, b = product_many([u, auto]), product_many([u, auto])
    assert a == b and a != product_many([u, auto], name="other") and folds == []
    assert "_folded" not in vars(a.moves) and "_folded" not in vars(b.moves)
    other = _pairs(u, auto)[-1][1]
    folds.clear()
    assert a == other and folds == []  # other modules, equal tables: no row is folded


def test_a_product_is_unequal_to_a_plain_automaton_of_its_fields(monkeypatch, tff):
    """Neither side's ``==`` claims the other class, in either order, and no
    moves are folded to answer."""
    auto = tff[0]
    folded = product_many([auto, auto])
    plain = Automaton(**{f.name: getattr(folded, f.name) for f in dataclasses.fields(Automaton)})
    folds = _count_folds(monkeypatch)
    p = product_many([auto, auto])
    assert (p == plain, plain == p, p != plain, plain != p) == (False, False, True, True)
    assert folds == [] and "_folded" not in vars(p.moves)
