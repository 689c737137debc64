"""Products, wirings, closed systems, and graph equivalence."""

import dataclasses
import inspect
import json
import math
import random
import shutil
import sys

import pytest

import composition_oracle
from autodiss import (
    Arrow,
    Automaton,
    Connection,
    InputModel,
    Wiring,
    cell_automaton,
    choice_information,
    divergent_states,
    ensemble_dissipation,
    equivalent,
    head_automaton,
    modular_test_cost,
    modular_tm_dissipation,
    product,
    product_input_model,
    product_many,
    reachable_subgraph,
    run,
    uniform_distribution,
    validate,
    wire,
)
from autodiss import cli, composition, core, dissipation, fileformat
from autodiss.assets import asset_path
from autodiss.errors import (
    AlphabetMismatch,
    ArityMismatch,
    AutomataError,
    DuplicateIdentifier,
    InvalidDistribution,
    MissingInitial,
    MultiplyDrivenPort,
    SizeLimit,
    UnknownState,
    UnknownSymbol,
)
from helpers import random_automaton, random_model


def sinkless(rng, max_states=6, max_symbols=3):
    return random_automaton(
        rng, max_states=max_states, max_symbols=max_symbols, ensure_out=True
    )


def test_product_of_two_flipflops(tff):
    auto, _ = tff
    prod = product(auto, auto)
    assert len(prod.states) == 4
    assert prod.initial == "(0,0)"
    assert prod.arrow_count == 16
    indeg = {}
    for ar in prod.arrows:
        indeg[ar.target] = indeg.get(ar.target, 0) + 1
    for q in prod.states:
        assert prod.out_degree(q) == 4
        assert indeg[q] == 4


def test_product_counter_and_flipflop(counter2, tff):
    prod = product(counter2[0], tff[0])
    assert len(prod.states) == 4
    assert all(prod.out_degree(q) == 2 for q in prod.states)


def test_product_state_count_multiplies():
    a = validate(
        "a2", ["x"], ["oa0", "oa1"], ["p0", "p1"],
        output_map={"p0": "oa0", "p1": "oa1"},
        transitions=[("p0", "x", "p1")],
    )
    b = validate(
        "b3", ["y"], ["ob0", "ob1", "ob2"], ["r0", "r1", "r2"],
        output_map={f"r{i}": f"ob{i}" for i in range(3)},
        transitions=[("r0", "y", "r1"), ("r1", "y", "r2")],
    )
    prod = product(a, b)
    assert len(prod.states) == 6
    assert prod.states[0] == "(p0,r0)"
    assert prod.input_alphabet == ("x|y",)


def test_product_is_associative_up_to_flattening(tff, counter2):
    a, b = tff[0], counter2[0]
    nested = product(product(a, b), a)
    flat = product_many([a, b, a])
    assert nested == flat
    assert nested.module_names == ("tff", "counter2", "tff")


def test_product_outputs_stay_injective(tff, counter2):
    prod = product(tff[0], counter2[0])
    values = list(prod.output_map.values())
    assert len(values) == len(set(values))


def test_product_refuses_to_materialize_huge_graphs(onebit):
    with pytest.raises(SizeLimit):
        product_many([onebit[0]] * 21)


def test_choice_information_is_extensive():
    rng = random.Random(31)
    for _ in range(40):
        a, b = sinkless(rng), sinkless(rng)
        ma, mb = random_model(rng, a), random_model(rng, b)
        prod = product(a, b)
        pm = product_input_model(prod, [ma, mb])
        for qa in a.states:
            for qb in b.states:
                combined = choice_information(prod, pm, f"({qa},{qb})")
                expected = choice_information(a, ma, qa) + choice_information(b, mb, qb)
                assert abs(combined - expected) <= 1e-9
                assert prod.out_degree(f"({qa},{qb})") == a.out_degree(qa) * b.out_degree(qb)


def repeating_model(rng, a):
    """A model whose rows repeat: each state takes, for its out-degree ``d``,
    either the uniform row or one weighted 1 : 2 : ... : d."""
    def rows(d):
        return [(1.0 / d,) * d, tuple([2.0 * (k + 1) / (d * (d + 1)) for k in range(d)])]
    return InputModel(a, tuple([rng.choice(rows(len(ts))) for ts in a.successors]))


def six_module_product():
    """A product of six random modules of 1 to 4 states, with repeating models."""
    rng = random.Random(36)
    mods = [sinkless(rng, max_states=4, max_symbols=2) for _ in range(6)]
    return product_many(mods), [repeating_model(rng, a) for a in mods]


def test_a_product_model_builds_each_distinct_row_once():
    """Counted, not timed: the model holds at most one row object per
    combination of distinct module rows, here 4 among 288 tuple states."""
    p, models = six_module_product()
    bound = math.prod(len(set(m.weights)) for m in models)
    assert len({id(row) for row in product_input_model(p, models).weights}) <= bound
    assert bound < len(p.states) // 4


def test_choice_bits_are_summed_once_per_distinct_row(monkeypatch, bincounter):
    """Counted, not timed: a full scan of a 6-module product's choice bits,
    twice over, an ensemble on it and a machine's modular charge each sum
    ``_bits`` at most once per distinct row."""
    p, models = six_module_product()
    calls = []
    bits = dissipation._bits
    monkeypatch.setattr(dissipation, "_bits", lambda row: calls.append(row) or bits(row))
    pm = product_input_model(p, models)
    distinct = len(set(pm.weights))
    for _ in range(2):
        for q in p.states:
            choice_information(p, pm, q)
    assert len(calls) <= distinct
    calls.clear()
    ensemble_dissipation(p, product_input_model(p, models), uniform_distribution(p), 3)
    assert len(calls) <= distinct
    calls.clear()
    modular_tm_dissipation(bincounter, max_steps=200)
    assert len(calls) <= len(set(InputModel.uniform(head_automaton(bincounter)).weights))


def test_a_product_model_keeps_signed_zeros_apart():
    """Rows ``(1.0, -0.0)`` and ``(1.0, 0.0)`` are two rows, not one: their
    products, and the ``prob`` lines written from them, keep each sign."""
    m = validate("z", ["x", "y"], ["o", "p"], ["a", "b"], "a", {"a": "o", "b": "p"},
                 [(q, s, t) for q in "ab" for s, t in (("x", "a"), ("y", "b"))])
    model = InputModel(m, ((1.0, -0.0), (1.0, 0.0)))
    p = product_many([m, m])
    pm = product_input_model(p, [model, model])
    assert repr(pm.weights) == ("((1.0, -0.0, -0.0, 0.0), (1.0, 0.0, -0.0, -0.0), "
                                "(1.0, -0.0, 0.0, -0.0), (1.0, 0.0, 0.0, 0.0))")
    assert fileformat.write_automaton(p, pm) == fileformat.write_automaton(p) + "".join(
        f"prob {line}\n" for line in [
            "(a,a) x|x 1.0", "(a,a) x|y -0.0", "(a,a) y|x -0.0", "(a,a) y|y 0.0",
            "(a,b) x|x 1.0", "(a,b) x|y 0.0", "(a,b) y|x -0.0", "(a,b) y|y -0.0",
            "(b,a) x|x 1.0", "(b,a) x|y -0.0", "(b,a) y|x 0.0", "(b,a) y|y -0.0",
            "(b,b) x|x 1.0", "(b,b) x|y 0.0", "(b,b) y|x 0.0", "(b,b) y|y 0.0"])


def test_ensemble_loss_is_extensive():
    import numpy as np

    rng = random.Random(32)
    for _ in range(15):
        a, b = sinkless(rng, max_states=4), sinkless(rng, max_states=4)
        ma, mb = random_model(rng, a), random_model(rng, b)
        prod = product(a, b)
        pm = product_input_model(prod, [ma, mb])
        pa = np.array([rng.random() + 0.01 for _ in a.states])
        pa /= pa.sum()
        pb = np.array([rng.random() + 0.01 for _ in b.states])
        pb /= pb.sum()
        joint = np.outer(pa, pb).reshape(-1)  # state order is row-major
        ta = ensemble_dissipation(a, ma, pa, 10)
        tb = ensemble_dissipation(b, mb, pb, 10)
        tj = ensemble_dissipation(prod, pm, joint, 10)
        for la, lb, lj in zip(
            ta.per_step_loss_bits, tb.per_step_loss_bits, tj.per_step_loss_bits
        ):
            assert abs(lj - (la + lb)) <= 1e-9


def test_ensemble_loss_is_not_extensive_with_a_sink():
    """The other half: once a module can stop, the product's loss is not
    the sum of the modules' losses, because a tuple stops as soon as one
    of its modules is at a sink while the other module would move on.
    On random partial modules, as above, some pairs differ by whole bits."""
    import numpy as np

    rng = random.Random(35)
    differ = []
    for _ in range(60):
        a, b = random_automaton(rng, max_states=4), random_automaton(rng, max_states=4)
        if all(a.successors) and all(b.successors):
            continue
        ma, mb = random_model(rng, a), random_model(rng, b)
        pm = product_input_model(product(a, b), [ma, mb])
        pa, pb = (np.full(len(g.states), 1.0 / len(g.states)) for g in (a, b))
        ta = ensemble_dissipation(a, ma, pa, 6)
        tb = ensemble_dissipation(b, mb, pb, 6)
        tj = ensemble_dissipation(pm.automaton, pm, np.outer(pa, pb).reshape(-1), 6)
        differ.append(abs(tj.total_loss_bits - ta.total_loss_bits - tb.total_loss_bits))
    assert len(differ) > 20 and max(differ) > 1.0
    assert sum(d > 1e-9 for d in differ) > len(differ) / 4


def _in_degrees(auto):
    indeg = {q: 0 for q in auto.states}
    for ar in auto.arrows:
        indeg[ar.target] += 1
    return indeg


def test_product_degree_structure_multiplies():
    from autodiss import convergent_states

    rng = random.Random(33)
    for _ in range(20):
        a, b = sinkless(rng), sinkless(rng)
        prod = product(a, b)
        div = divergent_states(prod)
        conv = convergent_states(prod)
        in_a, in_b, in_p = _in_degrees(a), _in_degrees(b), _in_degrees(prod)
        for qa in a.states:
            for qb in b.states:
                q = f"({qa},{qb})"
                assert (q in div) == (a.out_degree(qa) * b.out_degree(qb) >= 2)
                assert in_p[q] == in_a[qa] * in_b[qb]
                assert (q in conv) == (in_p[q] >= 2)


def test_wire_two_flipflops(tff_wiring, counter4):
    closed = wire(tff_wiring)
    assert closed.free_modules == ()
    assert closed.automaton.input_alphabet == ("ck",)
    assert len(closed.automaton.states) == 4
    sub = reachable_subgraph(closed)
    path = run(sub, "(0,0)", ["ck"] * 4)
    assert path.states == ("(0,0)", "(0,1)", "(1,0)", "(1,1)", "(0,0)")
    assert equivalent(sub, counter4[0])


def test_wire_mixed_counter(mixed_wiring, counter4):
    closed = wire(mixed_wiring)
    sub = reachable_subgraph(closed)
    assert len(sub.states) == 4
    assert equivalent(sub, counter4[0])


def test_closed_system_is_subrelation_of_product(tff_wiring, mixed_wiring):
    for wiring in (tff_wiring, mixed_wiring):
        closed = wire(wiring)
        prod = product_many([auto for _, auto in wiring.modules])
        product_pairs = {ar.key for ar in prod.arrows}
        for ar in closed.automaton.arrows:
            assert ar.key in product_pairs


def test_wire_single_module_is_a_tuple_graph():
    """A lone free module closes like any other wiring: the wiring's
    name, one-tuple states, and only the output symbols it emits, sorted."""
    auto = validate(
        "m", ["b", "a"], ["z", "x", "y"], ["1", "0"], initial="1",
        output_map={"1": "z", "0": "y"},
        transitions=[("1", "b", "0"), ("0", "a", "0"), ("0", "b", "1")],
    )
    for initials, initial in (({}, "(1)"), ({"m": "0"}, "(0)")):
        closed = wire(Wiring(name="solo", modules=(("m", auto),), initials=initials))
        a = closed.automaton
        assert closed.free_modules == ("m",)
        assert type(a) is Automaton and a.name == "solo" and a.initial == initial
        assert (a.states, a.input_alphabet, a.output_alphabet) == (("(1)", "(0)"), ("b", "a"),
                                                                   ("y", "z"))
        assert list(a.output_map.items()) == [("(1)", "z"), ("(0)", "y")]
        assert list(a.transitions.items()) == [
            (("(1)", "b"), "(0)"), (("(0)", "b"), "(1)"), (("(0)", "a"), "(0)")]


def test_wire_rejects_double_driving(tff, counter2):
    wiring = Wiring(
        name="bad",
        modules=(("a", counter2[0]), ("b", tff[0])),
        connections=(Connection("a", "b", {"Q0": "T0", "Q1": "T1"}),),
        constants=(("b", "T0"),),
    )
    with pytest.raises(MultiplyDrivenPort):
        wire(wiring)
    twice = dataclasses.replace(wiring, constants=(),
                                connections=wiring.connections + (Connection("b", "b", {}),))
    with pytest.raises(MultiplyDrivenPort, match="^input of module 'b' is driven more than once$"):
        wire(twice)


def test_wire_rejects_unmapped_outputs(tff, counter2):
    wiring = Wiring(
        name="bad",
        modules=(("a", counter2[0]), ("b", tff[0])),
        connections=(Connection("a", "b", {"Q0": "T0"}),),
    )
    with pytest.raises(AlphabetMismatch):
        wire(wiring)


def test_wire_rejects_unknown_constant(tff):
    wiring = Wiring(
        name="bad", modules=(("m", tff[0]),), constants=(("m", "T9"),)
    )
    with pytest.raises(UnknownSymbol):
        wire(wiring)


def test_wire_rejects_unknown_modules(tff):
    for connections, constants, context in (
        ((Connection("z", "m", {}),), (), "connection source module"),
        ((Connection("m", "z", {}),), (), "connection dest module"),
        ((), (("z", "T0"),), "constant module"),
    ):
        w = Wiring("bad", (("m", tff[0]),), connections, constants)
        with pytest.raises(UnknownState, match=rf"^state 'z' is not declared \({context}\)$"):
            wire(w)


def test_wire_rejects_an_initial_for_an_undeclared_module(tff):
    w = Wiring("bad", (("a", tff[0]),), constants=(("a", "T1"),), initials={"zz": "0"})
    with pytest.raises(UnknownState, match=r"^state 'zz' is not declared \(initial module\)$"):
        wire(w)


def test_wire_allows_mutual_connections(tff):
    auto, _ = tff
    wiring = Wiring(
        name="mutual",
        modules=(("a", auto), ("b", auto)),
        connections=(
            Connection("a", "b", {"Q0": "T0", "Q1": "T1"}),
            Connection("b", "a", {"Q0": "T0", "Q1": "T1"}),
        ),
    )
    closed = wire(wiring)
    assert closed.free_modules == ()
    assert len(closed.automaton.states) == 4


def test_reachable_subgraph_drops_unreachable():
    auto = validate(
        "island", ["a"], ["o0", "o1", "o2"], ["q0", "q1", "q2"],
        initial="q0",
        output_map={f"q{i}": f"o{i}" for i in range(3)},
        transitions=[("q0", "a", "q1"), ("q2", "a", "q0")],
    )
    sub = reachable_subgraph(auto)
    assert sub.states == ("q0", "q1")
    assert sub.arrow_count == 1


def test_reachable_subgraph_needs_initial(tff):
    auto = dataclasses.replace(tff[0], initial=None)
    with pytest.raises(MissingInitial):
        reachable_subgraph(auto)


def test_equivalent_reflexive(counter4, lossy):
    assert equivalent(counter4[0], counter4[0])
    assert equivalent(lossy[0], lossy[0])


def test_equivalent_rejects_different_cycle_lengths(counter4, counter2):
    assert not equivalent(counter4[0], counter2[0])


def test_equivalent_up_to_state_relabeling(counter4):
    auto = counter4[0]
    renamed = validate(
        "renamed", ["ck"], ["Q0", "Q1", "Q2", "Q3"], ["w", "x", "y", "z"],
        initial="w",
        output_map={"w": "Q0", "x": "Q1", "y": "Q2", "z": "Q3"},
        transitions=[("w", "ck", "x"), ("x", "ck", "y"), ("y", "ck", "z"), ("z", "ck", "w")],
    )
    assert equivalent(auto, renamed)


def test_equivalent_up_to_symbol_renaming(onebit):
    cell = cell_automaton(["0", "1"])
    cell = dataclasses.replace(cell, initial="0")
    assert equivalent(onebit[0], cell)
    assert equivalent(
        onebit[0], cell, symbol_map={"set0": "write_0", "set1": "write_1"}
    )
    assert not equivalent(
        onebit[0], cell, symbol_map={"set0": "write_1", "set1": "write_0"}
    )


def test_equivalent_distinguishes_structure(tff, onebit):
    # same state and arrow counts, different wiring of the toggles
    assert not equivalent(tff[0], onebit[0])


def test_equivalent_needs_initials(tff):
    auto = dataclasses.replace(tff[0], initial=None)
    with pytest.raises(MissingInitial):
        equivalent(auto, tff[0])


def _relabel(rng, a, transitions=None):
    """``a`` with ``transitions`` (its own by default), its states and
    symbols renamed at random and every list shuffled; also the symbol
    renaming."""
    states, symbols = list(a.states), list(a.input_alphabet)
    rng.shuffle(states)
    rng.shuffle(symbols)
    st = {q: f"p{i}" for i, q in enumerate(states)}
    sy = {s: f"t{i}" for i, s in enumerate(symbols)}
    moves = [(st[q], sy[s], st[t]) for (q, s), t in (transitions or a.transitions).items()]
    rng.shuffle(moves)
    return validate(
        "relabeled", list(sy.values()), a.output_alphabet, list(st.values()),
        initial=st[a.initial], output_map={st[q]: a.output_map[q] for q in a.states},
        transitions=moves,
    ), sy


def _near_miss(rng, a):
    """``a``'s transitions with one merged arrow retargeted, or one label
    moved to another arrow of its state."""
    moves = dict(a.transitions)
    if not moves:
        return moves
    q, s = rng.choice(list(moves))
    if rng.random() < 0.5:
        arrow = a.by_pair[q, moves[q, s]]
        target = rng.choice([p for p in a.states if p != arrow.target] or a.states)
        moves.update({(q, label): target for label in arrow.labels})
    else:
        others = [ar.target for ar in a.by_source[q] if ar.target != moves[q, s]]
        moves[q, s] = rng.choice(others or a.states)
    return moves


def _symbol_maps(rng, a, sy):
    """The renaming ``sy`` of ``a``'s symbols, and wrong ones: two used
    symbols swapped, two used symbols sent to one, a used symbol left
    out, a used symbol sent to a symbol no graph has."""
    reach = core.reachable_states(a, a.initial)
    used = sorted({s for (q, s) in a.transitions if q in reach})
    maps = [sy]
    if used:
        s = rng.choice(used)
        maps += [{k: v for k, v in sy.items() if k != s}, {**sy, s: "nowhere"}]
    if len(used) > 1:
        s, r = rng.sample(used, 2)
        maps += [{**sy, s: sy[r], r: sy[s]}, {**sy, s: sy[r]}]
    return maps


def test_equivalent_matches_the_oracle_on_random_pairs():
    """Renamed copies, near-misses and unrelated pairs of small partial
    automata, each compared both ways, with no symbol map and with right
    and wrong ones: every answer is the exhaustive oracle's."""
    rng = random.Random(51)
    answers = {}
    for case in range(3000):
        a = random_automaton(rng, max_states=7, max_symbols=5, density=rng.random())
        kind = ("renamed", "near-miss", "unrelated")[case % 3]
        if kind == "unrelated":
            b = _relabel(rng, random_automaton(rng, max_states=7, max_symbols=5,
                                               density=rng.random()))[0]
            sy = {s: rng.choice(b.input_alphabet) for s in a.input_alphabet}
        else:
            b, sy = _relabel(rng, a, _near_miss(rng, a) if kind == "near-miss" else None)
        for symbol_map in [None] + _symbol_maps(rng, a, sy):
            want = composition_oracle.equivalent(a, b, symbol_map)
            assert equivalent(a, b, symbol_map) == want, (case, symbol_map)
            answers.setdefault((kind, symbol_map is None), set()).add(want)
            back = None if symbol_map is None else {v: k for k, v in symbol_map.items()}
            assert equivalent(b, a, back) == composition_oracle.equivalent(b, a, back), case
    assert answers["renamed", True] == {True} and answers["renamed", False] == {True, False}
    assert all(answers[kind, search] == {True, False}
               for kind in ("near-miss", "unrelated") for search in (True, False))


@pytest.mark.parametrize("k", [4, 6])
def test_equivalent_finds_the_renaming_of_a_flipflop_product(tff, monkeypatch, k):
    """Products of equal modules have symbols of equal usage everywhere,
    so trying whole symbol bijections is factorial in the 2**k symbols.
    With the renaming given, the propagation never branches."""
    rng = random.Random(52 + k)
    prod = product_many([tff[0]] * k)
    renamed, sy = _relabel(rng, prod)
    assert equivalent(prod, renamed)
    calls = []
    propagate = composition._propagate
    monkeypatch.setattr(composition, "_propagate", lambda *args: calls.append(1) or propagate(*args))
    assert equivalent(prod, renamed, sy)
    assert len(calls) == 1


def test_equivalent_refutes_a_retargeted_flipflop_product(tff):
    """One transition of a 3-flip-flop product sent elsewhere, then every
    state and symbol renamed."""
    rng = random.Random(53)
    prod = product_many([tff[0]] * 3)
    for _ in range(5):
        moves = dict(prod.transitions)
        key = rng.choice(list(moves))
        moves[key] = rng.choice([q for q in prod.states if q != moves[key]])
        assert not equivalent(prod, _relabel(rng, prod, moves)[0])


def test_equivalent_searches_past_the_recursion_limit():
    """All 300 symbols of a star are interchangeable, so the search takes
    one branch point per symbol: deeper than the lowered recursion limit."""
    def star(prefix):
        leaves = [f"l{i}" for i in range(300)]
        return validate(
            "star", [prefix + q for q in leaves], ["r"] + leaves, ["r"] + leaves, initial="r",
            output_map={q: q for q in ["r"] + leaves},
            transitions=[("r", prefix + q, q) for q in leaves],
        )
    a, b = star("s"), star("t")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert equivalent(a, b)
    finally:
        sys.setrecursionlimit(limit)


# ------------------------------------------------- oracle comparisons
#
# ``composition_oracle`` holds the builders as they were before they
# were rebuilt on integer indices.  The production builders must return
# equal objects with every field, dict included, in the same order.

# Plain tokens, then tokens whose tuples can join to one name.
_STATES = (["0", "1", "q", "a"], ["a", "b", "a,b", "b,a", "(a", "a)"])
_INPUTS = (["x", "y", "z"], ["x", "y", "x|y", "y|x"])
_OUTPUTS = (["o", "p", "r", "s"], ["o", "p", "o|p", "p|o"])


def _fields(obj):
    """Class plus every dataclass field, an automaton's name views right
    after its ``moves`` rows, dicts as item lists so that their iteration
    order is compared too."""
    if isinstance(obj, InputModel):
        return InputModel, [(q, list(d.items())) for q, d in obj.probs.items()]
    out = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v) and not isinstance(v, Wiring):
            v = _fields(v)
        elif isinstance(v, dict):
            v = list(v.items())
        out.append((f.name, v))
        if f.name == "moves" and isinstance(obj, Automaton):
            out += [("transitions", list(obj.transitions.items())),
                    ("successors", obj.successors), ("arrows", obj.arrows),
                    ("by_source", list(obj.by_source.items())),
                    ("by_pair", list(obj.by_pair.items()))]
    return type(obj), out


def _outcome(fn, *args):
    try:
        return "ok", _fields(fn(*args))
    except Exception as e:
        return type(e), str(e)


def _check_name(outcome):
    """Which check a raising outcome failed, for coverage asserts."""
    kind, message = outcome
    return message.rsplit(" (", 1)[-1] if kind is DuplicateIdentifier else kind.__name__


def _module(rng, name, tricky):
    """A small valid automaton: partial, possibly with sinks, tokens in
    random order; ``tricky`` draws names holding ``,()|``, which can
    make tuple names collide."""
    n, k = rng.randint(1, 3), rng.randint(1, 3)
    states = rng.sample(_STATES[tricky], n)
    inputs = rng.sample(_INPUTS[tricky], k)
    outputs = rng.sample(_OUTPUTS[tricky], n)
    density = rng.random()
    transitions = [(q, s, rng.choice(states)) for q in states for s in inputs
                   if rng.random() < density]
    rng.shuffle(transitions)
    return validate(
        name, inputs, outputs, states,
        initial=rng.choice(states + [None]),
        output_map=dict(zip(states, outputs)),
        transitions=transitions,
    )


def _model(rng, a):
    if rng.random() < 0.3:
        return InputModel.uniform(a)
    given = {}
    for q in a.states:
        weights = [rng.choice([0.0, rng.random() + 0.05]) for _ in a.by_source[q]]
        if sum(weights) > 0:
            given[q] = {ar.key: w / sum(weights) for ar, w in zip(a.by_source[q], weights)}
    return InputModel.from_arrow_probs(a, given)


def test_products_match_the_oracle_on_random_modules():
    rng = random.Random(47)
    raised = set()
    for case in range(2000):
        tricky = rng.random() < 0.4
        mods = [_module(rng, f"m{i}", tricky) for i in range(rng.randint(1, 4))]
        if len(mods) >= 2 and rng.random() < 0.3:  # nested products flatten
            try:
                mods[:2] = [product_many(mods[:2])]
            except AutomataError:
                pass
        want = _outcome(composition_oracle.product_many, mods)
        assert _outcome(product_many, mods) == want, case
        if want[0] != "ok":
            raised.add(_check_name(want))
            continue
        prod = product_many(mods)
        models = [_model(rng, c) for c in prod.components]
        assert (_outcome(product_input_model, prod, models)
                == _outcome(composition_oracle.product_input_model, prod, models)), case
    assert raised == {"input alphabet)", "states)", "NonInjectiveOutput"}


def _graph(a):
    return (a.states, a.input_alphabet, a.output_alphabet, list(a.transitions.items()),
            list(a.output_map.items()), a.arrows, a.initial)


def test_a_product_is_the_wiring_with_every_module_free(monkeypatch):
    """``product_many`` and ``wire`` share one constructor, which relies
    on this: with no connection and no constant, the closed system of any
    number of modules, one included, is the product graph, with every dict
    in the same order, and the same tuple-name check or size guard fails
    first when one does, here also under lowered limits."""
    rng = random.Random(51)
    built, lone, refused = 0, 0, set()
    for case in range(600):
        limit = rng.choice([core.MONOLITHIC_STATE_LIMIT] * 2 + [rng.randint(1, 40)])
        monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", limit)
        tricky = rng.random() < 0.4
        mods = [_module(rng, f"m{i}", tricky) for i in range(rng.randint(1, 4))]
        w = Wiring(f"free{case}", tuple((f"w{i}", m) for i, m in enumerate(mods)))
        try:
            prod = _graph(product_many(mods))
        except AutomataError as e:
            with pytest.raises(type(e)) as exc:
                wire(w)
            assert str(exc.value) == str(e), case
            if isinstance(e, SizeLimit):
                refused.add(str(e).split(" exceed")[0].split(" ", 1)[1])
            continue
        closed = wire(w)
        assert closed.free_modules == tuple(n for n, _ in w.modules)
        assert _graph(closed.automaton) == prod, case
        built += 1
        lone += len(mods) == 1
    assert built > 300 and lone > 100
    assert refused == {"states", "input symbols", "transitions"}


def _wiring(rng, case, module=_module):
    tricky = rng.random() < 0.4
    mods = [(f"w{i}", module(rng, f"m{i}", tricky)) for i in range(rng.randint(1, 4))]
    connections, constants = [], []
    for name, auto in mods:
        kind = rng.random()
        if kind < 0.25:
            constants.append((name, rng.choice(auto.input_alphabet)))
        elif kind < 0.75:
            src_name, src = rng.choice(mods)
            mapping = {} if rng.random() < 0.05 else {
                r: rng.choice(auto.input_alphabet) for r in src.output_alphabet}
            connections.append(Connection(src_name, name, mapping))
    initials = {}
    for name, auto in mods:
        if rng.random() < 0.3:
            initials[name] = rng.choice(auto.states) if rng.random() < 0.8 else "nowhere"
    return Wiring(f"wiring{case}", tuple(mods), tuple(connections), tuple(constants),
                  initials)


def test_wirings_match_the_oracle():
    rng = random.Random(48)
    raised = set()
    for case in range(1200):
        w = _wiring(rng, case)
        want = _outcome(composition_oracle.wire, w)
        assert _outcome(wire, w) == want, case
        if want[0] != "ok":
            raised.add(_check_name(want))
    assert raised == {"UnknownState", "AlphabetMismatch", "input alphabet)", "states)",
                      "NonInjectiveOutput"}


def _wide_module(rng, name, tricky):
    return random_automaton(rng, max_states=6, max_symbols=6, density=0.9, name=name)


def test_cli_open_choice_bits_match_the_open_product(capsys, monkeypatch):
    """``wire``'s open bits equal, float for float, choice information on
    the open ``product_many`` under a uniform model, which the report
    no longer builds; its closed bits and arrow count are the closed
    graph's.  Wide modules reach the out-degrees (11, 13, 14, ...) at
    which the summed bits and ``log2`` of the out-degree differ in the
    last bits."""
    rng = random.Random(50)
    compared, uneven = 0, 0
    for case in range(600):
        w = _wiring(rng, case) if case < 400 else _wiring(rng, case, _wide_module)
        modules = [m for _, m in w.modules]
        try:
            closed = wire(w).automaton
            open_graph = product_many(modules)
        except AutomataError:
            continue
        monkeypatch.setattr(fileformat, "load_wiring", lambda path: w)
        assert cli.main(["--json", "wire", "w.wiring"]) == 0, case
        report = json.loads(capsys.readouterr().out)
        got = report["open_choice_bits"]
        model = InputModel.uniform(open_graph)
        assert got == {q: choice_information(open_graph, model, q) for q in got}, case
        model = InputModel.uniform(closed)
        assert report["closed_choice_bits"] == {
            q: choice_information(closed, model, q) for q in got}, case
        assert report["arrow_count"] == closed.arrow_count, case
        compared += len(got)
        uneven += sum(got[q] != math.log2(open_graph.out_degree(q) or 1) for q in got)
    assert compared > 300 and uneven > 5


def test_cli_wires_a_ring_of_eleven_flipflops(capsys, tmp_path):
    """The open product of 11 T-flip-flops has 4^11 transitions, past
    ``product_many``'s limit; the report does not build it."""
    shutil.copy(asset_path("tff.aut"), tmp_path)
    lines = ["wiring ring11"] + [f"module m{i} tff.aut" for i in range(11)]
    lines += [f"connect m{i} m{(i + 1) % 11} Q0=T0 Q1=T1" for i in range(11)]
    (tmp_path / "ring.wiring").write_text("\n".join(lines) + "\n")
    assert cli.main(["--json", "wire", str(tmp_path / "ring.wiring")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["state_count"] == 2048
    assert report["open_choice_bits"] == {"(" + ",".join("0" * 11) + ")": 11.0}


def test_cli_wire_reads_the_shown_states_only(capsys, tmp_path, monkeypatch):
    """A clock-driven ring of 14 T-flip-flops has 2**14 tuple states, of
    which 16 are reached: their degrees are read by index, so the closed
    graph's ``index`` and ``successors`` over every tuple are never built."""
    shutil.copy(asset_path("tff.aut"), tmp_path)
    lines = ["wiring ring14", "constant m0 T1"] + [f"module m{i} tff.aut" for i in range(14)]
    lines += [f"connect m{i - 1} m{i} Q0=T0 Q1=T1" for i in range(1, 14)]
    (tmp_path / "ring.wiring").write_text("\n".join(lines) + "\n")
    closed = []
    monkeypatch.setattr(composition, "wire", lambda w: closed.append(wire(w)) or closed[-1])
    assert cli.main(["--json", "wire", str(tmp_path / "ring.wiring")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["state_count"], report["arrow_count"]) == (2**14, 2**14)
    shown = report["open_choice_bits"]
    assert len(shown) == 16 and set(shown.values()) == {14.0}
    assert report["closed_choice_bits"] == dict.fromkeys(shown, 0.0)
    assert not {"index", "successors"} & set(vars(closed[0].automaton))


def test_cli_wires_a_lone_module_held_by_a_constant(capsys, tmp_path):
    """A wired lone module gets tuple state names, which its own graph
    lacks; the open bits are still its out-degree's."""
    shutil.copy(asset_path("tff.aut"), tmp_path)
    (tmp_path / "one.wiring").write_text("wiring one\nmodule a tff.aut\nconstant a T1\n")
    assert cli.main(["--json", "wire", str(tmp_path / "one.wiring")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["open_choice_bits"] == {"(0)": 1.0, "(1)": 1.0}
    assert report["closed_choice_bits"] == {"(0)": 0.0, "(1)": 0.0}


def test_validate_keeps_arrow_orders_on_shuffled_transitions():
    rng = random.Random(49)
    for _ in range(200):
        states = [f"q{i}" for i in range(rng.randint(1, 7))]
        symbols = [f"s{j}" for j in range(rng.randint(1, 4))]
        rng.shuffle(states)
        rng.shuffle(symbols)
        transitions = [(q, s, rng.choice(states)) for q in states for s in symbols
                       if rng.random() < 0.7]
        rng.shuffle(transitions)
        a = validate("shuffled", symbols, states, states,
                     output_map={q: q for q in states}, transitions=transitions)
        labels = {}
        for (src, sym), tgt in a.transitions.items():
            labels.setdefault((src, tgt), []).append(sym)
        arrows = tuple(Arrow(src, tgt, tuple(sorted(syms)))
                       for (src, tgt), syms in sorted(labels.items()))
        assert a.arrows == arrows
        assert list(a.by_source.items()) == [
            (q, tuple(ar for ar in arrows if ar.source == q)) for q in states]
        assert list(a.by_pair.items()) == [(ar.key, ar) for ar in arrows]


def test_size_guards_bound_transitions(monkeypatch, tff, tff_wiring):
    auto, _ = tff
    with pytest.raises(SizeLimit, match="^16777216 transitions exceed"):
        product_many([auto] * 12)
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 15)
    with pytest.raises(SizeLimit, match="^16 transitions exceed the monolithic limit of 15$"):
        product_many([auto, auto])
    # two free flip-flops: 4 tuple states times 4 free symbol pairs
    with pytest.raises(SizeLimit, match="^16 transitions exceed the monolithic limit of 15$"):
        wire(Wiring("free", (("a", auto), ("b", auto))))
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 7)
    with pytest.raises(SizeLimit, match="^8 states exceed"):  # checked first
        product_many([auto] * 3)
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 2)
    with pytest.raises(SizeLimit, match="^4 states exceed the monolithic limit of 2$"):
        wire(tff_wiring)
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 4)
    assert len(wire(tff_wiring).automaton.states) == 4
    # a free module with no input symbols must not hide the tuple states
    idle = validate("idle", [], ["i0", "i1"], ["0", "1"], output_map={"0": "i0", "1": "i1"})
    held = Wiring("held", (("idle", idle),) + tuple((f"t{i}", auto) for i in range(4)),
                  constants=tuple((f"t{i}", "T1") for i in range(4)))
    with pytest.raises(SizeLimit, match="^32 states exceed the monolithic limit of 4$"):
        wire(held)
    with pytest.raises(ArityMismatch, match="^need at least one module$"):
        wire(Wiring("empty", ()))
    # one state and one transition each, but 10**3 tuple input symbols
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 999)
    wide = validate("wide", [f"s{i}" for i in range(10)], ["o"], ["q"], output_map={"q": "o"},
                    transitions=[("q", "s0", "q")])
    with pytest.raises(SizeLimit, match="^1000 input symbols exceed the monolithic limit of 999$"):
        product_many([wide] * 3)
    assert len(product_many([wide] * 2).input_alphabet) == 100


def test_arity_errors_are_automata_errors(tff):
    auto, model = tff
    with pytest.raises(ArityMismatch, match="^need at least one module$"):
        product_many([])
    with pytest.raises(ArityMismatch, match="^one model per component required$"):
        product_input_model(product(auto, auto), [model])
    with pytest.raises(ArityMismatch, match="^one start state per module required$"):
        modular_test_cost([auto, auto], ["0"])
    assert issubclass(ArityMismatch, AutomataError) and issubclass(ArityMismatch, ValueError)


def test_product_input_model_names_what_it_cannot_use(tff, tff_wiring):
    auto, model = tff
    closed = wire(tff_wiring).automaton  # a tuple graph, but no product of modules
    for graph in (auto, closed):
        with pytest.raises(ArityMismatch, match=f"^{graph.name!r} is not a product of modules$"):
            product_input_model(graph, [model])
    # a sink has no arrow to weigh, so its row is empty
    sink = validate("sink", ["a"], ["o", "p"], ["0", "1"], "0", {"0": "o", "1": "p"},
                    [("0", "a", "1")])
    sink_model = InputModel.from_arrow_probs(sink, {"0": {("0", "1"): 1.0}})
    with pytest.raises(InvalidDistribution, match="^input model of graph 'sink' is used on "
                                                  "graph 'tff', a different graph$"):
        product_input_model(product(auto, auto), [model, sink_model])
    pm = product_input_model(product(auto, sink), [model, sink_model])
    assert pm.probs["(0,0)"] == {("(0,0)", "(0,1)"): 0.5, ("(0,0)", "(1,1)"): 0.5}
    assert pm.probs["(0,1)"] == {}
