"""Machine runs cross-checked against the brute-force oracle, head/cell
decomposition, dissipation growth, and the reversible simulation."""

import dataclasses
import gc
import math
import random
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from autodiss import (
    Configuration,
    RunTrace,
    bennett_simulate,
    cell_automaton,
    check_convergence_lemma,
    choice_information,
    convergent_states,
    divergent_states,
    ensemble_dissipation,
    global_graph,
    head_automaton,
    initial_configuration,
    is_reversible,
    InputModel,
    make_machine,
    modular_tm_dissipation,
    parse_machine,
    point_distribution,
    tm_run,
    tm_step,
    validate,
)
from autodiss.errors import (
    AlphabetTooSmall,
    Halted,
    InvalidArgument,
    IrreversibleStep,
    Nondeterministic,
    NoRule,
    NotHalted,
    NotHalting,
    RepeatedConfiguration,
    SizeLimit,
    TapeOverflow,
    UnknownSymbol,
    ValidationError,
)
from autodiss import turing
from autodiss.turing import Trajectory, detect_eventual_period
from tm_oracle import BB2_RULES, oracle_run


def identity_machine():
    return make_machine(
        "ident", ["_", "x", "y"], "_", ["h"], initial="h", halting=["h"]
    )


def alternator():
    return make_machine(
        "alt", ["0"], "0", ["a", "b"], initial="a",
        rules=[("a", "0", "b", "0", "R"), ("b", "0", "a", "0", "R")],
    )


def test_run_matches_oracle(bb2):
    halted, steps, result = oracle_run(BB2_RULES, "a", {"halt"}, "0")
    trace = tm_run(bb2)
    assert trace.halted == halted
    assert trace.steps == steps == 6
    assert "".join(trace.result) == result == "1111"
    assert trace.result_length == 4


def test_run_matches_oracle_on_nonblank_inputs(bb2):
    for tape in ("1", "01", "110", "0101"):
        halted, steps, result = oracle_run(
            BB2_RULES, "a", {"halt"}, "0", tape=tape, max_steps=200
        )
        trace = tm_run(bb2, list(tape), max_steps=200)
        assert trace.halted == halted
        assert trace.steps == steps
        if halted:
            assert "".join(trace.result) == result


def test_single_step(bb2):
    c0 = initial_configuration(bb2)
    c1 = tm_step(bb2, c0)
    assert c1.control == "b"
    assert c1.head == 1
    assert c1.cells == ((0, "1"),)


def test_step_errors(bb2):
    from autodiss import Configuration

    with pytest.raises(Halted):
        tm_step(bb2, Configuration(control="halt", head=0, cells=()))
    half = make_machine(
        "half", ["0", "1"], "0", ["a", "c"], initial="a",
        rules=[("a", "0", "c", "1", "R")],
    )
    with pytest.raises(NoRule):
        tm_step(half, Configuration(control="c", head=0, cells=()))


def test_no_rule_mid_run():
    half = make_machine(
        "half", ["0", "1"], "0", ["a", "c"], initial="a",
        rules=[("a", "0", "c", "1", "R")],
    )
    with pytest.raises(NoRule):
        tm_run(half, max_steps=10)


def test_budget_zero_and_looping(bb2, loop_machine):
    assert len(tm_run(bb2, max_steps=0).configurations) == 1
    idle = make_machine(
        "idle", ["0"], "0", ["a"], initial="a",
        rules=[("a", "0", "a", "0", "N")],
    )
    trace = tm_run(idle, max_steps=100)
    assert not trace.halted
    assert len(trace.configurations) == 101
    assert trace.result is None


def test_tape_cap(loop_machine):
    with pytest.raises(TapeOverflow):
        tm_run(loop_machine, max_steps=100, tape_cap=16)


def test_run_log_holds_the_rule_tables_keys(bincounter):
    """No new pair per recorded step: the log holds the rule table's own
    key tuples, under 32 traced bytes a step where a new pair took 72."""
    tracemalloc.start()
    try:
        run = tm_run(bincounter, max_steps=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.steps == 200_000 and peak / run.steps < 32
    assert all(pair is bincounter.step_rules[pair][0] for pair in run.log[:1000])


def test_runs_past_the_step_log_limit_are_refused(monkeypatch, bb2, bincounter):
    monkeypatch.setattr(turing, "STEP_LOG_LIMIT", 100)
    with pytest.raises(SizeLimit) as err:
        tm_run(bincounter, max_steps=10**9)
    assert (err.value.size, err.value.limit) == (101, 100)
    assert tm_run(bincounter, max_steps=100).steps == 100
    assert tm_run(bb2, max_steps=10**9).steps == 6
    for analysis in (bennett_simulate, modular_tm_dissipation):
        with pytest.raises(SizeLimit, match="^101 recorded steps exceed the monolithic limit"):
            analysis(bincounter, max_steps=10**9)


def test_only_a_halted_run_decodes_its_end(monkeypatch, bb2, bincounter):
    """The start's tape is decoded to step it; the end's only for a result."""
    decoded = []
    real = turing._tape
    monkeypatch.setattr(turing, "_tape", lambda c, blank: decoded.append(c) or real(c, blank))
    for tm, halted in ((bb2, True), (bincounter, False)):
        decoded.clear()
        run = tm_run(tm, max_steps=100)
        assert run.halted is halted and (run.result is not None) is halted
        assert decoded == [run.configurations[0], run.configurations[-1]][:1 + halted]


def test_an_equal_call_returns_the_held_run_and_refuses_as_before():
    """While a run is held, an equal call on the same machine object returns it and
    analyses share it; another budget, tape or machine gets its own run, and a bad
    budget or tape symbol is refused as if no run were held."""
    tm, twin = eraser(), eraser()
    run = tm_run(tm, ["a"], max_steps=50)
    assert tm_run(tm, ("a",), max_steps=50) is run
    assert modular_tm_dissipation(tm, ["a"], max_steps=50).trace is run
    assert bennett_simulate(tm, ["a"], max_steps=50).forward is run
    others = [tm_run(tm, ["a"], max_steps=49), tm_run(tm, ["a"], max_steps=50, tape_cap=9),
              tm_run(tm, ["b"], max_steps=50), tm_run(twin, ["a"], max_steps=50)]
    assert not any(other is run for other in others) and others[3] == run
    assert head_automaton(tm) is head_automaton(tm) and head_automaton(twin) is not head_automaton(tm)
    for kwargs in (dict(max_steps=50.0), dict(max_steps=-1), dict(max_steps=50, tape_cap=2.5),
                   dict(max_steps=50, tape_cap=-1), dict(max_steps=50, tape_cap=None)):
        with pytest.raises(InvalidArgument):
            tm_run(tm, ["a"], **kwargs)
    with pytest.raises(UnknownSymbol):
        tm_run(tm, ["a", "z"], max_steps=50)
    assert tm_run(tm, ["a"], max_steps=50) is run


def test_the_run_memo_keeps_no_run_alive(monkeypatch):
    monkeypatch.setattr(turing, "_RUNS", weakref.WeakValueDictionary())
    tm = eraser()
    with pytest.raises(NoRule):  # a run that raises is not stored
        tm_run(tm, [])
    run = tm_run(tm, ["a"])
    dropped = weakref.ref(run)
    assert list(turing._RUNS.values()) == [run]
    del run
    gc.collect()
    assert dropped() is None and len(turing._RUNS) == 0
    assert tm_run(tm, ["a"]) is not None


def test_a_run_is_rendered_once_and_its_chains_share_the_names(monkeypatch, bb2):
    run = tm_run(bb2)
    t = run.configurations
    names = t.renders()
    names.append("changed by the caller")
    chain = global_graph(run)
    ben = bennett_simulate(bb2)  # replays its forward log to check it
    monkeypatch.setattr(Trajectory, "_replay", lambda *args: pytest.fail("rendered twice"))
    assert t.renders() == names[:-1] == list(chain.states) and t.renders() is not t.renders()
    assert chain.states is t._rendered()
    assert global_graph(ben).states[:len(names) - 1] == tuple(
        f"compute#{c}#h[{';'.join(f'{q},{s}' for q, s in run.log[:i])}]#o[]"
        for i, c in enumerate(names[:-1]))


def test_machine_validation():
    with pytest.raises(Nondeterministic):
        make_machine(
            "bad", ["0"], "0", ["a", "b"], initial="a",
            rules=[("a", "0", "a", "0", "R"), ("a", "0", "b", "0", "R")],
        )
    with pytest.raises(ValidationError):
        make_machine(
            "bad", ["0"], "0", ["a", "h"], initial="a", halting=["h"],
            rules=[("h", "0", "a", "0", "R")],
        )
    with pytest.raises(UnknownSymbol):
        make_machine("bad", ["0"], "1", ["a"], initial="a")
    with pytest.raises(UnknownSymbol, match=r"^symbol 'x' is not declared \(input tape\)$"):
        initial_configuration(make_machine("ok", ["0"], "0", ["a"], initial="a"), ["0", "x"])
    with pytest.raises(ValidationError):
        make_machine(
            "bad", ["0"], "0", ["a"], initial="a",
            rules=[("a", "0", "a", "0", "Q")],
        )


def test_head_automaton_structure(bb2):
    head = head_automaton(bb2)
    assert head.states == ("a", "b", "halt")
    assert [(ar.source, ar.target, ar.labels) for ar in head.arrows] == [
        ("a", "b", ("0", "1")),
        ("b", "a", ("0",)),
        ("b", "halt", ("1",)),
    ]
    assert head.arrow_count <= len(bb2.rules)
    assert convergent_states(head) == set()
    from autodiss import reachable_states

    assert reachable_states(head, "a") == {"a", "b", "halt"}


def test_head_automaton_convergence_by_construction():
    joiner = make_machine(
        "joiner", ["0"], "0", ["a", "b", "c"], initial="a",
        rules=[("a", "0", "c", "0", "R"), ("b", "0", "c", "0", "R")],
    )
    assert convergent_states(head_automaton(joiner)) == {"c"}


def test_cell_automaton_is_the_one_bit_memory(onebit):
    import dataclasses

    from autodiss import equivalent

    cell = cell_automaton(["0", "1"])
    assert equivalent(onebit[0], dataclasses.replace(cell, initial="0"))


def test_cell_automaton_degrees_and_bits():
    cell = cell_automaton(["0", "1", "_"])
    assert len(cell.states) == 3
    indeg = {}
    for ar in cell.arrows:
        indeg[ar.target] = indeg.get(ar.target, 0) + 1
    model = InputModel.uniform(cell)
    for q in cell.states:
        assert cell.out_degree(q) == 3
        assert indeg[q] == 3
        assert choice_information(cell, model, q) == pytest.approx(math.log2(3))
    with pytest.raises(AlphabetTooSmall):
        cell_automaton(["0"])


def test_convergence_lemma_on_binary_counter(bincounter):
    report = check_convergence_lemma(bincounter)
    assert report.has_convergence
    assert report.witnesses == ("carry", "rewind")


def test_convergence_lemma_on_halting_machine(bb2):
    report = check_convergence_lemma(bb2)
    assert not report.has_convergence


def test_convergence_free_heads_run_periodically(loop_machine):
    for tm in (loop_machine, alternator()):
        assert not check_convergence_lemma(tm).has_convergence
        report = check_convergence_lemma(
            tm, horizon=10 * len(tm.control_states)
        )
        assert not report.halted
        assert report.eventually_periodic
        assert report.period <= len(tm.control_states)


def test_detect_eventual_period():
    assert detect_eventual_period("abababab") == (0, 2)
    assert detect_eventual_period("xyzababab") == (3, 2)
    assert detect_eventual_period("aaaa") == (0, 1)
    assert detect_eventual_period("abcdefgh") is None
    assert detect_eventual_period("ab") is None  # too short to show a repeat


def test_binary_counter_keeps_counting(bincounter):
    trace = tm_run(bincounter, max_steps=62)
    assert not trace.halted
    # after the full budget the tape should hold a growing binary count
    final = dict(trace.configurations[-1].cells)
    assert final  # something was written


def test_modular_dissipation_bb2(bb2):
    acc = modular_tm_dissipation(bb2)
    assert acc.trace.halted
    assert acc.head_bits == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert acc.cell_bits == (1.0,) * 6
    assert acc.total_bits == 9.0


def test_modular_dissipation_linear_growth(loop_machine):
    for budget in (1, 10, 100):
        acc = modular_tm_dissipation(loop_machine, max_steps=budget)
        assert acc.total_bits == float(budget)
    acc = modular_tm_dissipation(loop_machine, max_steps=50)
    assert all(
        b2 - b1 >= 0 for b1, b2 in zip(acc.cumulative_bits, acc.cumulative_bits[1:])
    )
    assert acc.total_bits >= 50 * math.log2(2)


def test_modular_dissipation_budget_zero(bb2):
    acc = modular_tm_dissipation(bb2, max_steps=0)
    assert acc.total_bits == 0.0
    assert acc.per_step_bits == ()


def test_global_graph_of_halted_run(bb2):
    trace = tm_run(bb2)
    assert len(set(trace.configurations)) == len(trace.configurations)
    graph = global_graph(trace)
    assert len(graph.states) == 7
    assert is_reversible(graph)
    assert divergent_states(graph) == set()
    assert convergent_states(graph) == set()
    model = InputModel.uniform(graph)
    ens = ensemble_dissipation(
        graph, model, point_distribution(graph, graph.states[0]), 6
    )
    assert ens.total_loss_bits == pytest.approx(0.0, abs=1e-12)


def test_global_graph_requires_halt(loop_machine):
    with pytest.raises(NotHalted):
        global_graph(tm_run(loop_machine, max_steps=5))


def test_bennett_on_bb2(bb2):
    trace = bennett_simulate(bb2)
    assert trace.total_steps == 2 * 6 + 4 == 16
    assert trace.phase_boundaries == (6, 10, 16)
    assert trace.output_tape == ("1", "1", "1", "1")
    last = trace.global_configs[-1]
    assert last.history == ()
    assert last.config == trace.global_configs[0].config
    assert len(set(trace.global_configs)) == len(trace.global_configs)
    assert trace.classic_step_count == 4 * 6 + 4 * 4 + 5 == 45
    graph = global_graph(trace)
    assert len(graph.states) == trace.total_steps + 1
    assert is_reversible(graph)
    ens = ensemble_dissipation(
        graph,
        InputModel.uniform(graph),
        point_distribution(graph, graph.states[0]),
        trace.total_steps,
    )
    assert ens.total_loss_bits == pytest.approx(0.0, abs=1e-12)


def test_bennett_degenerate_copy_only():
    trace = bennett_simulate(identity_machine(), ["x", "y", "x"])
    assert trace.forward.steps == 0
    assert trace.total_steps == 3
    assert trace.output_tape == ("x", "y", "x")
    assert len(set(trace.global_configs)) == 4


def test_bennett_empty_everything():
    trace = bennett_simulate(identity_machine())
    assert trace.total_steps == 0
    assert len(trace.global_configs) == 1


def test_bennett_zero_length_result_stays_injective():
    # writes a symbol, then erases it and halts: result is the empty tape
    wiper = make_machine(
        "wiper", ["0", "1"], "0", ["w", "e", "h"], initial="w",
        halting=["h"],
        rules=[("w", "0", "e", "1", "N"), ("e", "1", "h", "0", "N")],
    )
    trace = bennett_simulate(wiper)
    assert trace.forward.result == ()
    assert trace.total_steps == 4  # 2n + 0
    assert len(set(trace.global_configs)) == len(trace.global_configs)


def test_bennett_requires_halting(loop_machine):
    with pytest.raises(NotHalting):
        bennett_simulate(loop_machine, max_steps=50)


def test_bennett_restores_arbitrary_inputs(bb2):
    for tape in ([], ["1"], ["0", "1", "1"]):
        trace = bennett_simulate(bb2, tape, max_steps=500)
        assert trace.global_configs[-1].config == initial_configuration(bb2, tape)
        assert trace.output_tape == trace.forward.result
        assert trace.total_steps == 2 * trace.forward.steps + trace.forward.result_length


def test_a_tape_given_as_an_iterator_is_read_once(bb2):
    """An iterator tape is read once, as a tuple: its cells, the run memo's key and
    ``input_tape`` are those of the listed tape, not of a blank one."""
    listed = tm_run(bb2, ["1", "1"])
    once = tm_run(bb2, iter(["1", "1"]))
    assert once is listed and once is not tm_run(bb2, [])
    assert initial_configuration(bb2, iter(["1", "1"])) == initial_configuration(bb2, ["1", "1"])
    for tape in (["1"], ["0", "1", "1"]):
        trace, from_list = bennett_simulate(bb2, iter(tape)), bennett_simulate(bb2, tape)
        assert trace.input_tape == from_list.input_tape == tuple(tape)
        assert (trace.forward.log, trace.forward.configurations.end) == (
            from_list.forward.log, from_list.forward.configurations.end)


@pytest.mark.parametrize("bad", [None, 2.5, 7], ids=["none", "float", "int"])
@pytest.mark.parametrize("call, kind", [
    pytest.param(lambda tm, x: validate("a", x, ["o"], ["q"]), "input alphabet", id="validate-inputs"),
    pytest.param(lambda tm, x: validate("a", ["s"], x, ["q"]), "output alphabet", id="validate-outputs"),
    pytest.param(lambda tm, x: validate("a", ["s"], ["o"], x), "states", id="validate-states"),
    pytest.param(lambda tm, x: make_machine("m", x, "0", ["A"], "A"), "tape alphabet", id="make_machine-alphabet"),
    pytest.param(lambda tm, x: make_machine("m", ["0"], "0", x, "A"), "control states", id="make_machine-states"),
    pytest.param(lambda tm, x: cell_automaton(x), "cell alphabet", id="cell_automaton"),
    pytest.param(lambda tm, x: initial_configuration(tm, x), "input tape", id="initial_configuration"),
    pytest.param(lambda tm, x: tm_run(tm, x), "input tape", id="tm_run"),
    pytest.param(lambda tm, x: bennett_simulate(tm, x), "input tape", id="bennett_simulate"),
    pytest.param(lambda tm, x: modular_tm_dissipation(tm, x), "input tape", id="modular_tm_dissipation"),
    pytest.param(lambda tm, x: check_convergence_lemma(tm, x, horizon=10), "input tape",
                 id="check_convergence_lemma"),
])
def test_a_token_sequence_that_is_not_iterable_is_an_invalid_argument(bb2, call, kind, bad):
    with pytest.raises(InvalidArgument, match=re.escape(f"{kind} must be a sequence of symbols, got {bad!r}")):
        call(bb2, bad)


def test_bennett_snapshots_compare_by_value_across_simulations(bb2):
    first, again = bennett_simulate(bb2), bennett_simulate(bb2)
    assert first.global_configs == again.global_configs
    assert hash(first.global_configs) == hash(again.global_configs)
    other = bennett_simulate(bb2, ["1"])
    for t in range(other.forward.steps + 1):
        # same phase and prefix lengths, different tape and history
        assert first.global_configs[t] != other.global_configs[t]
    # different prefix lengths, and not a snapshot at all
    assert first.global_configs[0] != again.global_configs[1]
    assert first.global_configs[0] != first.global_configs[0].config


def eraser():
    """Erases the one input cell, steps right and halts: two steps."""
    return make_machine(
        "eraser", ["_", "a", "b"], "_", ["q", "r", "h"], initial="q", halting=["h"],
        rules=[("q", "a", "r", "_", "R"), ("q", "b", "r", "_", "R"), ("r", "_", "h", "_", "N")],
    )


@pytest.mark.parametrize("log, end, message, entry", [
    # read 'b' where 'a' was: undoing the run from its end passes every
    # backward check but gives the input back as 'b'
    ((("q", "b"), ("r", "_")), None,
     "log step 0 is ('q', 'b'), but the machine is in 'q' reading 'a'", ("log", 0)),
    ((("q", "a"), ("q", "a")), None,
     "log step 1 is ('q', 'a'), but the machine is in 'r' reading '_'", ("log", 1)),
    (None, Configuration("h", 1, ((1, "a"),)), "the log ends at ('h', 1, ()), but the stored end "
     "is Configuration(control='h', head=1, cells=((1, 'a'),))", ("end", 0)),
    # no rule, and no such state
    ((("q", "a"), ("zz", "a")), None,
     "log step 1 is ('zz', 'a'), but the machine is in 'r' reading '_'", ("log", 1)),
])
def test_bennett_refuses_a_tampered_forward_run(monkeypatch, log, end, message, entry):
    tm = eraser()
    assert bennett_simulate(tm, ["a"]).total_steps == 4
    real = turing.tm_run

    def tampered(*args, **kwargs):
        run = real(*args, **kwargs)
        t = run.configurations
        return dataclasses.replace(
            run, configurations=Trajectory(t.tm, t.start, log or t.log, end or t.end))

    monkeypatch.setattr(turing, "tm_run", tampered)
    with pytest.raises(IrreversibleStep, match=f"^{re.escape(message)}$") as err:
        bennett_simulate(tm, ["a"])
    cause = err.value.__cause__
    assert (type(cause), str(cause), cause.entry) == (ValidationError, message, entry)


@pytest.mark.parametrize("log, end, entry", [
    ((("q", "a"), ("q", "a")), None, ("log", 1)),  # the first step left control 'r'
    ((("q", "a"), ("zz", "a")), None, ("log", 1)),  # no rule, and no such state
    ((("q", "a"), ("r", "_"), ("h", "_")), None, ("log", 2)),  # a step after the halt
    (None, Configuration("h", 5, ()), ("end", 0)),  # the log ends at head 1
])
def test_every_reader_of_a_run_checks_its_log(log, end, entry):
    tm = eraser()
    t = tm_run(tm, ["a"]).configurations
    log, end = log or t.log, end or t.end
    prefix = f"^log step {entry[1]} " if entry[0] == "log" else "^the log ends at "
    errors = []
    for read in (Trajectory.renders, tuple, lambda t: t[1], lambda t: t[1:],
                 lambda t: global_graph(RunTrace("eraser", "_", t, True, len(log), (), 0))):
        with pytest.raises(ValidationError, match=prefix) as err:
            read(Trajectory(tm, t.start, log, end))
        errors.append((type(err.value), str(err.value), err.value.entry))
    assert errors == [(ValidationError, errors[0][1], entry)] * 5
    # the stored end is returned unchecked, without a replay
    assert Trajectory(tm, t.start, log, end)[-1] is end


ORDER = "cells .* are not non-blank and in order"


@pytest.mark.parametrize("head, cells, message, entry", [
    (1, ((5, "a"), (1, "a")), ORDER, ("cells", 0)),
    (1, ((1, "a"), (1, "b")), ORDER, ("cells", 0)),
    (1, ((0, "a"), (2, "_")), ORDER, ("cells", 0)),
    (1.5, (), "head 1.5 is not an integer", ("head", 0)),
    ("x", ((1, "a"),), "head 'x' is not an integer", ("head", 0)),
    (1, (("x", "a"),), r"cells \(\('x', 'a'\),\) are not at integer positions", ("cells", 0)),
    (1, ((0, "a"), (1.5, "a")), "cells .* are not at integer positions", ("cells", 0)),
], ids=["unordered", "repeated", "blank", "head-float", "head-str", "cell-str", "cell-float"])
def test_every_reader_refuses_malformed_cells(head, cells, message, entry):
    """Hand-built cells out of order, at a repeated position, holding the
    blank or at a position without ``__index__``, and such a head, are
    refused by the one decoder, whoever reads them; a position that is not
    an integer used to raise a bare ``TypeError``, or to render."""
    tm = eraser()
    c = Configuration("q", head, cells)
    t = Trajectory(tm, c, (("q", "a"), ("r", "_")), Configuration("h", 2, ()))
    for read in (lambda: tm_step(tm, c), lambda: c.render("_"), lambda: c.read("_"),
                 t.renders, lambda: tuple(t), lambda: t[1]):
        with pytest.raises(ValidationError, match=f"^{message}$") as err:
            read()
        assert err.value.entry == entry


def test_positions_of_other_integer_types_are_accepted():
    tm = eraser()
    c = Configuration("q", np.int64(1), ((np.int64(1), "a"),))
    assert (tm_step(tm, c), c.read("_"), c.render("_")) == (
        tm_step(tm, Configuration("q", 1, ((1, "a"),))), "a", "q|1|1:a")


def test_a_stored_run_is_read_from_its_log_alone(monkeypatch, gen):
    """Iteration, names, indices and slices of a stored run never enter the
    machine's step loop again; iterating builds one configuration a step."""
    cases = []
    for seed, width, sweeps, budget in ((7, 36, 40, 10_000), (4, 20, 10, 100), (1, 3, 2, 10_000)):
        tm = parse_machine(gen.sweeper_text(random.Random(seed), f"sw{seed}", width, sweeps))
        run = tm_run(tm, max_steps=budget)
        stepped = [run.configurations[0]]
        while len(stepped) <= run.steps:
            stepped.append(tm_step(tm, stepped[-1]))
        t = run.configurations  # tm_run would hand back the held run's trajectory
        cases.append((run, Trajectory(tm, t.start, t.log, t.end), tuple(stepped)))
    monkeypatch.setattr(turing, "_advance", lambda *args: pytest.fail("the machine was run"))
    made = []
    real = turing.Configuration
    monkeypatch.setattr(turing, "Configuration", lambda **kw: made.append(kw) or real(**kw))
    for run, fresh, stepped in cases:
        n = run.steps
        made.clear()
        assert tuple(run.configurations) == stepped
        assert len(made) == n
        assert run.configurations.renders() == [c.render("_") for c in stepped]
        assert fresh[n // 2] == stepped[n // 2]
        assert fresh[n // 3: n - 1: 4] == stepped[n // 3: n - 1: 4]
        assert fresh[n - 2:: -3] == stepped[n - 2:: -3]


def test_iterating_a_long_run_keeps_one_short_tape():
    """The tape grows with the head's excursion, not with the step count."""
    bounce = make_machine("bounce", ["_", "a"], "_", ["q0", "q1"], initial="q0", rules=[
        ("q0", "_", "q1", "a", "R"), ("q1", "_", "q0", "_", "L"), ("q0", "a", "q1", "a", "R")])
    run = tm_run(bounce, max_steps=20_000)
    tracemalloc.start()
    try:
        for _ in run.configurations:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not run.halted and run.steps == 20_000 and peak < 300_000


FAR = 10**9  # cells between the head and the cells it is read and rendered with


@pytest.mark.parametrize("head", [-FAR, FAR + 2], ids=["left", "right"])
def test_read_and_render_lay_only_the_cells_however_far_the_head(head):
    """O(cells): neither lays the blanks between the head and the cells."""
    c = Configuration("q", head, ((0, "a"), (2, "b")))
    writer = make_machine("writer", "_ab", "_", ["q", "h"], "q", ["h"], [("q", "_", "h", "a", "L")])
    wrote = ((head, "a"),) + c.cells if head < 0 else c.cells + ((head, "a"),)

    def step(blank):
        return tm_step(writer, c)

    for call, want in ((c.read, "_"), (c.render, f"q|{head}|0:a,_,b"),
                       (step, Configuration("h", head - 1, wrote))):
        tracemalloc.start()
        try:
            began = time.perf_counter()
            got = call("_")
            took = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and took < 0.01 and peak < 1_000_000, (call.__name__, took, peak)
    assert [Configuration("q", h, c.cells).read("_") for h in (-1, 0, 1, 2, 3)] == list("_a_b_")
    assert [tm_step(writer, Configuration("q", h, c.cells)).cells for h in (-1, 1, 3)] == [
        ((-1, "a"), (0, "a"), (2, "b")), ((0, "a"), (1, "a"), (2, "b")), ((0, "a"), (2, "b"), (3, "a"))]


def test_global_graph_refuses_a_run_that_revisits_a_configuration():
    stay = make_machine(
        "stay", ["_", "a"], "_", ["q", "h"], initial="q", halting=["h"],
        rules=[("q", "a", "q", "a", "N"), ("q", "_", "h", "_", "N")],
    )
    start = initial_configuration(stay, ["a"])
    # claimed halted, but its one step leads back to the start
    run = RunTrace("stay", "_", Trajectory(stay, start, (("q", "a"),), start),
                   halted=True, steps=1, result=("a",), result_length=1)
    with pytest.raises(RepeatedConfiguration, match="revisits a configuration"):
        global_graph(run)
