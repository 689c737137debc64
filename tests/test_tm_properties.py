"""Random small machines: runs stored as step logs agree with the oracle,
with step-by-step configurations and with Bennett's step accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autodiss import (
    Configuration,
    bennett_simulate,
    convergent_states,
    global_graph,
    initial_configuration,
    make_machine,
    tm_run,
)
from autodiss.errors import NoRule
from autodiss.fileformat import parse_machine
from tm_oracle import oracle_configurations, oracle_run

BLANK = "0"


@st.composite
def machines(draw):
    """(rule table, tape, step budget).  A random table over 1-3 states and
    2-3 symbols, about one rule in ten missing, runs under a countdown of
    1-30 steps (control states ``q.i``) after which it halts in "h", so
    most runs halt, many of them late, and short budgets cut others."""
    base = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    symbols = ["0", "1", "2"][: draw(st.integers(2, 3))]
    length = draw(st.integers(1, 30))
    rules = {}
    for q in base:
        for s in symbols:
            if draw(st.integers(0, 9)):
                q2 = draw(st.sampled_from(base + ["h"]))
                write = draw(st.sampled_from(symbols))
                move = draw(st.sampled_from("LRN"))
                for i in range(length):
                    nxt = "h" if q2 == "h" or i + 1 == length else f"{q2}.{i + 1}"
                    rules[(f"{q}.{i}", s)] = (nxt, write, move)
    tape = draw(st.lists(st.sampled_from(symbols), max_size=4))
    budget = draw(st.integers(0, 40))
    states = [f"{q}.{i}" for q in base for i in range(length)] + ["h"]
    tm = make_machine(
        "rand", symbols, BLANK, states, initial="q0.0", halting=["h"],
        rules=[(q, s, *rule) for (q, s), rule in rules.items()],
    )
    return tm, rules, tape, budget


def stepped_configurations(rules, tape, steps):
    """The first ``steps`` + 1 configurations, stepped on the oracle's dict tape."""
    return tuple(Configuration(control=q, head=head, cells=cells) for q, head, cells
                 in oracle_configurations(rules, "q0.0", {"h"}, BLANK, tape, steps))


def reference_names(configs, result):
    """Global-graph names of the three phases, spelled out per snapshot."""
    n, r = len(configs) - 1, len(result)
    hist = [f"{c.control},{c.read(BLANK)}" for c in configs[:n]]

    def name(phase, t, j):
        return (f"{phase}#{configs[t].render(BLANK)}#h[{';'.join(hist[:t])}]"
                f"#o[{','.join(result[:j])}]")

    return ([name("compute", t, 0) for t in range(n + 1)]
            + [name("copy", n, j) for j in range(1, r + 1)]
            + [name("uncompute", t, r) for t in range(n - 1, -1, -1)])


def reference_configs(configs, r):
    """Working configuration of each snapshot: forward, held, backward."""
    n = len(configs) - 1
    return list(configs) + [configs[n]] * r + list(reversed(configs[:n]))


@settings(max_examples=300, deadline=None)
@given(machines())
def test_step_log_runs_match_oracle_and_stepping(case):
    tm, rules, tape, budget = case
    try:
        halted, steps, result = oracle_run(rules, "q0.0", {"h"}, BLANK, tape, budget)
    except KeyError:
        with pytest.raises(NoRule):
            tm_run(tm, tape, max_steps=budget)
        return
    trace = tm_run(tm, tape, max_steps=budget)
    assert (trace.halted, trace.steps) == (halted, steps)
    if halted:
        assert "".join(trace.result) == result
        assert trace.result_length == len(trace.result)
    else:
        assert trace.result is None

    configs = stepped_configurations(rules, tape, steps)
    assert len(trace.configurations) == len(configs)
    assert trace.configurations[-1] == configs[-1]
    assert trace.configurations[0] == configs[0]
    assert tuple(trace.configurations) == configs
    assert trace.configurations == configs and configs == trace.configurations
    assert hash(trace.configurations) == hash(configs)
    assert trace.configurations[1:-1] == configs[1:-1]
    assert tuple(reversed(trace.configurations)) == configs[::-1]
    assert trace.configurations != configs[-1]  # not a sequence
    for i in (len(configs), -len(configs) - 1):
        with pytest.raises(IndexError):
            trace.configurations[i]
    assert trace.log == tuple((c.control, c.read(BLANK)) for c in configs[:-1])
    assert trace.configurations.renders() == [c.render(BLANK) for c in configs]
    if not halted:
        return

    n, r = steps, len(trace.result)
    ben = bennett_simulate(tm, tape, max_steps=budget)
    assert ben.total_steps == 2 * n + r
    assert len(ben.global_configs) == 2 * n + r + 1
    last = ben.global_configs[-1]
    assert last.history == ()
    assert last.config == initial_configuration(tm, tape)
    assert ben.output_tape == trace.result
    assert [g.config for g in ben.global_configs] == reference_configs(configs, r)
    assert len(set(ben.global_configs)) == len(ben.global_configs)

    linear = global_graph(trace)
    assert list(linear.states) == [c.render(BLANK) for c in configs]
    bennett_graph = global_graph(ben)
    assert list(bennett_graph.states) == reference_names(configs, trace.result)
    assert len(linear.states) == n + 1
    assert len(bennett_graph.states) == 2 * n + r + 1
    assert not convergent_states(linear)
    assert not convergent_states(bennett_graph)


def machine_text(tm):
    """``tm`` as ``.tm`` text."""
    lines = [f"tm {tm.name}", f"blank {tm.blank}", "tape " + " ".join(tm.tape_alphabet),
             "states " + " ".join(tm.control_states), f"initial {tm.initial}",
             "halting " + " ".join(sorted(tm.halting))]
    lines += [f"rule {q} {s} {' '.join(rule)}" for (q, s), rule in tm.rules.items()]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(machines())
def test_machine_text_round_trips(case):
    tm = case[0]
    assert parse_machine(machine_text(tm)) == tm
