"""State names of whole runs, rendered in one pass, against the oracle's
dict tape; the tape cap at its boundary; configurations and slices read
back from the step log's checkpoints, and what they cost."""

import math
import random
import tracemalloc

import pytest

from autodiss import Configuration, bennett_simulate, global_graph, make_machine, parse_machine, tm_run
from autodiss import turing
from autodiss.errors import TapeOverflow
from tm_oracle import oracle_configurations, oracle_names

BLANK = "_"


def machine(name, rules):
    """A machine over ``_ a b c`` that halts in ``h``."""
    states = sorted({q for q, _ in rules} | {q for q, _, _ in rules.values()})
    return make_machine(name, [BLANK, "a", "b", "c"], BLANK, states, initial="q0",
                        halting=["h"], rules=[(q, s, *r) for (q, s), r in rules.items()])


# Erase every cell left to right, so the tape is blank for two steps,
# then write again two cells further right.
ERASER = ({
    ("q0", "a"): ("q0", BLANK, "R"),
    ("q0", BLANK): ("q1", BLANK, "R"),
    ("q1", BLANK): ("q2", "b", "L"),
    ("q2", BLANK): ("h", BLANK, "N"),
}, ["a", "a", "a"])

# Walk three cells left of cell 0 over blanks and write there.
LEFT_WALKER = ({
    ("q0", "a"): ("q1", "a", "L"),
    ("q1", BLANK): ("q2", BLANK, "L"),
    ("q2", BLANK): ("q3", BLANK, "L"),
    ("q3", BLANK): ("h", "c", "R"),
}, ["a"])

# Walk four cells right of the input over blanks and write there.
RIGHT_WALKER = ({
    ("q0", "a"): ("q1", "a", "R"),
    ("q1", BLANK): ("q2", BLANK, "R"),
    ("q2", BLANK): ("q3", BLANK, "R"),
    ("q3", BLANK): ("q4", BLANK, "R"),
    ("q4", BLANK): ("h", "c", "N"),
}, ["a"])

# Blank the leftmost cell, then the rightmost one, each next to an
# interior blank, then the last non-blank cell.
TRIMMER = ({
    ("q0", "a"): ("q1", BLANK, "R"),
    ("q1", BLANK): ("q1", BLANK, "R"),
    ("q1", "b"): ("q1", "b", "R"),
    ("q1", "a"): ("q2", BLANK, "L"),
    ("q2", BLANK): ("q2", BLANK, "L"),
    ("q2", "b"): ("h", BLANK, "N"),
}, ["a", BLANK, "b", BLANK, "a"])

# An input with interior blanks; fill one of them and rewrite a cell.
FILLER = ({
    ("q0", "a"): ("q0", "c", "R"),
    ("q0", BLANK): ("h", "b", "N"),
}, ["a", BLANK, BLANK, "b"])

CASES = {"eraser": ERASER, "left_walker": LEFT_WALKER, "right_walker": RIGHT_WALKER,
         "trimmer": TRIMMER, "filler": FILLER}


@pytest.mark.parametrize("name", CASES)
def test_global_graph_names_match_the_oracle(name):
    rules, tape = CASES[name]
    names = oracle_names(rules, "q0", {"h"}, BLANK, tape)
    run = tm_run(machine(name, rules), tape)
    assert run.halted and run.steps == len(names) - 1
    assert list(global_graph(run).states) == names
    ben = global_graph(bennett_simulate(machine(name, rules), tape))
    assert [s.split("#")[1] for s in ben.states[: len(names)]] == names


def test_the_cases_reach_what_they_are_named_for():
    def names(case):
        return oracle_names(case[0], "q0", {"h"}, BLANK, case[1])

    assert [n for n in names(ERASER) if n.endswith("|")] == ["q0|3|", "q1|4|"]
    assert names(LEFT_WALKER)[-1] == "h|-2|-3:c,_,_,a"
    trimmer = names(TRIMMER)
    assert trimmer[1] == "q1|1|2:b,_,a"
    assert "q2|3|2:b" in trimmer and trimmer[-1] == "h|2|"


def test_run_names_equal_rendered_configurations():
    for rules, tape in CASES.values():
        trajectory = tm_run(machine("m", rules), tape).configurations
        assert trajectory.renders() == [c.render(BLANK) for c in trajectory]


@pytest.mark.parametrize("name, tape, width", [
    ("right_walker", ["a"], 5),  # head excursion over cells 0..4
    ("left_walker", ["a"], 4),  # cells -3..0
    ("filler", ["a", BLANK, BLANK, "b"], 4),  # the input's extent
])
def test_tape_cap_boundary(name, tape, width):
    tm = machine(name, CASES[name][0])
    assert tm_run(tm, tape, tape_cap=width).halted
    with pytest.raises(TapeOverflow, match=f"^tape window of {width} cells exceeds the cap of {width - 1}$"):
        tm_run(tm, tape, tape_cap=width - 1)


def test_tape_cap_reports_the_first_window_over_it():
    tm = machine("right_walker", RIGHT_WALKER[0])
    with pytest.raises(TapeOverflow, match="^tape window of 3 cells exceeds the cap of 2$"):
        tm_run(tm, ["a"], tape_cap=2)


def test_an_input_wider_than_the_cap_fails_at_the_first_step():
    tm = machine("filler", FILLER[0])
    tape = ["a", BLANK, BLANK, "b"]
    assert tm_run(tm, tape, max_steps=0, tape_cap=3).steps == 0
    with pytest.raises(TapeOverflow, match="^tape window of 4 cells exceeds the cap of 3$"):
        tm_run(tm, tape, max_steps=1, tape_cap=3)
    # the second step has no rule, but the first already overflows
    with pytest.raises(TapeOverflow, match="^tape window of 2 cells exceeds the cap of 1$"):
        tm_run(tm, ["a", "b"], tape_cap=1)


def sweeper(width, sweeps):
    """Write ``width`` cells of ``a``, then sweep them ``sweeps`` times,
    swapping ``a`` and ``b`` on every other sweep."""
    rules = {(f"w{i}", BLANK): (f"w{i + 1}" if i + 1 < width else "s0", "a",
                                "R" if i + 1 < width else "N") for i in range(width)}
    rules[("q0", BLANK)] = ("w0", BLANK, "N")
    for k in range(sweeps):
        move, back = ("L", "R") if k % 2 == 0 else ("R", "L")
        for x, y in (("a", "b"), ("b", "a")):
            rules[(f"s{k}", x)] = (f"s{k}", y if k % 2 else x, move)
        rules[(f"s{k}", BLANK)] = (f"s{k + 1}" if k + 1 < sweeps else "h", BLANK, back)
    return machine("sweeper", rules)


def test_every_snapshot_config_equals_the_stepped_configuration():
    tm = sweeper(20, 25)
    configs = [Configuration(control=q, head=head, cells=cells)
               for q, head, cells in oracle_configurations(tm.rules, "q0", {"h"}, BLANK)]
    n = len(configs) - 1
    assert n >= 500
    run = tm_run(tm)
    trajectory = run.configurations
    assert (trajectory[0], trajectory[-1]) == (configs[0], configs[-1])
    assert trajectory._checkpoints is None  # both ends are stored
    assert [trajectory[i] for i in range(n + 1)] == configs
    assert [trajectory[i - n - 1] for i in range(n + 1)] == configs
    ben = bennett_simulate(tm)
    r = ben.forward.result_length
    assert [g.config for g in ben.global_configs] == configs + [configs[n]] * r + configs[-2::-1]


def test_lookups_build_only_checkpoints_and_the_steps_after_one(monkeypatch):
    tm = sweeper(20, 25)
    run = tm_run(tm)
    n = run.steps
    configs = list(run.configurations)
    made = []
    real = turing.Configuration
    monkeypatch.setattr(turing, "Configuration", lambda **kw: made.append(kw) or real(**kw))
    root = math.ceil(math.sqrt(n))
    trajectory = tm_run(tm).configurations
    made.clear()
    assert trajectory[1] == configs[1]
    assert len(made) <= root + 2  # the checkpoints, then one step
    for i in (n // 2, n - 1, 2, root, root - 1):
        made.clear()
        assert trajectory[i] == configs[i]
        assert len(made) < root
    made.clear()
    fresh = turing.Trajectory(tm, trajectory.start, trajectory.log, trajectory.end)  # not the held run's
    assert fresh[n // 2: n // 2 + 2] == tuple(configs[n // 2: n // 2 + 2])
    assert len(made) <= 2 * root + 2


def test_held_configurations_share_the_cells_that_did_not_change(gen):
    """Each configuration iterated shares its unchanged cells with the one before it:
    all 2,211 of a 200-cell sweeper hold under 5 MB, where cells built anew took 27 MB,
    and they equal the configurations built on their own by a stepped slice."""
    tm = parse_machine(gen.sweeper_text(random.Random(5), "sw", 200, 10))
    trajectory = tm_run(tm).configurations
    tracemalloc.start()
    try:
        held = tuple(trajectory)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 2211 and size < 5_000_000, size
    assert held[::2] == trajectory[::2] and held[1::3] == trajectory[1::3]
    assert held[-1].cells[0] is held[-2].cells[0] and held[-1] == trajectory.end


def test_slices_equal_the_slices_of_every_configuration():
    rng = random.Random(53)
    halts_at_once = make_machine("idle", [BLANK], BLANK, ["h"], initial="h", halting=["h"])
    for tm, tape in [(sweeper(4, 3), []), (machine("eraser", ERASER[0]), ERASER[1]),
                     (halts_at_once, [])]:
        full = tuple(tm_run(tm, tape).configurations)
        n = len(full)
        cases = [slice(None), slice(None, None, -1), slice(2, 2), slice(5, 1), slice(-1, 0, -1),
                 slice(-3 * n, 3 * n), slice(n, n + 4), slice(None, -n - 2, -1)]
        cases += [slice(rng.randint(-n - 3, n + 3), rng.randint(-n - 3, n + 3),
                        rng.choice([None, 1, 2, 3, 7, -1, -2, -5])) for _ in range(60)]
        trajectory = tm_run(tm, tape).configurations
        for sl in cases:
            assert tm_run(tm, tape).configurations[sl] == full[sl], sl  # first lookup
            assert trajectory[sl] == full[sl], sl
