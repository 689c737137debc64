"""Tiny brute-force Turing machine simulator used as an independent oracle.

Deliberately separate from the package under test: a dict tape, a rule
table, and a step loop, nothing shared with src/. Expected values frozen
into the test suite are computed with this.
"""


def oracle_run(rules, initial, halting, blank, tape=(), max_steps=10_000):
    """Run a machine and return (halted, steps, result_string).

    rules: {(state, read): (state', write, 'L'|'R'|'N')}
    tape: iterable of symbols laid out from cell 0.
    result_string: symbols between the outermost non-blank cells, joined.
    """
    cells = {i: s for i, s in enumerate(tape) if s != blank}
    head = 0
    state = initial
    steps = 0
    while state not in halting and steps < max_steps:
        read = cells.get(head, blank)
        if (state, read) not in rules:
            raise KeyError((state, read))
        state, write, move = rules[(state, read)]
        if write == blank:
            cells.pop(head, None)
        else:
            cells[head] = write
        head += {"L": -1, "R": 1, "N": 0}[move]
        steps += 1
    halted = state in halting
    if cells:
        lo, hi = min(cells), max(cells)
        result = "".join(cells.get(i, blank) for i in range(lo, hi + 1))
    else:
        result = ""
    return halted, steps, result


def oracle_names(rules, initial, halting, blank, tape=(), max_steps=10_000):
    """The state name of every configuration of a run, start included:
    ``control|head|lo:cells`` with the cells from the lowest to the highest
    non-blank one ``,``-joined, or ``control|head|`` for a blank tape.

    The tape is rescanned in full at every step, with no window kept
    between steps."""
    cells = {i: s for i, s in enumerate(tape) if s != blank}
    head, state = 0, initial
    names = []
    while True:
        name = f"{state}|{head}|"
        if cells:
            lo, hi = min(cells), max(cells)
            name += f"{lo}:" + ",".join(cells.get(i, blank) for i in range(lo, hi + 1))
        names.append(name)
        if state in halting or len(names) > max_steps:
            return names
        state, write, move = rules[(state, cells.get(head, blank))]
        if write == blank:
            cells.pop(head, None)
        else:
            cells[head] = write
        head += {"L": -1, "R": 1, "N": 0}[move]


def oracle_configurations(rules, initial, halting, blank, tape=(), max_steps=10_000):
    """``(control, head, cells)`` of every configuration of a run, start
    included, ``cells`` the sorted ``(position, symbol)`` pairs of the
    non-blank cells; the run stops at a halting state or after
    ``max_steps`` steps."""
    cells = {i: s for i, s in enumerate(tape) if s != blank}
    head, state = 0, initial
    configs = [(state, head, tuple(sorted(cells.items())))]
    while state not in halting and len(configs) <= max_steps:
        state, write, move = rules[(state, cells.get(head, blank))]
        if write == blank:
            cells.pop(head, None)
        else:
            cells[head] = write
        head += {"L": -1, "R": 1, "N": 0}[move]
        configs.append((state, head, tuple(sorted(cells.items()))))
    return configs


BB2_RULES = {
    ("a", "0"): ("b", "1", "R"),
    ("a", "1"): ("b", "1", "L"),
    ("b", "0"): ("a", "1", "L"),
    ("b", "1"): ("halt", "1", "R"),
}
