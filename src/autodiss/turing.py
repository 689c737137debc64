"""Deterministic Turing machines viewed as modular automata.

The head is a finite automaton whose inputs are tape symbols; each tape
cell is a memory automaton with one state per symbol and full write
convergence.  Testing head and cells separately makes the implement
modular, and that modularity carries a per-step information charge.  A
halting run, seen globally, is by contrast a linear reversible chain,
and the three-phase record/copy/uncompute simulation keeps even the
computation itself reversible end to end.
"""

from __future__ import annotations

import bisect
import itertools
import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import Automaton, _has, _ordered_unique, _sequence, _TupleView, convergent_states, validate
from .dissipation import InputModel, _charges, _check_budget
from .errors import (
    AlphabetTooSmall,
    Halted,
    IrreversibleStep,
    Nondeterministic,
    NoRule,
    NotHalted,
    NotHalting,
    RepeatedConfiguration,
    SizeLimit,
    TapeOverflow,
    UnknownState,
    UnknownSymbol,
    ValidationError,
)

MOVES = {"L": -1, "R": 1, "N": 0}

DEFAULT_TAPE_CAP = 4096
# Most characters the state names of a Bennett chain may hold in total.
BENNETT_CHAR_LIMIT = 2**30
# Most steps a run may record: about 270 MB of step log.
STEP_LOG_LIMIT = 2**24
# The runs some caller still holds, by machine identity, tape and budgets (see tm_run).
_RUNS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic machine: one rule per (control state, read symbol)."""

    name: str
    control_states: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    initial: str
    halting: frozenset[str]
    rules: dict[tuple[str, str], tuple[str, str, str]]

    @cached_property
    def step_rules(self) -> dict[tuple[str, str], tuple[tuple[str, str], str, str, int]]:
        """Each rule as ``(key, next control, write, head shift)``, so a run's log
        holds the table's own keys; built on first read, it assumes ``rules`` is
        not mutated after the first run, as :class:`Automaton`'s views do."""
        return {key: (key, control, write, MOVES[move])
                for key, (control, write, move) in self.rules.items()}


@dataclass(frozen=True)
class Configuration:
    """Control state, head position and the tape's non-blank cells in order, decoded by :func:`_tape`,
    which refuses cells out of order, repeated or blank; ``read`` and ``render`` cost O(cells)."""

    control: str
    head: int
    cells: tuple[tuple[int, str], ...]

    def read(self, blank: str) -> str:
        _, h, _, _, tape = _tape(self, blank, with_head=False)
        return tape[h] if 0 <= h < len(tape) else blank

    def render(self, blank: str) -> str:
        """``control|head|lo:window`` from cell ``lo``, or ``control|head|`` on a
        blank tape; distinct configurations render apart."""
        base, _, a, b, tape = _tape(self, blank, with_head=False)
        return f"{self.control}|{self.head}|" + (f"{a + base}:{','.join(tape[a:b])}" if a < b else "")


def _tape(c: Configuration, blank: str, with_head: bool = True):
    """``(base, h, a, b, tape)``: ``tape`` lists the symbols from cell ``base``
    over ``c``'s cells and, unless ``with_head`` is false, its head; the head is
    at ``tape[h]`` and ``a:b`` spans the non-blank cells.  A position without ``__index__``,
    or cells out of order, at a repeated position or blank, raise :class:`ValidationError`."""
    cells = c.cells
    if not hasattr(c.head, "__index__"):
        raise ValidationError(f"head {c.head!r} is not an integer", ("head", 0))
    if not all(hasattr(p, "__index__") for p, _ in cells):
        raise ValidationError(f"cells {cells} are not at integer positions", ("cells", 0))
    if [p for p, _ in cells] != sorted({p for p, s in cells if s != blank}):
        raise ValidationError(f"cells {cells} are not non-blank and in order", ("cells", 0))
    lo, hi = (cells[0][0], cells[-1][0] + 1) if cells else (c.head, c.head)
    base, top = (min(lo, c.head), max(hi, c.head + 1)) if with_head else (lo, hi)
    tape = [blank] * (top - base)
    for p, s in cells:
        tape[p - base] = s
    return base, c.head - base, lo - base, hi - base, tape


@dataclass(frozen=True, eq=False, slots=True)
class Trajectory(_TupleView):
    """The configurations of a run, replayed on demand from its log.

    The machine is deterministic, so the rule table and any configuration
    fix every later one; ``log`` holds the (control state, read symbol) pair
    of every rule application, Bennett's history record.  ``start`` and
    ``end`` are kept, so ``len``, ``[0]`` and ``[-1]`` cost O(1): ``[-1]``
    returns the stored ``end`` unchecked.  The first other lookup replays,
    and so checks, the whole log from ``start`` and that it ends at ``end``,
    storing only every ⌈√n⌉-th of the n + 1 configurations; then a lookup
    replays from the checkpoint at or below its smallest index to its
    largest, and builds only the configurations it returns, each sharing the
    unchanged cells of the one before.  :meth:`renders` names them all in one
    replay, kept while the trajectory lives.
    """

    tm: TuringMachine = field(repr=False)
    start: Configuration
    log: tuple[tuple[str, str], ...]
    end: Configuration
    _checkpoints: Optional[tuple[Configuration, ...]] = field(default=None, init=False, repr=False)
    _renders: Optional[tuple[str, ...]] = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.log) + 1

    def _items(self, picks: range) -> Sequence[Configuration]:
        if len(picks) == 1 and picks[0] in (0, len(self.log)):
            return (self.start if picks[0] == 0 else self.end,)
        up, n = (picks if picks.step > 0 else picks[::-1]), len(self.log)
        if not up:
            return ()
        every = math.isqrt(max(n - 1, 0)) + 1
        if self._checkpoints is None:
            checkpoints = tuple(self._pick(self.start, 0, n, range(0, n + 1, every)))
            object.__setattr__(self, "_checkpoints", checkpoints)
        i = up[0] // every * every
        found = list(self._pick(self._checkpoints[i // every], i, up[-1], up))
        return found if picks.step > 0 else found[::-1]

    def _pick(self, c: Configuration, i: int, j: int, picks: range):
        """Those at ``picks`` of the configurations ``c``, the ``i``-th, to the ``j``-th;
        one step after another, only the cell written under the last head is built anew."""
        blank, cells = self.tm.blank, None
        first = picks[0] - i - 1
        if first < 0:
            yield c
            first = picks.step - 1
        for control, head, base, a, b, tape in itertools.islice(
                self._replay(c, i, j), first, None, picks.step):
            if cells is None or picks.step > 1:
                cells = tuple([(p, s) for p, s in enumerate(tape[a:b], a + base) if s != blank])
            else:
                k = bisect.bisect_left(cells, (last,))
                at, s = k < len(cells) and cells[k][0] == last, tape[last - base]
                if s != (cells[k][1] if at else blank):
                    cells = cells[:k] + (((last, s),) if s != blank else ()) + cells[k + at:]
            last = head
            yield Configuration(control=control, head=head, cells=cells)

    def __iter__(self):
        return self._pick(self.start, 0, len(self.log), range(len(self)))

    def renders(self) -> list[str]:
        """``[c.render(blank) for c in self]``: a new list of the names :meth:`_rendered` keeps."""
        return list(self._rendered())

    def _rendered(self) -> tuple[str, ...]:
        """Every configuration's render, replayed from the log on first call: O(steps + windows)."""
        if self._renders is None:
            object.__setattr__(self, "_renders", (self.start.render(self.tm.blank), *(
                f"{control}|{head}|{a + base}:{','.join(tape[a:b])}" if a < b else f"{control}|{head}|"
                for control, head, base, a, b, tape in self._replay(self.start, 0, len(self.log)))))
        return self._renders

    def _replay(self, c: Configuration, i: int, j: int):
        """Apply log steps ``i`` to ``j - 1`` to ``c``, the ``i``-th configuration, yielding
        ``(control, head, base, a, b, tape)`` after each, named as by :func:`_tape` and on its
        list, which :func:`_advance` steps too, doubled when the head leaves it.  Raises
        :class:`ValidationError` for a ``c`` that :func:`_tape` refuses, at ``("log", step)``
        for a logged pair that has no rule or is not the current control state and cell, and at
        ``("end", 0)`` for a full replay that misses ``end``."""
        blank, rules, control = self.tm.blank, self.tm.step_rules, c.control
        base, h, a, b, tape = _tape(c, blank)
        for k, (q, s) in enumerate(self.log[i:j], i):
            rule = rules.get((q, s))
            if rule is None or q != control or s != tape[h]:
                raise ValidationError(f"log step {k} is ({q!r}, {s!r}), but the machine is in "
                                      f"{control!r} reading {tape[h]!r}", ("log", k))
            _, control, write, shift = rule
            if write != s:
                tape[h] = write
                if write == blank:
                    while a < b and tape[a] == blank:
                        a += 1
                    while b > a and tape[b - 1] == blank:
                        b -= 1
                elif not a <= h < b:
                    a, b = (min(a, h), max(b, h + 1)) if a < b else (h, h + 1)
            h += shift
            if not 0 <= h < len(tape):
                m = len(tape) // 2 + 1
                tape = [blank] * m + tape + [blank] * m
                base, h, a, b = base - m, h + m, a + m, b + m
            yield control, h + base, base, a, b, tape
        if j == len(self.log):
            cells = tuple([(p, s) for p, s in enumerate(tape[a:b], a + base) if s != blank])
            last = (control, h + base, cells)
            if last != (self.end.control, self.end.head, self.end.cells):
                raise ValidationError(
                    f"the log ends at {last}, but the stored end is {self.end}", ("end", 0))


@dataclass(frozen=True)
class RunTrace:
    """A run stored as its step log, with result accounting when halted.

    The log is Bennett's history record, one (control state, read symbol)
    pair per step, the minimal record from which the run can be rebuilt;
    recording it costs O(1) per step, so :func:`tm_run` takes O(steps).
    ``configurations`` is a :class:`Trajectory`: the start and final
    configurations are stored, the rest replayed from the log on demand.
    ``steps`` is the number of rule applications; ``result`` is the tape
    window between the outermost non-blank cells at halt and
    ``result_length`` its length.
    """

    machine: str
    blank: str
    configurations: Trajectory
    halted: bool
    steps: int
    result: Optional[tuple[str, ...]]
    result_length: Optional[int]

    @property
    def log(self) -> tuple[tuple[str, str], ...]:
        """(control state, read symbol) of every step, in order."""
        return self.configurations.log


@dataclass(frozen=True, eq=False, slots=True)
class GlobalConfig:
    """One snapshot of the augmented machine: phase, working tape state,
    recorded history, and output tape.

    A snapshot is built in O(1) when its :class:`Snapshots` view is
    indexed: it stores its phase and the lengths of its history and output
    prefixes over the forward run.  ``history`` and ``output`` slice that
    run's log and result.  ``config`` is the forward configuration after
    ``history_length`` steps: O(1) when the history is empty or full, as
    throughout the copy phase, and in between replayed from the log for at
    most ⌈√n⌉ of the n steps from a checkpoint (see :class:`Trajectory`).
    """

    phase: str  # compute | copy | uncompute
    history_length: int
    output_length: int
    run: RunTrace = field(repr=False)

    @property
    def config(self) -> Configuration:
        # the working tape has taken exactly as many forward steps as the
        # history holds records
        return self.run.configurations[self.history_length]

    @property
    def history(self) -> tuple[tuple[str, str], ...]:
        return self.run.log[: self.history_length]

    @property
    def output(self) -> tuple[str, ...]:
        return self.run.result[: self.output_length]

    def _key(self) -> tuple[str, int, int]:
        return (self.phase, self.history_length, self.output_length)

    def __eq__(self, other):
        if not isinstance(other, GlobalConfig):
            return NotImplemented
        if self._key() != other._key():
            return False
        return self.run is other.run or (
            (self.config, self.history, self.output)
            == (other.config, other.history, other.output)
        )

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False, slots=True)
class Snapshots(_TupleView):
    """The 2n + r + 1 snapshots of a Bennett simulation whose forward ``run``
    takes n steps to r result cells, each built when indexed: ``("compute",
    i, 0)`` for i ≤ n, ``("copy", n, i - n)`` for i ≤ n + r, then
    ``("uncompute", 2n + r - i, r)``; they compare and hash as a tuple."""

    run: RunTrace

    def __len__(self) -> int:
        return 2 * self.run.steps + self.run.result_length + 1

    def _items(self, picks: range) -> list[GlobalConfig]:
        n, r, run = self.run.steps, self.run.result_length, self.run
        return [GlobalConfig("compute", i, 0, run) if i <= n else
                GlobalConfig("copy", n, i - n, run) if i <= n + r else
                GlobalConfig("uncompute", 2 * n + r - i, r, run) for i in picks]


@dataclass(frozen=True)
class BennettTrace:
    """Record of the compute / copy output / uncompute simulation.

    The history is empty at the start and the end; the input tape is
    restored and the output tape holds the result.  ``phase_boundaries``
    gives the snapshot indices at which each phase ends.

    The simulation takes O(steps) rule applications and O(steps + tape
    window) memory: the forward :class:`RunTrace`, whose log is the
    history record of n steps, is stored once, and ``global_configs`` is a
    :class:`Snapshots` view over it that builds each of the 2n + r + 1
    snapshots on index.  Only :func:`global_graph` spells each snapshot's
    history prefix out, so the names of ``global_graph(trace)`` hold
    O(n^2) characters in total.
    """

    machine: str
    input_tape: tuple[str, ...]
    forward: RunTrace
    history_records: tuple[tuple[str, str], ...]
    global_configs: Snapshots
    phase_boundaries: tuple[int, int, int]
    output_tape: tuple[str, ...]
    total_steps: int

    @property
    def classic_step_count(self) -> int:
        """Step count 4n + 4r + 5 of Bennett's original quadruple-based
        construction, reported for comparison only; this configuration
        level simulation takes 2n + r steps."""
        n = self.forward.steps
        r = self.forward.result_length or 0
        return 4 * n + 4 * r + 5


@dataclass(frozen=True)
class TmDissipation:
    """Per-step information charges of a modular head + cells implement."""

    trace: RunTrace
    per_step_bits: tuple[float, ...]
    head_bits: tuple[float, ...]
    cell_bits: tuple[float, ...]
    cumulative_bits: tuple[float, ...]

    @property
    def total_bits(self) -> float:
        return self.cumulative_bits[-1] if self.cumulative_bits else 0.0


@dataclass(frozen=True)
class ConvergenceReport:
    """Structural convergence facts about a machine's head automaton,
    optionally with an observed head-state sequence analysis."""

    has_convergence: bool
    witnesses: tuple[str, ...]
    head_sequence: Optional[tuple[str, ...]] = None
    halted: Optional[bool] = None
    eventually_periodic: Optional[bool] = None
    period_start: Optional[int] = None
    period: Optional[int] = None


def make_machine(
    name: str,
    tape_alphabet: Iterable[str],
    blank: str,
    control_states: Iterable[str],
    initial: str,
    halting: Iterable[str] = (),
    rules: Iterable[tuple[str, str, str, str, str]] = (),
) -> TuringMachine:
    """Validate a rule table.  Rules are (state, read, state', write, move).

    Raises :class:`ValidationError` on the first bad entry in argument
    order, with ``entry`` naming it as :func:`validate` does."""
    alphabet = _ordered_unique(tape_alphabet, "tape alphabet", "tape_alphabet")
    symbol_set = set(alphabet)
    if not _has(symbol_set, blank):
        raise UnknownSymbol(blank, "blank", entry=("blank", 0))
    states = _ordered_unique(control_states, "control states", "control_states")
    state_set = set(states)
    if not _has(state_set, initial):
        raise UnknownState(initial, "initial", entry=("initial", 0))
    halting = list(halting)
    for i, q in enumerate(halting):  # in order, so the state named is the first bad one
        if not _has(state_set, q):
            raise UnknownState(q, "halting", entry=("halting", i))
    halting_set = frozenset(halting)
    table: dict[tuple[str, str], tuple[str, str, str]] = {}
    for i, rule in enumerate(rules):
        entry = ("rules", i)
        try:
            q, s, q2, w, move = rule
        except (TypeError, ValueError):  # not iterable, or not five items
            raise ValidationError(f"bad rule {rule!r}, want 5 items", entry) from None
        for state in (q, q2):
            if not _has(state_set, state):
                raise UnknownState(state, "rule", entry)
        for sym in (s, w):
            if not _has(symbol_set, sym):
                raise UnknownSymbol(sym, "rule", entry)
        if not _has(MOVES, move):
            raise ValidationError(f"bad move {move!r}, want L, R or N", entry)
        if q in halting_set:
            raise ValidationError(f"halting state {q!r} has a rule", entry)
        if (q, s) in table and table[(q, s)] != (q2, w, move):
            raise Nondeterministic(q, s, entry)
        table[(q, s)] = (q2, w, move)
    return TuringMachine(
        name=name,
        control_states=states,
        tape_alphabet=alphabet,
        blank=blank,
        initial=initial,
        halting=halting_set,
        rules=table,
    )


def initial_configuration(tm: TuringMachine, tape: Sequence[str] = ()) -> Configuration:
    """Input laid out from cell 0, head on cell 0."""
    tape = _sequence(tape, "input tape")
    for s in tape:
        if s not in tm.tape_alphabet:
            raise UnknownSymbol(s, "input tape")
    cells = tuple((i, s) for i, s in enumerate(tape) if s != tm.blank)
    return Configuration(control=tm.initial, head=0, cells=cells)


def tm_step(tm: TuringMachine, c: Configuration) -> Configuration:
    """Apply one rule in :func:`tm_run`'s step loop to the head's cell, after decoding the
    cells of ``c`` as ``render`` does: O(cells), however far the head.  Raises :class:`Halted`
    if halted, :class:`NoRule`, and :class:`ValidationError` on cells that :func:`_tape` refuses."""
    if c.control in tm.halting:
        raise Halted(f"control state {c.control!r} is halting")
    blank = tm.blank
    base, h, a, b, tape = _tape(c, blank, with_head=False)
    read = tape[h] if 0 <= h < len(tape) else blank
    # A step reads and writes the head's cell alone: step that cell, then lay the others beside it.
    end = _advance(tm, Configuration(c.control, c.head, ((c.head, read),) if read != blank else ()), 1)[1]
    wbase, _, wa, wb, wrote = _tape(end, blank, with_head=False)
    cells = [(p, s) for p, s in enumerate(tape[a:b], a + base) if s != blank and p != c.head]
    cells += enumerate(wrote[wa:wb], wa + wbase)
    return Configuration(end.control, end.head, tuple(sorted(cells)))  # positions differ


def _advance(tm: TuringMachine, c: Configuration, max_steps: int, tape_cap=math.inf):
    """``(log, end)``: the (control, read) pair of each rule applied from ``c`` until
    halt or ``max_steps`` steps, and the end; O(1) work per step on :func:`_tape`'s
    list, doubled when the head leaves it.  Raises :class:`NoRule`, :class:`TapeOverflow`."""
    rules, halting, blank, control = tm.step_rules, tm.halting, tm.blank, c.control
    base, h, a, b, tape = _tape(c, blank)
    log = []
    # Writes happen under the head, so the window is the start's extent widened
    # by head excursions; a start wider than the cap fails at the first step.
    lo, hi = min(a, h), max(b - 1, h)
    if hi - lo >= tape_cap:
        max_steps = min(max_steps, 1)
    for _ in range(max_steps):
        if control in halting:
            break
        rule = rules.get((control, tape[h]))
        if rule is None:
            raise NoRule(control, tape[h])
        key, control, tape[h], shift = rule
        log.append(key)
        h += shift
        if not lo <= h <= hi:
            if not 0 <= h < len(tape):
                m = len(tape) // 2 + 1
                tape = [blank] * m + tape + [blank] * m
                base, h, lo, hi = base - m, h + m, lo + m, hi + m
            lo, hi = min(lo, h), max(hi, h)
            if hi - lo >= tape_cap:
                break
    if log and hi - lo >= tape_cap:
        raise TapeOverflow(hi - lo + 1, tape_cap)
    cells = tuple([(i, s) for i, s in enumerate(tape[lo:hi + 1], lo + base) if s != blank])
    return log, Configuration(control=control, head=h + base, cells=cells)


def tm_run(
    tm: TuringMachine,
    tape: Sequence[str] = (),
    max_steps: int = 10_000,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> RunTrace:
    """Run until halt or budget, recording the (control, read) pair of every
    step; O(1) work per step on the list tape that a replay reads.  Only the
    start and final configurations are stored; the others are replayed from
    the log when read (see :class:`Trajectory`).  A run past
    ``STEP_LOG_LIMIT`` steps raises :class:`SizeLimit` after one more.  While a caller
    holds a run, an equal call on the same machine object returns it; the run holds
    the machine, so the id in its key is not reused meanwhile."""
    _check_budget(max_steps=max_steps, tape_cap=tape_cap)
    tape = _sequence(tape, "input tape")
    start = initial_configuration(tm, tape)
    key = (id(tm), tape, max_steps, tape_cap)
    if (held := _RUNS.get(key)) is not None:
        return held
    log, end = _advance(tm, start, min(max_steps, STEP_LOG_LIMIT + 1), tape_cap)
    if len(log) > STEP_LOG_LIMIT:
        raise SizeLimit(len(log), STEP_LOG_LIMIT, "recorded steps")
    result = None
    if end.control in tm.halting:
        _, _, a, b, window = _tape(end, tm.blank)
        result = tuple(window[a:b])
    run = _RUNS[key] = RunTrace(machine=tm.name, blank=tm.blank,
                                configurations=Trajectory(tm, start, tuple(log), end),
                                halted=result is not None, steps=len(log), result=result,
                                result_length=len(result) if result is not None else None)
    return run


def head_automaton(tm: TuringMachine) -> Automaton:
    """The finite control as an automaton with tape symbols as inputs, built on
    first call and kept on ``tm``, as ``step_rules`` is."""
    if "_head" not in tm.__dict__:
        tm.__dict__["_head"] = validate(
            name=f"{tm.name}_head",
            input_alphabet=tm.tape_alphabet,
            output_alphabet=tm.control_states,
            states=tm.control_states,
            initial=tm.initial,
            output_map={q: q for q in tm.control_states},
            transitions=[(q, s, q2) for (q, s), (q2, _, _) in tm.rules.items()],
        )
    return tm.__dict__["_head"]


def cell_automaton(alphabet: Sequence[str], name: str = "cell") -> Automaton:
    """A memory cell: one state per symbol, every write always accepted.

    Each state has |alphabet| outgoing and |alphabet| incoming arrows, so
    every write lands on a convergence.
    """
    symbols = _ordered_unique(alphabet, "cell alphabet", "alphabet")
    if len(symbols) < 2:
        raise AlphabetTooSmall(len(symbols))
    return validate(
        name=name,
        input_alphabet=[f"write_{s}" for s in symbols],
        output_alphabet=symbols,
        states=symbols,
        initial=None,
        output_map={s: s for s in symbols},
        transitions=[(q, f"write_{s}", s) for q in symbols for s in symbols],
    )


def detect_eventual_period(seq: Sequence[str]) -> Optional[tuple[int, int]]:
    """Smallest (start, period) such that the observed tail repeats with
    that period and at least two full periods are visible; None if the
    window shows no such regime."""
    n = len(seq)
    for p in range(1, n // 2 + 1):
        start = 0
        for i in range(n - p - 1, -1, -1):
            if seq[i] != seq[i + p]:
                start = i + 1
                break
        if start + 2 * p <= n:
            return start, p
    return None


def check_convergence_lemma(
    tm: TuringMachine,
    tape: Sequence[str] = (),
    horizon: Optional[int] = None,
) -> ConvergenceReport:
    """Report whether the head automaton contains a convergence.

    A machine able to run forever non-periodically must have one; the
    contrapositive is observable, so when ``horizon`` is given the head
    state sequence of a run is recorded and scanned for an eventually
    periodic regime (a convergence-free head can only loop periodically
    or halt).
    """
    witnesses = tuple(sorted(convergent_states(head_automaton(tm))))
    observed = {}
    if horizon is not None:
        _check_budget(horizon=horizon)
        trace = tm_run(tm, tape, max_steps=horizon)
        seq = tuple(q for q, _ in trace.log) + (trace.configurations[-1].control,)
        start, period = detect_eventual_period(seq) or (None, None)
        observed = dict(head_sequence=seq, halted=trace.halted,
                        eventually_periodic=period is not None, period_start=start, period=period)
    return ConvergenceReport(has_convergence=bool(witnesses), witnesses=witnesses, **observed)


def modular_tm_dissipation(
    tm: TuringMachine,
    tape: Sequence[str] = (),
    max_steps: int = 10_000,
    model: Optional[InputModel] = None,
) -> TmDissipation:
    """Per-step charge of the modular implement: the head's choice
    information for the state being left, plus one cell write of
    log2(|tape alphabet|) bits (every rule writes, so every step pays).
    """
    trace = tm_run(tm, tape, max_steps=max_steps)
    head = head_automaton(tm)
    m = model or InputModel.uniform(head)
    head_charge = dict(zip(head.states, _charges(head, m)))
    cell_charge = math.log2(len(tm.tape_alphabet))
    head_bits = tuple(head_charge[q] for q, _ in trace.log)
    per_step = tuple(hb + cell_charge for hb in head_bits)
    return TmDissipation(
        trace=trace,
        per_step_bits=per_step,
        head_bits=head_bits,
        cell_bits=(cell_charge,) * len(per_step),
        cumulative_bits=tuple(itertools.accumulate(per_step)),
    )


def _linear_automaton(name: str, node_ids: Sequence[str]) -> Automaton:
    n = len(node_ids)
    outputs = tuple(f"o{i}" for i in range(n))
    output_map = dict(zip(node_ids, outputs))
    if len(output_map) != n:
        raise RepeatedConfiguration("trajectory revisits a configuration")
    return Automaton(name, ("ck",), outputs, tuple(node_ids), node_ids[0] if n else None,
                     output_map, tuple([((0, i + 1),) if i + 1 < n else () for i in range(n)]))


def global_graph(trace) -> Automaton:
    """The whole machine (head + tape) of a finished run as one automaton:
    a linear inputless chain that never revisits a state.

    Accepts a halted :class:`RunTrace` or a :class:`BennettTrace`, whose
    forward configurations :meth:`Trajectory.renders` names in one pass; a
    Bennett chain builds no snapshot, and names of more than
    ``BENNETT_CHAR_LIMIT`` characters in all raise :class:`SizeLimit` before
    any is built.  The chain is built from its state names without
    :func:`validate`; a name seen twice, that is a revisited configuration,
    raises :class:`RepeatedConfiguration`.
    """
    if isinstance(trace, BennettTrace):
        return _linear_automaton(f"{trace.machine}_global", _bennett_names(trace))
    if not trace.halted:
        raise NotHalted(f"run of {trace.machine!r} did not halt")
    return _linear_automaton(f"{trace.machine}_global", trace.configurations._rendered())


def _prefix_ends(parts: Sequence[str]) -> list[int]:
    """``ends[k]`` is the length of ``sep.join(parts[:k])`` for any
    one-character ``sep``."""
    return [0, *itertools.accumulate(map(len, parts), lambda end, m: end + 1 + m)]


def _bennett_names(trace: BennettTrace) -> list[str]:
    """One state name per snapshot, ``phase#config#h[history]#o[output]``:
    the working configuration's render, the ``;``-joined ``control,read``
    records so far and the ``,``-joined output cells so far.  Every
    history and output prefix is sliced from one joined string."""
    rendered = trace.forward.configurations._rendered()
    hist_parts = [f"{q},{s}" for q, s in trace.history_records]
    hist, hist_ends = ";".join(hist_parts), _prefix_ends(hist_parts)
    out, out_ends = ",".join(trace.output_tape), _prefix_ends(trace.output_tape)
    n, r = len(hist_parts), len(trace.output_tape)
    # n + 1 compute names of 16 fixed characters, r copy names of 13 at the last render and
    # history, n uncompute names of 18 with the whole output: summed before any is built
    every, last = sum(map(len, rendered)) + sum(hist_ends), len(rendered[n]) + hist_ends[n]
    chars = 34 * n + 16 + 2 * every - last + r * (13 + last) + sum(out_ends) + n * out_ends[r]
    if chars > BENNETT_CHAR_LIMIT:
        raise SizeLimit(chars, BENNETT_CHAR_LIMIT, "characters")
    names = [f"compute#{c}#h[{hist[:e]}]#o[]" for c, e in zip(rendered, hist_ends)]
    names += [f"copy#{rendered[n]}#h[{hist}]#o[{out[:e]}]" for e in out_ends[1:]]
    return names + [f"uncompute#{c}#h[{hist[:e]}]#o[{out}]"
                    for c, e in zip(rendered[-2::-1], hist_ends[-2::-1])]


def bennett_simulate(
    tm: TuringMachine,
    tape: Sequence[str] = (),
    max_steps: int = 10_000,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> BennettTrace:
    """Compute, copy the result, then uncompute using the history.

    Phase 1 runs the machine forward, recording the rule identifier
    (control state, read symbol) of every step.  Phase 2 copies the
    result window to a fresh output tape, one symbol per step.  Phase 3
    consumes the history backwards, restoring the input tape and leaving
    the history empty; it is checked by one forward replay of the log
    (see :class:`Trajectory`), which holds exactly when undoing the run
    from its end restores its start.  Total steps: 2n + r.  No snapshot
    is built here: ``global_configs`` builds each one when it is indexed.

    Raises :class:`NotHalting` if the budget runs out and
    :class:`IrreversibleStep`, from the replay's :class:`ValidationError`,
    for a forward run whose log or end does not fit the machine.
    """
    tape = _sequence(tape, "input tape")
    forward = tm_run(tm, tape, max_steps=max_steps, tape_cap=tape_cap)
    if not forward.halted:
        raise NotHalting(max_steps)
    run = forward.configurations
    try:
        deque(run._replay(run.start, 0, len(run.log)), maxlen=0)
    except ValidationError as err:
        raise IrreversibleStep(str(err)) from err

    n, r = forward.steps, forward.result_length
    # No two snapshots share a key: within each phase one counter is strictly monotone.
    return BennettTrace(
        machine=tm.name,
        input_tape=tape,
        forward=forward,
        history_records=forward.log,
        global_configs=Snapshots(forward),
        phase_boundaries=(n, n + r, 2 * n + r),
        output_tape=forward.result,
        total_steps=2 * n + r,
    )
