"""Deterministic finite automata as labeled graphs.

A machine is a finite set of states with an injective per-state output
symbol and a (possibly partial) deterministic transition function.  All
symbols that trigger the same state-to-state move are merged into a
single arrow; merged arrows are the unit of every structural count in
this package (degrees, divergences, convergences).

The graph is stored as integer rows: states and symbols are numbered by
their position.  Counts, reachability, tours, equivalence and information
measures read integer views; named views and :class:`Arrow` objects are
built on first read, for callers that print or return named arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateIdentifier,
    ForbiddenInput,
    InvalidArgument,
    MissingOutput,
    Nondeterministic,
    NonInjectiveOutput,
    UnknownState,
    UnknownSymbol,
    ValidationError,
)

# Largest state count, and for products and wirings also the largest
# input alphabet and transition count, on which monolithic whole-graph
# operations (product materialization, transition tours) are allowed to
# run.  Beyond this, only modular, per-part analysis is practical.
MONOLITHIC_STATE_LIMIT = 2**20


class _TupleView(Sequence):
    """A read-only sequence that indexes, compares, hashes and prints as the tuple of
    its items; a subclass gives ``__len__`` and ``_items(picks)``, those at ``range`` picks."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._items(range(len(self))[i]))
        if not -len(self) <= i < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        i %= len(self)
        return self._items(range(i, i + 1))[0]

    def __iter__(self):
        return iter(self._items(range(len(self))))

    def __eq__(self, other):
        if not isinstance(other, (type(self), tuple)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reversed__(self):
        return reversed(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Arrow:
    """A merged edge: all input symbols that trigger the same state pair."""

    source: str
    target: str
    labels: tuple[str, ...]

    @property
    def key(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass(frozen=True)
class Automaton:
    """An immutable deterministic automaton with merged arrows.

    Build instances through :func:`validate`, which enforces determinism,
    output injectivity and token declarations; graphs derived from valid
    ones (products, wirings, reachable parts, run chains) call the
    constructor, which checks nothing.  The graph is stored once, as
    integers: ``moves[i]`` holds state ``states[i]``'s moves as
    ``(symbol index, target index)`` pairs in input-alphabet order.  The
    views ``index``, ``transitions``, ``successors`` and the arrow views
    are built on first read, so they match ``moves`` by construction.
    Every operation in this package treats the object as read-only.
    """

    name: str
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: Optional[str]
    output_map: dict[str, str]
    moves: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def index(self) -> dict[str, int]:
        """Each state's position in ``states``."""
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def transitions(self) -> dict[tuple[str, str], str]:
        """``(state, symbol) -> target``, in ``moves`` order."""
        inputs, states = self.input_alphabet, self.states
        return {(q, inputs[s]): states[t]
                for q, row in zip(states, self.moves) for s, t in row}

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the target index of each merged arrow, in
        ``by_source`` order (by target name)."""
        by_name = self.states.__getitem__
        return tuple([tuple(sorted({t for _, t in row}, key=by_name)) for row in self.moves])

    @cached_property
    def by_source(self) -> dict[str, tuple[Arrow, ...]]:
        """Every state in order, its arrows sorted by target, labels sorted."""
        inputs, states = self.input_alphabet, self.states
        grouped = {}
        for q, row in zip(states, self.moves):
            if len(row) == 1:  # one move, one arrow: as in every row of a run's chain
                grouped[q] = (Arrow(q, states[row[0][1]], (inputs[row[0][0]],)),)
                continue
            labels: dict[str, list[str]] = {}
            for s, t in row:
                labels.setdefault(states[t], []).append(inputs[s])
            grouped[q] = tuple([Arrow(q, t, tuple(sorted(labels[t]))) for t in sorted(labels)])
        return grouped

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        """Every merged arrow, sorted by (source, target)."""
        return tuple([ar for q in sorted(self.by_source) for ar in self.by_source[q]])

    @cached_property
    def by_pair(self) -> dict[tuple[str, str], Arrow]:
        """Each arrow by its (source, target) key, in ``arrows`` order."""
        return {ar.key: ar for ar in self.arrows}

    @property
    def arrow_count(self) -> int:
        return sum(map(len, self.successors))

    def out_degree(self, q: str) -> int:
        return len(self.successors[_state_index(self, q)])


def _state_index(a: Automaton, q: str) -> int:
    """``q``'s position in ``a.states``; raises :class:`UnknownState` for any
    other value, an unhashable one included."""
    try:
        return a.index[q]
    except (KeyError, TypeError):  # TypeError: ``q`` cannot be hashed
        raise UnknownState(q) from None


def _has(table, token) -> bool:
    """``token in table``; False for an unhashable ``token``, which no table holds."""
    try:
        return token in table
    except TypeError:
        return False


@dataclass(frozen=True)
class Path:
    """One run through the graph: the input word and the states it visits.

    ``states`` starts with the start state and ``outputs`` holds one
    output symbol per visited state, so both are one longer than
    ``word``.  ``steps``, the ``(input symbol, arrow traversed, resulting
    state)`` triples, is built from ``automaton``'s arrows on first read.
    """

    automaton: Automaton = field(repr=False, compare=False)
    word: tuple[str, ...]
    states: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def start(self) -> str:
        return self.states[0]

    @property
    def end(self) -> str:
        return self.states[-1]

    @cached_property
    def steps(self) -> tuple[tuple[str, Arrow, str], ...]:
        by_pair, states = self.automaton.by_pair, self.states
        return tuple([(s, by_pair[q, t], t) for s, q, t in zip(self.word, states, states[1:])])

    def __len__(self) -> int:
        return len(self.word)


def _sequence(tokens: Iterable[str], kind: str) -> tuple:
    try:
        tokens = iter(tokens)
    except TypeError:  # not iterable
        raise InvalidArgument(f"{kind} must be a sequence of symbols, got {tokens!r}") from None
    return tuple(tokens)


def _ordered_unique(tokens: Iterable[str], kind: str, parameter=None) -> tuple[str, ...]:
    seen = {}
    for i, t in enumerate(_sequence(tokens, kind)):
        entry = (parameter, i) if parameter else None
        try:
            if seen.setdefault(t, i) != i:
                raise DuplicateIdentifier(t, kind, entry)
        except TypeError:
            raise ValidationError(f"{kind} token {t!r} cannot be hashed", entry) from None
    return tuple(seen)


def _check_injective(states: Sequence[str], output_map: dict[str, str]) -> None:
    """Raise :class:`NonInjectiveOutput` on the first state, in order,
    whose output an earlier state already emits, at its ``output_map`` entry."""
    emitted: dict[str, str] = {}
    for q in states:
        r = output_map[q]
        if r in emitted:
            raise NonInjectiveOutput(emitted[r], q, ("output_map", list(output_map).index(q)))
        emitted[r] = q


def validate(
    name: str,
    input_alphabet: Iterable[str],
    output_alphabet: Iterable[str],
    states: Iterable[str],
    initial: Optional[str] = None,
    output_map: Optional[dict[str, str]] = None,
    transitions: Iterable[tuple[str, str, str]] = (),
) -> Automaton:
    """Check a raw automaton description and build its integer rows.

    ``transitions`` is an iterable of ``(state, input symbol, state)``
    triples, in any order; symbols that trigger the same state pair are
    merged into one arrow.  Raises :class:`ValidationError`, or its subclass
    :class:`DuplicateIdentifier`, :class:`Nondeterministic`, :class:`NonInjectiveOutput`,
    :class:`UnknownState`, :class:`UnknownSymbol` or :class:`MissingOutput`, on violations, and
    otherwise calls the :class:`Automaton` constructor; an error's
    ``entry`` names what it rejects.  It is the entry point for outside
    descriptions; graphs derived from valid ones skip it.
    """
    inputs = _ordered_unique(input_alphabet, "input alphabet", "input_alphabet")
    outputs = _ordered_unique(output_alphabet, "output alphabet", "output_alphabet")
    state_list = _ordered_unique(states, "states", "states")
    output_set = set(outputs)
    index = {q: i for i, q in enumerate(state_list)}

    if initial is not None and not _has(index, initial):
        raise UnknownState(initial, "initial", entry=("initial", 0))

    output_map = dict(output_map or {})
    for i, (q, r) in enumerate(output_map.items()):
        if q not in index:
            raise UnknownState(q, "output map", entry=("output_map", i))
        if not _has(output_set, r):
            raise UnknownSymbol(r, f"output of state {q!r}", entry=("output_map", i))
    for q in state_list:
        if q not in output_map:
            raise MissingOutput(q, entry=("states", index[q]))
    _check_injective(state_list, output_map)

    sym_at = {s: i for i, s in enumerate(inputs)}
    rows: list[dict[int, int]] = [{} for _ in state_list]
    for i, transition in enumerate(transitions):
        try:
            src, sym, tgt = transition
        except (TypeError, ValueError):  # not iterable, or not three items
            raise ValidationError(f"bad transition {transition!r}, want 3 items",
                                  ("transitions", i)) from None
        try:
            row, s, t = rows[index[src]], sym_at[sym], index[tgt]
        except (KeyError, TypeError):  # the first unknown token, unhashable ones included
            if not _has(index, src):
                raise UnknownState(src, "transition source", entry=("transitions", i)) from None
            if not _has(index, tgt):
                raise UnknownState(tgt, "transition target", entry=("transitions", i)) from None
            raise UnknownSymbol(sym, f"transition from {src!r}", entry=("transitions", i)) from None
        if row.setdefault(s, t) != t:
            raise Nondeterministic(src, sym, entry=("transitions", i))

    return Automaton(name, inputs, outputs, state_list, initial, output_map,
                     tuple([tuple(sorted(row.items())) for row in rows]))


def arrows_from(a: Automaton, q: str) -> list[Arrow]:
    """Merged arrows leaving ``q``, sorted by target; empty for sinks."""
    _state_index(a, q)
    return list(a.by_source[q])


def divergent_states(a: Automaton) -> set[str]:
    """States with at least two outgoing merged arrows."""
    return {q for q, targets in zip(a.states, a.successors) if len(targets) >= 2}


def convergent_states(a: Automaton) -> set[str]:
    """States with at least two incoming merged arrows.

    Self-loops count; the initial-state marker does not (it is not an
    arrow of the graph).
    """
    indeg = [0] * len(a.states)
    for targets in a.successors:
        for t in targets:
            indeg[t] += 1
    return {q for q, d in zip(a.states, indeg) if d >= 2}


def is_reversible(a: Automaton) -> bool:
    """True iff the graph has no convergence, i.e. the past of every
    state is recoverable from the state alone."""
    return not convergent_states(a)


def step(a: Automaton, q: str, s: str) -> str:
    """Apply the transition function once.

    Raises :class:`ForbiddenInput` when ``s`` triggers no transition in
    ``q``: the environment stepped outside the compatible class.  The
    alphabet is scanned only on a miss, so a step costs O(1).
    """
    _state_index(a, q)
    try:
        return a.transitions[q, s]
    except (KeyError, TypeError):  # TypeError: ``s`` cannot be hashed
        if s not in a.input_alphabet:
            raise UnknownSymbol(s) from None
        raise ForbiddenInput(q, s) from None


def run(a: Automaton, start: str, word: Sequence[str]) -> Path:
    """Iterate :func:`step` over an input word and record the path."""
    _state_index(a, start)
    word = _sequence(word, "word")
    q = start
    states = [q]
    for i, s in enumerate(word):
        try:
            q = a.transitions[q, s]
        except (KeyError, TypeError):  # as in :func:`step`
            if s not in a.input_alphabet:
                raise UnknownSymbol(s, f"word position {i}") from None
            raise ForbiddenInput(q, s, position=i) from None
        states.append(q)
    out = a.output_map
    return Path(a, word, tuple(states), tuple([out[q] for q in states]))


def _reached(a: Automaton, start: str) -> dict[int, tuple[tuple[int, int], ...]]:
    """Each state reachable from ``start``, by index, with its ``moves`` row, read once by index.
    ``start`` is found by a scan of ``states``, so a walk on a large graph builds no ``index``."""
    try:
        i = a.states.index(start)
    except ValueError:
        raise UnknownState(start) from None
    rows, frontier = {}, [i]
    while frontier:
        if (i := frontier.pop()) not in rows:
            rows[i] = a.moves[i]
            frontier += [t for _, t in rows[i] if t not in rows]
    return rows


def reachable_states(a: Automaton, start: str) -> set[str]:
    """States reachable from ``start`` by following arrows."""
    return {a.states[i] for i in _reached(a, start)}
