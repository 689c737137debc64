"""Covering test tours and black-box conformance checks.

A physical implement earns its characteristic graph through a test that
follows every arrow.  The tour builder produces one input word whose
replay covers the whole merged-arrow set; its length is the test cost.
Merged arrows are the unit of coverage: one traversal of an arrow tests
it, whichever of its labels is presented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import core
from .core import Automaton, run, step
from .errors import (
    ArityMismatch, AutomataError, DeviceRefused, SizeLimit, Untestable,
)


@dataclass(frozen=True)
class TestTour:
    """A single covering input word from a fixed start state."""

    start: str
    word: tuple[str, ...]
    covered: frozenset[tuple[str, str]]

    @property
    def length(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class Verdict:
    """Outcome of driving a device along a tour.

    ``first_discrepancy`` is ``(observation index, expected, observed)``
    where index 0 is the output before any input is applied.
    """

    passed: bool
    first_discrepancy: Optional[tuple[int, str, str]] = None


def _components(successors) -> tuple[dict[int, int], list[int]]:
    """Strongly connected components and what each one reaches.

    Returns every state index's component number and, per component, the
    set of components reachable from it (itself included) as an int bitset.
    One iterative Tarjan pass closes components sinks first, so the
    reach of every successor is known when a component closes.
    """
    index, low, comp = {}, {}, {}  # per state index, as in Tarjan's paper
    reach: list[int] = []
    stack: list[int] = []
    for root in range(len(successors)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            q, targets = work[-1]
            for t in targets:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    work.append((t, iter(successors[t])))
                    break
                if t not in comp:  # still on the stack: same component
                    low[q] = min(low[q], index[t])
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[q])
                if low[q] != index[q]:
                    continue
                c = len(reach)
                members = []
                while not members or members[-1] != q:
                    members.append(stack.pop())
                    comp[members[-1]] = c
                reach.append(1 << c)
                for v in members:
                    for t in successors[v]:
                        reach[c] |= reach[comp[t]]
    return comp, reach


def _path_to(parent: dict[int, int], start: int, goal: int) -> list[tuple[int, int]]:
    """Arrows from ``start`` to ``goal`` in the search tree ``parent`` (target -> source)."""
    path, q = [], goal
    while q != start:
        path.append((parent[q], q))
        q = parent[q]
    return path[::-1]


def transition_tour(a: Automaton, start: str) -> TestTour:
    """Build one input word from ``start`` covering every merged arrow.

    Strategy: repeatedly walk the shortest path to an uncovered arrow and
    traverse it.  Among nearest candidates, arrows from whose target the
    remaining work would become unreachable are avoided, then arrows that
    keep an uncovered arrow directly ahead are preferred; remaining ties
    break on the (source, target) pair, and each traversal presents the
    lexicographically smallest label of its arrow.

    Cost: one iterative SCC pass, O(states + arrows) plus a bitset of
    reachable components per component.  Then, per walk to an uncovered
    arrow, one breadth-first search from the current state that stops at
    the first level holding an acceptable arrow, or none when an arrow
    out of the current state is acceptable; each candidate is judged
    in O(path length) from per-source counts of uncovered arrows.  The
    worst case stays O(arrows * (states + arrows)), but on a strongly
    connected graph every arrow is acceptable, so each search stops at
    the nearest uncovered arrow.

    Raises :class:`Untestable` when some arrow cannot be reached, and
    :class:`SizeLimit` on graphs too large to tour monolithically.
    """
    pos = core._state_index(a, start)
    if len(a.states) > core.MONOLITHIC_STATE_LIMIT:
        raise SizeLimit(len(a.states), core.MONOLITHIC_STATE_LIMIT)

    states, inputs, successors = a.states, a.input_alphabet, a.successors
    label: dict[tuple[int, int], str] = {}  # each arrow's smallest label by name
    for q, row in enumerate(a.moves):
        for s, t in row:
            label[q, t] = min(label.get((q, t), inputs[s]), inputs[s])
    uncovered = set(label)
    left = list(map(len, successors))  # uncovered per source
    comp, reach = _components(successors)
    pending: dict[int, set[int]] = {}  # component -> its sources with work left
    for q, n in enumerate(left):
        if n:
            pending.setdefault(comp[q], set()).add(q)
    pending_bits = sum(1 << c for c in pending)  # components in ``pending``
    word: list[str] = []

    # The helpers below judge a candidate arrow against the current
    # search from ``pos``, whose tree is ``parent``.
    def walked_from(ar: tuple[int, int]) -> dict[int, tuple[int, int]]:
        """Source -> arrow along the path to ``ar`` and ``ar`` itself;
        the path is simple, so each source occurs once."""
        return {p[0]: p for p in _path_to(parent, pos, ar[0]) + [ar]}

    def acceptable(ar: tuple[int, int]) -> bool:
        # Every source left with work after the walk must be reachable
        # from the target: a pending source outside reach(target) is
        # allowed only if the walk covers its last uncovered arrow.
        outside = pending_bits & ~reach[comp[ar[1]]]
        if not outside:
            return True
        walked = walked_from(ar)
        while outside:
            c = (outside & -outside).bit_length() - 1
            outside &= outside - 1
            for s in pending[c]:
                if left[s] != 1 or walked.get(s) not in uncovered:
                    return False
        return True

    def keeps_going(ar: tuple[int, int]) -> bool:
        # Some arrow out of the target is still uncovered after the walk.
        n = left[ar[1]]
        if n != 1:
            return n > 1
        return walked_from(ar).get(ar[1]) not in uncovered

    parent: dict[int, int] = {}  # the last search's tree; a walk from ``pos`` reads none of it
    while uncovered:
        # A pending source unreachable from here is unreachable from any
        # target, so no arrow is acceptable: take the nearest level.
        hopeless = pending_bits & ~reach[comp[pos]]
        # Level 1 needs no search; in target-name order, its first kept arrow is ``min``'s pick.
        pool = [(pos, t) for t in successors[pos] if (pos, t) in uncovered
                and (hopeless or acceptable((pos, t)))] if left[pos] else []
        if pool:
            chosen = next(filter(keeps_going, pool), pool[0])
        else:
            parent, seen, frontier, nearest = {}, {pos}, [pos], []
            # Expanding each level in discovery order builds the same tree as
            # a first-in-first-out search; level L holds the uncovered arrows
            # whose sources lie L - 1 steps away.
            while frontier:
                level = [(q, t) for q in frontier if left[q]
                         for t in successors[q] if (q, t) in uncovered]
                if level:
                    if not nearest:
                        nearest = level
                        if hopeless:
                            break
                    pool = [ar for ar in level if acceptable(ar)]
                    if pool:
                        break
                nxt = []
                for q in frontier:
                    for t in successors[q]:
                        if t not in seen:
                            seen.add(t)
                            parent[t] = q
                            nxt.append(t)
                frontier = nxt
            if not nearest:
                raise Untestable({(states[q], states[t]) for q, t in uncovered},
                                 f"stranded in {states[pos]!r}")
            pool = pool or nearest
            pool = [ar for ar in pool if keeps_going(ar)] or pool
            chosen = min(pool, key=lambda ar: (states[ar[0]], states[ar[1]]))

        for ar in _path_to(parent, pos, chosen[0]) + [chosen]:
            word.append(label[ar])
            if ar in uncovered:
                uncovered.remove(ar)
                left[ar[0]] -= 1
                if not left[ar[0]]:
                    c = comp[ar[0]]
                    pending[c].remove(ar[0])
                    if not pending[c]:
                        pending_bits &= ~(1 << c)
        pos = chosen[1]

    return TestTour(start=start, word=tuple(word),
                    covered=frozenset((states[q], states[t]) for q, t in label))


def test_cost(a: Automaton, start: str) -> int:
    """Tour length from ``start``; at least the arrow count and at most
    arrow count times state count."""
    return transition_tour(a, start).length


def modular_test_cost(modules: Sequence[Automaton], starts: Sequence[str]) -> int:
    """Sum of per-module tour lengths: the cost of testing the parts
    separately instead of touring their product."""
    if len(modules) != len(starts):
        raise ArityMismatch("one start state per module required")
    total = 0
    for m, s in zip(modules, starts):
        try:
            total += test_cost(m, s)
        except Untestable as e:
            raise Untestable(e.uncovered, f"module {m.name!r}") from None
    return total


class AutomatonOracle:
    """Step oracle backed by an in-memory automaton.

    The device contract: ``output()`` reports the current output symbol;
    ``apply(symbol)`` advances one step and may raise on refusal.
    """

    def __init__(self, a: Automaton, state: str):
        core._state_index(a, state)
        self.automaton = a
        self.state = state

    def output(self) -> str:
        return self.automaton.output_map[self.state]

    def apply(self, symbol: str) -> None:
        self.state = step(self.automaton, self.state, symbol)


def simulate_test(reference: Automaton, device, tour: TestTour) -> Verdict:
    """Drive ``device`` along a tour and compare outputs step by step.

    Outputs identify states (the output map is injective), so matching
    the whole observation sequence certifies the covered arrows.  Raises
    :class:`DeviceRefused` if the device rejects a symbol, and before
    touching the device, the error of :func:`run` if the tour does not run.
    """
    expected = run(reference, tour.start, tour.word).outputs
    observed = device.output()
    if observed != expected[0]:
        return Verdict(passed=False, first_discrepancy=(0, expected[0], observed))
    for i, symbol in enumerate(tour.word):
        try:
            device.apply(symbol)
        except AutomataError as e:
            raise DeviceRefused(i, str(e)) from None
        observed = device.output()
        if observed != expected[i + 1]:
            return Verdict(
                passed=False, first_discrepancy=(i + 1, expected[i + 1], observed)
            )
    return Verdict(passed=True)
