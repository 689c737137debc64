"""The original transition-tour builder, kept as an oracle.

This is the tour builder the package shipped before its incremental
rewrite, copied verbatim: a full BFS and a set difference over the
uncovered arrows for every candidate, roughly O(arrows * (states +
arrows)) per covered arrow.  It is slow but obviously faithful to the
documented strategy, so the production builder must emit exactly its
words, and for untestable graphs exactly its uncovered sets and
messages.
"""

from __future__ import annotations

from collections import deque

from autodiss import core
from autodiss.conformance import TestTour
from autodiss.core import Arrow, Automaton
from autodiss.errors import SizeLimit, UnknownState, Untestable


def _bfs(a: Automaton, start: str):
    """Distances and predecessor arrows over the full graph."""
    dist = {start: 0}
    parent: dict[str, Arrow] = {}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for ar in a.by_source[q]:
            if ar.target not in dist:
                dist[ar.target] = dist[q] + 1
                parent[ar.target] = ar
                queue.append(ar.target)
    return dist, parent


def _path_to(parent: dict[str, Arrow], start: str, goal: str) -> list[Arrow]:
    path = []
    q = goal
    while q != start:
        ar = parent[q]
        path.append(ar)
        q = ar.source
    path.reverse()
    return path


def transition_tour(a: Automaton, start: str) -> TestTour:
    """Build one input word from ``start`` covering every merged arrow.

    Strategy: repeatedly walk the shortest path to an uncovered arrow and
    traverse it.  Among nearest candidates, arrows from whose target the
    remaining work would become unreachable are avoided, then arrows that
    keep an uncovered arrow directly ahead are preferred; remaining ties
    break on the (source, target) pair, and each traversal presents the
    lexicographically smallest label of its arrow.

    Raises :class:`Untestable` when some arrow cannot be reached, and
    :class:`SizeLimit` on graphs too large to tour monolithically.
    """
    if start not in a.by_source:
        raise UnknownState(start)
    if len(a.states) > core.MONOLITHIC_STATE_LIMIT:
        raise SizeLimit(len(a.states), core.MONOLITHIC_STATE_LIMIT)

    uncovered = {ar.key for ar in a.arrows}
    all_keys = frozenset(uncovered)
    word: list[str] = []
    pos = start
    reach_cache: dict[str, set[str]] = {}

    def reach(q: str) -> set[str]:
        if q not in reach_cache:
            reach_cache[q] = core.reachable_states(a, q)
        return reach_cache[q]

    while uncovered:
        dist, parent = _bfs(a, pos)
        candidates = [
            a.by_pair[key] for key in uncovered if key[0] in dist
        ]
        if not candidates:
            raise Untestable(uncovered, f"stranded in {pos!r}")
        by_level: dict[int, list[Arrow]] = {}
        for ar in candidates:
            by_level.setdefault(dist[ar.source] + 1, []).append(ar)

        def remaining_after(ar: Arrow) -> set[tuple[str, str]]:
            walked = {p.key for p in _path_to(parent, pos, ar.source)}
            return uncovered - walked - {ar.key}

        chosen_pool: list[Arrow] = []
        for level in sorted(by_level):
            ok = [
                ar
                for ar in by_level[level]
                if all(src in reach(ar.target) for src, _ in remaining_after(ar))
            ]
            if ok:
                chosen_pool = ok
                break
        if not chosen_pool:
            chosen_pool = by_level[min(by_level)]

        keeps_going = [
            ar for ar in chosen_pool
            if any(src == ar.target for src, _ in remaining_after(ar))
        ]
        if keeps_going:
            chosen_pool = keeps_going
        chosen = min(chosen_pool, key=lambda ar: ar.key)

        for ar in _path_to(parent, pos, chosen.source) + [chosen]:
            word.append(ar.labels[0])
            uncovered.discard(ar.key)
        pos = chosen.target

    return TestTour(start=start, word=tuple(word), covered=all_keys)
