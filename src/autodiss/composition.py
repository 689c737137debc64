"""Modular association of automata.

A modular implement is tested part by part, so its characteristic graph
is the Cartesian product of the module graphs, with inputs opened.  A
wiring closes some of those inputs by feeding them from other modules'
outputs; the closed system then follows a sub-relation of the product
graph.  Tuple states serialize as ``(q1,q2)``, tuple symbols as ``s1|s2``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import core
from .core import Automaton, reachable_states
from .dissipation import InputModel
from .errors import (
    AlphabetMismatch,
    ArityMismatch,
    MissingInitial,
    MultiplyDrivenPort,
    SizeLimit,
    UnknownState,
    UnknownSymbol,
)

# Implicit input symbol of a fully wired (clock-driven) system.
CLOCK_SYMBOL = "ck"


@dataclass(frozen=True)
class ProductAutomaton(Automaton):
    """Cartesian product of module graphs, with module provenance."""

    module_names: tuple[str, ...] = ()
    components: tuple[Automaton, ...] = field(default=(), compare=False)


def _tuple_state(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def _tuple_symbol(parts: Sequence[str]) -> str:
    return "|".join(parts)


def _flatten(modules: Sequence[Automaton]) -> list[Automaton]:
    comps: list[Automaton] = []
    for m in modules:
        if isinstance(m, ProductAutomaton) and m.components:
            comps.extend(m.components)
        else:
            comps.append(m)
    return comps


def _tuple_graph(comps: Sequence[Automaton], inputs: Sequence[str]):
    """Tuple state names, output map and sorted output alphabet, with the
    three checks of :func:`validate` that tuple names can fail: component
    names holding ``,``, ``(``, ``)`` or ``|`` can make two tuples join to
    one name.  Past these, every check holds by construction."""
    inputs = core._ordered_unique(inputs, "input alphabet")
    states = core._ordered_unique(
        (_tuple_state(p) for p in itertools.product(*(c.states for c in comps))), "states"
    )
    outputs = itertools.product(*([c.output_map[q] for q in c.states] for c in comps))
    output_map = dict(zip(states, map(_tuple_symbol, outputs)))
    core._check_injective(states, output_map)
    return inputs, tuple(sorted(set(output_map.values()))), states, output_map


def product_many(modules: Sequence[Automaton], name: Optional[str] = None) -> ProductAutomaton:
    """N-ary Cartesian product; nested products are flattened, so the
    binary form is associative up to tuple flattening.

    Costs O(product transitions).  Raises :class:`SizeLimit` when the
    product has more states, or more transitions, than
    ``core.MONOLITHIC_STATE_LIMIT``.
    """
    comps = _flatten(modules)
    if not comps:
        raise ArityMismatch("need at least one module")
    for size, unit in ((math.prod(len(c.states) for c in comps), "states"),
                       (math.prod(len(c.transitions) for c in comps), "transitions")):
        if size > core.MONOLITHIC_STATE_LIMIT:
            raise SizeLimit(size, core.MONOLITHIC_STATE_LIMIT, unit)
    inputs, outputs, states, output_map = _tuple_graph(comps, [
        _tuple_symbol(parts) for parts in itertools.product(*(c.input_alphabet for c in comps))
    ])

    # Per tuple state of the components so far: its defined moves as
    # (symbol index, target index), symbols in itertools.product order.
    moves = [[(0, 0)]]
    for c in comps:
        index = {q: i for i, q in enumerate(c.states)}
        own = [[(i, index[c.transitions[q, s]])
                for i, s in enumerate(c.input_alphabet) if (q, s) in c.transitions]
               for q in c.states]
        k, n = len(c.input_alphabet), len(c.states)
        moves = [[(s * k + s2, t * n + t2) for s, t in pre for s2, t2 in mine]
                 for pre in moves for mine in own]
    transitions = {(q, inputs[s]): states[t] for q, out in zip(states, moves) for s, t in out}

    initial = None
    if all(c.initial is not None for c in comps):
        initial = _tuple_state([c.initial for c in comps])
    return core._assemble(ProductAutomaton, name or "*".join(c.name for c in comps), inputs,
                          outputs, states, initial, output_map, transitions,
                          module_names=tuple(c.name for c in comps), components=tuple(comps))


def product(a: Automaton, b: Automaton, name: Optional[str] = None) -> ProductAutomaton:
    """Cartesian product of two module graphs."""
    return product_many([a, b], name=name)


def product_input_model(p: ProductAutomaton, models: Sequence[InputModel]) -> InputModel:
    """Independent per-component arrow probabilities on a product graph.

    The probability of a product arrow is the product of its component
    arrow probabilities, so choice information adds across components.
    """
    comps = p.components
    if len(models) != len(comps):
        raise ArityMismatch("one model per component required")
    # Per tuple state of the components so far: (target index, weight)
    # per arrow, weights multiplied in component order.
    moves = [[(0, 1.0)]]
    for c, m in zip(comps, models):
        index = {q: i for i, q in enumerate(c.states)}
        own = [[(index[ar.target], m.probs[q].get(ar.key, 0.0)) for ar in c.by_source[q]]
               for q in c.states]
        n = len(c.states)
        moves = [[(t * n + t2, w * w2) for t, w in pre for t2, w2 in mine]
                 for pre in moves for mine in own]
    states = [_tuple_state(parts) for parts in itertools.product(*(c.states for c in comps))]
    return InputModel({q: {(q, states[t]): w for t, w in dist} for q, dist in zip(states, moves)})


@dataclass(frozen=True)
class Connection:
    """Feed one module's current output into another module's input."""

    source: str
    dest: str
    mapping: dict[str, str]  # source output symbol -> dest input symbol


@dataclass(frozen=True)
class Wiring:
    """An ordered set of modules plus the wiring of their inputs.

    Each module's input is driven by exactly one of: a connection, a
    constant symbol, or the outside world (free).  ``initials`` may
    override the per-module initial states.
    """

    name: str
    modules: tuple[tuple[str, Automaton], ...]
    connections: tuple[Connection, ...] = ()
    constants: tuple[tuple[str, str], ...] = ()
    initials: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ClosedSystem:
    """The automaton induced on tuple states once connections are fixed."""

    automaton: Automaton
    wiring: Wiring
    free_modules: tuple[str, ...]


def wire(w: Wiring) -> ClosedSystem:
    """Close a wiring into a tuple-state automaton.

    Wired inputs take the source module's output for the current state,
    which is causal within one synchronous step.  Free inputs remain the
    system's inputs; with none, the system is clock-driven and gets the
    single implicit symbol ``ck``.
    """
    names = core._ordered_unique((n for n, _ in w.modules), "modules")
    autos = dict(w.modules)

    drivers: dict[str, tuple[str, object]] = {}
    for conn in w.connections:
        for end, role in ((conn.source, "source"), (conn.dest, "dest")):
            if end not in autos:
                raise UnknownState(end, f"connection {role} module")
        if conn.dest in drivers:
            raise MultiplyDrivenPort(conn.dest)
        mapping = dict(conn.mapping)
        src_auto, dst_auto = autos[conn.source], autos[conn.dest]
        emitted = set(src_auto.output_map.values())
        if not mapping:
            mapping = {r: r for r in emitted}
        for r in emitted:
            if r not in mapping:
                raise AlphabetMismatch(
                    f"no mapping for output {r!r} of module {conn.source!r}"
                )
            if mapping[r] not in dst_auto.input_alphabet:
                raise AlphabetMismatch(
                    f"{mapping[r]!r} is not an input of module {conn.dest!r}"
                )
        drivers[conn.dest] = ("connection", Connection(conn.source, conn.dest, mapping))
    for mod, sym in w.constants:
        if mod not in autos:
            raise UnknownState(mod, "constant module")
        if mod in drivers:
            raise MultiplyDrivenPort(mod)
        if sym not in autos[mod].input_alphabet:
            raise UnknownSymbol(sym, f"constant for module {mod!r}")
        drivers[mod] = ("constant", sym)

    free = tuple(n for n in names if n not in drivers)

    # A lone unwired module is already the closed system; no tuple
    # wrapping, so the result stays identical to the module itself.
    if len(names) == 1 and free:
        only = autos[names[0]]
        q0 = w.initials.get(names[0], only.initial)
        if q0 is not None and q0 not in only.states:
            raise UnknownState(q0, f"initial of module {names[0]!r}")
        if q0 != only.initial:
            only = core._assemble(Automaton, only.name, only.input_alphabet, only.output_alphabet,
                                  only.states, q0, only.output_map, only.transitions)
        return ClosedSystem(automaton=only, wiring=w, free_modules=free)

    comps = [autos[n] for n in names]
    init_parts = []
    for n, c in zip(names, comps):
        q0 = w.initials.get(n, c.initial)
        if q0 is not None and q0 not in c.states:
            raise UnknownState(q0, f"initial of module {n!r}")
        init_parts.append(q0)
    initial = _tuple_state(init_parts) if all(q is not None for q in init_parts) else None

    free_alphabets = [autos[n].input_alphabet for n in free]
    size = math.prod(len(c.states) for c in comps) * math.prod(map(len, free_alphabets))
    if size > core.MONOLITHIC_STATE_LIMIT:
        raise SizeLimit(size, core.MONOLITHIC_STATE_LIMIT, "transitions")
    inputs, outputs, states, output_map = _tuple_graph(comps, [
        _tuple_symbol(parts) for parts in itertools.product(*free_alphabets)
    ] if free else [CLOCK_SYMBOL])

    # Per module: which entry of (module state indices + free symbol
    # indices) selects its symbol, the symbol index for each value of
    # that entry, and its target offset per (state, symbol), or None.
    plan = []
    for k, (n, c) in enumerate(zip(names, comps)):
        sym_at = {s: i for i, s in enumerate(c.input_alphabet)}
        index = {q: i for i, q in enumerate(c.states)}
        feed = drivers.get(n)
        if feed is None:
            read = (len(names) + free.index(n), range(len(c.input_alphabet)))
        elif feed[0] == "constant":
            read = (k, [sym_at[feed[1]]] * len(c.states))
        else:
            conn, src = feed[1], autos[feed[1].source]
            read = (names.index(conn.source),
                    [sym_at[conn.mapping[src.output_map[q]]] for q in src.states])
        stride = math.prod(len(d.states) for d in comps[k + 1:])
        rows = [[None] * len(c.input_alphabet) for _ in c.states]
        for (q, s), t in c.transitions.items():
            rows[index[q]][sym_at[s]] = index[t] * stride
        plan.append((k, *read, rows))

    transitions = {}
    combos = list(zip(inputs, itertools.product(*(range(len(a)) for a in free_alphabets))))
    for q, qidx in zip(states, itertools.product(*(range(len(c.states)) for c in comps))):
        for sym, sidx in combos:
            at, target = qidx + sidx, 0
            for k, pos, read, rows in plan:
                t = rows[qidx[k]][read[at[pos]]]
                if t is None:
                    break
                target += t
            else:
                transitions[q, sym] = states[target]
    auto = core._assemble(Automaton, w.name, inputs, outputs, states, initial, output_map,
                          transitions)
    return ClosedSystem(automaton=auto, wiring=w, free_modules=free)


def open_out_degrees(c: ClosedSystem) -> dict[str, int]:
    """Each closed state's merged-arrow out-degree in the open graph, the
    product of the module graphs, without building it: the product of
    the modules' out-degrees at their component states (0 at any sink).
    Closed states follow :func:`wire`'s order, the product of the module
    state lists in wiring order."""
    degrees = ([len(m.by_source[q]) for q in m.states] for _, m in c.wiring.modules)
    return dict(zip(c.automaton.states, map(math.prod, itertools.product(*degrees))))


def reachable_subgraph(c) -> Automaton:
    """Restrict to the part actually followed from the initial state."""
    a = c.automaton if isinstance(c, ClosedSystem) else c
    if a.initial is None:
        raise MissingInitial(a.name)
    keep = reachable_states(a, a.initial)
    states = tuple(q for q in a.states if q in keep)
    return core._assemble(Automaton, a.name, a.input_alphabet, a.output_alphabet, states,
                          a.initial, {q: a.output_map[q] for q in states},
                          {key: t for key, t in a.transitions.items() if key[0] in keep})


def _forced_isomorphism(a: Automaton, b: Automaton, sigma: dict[str, str],
                        ra: set[str], rb: set[str]) -> bool:
    """Check the state bijection forced by a full symbol bijection."""
    smap = {a.initial: b.initial}
    rmap = {b.initial: a.initial}
    stack = [a.initial]
    while stack:
        p = stack.pop()
        q = smap[p]
        syms_p = [s for s in a.input_alphabet if (p, s) in a.transitions]
        syms_q = {s for s in b.input_alphabet if (q, s) in b.transitions}
        if len(syms_p) != len(syms_q):
            return False
        if {sigma[s] for s in syms_p} != syms_q:
            return False
        for s in syms_p:
            t = a.transitions[(p, s)]
            u = b.transitions[(q, sigma[s])]
            if t in smap:
                if smap[t] != u:
                    return False
            else:
                if u in rmap:
                    return False
                smap[t] = u
                rmap[u] = t
                stack.append(t)
    return len(smap) == len(ra) == len(rb)


def equivalent(a: Automaton, b: Automaton,
               symbol_map: Optional[dict[str, str]] = None) -> bool:
    """Rooted isomorphism of the reachable graphs, up to a bijective
    renaming of input symbols.  Output maps are not compared; the graph
    structure and arrow label sets are.

    Pass ``symbol_map`` to fix the renaming; otherwise one is searched
    (symbols are matched by usage counts first, so the search stays
    small on the alphabets automata files use).
    """
    if a.initial is None:
        raise MissingInitial(a.name)
    if b.initial is None:
        raise MissingInitial(b.name)
    ra = reachable_states(a, a.initial)
    rb = reachable_states(b, b.initial)
    if len(ra) != len(rb):
        return False

    def usage(auto, reach):
        counts: dict[str, int] = {}
        for (q, s), _ in auto.transitions.items():
            if q in reach:
                counts[s] = counts.get(s, 0) + 1
        return counts

    ua, ub = usage(a, ra), usage(b, rb)
    if sorted(ua.values()) != sorted(ub.values()):
        return False

    if symbol_map is not None:
        sigma = dict(symbol_map)
        if set(ua) - set(sigma):
            return False
        return _forced_isomorphism(a, b, sigma, ra, rb)

    if ua == ub and _forced_isomorphism(a, b, {s: s for s in ua}, ra, rb):
        return True

    syms_a = sorted(ua)
    by_count: dict[int, list[str]] = {}
    for s, n in ub.items():
        by_count.setdefault(n, []).append(s)

    def assign(i: int, sigma: dict[str, str], used: set[str]) -> bool:
        if i == len(syms_a):
            return _forced_isomorphism(a, b, sigma, ra, rb)
        s = syms_a[i]
        for t in sorted(by_count.get(ua[s], [])):
            if t in used:
                continue
            sigma[s] = t
            used.add(t)
            if assign(i + 1, sigma, used):
                return True
            del sigma[s]
            used.remove(t)
        return False

    return assign(0, {}, set())
