"""The original product and wiring builders, and the original graph
equivalence, kept as oracles.

These are ``product_many``, ``product_input_model`` and ``wire`` as the
package shipped them before they were rebuilt on integer indices,
copied verbatim with the tuple-naming helpers they use: every tuple
name is joined from strings, and every graph goes through
``core.validate``.  Only the last line of ``product_input_model`` has
changed since: it wraps the weights it computes from named arrows as
the rows an ``InputModel`` now stores.  They are slow but plainly faithful to the
documented construction, so the production builders must return equal
objects, with every field in the same iteration order, and raise the
same exception types with the same messages.

``equivalent`` and its ``_forced_isomorphism`` are copied verbatim from
before the symbol search became a joint symbol/state propagation: they
try every usage-preserving bijection of the used symbols, which takes
factorial time but is plainly exhaustive, so the production
``equivalent`` must give the same answer on every pair.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from autodiss import core
from autodiss.composition import CLOCK_SYMBOL, ClosedSystem, Connection, ProductAutomaton, Wiring
from autodiss.core import Automaton, reachable_states, validate
from autodiss.dissipation import InputModel
from autodiss.errors import (
    AlphabetMismatch,
    DuplicateIdentifier,
    MissingInitial,
    MultiplyDrivenPort,
    SizeLimit,
    UnknownState,
    UnknownSymbol,
)


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


def product_many(modules: Sequence[Automaton], name: Optional[str] = None) -> ProductAutomaton:
    """N-ary Cartesian product; nested products are flattened, so the
    binary form is associative up to tuple flattening."""
    comps = _flatten(modules)
    if not comps:
        raise ValueError("need at least one module")
    size = 1
    for c in comps:
        size *= len(c.states)
    if size > core.MONOLITHIC_STATE_LIMIT:
        raise SizeLimit(size, core.MONOLITHIC_STATE_LIMIT)

    states = [_tuple_state(parts) for parts in itertools.product(*(c.states for c in comps))]
    inputs = [
        _tuple_symbol(parts)
        for parts in itertools.product(*(c.input_alphabet for c in comps))
    ]
    output_map = {}
    for parts in itertools.product(*(c.states for c in comps)):
        output_map[_tuple_state(parts)] = _tuple_symbol(
            c.output_map[q] for c, q in zip(comps, parts)
        )
    outputs = sorted(set(output_map.values()))

    transitions = []
    for qparts in itertools.product(*(c.states for c in comps)):
        for sparts in itertools.product(*(c.input_alphabet for c in comps)):
            targets = []
            for c, q, s in zip(comps, qparts, sparts):
                t = c.transitions.get((q, s))
                if t is None:
                    break
                targets.append(t)
            else:
                transitions.append(
                    (_tuple_state(qparts), _tuple_symbol(sparts), _tuple_state(targets))
                )

    initial = None
    if all(c.initial is not None for c in comps):
        initial = _tuple_state([c.initial for c in comps])

    base = validate(
        name=name or "*".join(c.name for c in comps),
        input_alphabet=inputs,
        output_alphabet=outputs,
        states=states,
        initial=initial,
        output_map=output_map,
        transitions=transitions,
    )
    return ProductAutomaton(
        **{f: getattr(base, f) for f in (
            "name", "input_alphabet", "output_alphabet", "states", "initial",
            "output_map", "moves",
        )},
        module_names=tuple(c.name for c in comps),
        components=tuple(comps),
    )


def product_input_model(p: ProductAutomaton, models: Sequence[InputModel]) -> InputModel:
    """Independent per-component arrow probabilities on a product graph.

    The probability of a product arrow is the product of its component
    arrow probabilities, so choice information adds across components.
    """
    comps = p.components
    if len(models) != len(comps):
        raise ValueError("one model per component required")
    probs: dict[str, dict[tuple[str, str], float]] = {}
    for qparts in itertools.product(*(c.states for c in comps)):
        q = _tuple_state(qparts)
        dist: dict[tuple[str, str], float] = {}
        arrow_choices = [c.by_source[src] for c, src in zip(comps, qparts)]
        if all(arrow_choices):
            for combo in itertools.product(*arrow_choices):
                target = _tuple_state([ar.target for ar in combo])
                weight = 1.0
                for m, src, ar in zip(models, qparts, combo):
                    weight *= m.probs[src].get(ar.key, 0.0)
                dist[(q, target)] = weight
        probs[q] = dist
    # Models are stored as rows aligned with the graph's arrows, in ``by_source`` order.
    return InputModel(p, tuple(tuple(probs[q][ar.key] for ar in arrows)
                               for q, arrows in p.by_source.items()))


def wire(w: Wiring) -> ClosedSystem:
    """Close a wiring into a tuple-state automaton.

    Wired inputs take the source module's output for the current state,
    which is causal within one synchronous step.  Free inputs remain the
    system's inputs; with none, the system is clock-driven and gets the
    single implicit symbol ``ck``.
    """
    names = [n for n, _ in w.modules]
    if len(set(names)) != len(names):
        raise DuplicateIdentifier(
            next(n for i, n in enumerate(names) if n in names[:i]), "modules"
        )
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
        emitted = dict.fromkeys(src_auto.output_map[q] for q in src_auto.states)
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

    free_alphabets = [autos[n].input_alphabet for n in free]
    if free:
        inputs = [_tuple_symbol(parts) for parts in itertools.product(*free_alphabets)]
    else:
        inputs = [CLOCK_SYMBOL]

    comps = [autos[n] for n in names]
    output_map = {}
    for qparts in itertools.product(*(c.states for c in comps)):
        output_map[_tuple_state(qparts)] = _tuple_symbol(
            c.output_map[q] for c, q in zip(comps, qparts)
        )

    transitions = []
    for qparts in itertools.product(*(c.states for c in comps)):
        by_name = dict(zip(names, qparts))
        for sparts in itertools.product(*free_alphabets) if free else [()]:
            free_syms = dict(zip(free, sparts))
            targets = []
            for n, c, q in zip(names, comps, qparts):
                kind_driver = drivers.get(n)
                if kind_driver is None:
                    s = free_syms[n]
                elif kind_driver[0] == "constant":
                    s = kind_driver[1]
                else:
                    conn = kind_driver[1]
                    src_auto = autos[conn.source]
                    s = conn.mapping[src_auto.output_map[by_name[conn.source]]]
                t = c.transitions.get((q, s))
                if t is None:
                    break
                targets.append(t)
            else:
                sym = _tuple_symbol(sparts) if free else CLOCK_SYMBOL
                transitions.append((_tuple_state(qparts), sym, _tuple_state(targets)))

    init_parts = []
    for n, c in zip(names, comps):
        q0 = w.initials.get(n, c.initial)
        if q0 is not None and q0 not in c.states:
            raise UnknownState(q0, f"initial of module {n!r}")
        init_parts.append(q0)
    initial = _tuple_state(init_parts) if all(q is not None for q in init_parts) else None

    auto = validate(
        name=w.name,
        input_alphabet=inputs,
        output_alphabet=sorted(set(output_map.values())),
        states=[_tuple_state(p) for p in itertools.product(*(c.states for c in comps))],
        initial=initial,
        output_map=output_map,
        transitions=transitions,
    )
    return ClosedSystem(automaton=auto, wiring=w, free_modules=free)


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
