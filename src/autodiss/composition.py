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
import operator
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from . import core
from .core import Automaton
from .dissipation import InputModel, _weights
from .errors import (
    AlphabetMismatch,
    ArityMismatch,
    InvalidArgument,
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
    """Cartesian product of module graphs, with module provenance.

    Its ``moves`` are the all-free product of ``components``, in
    ``itertools.product`` order: the :class:`_TupleRows` view that a wiring's
    are too, which computes a row when it is read (:func:`reachable_subgraph`
    returns a plain :class:`Automaton`).  So a tuple state's merged arrows are
    the tuples of its modules' arrows: ``arrow_count`` and ``successors`` are
    read off the modules, with no product move read.  Only :func:`_tuple_graph`
    builds one: a product missing its rows or its modules is refused.
    """

    moves: tuple[tuple[tuple[int, int], ...], ...] = None
    module_names: tuple[str, ...] = ()
    components: tuple[Automaton, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.moves is None or not self.components:
            raise ArityMismatch("a product needs both its moves and its components")

    @cached_property
    def _module_ordered(self) -> bool:
        """Whether tuple names sort part by part: so when no module state
        name holds a character at or below ``,`` (an empty name holds
        none), as a part that is a prefix of another is then followed by
        ``,`` or ``)``, below any character the longer part holds there."""
        names = "".join(q for c in self.components for q in c.states)
        return min(names, default="-") > ","

    @cached_property
    def _module_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per tuple state, its arrows' target indices: the modules'
        ``successors`` rows folded in mixed radix, in module order."""
        rows = [(0,)]
        for c in self.components:
            n = len(c.states)
            rows = [tuple([t * n + t2 for t in pre for t2 in own])
                    for pre in rows for own in c.successors]
        return tuple(rows)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """As :attr:`Automaton.successors`: the modules' rows, whose targets
        are distinct, sorted by name unless tuple names sort part by part."""
        rows, name = self._module_rows, self.states.__getitem__
        return rows if self._module_ordered else tuple([tuple(sorted(r, key=name)) for r in rows])

    @property
    def arrow_count(self) -> int:
        return math.prod(c.arrow_count for c in self.components)


def _flatten(modules: Sequence[Automaton]) -> list[Automaton]:
    comps: list[Automaton] = []
    for m in modules:
        if isinstance(m, ProductAutomaton):
            comps.extend(m.components)
        else:
            comps.append(m)
    return comps


def _tuple_graph(cls, name: str, comps: Sequence[Automaton], reads, initials, **fields):
    """The one builder of products and wirings: a ``cls`` on tuples of
    ``comps``'s states, module k reading as ``reads[k]`` says (see
    :class:`_TupleRows`), started at the tuple of ``initials`` unless
    one is ``None``; its ``moves`` compute each row when it is read.  Raises
    :class:`ArityMismatch` with no module; then, before building anything,
    :class:`SizeLimit` when tuple states, free tuple symbols or transitions
    exceed ``core.MONOLITHIC_STATE_LIMIT``; then the three :func:`validate`
    checks that tuple names can fail, but only when some module's states,
    free symbols or outputs repeat, are not strings or hold the ``,`` or
    ``|`` that joins them.  Past these, every check holds by construction."""
    if not comps:
        raise ArityMismatch("need at least one module")
    free = [c.input_alphabet for c, read in zip(comps, reads) if read is None]
    for size, unit in (
        (math.prod(len(c.states) for c in comps), "states"),
        (math.prod(map(len, free)), "input symbols"),
        (math.prod(sum(map(len, c.moves)) if read is None else len(c.states)
                   for c, read in zip(comps, reads)), "transitions"),
    ):
        if size > core.MONOLITHIC_STATE_LIMIT:
            raise SizeLimit(size, core.MONOLITHIC_STATE_LIMIT, unit)
    outs = [[c.output_map[q] for q in c.states] for c in comps]
    tokens = [(c.states, ",") for c in comps] + [(ts, "|") for ts in outs + free]
    apart = all(all(t.__class__ is str for t in ts) and sep not in "".join(ts) and len(set(ts)) == len(ts)
                for ts, sep in tokens)
    unique = (lambda names, kind: tuple(names)) if apart else core._ordered_unique
    inputs = unique(map("|".join, itertools.product(*free)) if free else [CLOCK_SYMBOL],
                    "input alphabet")
    states = unique(["(" + s + ")" for s in map(",".join, itertools.product(*(c.states for c in comps)))],
                    "states")
    output_map = dict(zip(states, map("|".join, itertools.product(*outs))))
    if not apart:
        core._check_injective(states, output_map)
    initial = None if None in initials else "(" + ",".join(initials) + ")"
    return cls(name, inputs, tuple(sorted(output_map.values())), states, initial,
               output_map, _TupleRows(comps, reads), **fields)


class _TupleRows(core._TupleView):
    """A tuple graph's ``moves``.  Tuple states are the product of the module state lists, tuple
    symbols the product of the free modules' alphabets (or one clock symbol if none is free), both
    in product order.  Module k takes its symbol from ``reads[k]``: ``None`` if free, else ``(j,
    symbols)``, the symbol listed for module j's current state (a constant is ``(k, [sym] * n)``).
    A tuple moves iff every module does.  Builds per-module tables only, in O(modules' size):
    each module's stride and size in the mixed radix of tuple indices, and its targets times its
    stride, as (symbol, target) rows if free, else per symbol index, or None where undefined.
    ``len`` is Π|Qₖ|, an index computes that row from the tables in O(modules + row length), and
    iteration or a slice computes every row once, in O(tuple states × modules + transitions),
    keeping them."""

    def __init__(self, comps: Sequence[Automaton], reads):
        strides = [*itertools.accumulate([len(c.states) for c in comps[:0:-1]], operator.mul, initial=1)][::-1]
        self._radix = [(stride, len(c.states)) for stride, c in zip(strides, comps)]
        self._size, free, driven = strides[0] * len(comps[0].states), [], []
        for k, (stride, c, read) in enumerate(zip(strides, comps, reads)):
            if read is None:
                free.append((k, len(c.input_alphabet), [[(s, t * stride) for s, t in row] for row in c.moves]))
                continue
            rows = [[None] * len(c.input_alphabet) for _ in c.states]
            for row, dense in zip(c.moves, rows):
                for s, t in row:
                    dense[s] = t * stride
            sym_at = {s: i for i, s in enumerate(c.input_alphabet)}
            driven.append((k, read[0], [sym_at[s] for s in read[1]], rows))
        self._free, self._driven = free, driven

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice) or "_folded" in vars(self):
            return self._folded[i]
        return self._row(self._at(range(self._size)[i]))

    def _at(self, i: int) -> list[int]:
        """The module states of tuple state ``i``, each as its index in its module's states."""
        return [i // stride % n for stride, n in self._radix]

    def _row(self, at) -> tuple[tuple[int, int], ...]:
        """The row of the tuple of module states ``at``."""
        targets = [rows[at[k]][syms[at[j]]] for k, j, syms, rows in self._driven]
        row = [] if None in targets else [(0, sum(targets))]
        for k, n, own in self._free:
            row = [(s * n + s2, t + t2) for s, t in row for s2, t2 in own[at[k]]]
        return tuple(row)

    def _items(self, picks: range):
        return [self._folded[i] for i in picks]

    def __eq__(self, other):
        """Equal module tables give equal rows, with none computed."""
        if isinstance(other, _TupleRows) and (self._radix, self._free, self._driven) == (
                other._radix, other._free, other._driven):
            return True
        return super().__eq__(other)

    __hash__ = core._TupleView.__hash__

    @cached_property
    def _folded(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(map(self._row, itertools.product(*(range(n) for _, n in self._radix))))


def product_many(modules: Sequence[Automaton], name: Optional[str] = None) -> ProductAutomaton:
    """N-ary Cartesian product; nested products are flattened, so the
    binary form is associative up to tuple flattening.

    Costs O(tuple states + tuple symbols); its ``moves`` compute each row
    when it is read, as a wiring's do.  Raises as :func:`_tuple_graph` does.
    """
    comps = _flatten(modules)
    return _tuple_graph(ProductAutomaton, name or "*".join(c.name for c in comps), comps,
                        [None] * len(comps), [c.initial for c in comps],
                        module_names=tuple(c.name for c in comps), components=tuple(comps))


def product(a: Automaton, b: Automaton, name: Optional[str] = None) -> ProductAutomaton:
    """Cartesian product of two module graphs."""
    return product_many([a, b], name=name)


def product_input_model(p: ProductAutomaton, models: Sequence[InputModel]) -> InputModel:
    """Independent per-component arrow probabilities on a product graph.

    The probability of a product arrow is the product of its component
    arrow probabilities, so choice information adds across components.
    As ``p``'s moves are the all-free product of its components (see
    :class:`ProductAutomaton`), each tuple state's weights are the module
    rows multiplied in module order; when tuple names sort part by part,
    that is already ``p.successors`` order, else each row is put in it
    by target.  A module's rows are numbered by exact bit pattern, so
    ``-0.0`` and ``0.0`` stay apart, and each distinct (prefix row, module
    row) pair is multiplied once: tuple states then share read-only row
    objects, in O(tuple states + distinct rows * row length).  Raises
    :class:`InvalidDistribution` when a model is not one of its component's.
    """
    if not isinstance(p, ProductAutomaton):
        raise ArityMismatch(f"{p.name!r} is not a product of modules")
    if len(models) != len(p.components):
        raise ArityMismatch("one model per component required")
    ids, rows = [0], [(1.0,)]  # each tuple-state prefix's row id; the distinct rows
    for c, m in zip(p.components, models):
        by_bits: dict[bytes, int] = {}
        own_ids = [by_bits.setdefault(struct.pack(f"{len(r)}d", *r), len(by_bits))
                   for r in _weights(c, m)]
        own = dict(zip(own_ids, _weights(c, m)))
        pairs: dict[tuple[int, int], int] = {}
        ids = [pairs.setdefault((i, j), len(pairs)) for i in ids for j in own_ids]
        rows = [tuple([w * w2 for w in rows[i] for w2 in own[j]]) for i, j in pairs]
    weights = [rows[i] for i in ids]
    if p._module_ordered:
        return InputModel(p, tuple(weights))
    return InputModel(p, tuple([tuple(map(dict(zip(ts, ws)).__getitem__, order))
                                for ts, ws, order in zip(p._module_rows, weights, p.successors)]))


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
    single implicit symbol ``ck``.  A lone module closes to a tuple graph
    too.  With every module free this is :func:`product_many`'s graph: both
    come from :func:`_tuple_graph`, which says what they raise.  Costs O(tuple
    states + tuple symbols): its ``moves`` compute each row when it is read.
    """
    names = core._ordered_unique((n for n, _ in w.modules), "modules")
    autos = dict(w.modules)

    # Per driven module: its source's position and the symbol it reads
    # per source state (a constant's source is the module itself).
    drivers: dict[str, tuple[int, list[str]]] = {}
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
        drivers[conn.dest] = (names.index(conn.source),
                              [mapping[src_auto.output_map[q]] for q in src_auto.states])
    for mod, sym in w.constants:
        if mod not in autos:
            raise UnknownState(mod, "constant module")
        if mod in drivers:
            raise MultiplyDrivenPort(mod)
        if sym not in autos[mod].input_alphabet:
            raise UnknownSymbol(sym, f"constant for module {mod!r}")
        drivers[mod] = (names.index(mod), [sym] * len(autos[mod].states))
    for mod in w.initials:
        if mod not in autos:
            raise UnknownState(mod, "initial module")

    comps = [autos[n] for n in names]
    init_parts = []
    for n, c in zip(names, comps):
        q0 = w.initials.get(n, c.initial)
        if q0 is not None and q0 not in c.states:
            raise UnknownState(q0, f"initial of module {n!r}")
        init_parts.append(q0)
    auto = _tuple_graph(Automaton, w.name, comps, [drivers.get(n) for n in names], init_parts)
    return ClosedSystem(automaton=auto, wiring=w,
                        free_modules=tuple(n for n in names if n not in drivers))


def reachable_subgraph(c) -> Automaton:
    """Restrict to the part actually followed from the initial state."""
    a = c.automaton if isinstance(c, ClosedSystem) else c
    if a.initial is None:
        raise MissingInitial(a.name)
    keep = sorted(rows := core._reached(a, a.initial))
    new = dict(zip(keep, range(len(keep))))
    states = tuple(a.states[i] for i in keep)
    return Automaton(a.name, a.input_alphabet, a.output_alphabet, states, a.initial,
                     {q: a.output_map[q] for q in states},
                     tuple([tuple([(s, new[t]) for s, t in rows[i]]) for i in keep]))


def _propagate(ma, mb, ua, ub, sigma: dict[int, int], smap: dict[int, int]):
    """Add to the symbol map ``sigma`` and the state map ``smap`` every pair
    they force.  A symbol at a mapped state fits a symbol of the image state
    that is its image, or else unused with the same usage count, and whose
    target is its own target's image, or else no image yet.  Returns ``None``
    once both maps are complete, else a symbol and its fits (none on a
    contradiction) to branch on; the maps only ever gain items."""
    used, image = set(sigma.values()), set(smap.values())
    while True:
        forced, pending = False, None
        order = list(smap)
        for p in order:  # grows as targets are mapped, so one pass can map all
            here, there = ma[p], mb[smap[p]]
            if len(here) != len(there):
                return None, []
            free = [t for t in there if t not in used]
            for s, x in here.items():
                mapped, image_x = s in sigma, smap.get(x)
                fits = []
                for t in [sigma[s]] if mapped else free:
                    u = there.get(t)
                    if (u is not None and (u == image_x if image_x is not None else u not in image)
                            and (mapped or t not in used and ub[t] == ua[s])):
                        fits.append(t)
                        if len(fits) > 1 and pending is not None:
                            break  # only the first pending symbol's fits are kept
                if len(fits) > 1:
                    pending = pending or (s, fits)
                elif not fits:
                    return None, []
                elif not mapped or image_x is None:
                    t = fits[0]
                    sigma[s], smap[x], forced = t, there[t], True
                    used.add(t)
                    image.add(there[t])
                    if image_x is None:
                        order.append(x)
        if pending is None or not forced:
            return pending


def equivalent(a: Automaton, b: Automaton,
               symbol_map: Optional[dict[str, str]] = None) -> bool:
    """Rooted isomorphism of the reachable graphs, up to a bijective
    renaming of input symbols.  Output maps are not compared; the graph
    structure and arrow label sets are.

    Symbols and states are mapped together from the initial pair, and the
    search branches on one symbol's fits only once nothing more is forced.
    A ``symbol_map`` fixes the renaming of the used symbols (if partial or
    not injective, the answer is ``False``): nothing branches, and the check
    is one O(transitions) pass.  Without it, a renamed copy is found fast,
    but refuting a near-miss on a very symmetric graph, such as a product
    of equal modules, can take exponential time.
    """
    if symbol_map is not None and not hasattr(symbol_map, "get"):
        raise InvalidArgument(f"symbol_map must be a dict, got {symbol_map!r}")
    for g in (a, b):  # move tables of the reached states, all by index
        if g.initial is None:
            raise MissingInitial(g.name)
    ma, mb = ({i: dict(row) for i, row in core._reached(g, g.initial).items()} for g in (a, b))
    if len(ma) != len(mb):
        return False
    ua, ub = (Counter(s for moves in m.values() for s in moves) for m in (ma, mb))
    if sorted(ua.values()) != sorted(ub.values()):
        return False
    at = {t: i for i, t in enumerate(b.input_alphabet)}
    image = {} if symbol_map is None else {s: symbol_map.get(a.input_alphabet[s]) for s in ua}
    sigma = {s: at[t] for s, t in image.items() if core._has(at, t)}
    if len(sigma) < len(image) or len(set(sigma.values())) < len(sigma):
        return False  # ``symbol_map`` is partial, not injective or not into ``b``'s symbols
    # Depth-first on an explicit stack, as products can have thousands of symbols.
    # Per branch point: map sizes to truncate back to, its symbol, untried fits.
    smap, stack = {a.states.index(a.initial): b.states.index(b.initial)}, []
    while (branch := _propagate(ma, mb, ua, ub, sigma, smap)) is not None:
        stack.append((len(sigma), len(smap), branch[0], iter(branch[1])))
        while (t := next(stack[-1][3], None)) is None:
            stack.pop()
            if not stack:
                return False
        n_sigma, n_smap, s, _ = stack[-1]
        sigma = dict([*itertools.islice(sigma.items(), n_sigma), (s, t)])
        smap = dict(itertools.islice(smap.items(), n_smap))
    return True
