"""Deterministic Graphviz rendering of automaton graphs.

Nodes are sorted by state id and labeled ``state/output``; edges are
sorted by (source, target) and labeled with their sorted symbols.
Divergent states are double-circled, convergent states shaded.  The
output is byte-identical across runs for the same automaton.
"""

from __future__ import annotations

from .core import Automaton, convergent_states, divergent_states


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: Automaton) -> str:
    divergent = divergent_states(a)
    convergent = convergent_states(a)
    lines = [f"digraph {_quote(a.name)} {{", "  rankdir=LR;"]
    if a.initial is not None:
        lines.append('  __start__ [shape=point, label=""];')
    for q in sorted(a.states):
        attrs = [f"label={_quote(q + '/' + a.output_map[q])}"]
        attrs.append(
            "shape=doublecircle" if q in divergent else "shape=circle"
        )
        if q in convergent:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        lines.append(f"  {_quote(q)} [{', '.join(attrs)}];")
    if a.initial is not None:
        lines.append(f"  __start__ -> {_quote(a.initial)};")
    for ar in a.arrows:  # in (source, target) order, as Automaton.arrows sorts them
        label = ",".join(ar.labels)
        lines.append(f"  {_quote(ar.source)} -> {_quote(ar.target)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
