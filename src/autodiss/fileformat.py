"""Line-oriented text formats for automata, machines and wirings.

All three formats share the same lexical rules: UTF-8 text, whitespace
separated tokens, ``#`` starts a comment anywhere on a line.  Parse
errors carry line numbers.

Automaton files (``.aut``)::

    automaton <name>
    inputs <sym> ...
    outputs <sym> ...
    states <id> ...
    initial <id>
    output <state> <sym>            # one per state
    trans <state> <insym> <state>   # repeatable; arrows merge on load
    prob <state> <insym> <p>        # optional arrow probabilities

Machine files (``.tm``)::

    tm <name>
    blank <sym>
    tape <sym> ...
    states <id> ...
    initial <id>
    halting <id> ...
    rule <state> <read> <state> <write> <L|R|N>

Wiring files (``.wiring``)::

    wiring <name>
    module <instname> <file.aut>    # path relative to the wiring file
    connect <src> <dst> [out=in ...]
    constant <module> <insym>
    initial <module> <state>
"""

from __future__ import annotations

import math
import os
from typing import Optional

from .composition import Connection, Wiring
from .core import Automaton, validate
from .dissipation import InputModel
from .errors import AutomataError, ParseError, ValidationError
from .turing import TuringMachine, make_machine


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _collect(text: str, header: str) -> list[tuple[int, list[str]]]:
    directives = list(_lines(text))
    if not directives:
        raise ParseError(0, "empty file")
    lineno, first = directives[0]
    if first[0] != header:
        raise ParseError(lineno, f"expected {header!r} header, got {first[0]!r}")
    if len(first) != 2:
        raise ParseError(lineno, f"{header} takes exactly one name")
    return directives


def parse_automaton(text: str) -> tuple[Automaton, InputModel]:
    """Parse automaton text; returns the automaton and its input model
    (uniform unless ``prob`` directives override it)."""
    directives = _collect(text, "automaton")
    name = directives[0][1][1]

    inputs: list[str] = []
    outputs: list[str] = []
    states: list[str] = []
    initial: Optional[str] = None
    output_lines: list[tuple[int, list[str]]] = []
    trans_lines: list[tuple[int, list[str]]] = []
    prob_lines: list[tuple[int, list[str]]] = []

    for lineno, tokens in directives[1:]:
        key, rest = tokens[0], tokens[1:]
        if key == "inputs":
            inputs.extend(rest)
        elif key == "outputs":
            outputs.extend(rest)
        elif key == "states":
            states.extend(rest)
        elif key == "initial":
            if len(rest) != 1:
                raise ParseError(lineno, "initial takes one state")
            if initial is not None:
                raise ParseError(lineno, "initial declared twice")
            initial = rest[0]
        elif key == "output":
            if len(rest) != 2:
                raise ParseError(lineno, "output takes <state> <symbol>")
            output_lines.append((lineno, rest))
        elif key == "trans":
            if len(rest) != 3:
                raise ParseError(lineno, "trans takes <state> <insym> <state>")
            trans_lines.append((lineno, rest))
        elif key == "prob":
            if len(rest) != 3:
                raise ParseError(lineno, "prob takes <state> <insym> <p>")
            prob_lines.append((lineno, rest))
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    state_set = set(states)
    input_set = set(inputs)
    output_set = set(outputs)
    output_map: dict[str, str] = {}
    for lineno, (q, r) in output_lines:
        if q not in state_set:
            raise ParseError(lineno, f"unknown state {q!r}")
        if r not in output_set:
            raise ParseError(lineno, f"unknown output symbol {r!r}")
        if q in output_map:
            raise ParseError(lineno, f"output of {q!r} declared twice")
        output_map[q] = r

    transitions: list[tuple[str, str, str]] = []
    seen: dict[tuple[str, str], tuple[int, str]] = {}
    for lineno, (src, sym, tgt) in trans_lines:
        for q in (src, tgt):
            if q not in state_set:
                raise ParseError(lineno, f"unknown state {q!r}")
        if sym not in input_set:
            raise ParseError(lineno, f"unknown input symbol {sym!r}")
        prior = seen.get((src, sym))
        if prior is not None and prior[1] != tgt:
            raise ParseError(
                lineno, f"({src!r}, {sym!r}) already goes to {prior[1]!r} (line {prior[0]})"
            )
        seen[(src, sym)] = (lineno, tgt)
        transitions.append((src, sym, tgt))

    auto = validate(
        name=name,
        input_alphabet=inputs,
        output_alphabet=outputs,
        states=states,
        initial=initial,
        output_map=output_map,
        transitions=transitions,
    )

    given: dict[str, dict[tuple[str, str], float]] = {}
    for lineno, (q, sym, p) in prob_lines:
        if q not in state_set:
            raise ParseError(lineno, f"unknown state {q!r}")
        tgt = auto.transitions.get((q, sym))
        if tgt is None:
            raise ParseError(lineno, f"no transition from {q!r} on {sym!r}")
        try:
            weight = float(p)
        except ValueError:
            raise ParseError(lineno, f"bad probability {p!r}") from None
        if not math.isfinite(weight):
            raise ParseError(lineno, f"non-finite probability {p!r}")
        if weight < 0:
            raise ParseError(lineno, f"negative probability {p!r}")
        dist = given.setdefault(q, {})
        dist[(q, tgt)] = dist.get((q, tgt), 0.0) + weight

    model = InputModel.from_arrow_probs(auto, given)
    return auto, model


def write_automaton(a: Automaton, model: Optional[InputModel] = None) -> str:
    """Canonical text form; parsing it back yields an equal automaton.

    Raises :class:`ValidationError` for a name, symbol or state that is
    empty or holds whitespace or ``#``, since it would not read back as
    one token.
    """
    for token in (a.name, *a.input_alphabet, *a.output_alphabet, *a.states):
        if "#" in token or token.split() != [token]:
            raise ValidationError(f"token {token!r} has no text form: it is empty "
                                  "or holds whitespace or '#'")
    lines = [f"automaton {a.name}"]
    if a.input_alphabet:
        lines.append("inputs " + " ".join(a.input_alphabet))
    if a.output_alphabet:
        lines.append("outputs " + " ".join(a.output_alphabet))
    lines.append("states " + " ".join(a.states))
    if a.initial is not None:
        lines.append(f"initial {a.initial}")
    for q in a.states:
        lines.append(f"output {q} {a.output_map[q]}")
    for q in a.states:
        for s in a.input_alphabet:
            if (q, s) in a.transitions:
                lines.append(f"trans {q} {s} {a.transitions[(q, s)]}")
    if model is not None:
        uniform = InputModel.uniform(a)
        for q in a.states:
            if model.probs.get(q) and model.probs[q] != uniform.probs[q]:
                for ar in a.by_source[q]:
                    p = model.arrow_probability(q, ar)
                    lines.append(f"prob {q} {ar.labels[0]} {p!r}")
    return "\n".join(lines) + "\n"


def load_automaton(path: str) -> tuple[Automaton, InputModel]:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def parse_machine(text: str) -> TuringMachine:
    directives = _collect(text, "tm")
    name = directives[0][1][1]
    blank: Optional[str] = None
    tape: list[str] = []
    states: list[str] = []
    initial: Optional[str] = None
    halting: list[str] = []
    rules: list[tuple[str, str, str, str, str]] = []
    for lineno, tokens in directives[1:]:
        key, rest = tokens[0], tokens[1:]
        if key == "blank":
            if len(rest) != 1:
                raise ParseError(lineno, "blank takes one symbol")
            if blank is not None:
                raise ParseError(lineno, "blank declared twice")
            blank = rest[0]
        elif key == "tape":
            tape.extend(rest)
        elif key == "states":
            states.extend(rest)
        elif key == "initial":
            if len(rest) != 1:
                raise ParseError(lineno, "initial takes one state")
            if initial is not None:
                raise ParseError(lineno, "initial declared twice")
            initial = rest[0]
        elif key == "halting":
            halting.extend(rest)
        elif key == "rule":
            if len(rest) != 5:
                raise ParseError(lineno, "rule takes <state> <read> <state> <write> <move>")
            rules.append(tuple(rest))  # type: ignore[arg-type]
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if blank is None:
        raise ParseError(0, "missing blank directive")
    if initial is None:
        raise ParseError(0, "missing initial directive")
    return make_machine(
        name=name,
        tape_alphabet=tape,
        blank=blank,
        control_states=states,
        initial=initial,
        halting=halting,
        rules=rules,
    )


def load_machine(path: str) -> TuringMachine:
    with open(path, encoding="utf-8") as fh:
        return parse_machine(fh.read())


def parse_wiring(text: str, base_dir: str = ".") -> Wiring:
    """Parse a wiring file, loading the module automata it references.

    An error inside a module file names that file: a :class:`ParseError`
    carries it as ``path``, and any other :class:`AutomataError` keeps its
    type, gains a ``path`` attribute and has its message prefixed with it.
    """
    directives = _collect(text, "wiring")
    name = directives[0][1][1]
    modules: list[tuple[str, Automaton]] = []
    connections: list[Connection] = []
    constants: list[tuple[str, str]] = []
    initials: dict[str, str] = {}
    for lineno, tokens in directives[1:]:
        key, rest = tokens[0], tokens[1:]
        if key == "module":
            if len(rest) != 2:
                raise ParseError(lineno, "module takes <name> <file>")
            inst, rel = rest
            path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
            try:
                auto, _ = load_automaton(path)
            except OSError as e:
                raise ParseError(lineno, f"cannot read module file: {e}") from None
            except ParseError as e:
                raise ParseError(e.line_number, e.message, path=path) from None
            except AutomataError as e:
                # A validation error keeps its type and gains the file name.
                e.path = path
                e.args = (f"{path}: {e}",)
                raise
            modules.append((inst, auto))
        elif key == "connect":
            if len(rest) < 2:
                raise ParseError(lineno, "connect takes <src> <dst> [out=in ...]")
            mapping = {}
            for pair in rest[2:]:
                if "=" not in pair:
                    raise ParseError(lineno, f"bad mapping {pair!r}, want out=in")
                out_sym, in_sym = pair.split("=", 1)
                if out_sym in mapping:
                    raise ParseError(lineno, f"output {out_sym!r} mapped twice")
                mapping[out_sym] = in_sym
            connections.append(Connection(rest[0], rest[1], mapping))
        elif key == "constant":
            if len(rest) != 2:
                raise ParseError(lineno, "constant takes <module> <insym>")
            constants.append((rest[0], rest[1]))
        elif key == "initial":
            if len(rest) != 2:
                raise ParseError(lineno, "initial takes <module> <state>")
            if rest[0] in initials:
                raise ParseError(lineno, f"initial of {rest[0]!r} declared twice")
            initials[rest[0]] = rest[1]
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    return Wiring(
        name=name,
        modules=tuple(modules),
        connections=tuple(connections),
        constants=tuple(constants),
        initials=initials,
    )


def load_wiring(path: str) -> Wiring:
    with open(path, encoding="utf-8") as fh:
        return parse_wiring(fh.read(), base_dir=os.path.dirname(path) or ".")
