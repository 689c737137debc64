"""Line-oriented text formats for automata (``.aut``), machines (``.tm``)
and wirings (``.wiring``).

All three formats share the same lexical rules: UTF-8 text, whitespace
separated tokens, ``#`` starts a comment anywhere on a line.  A file
opens with ``<header> <name>`` and every later line is a directive: a
keyword and its tokens.  Each format's grammar is one table below, which
gives every keyword its token count, the usage message raised when the
count is wrong, and whether it may appear only once.  One pass groups the
lines by keyword and raises the first syntax error in file order; only
then does a parser check what the directives mean.  A wiring loads its
module files, named relative to the wiring file, before it checks its
``connect`` mappings.  Line numbers are found only for a refused file.
An automaton text is parsed once while a caller holds its model (see
:func:`parse_automaton`); a text that is not a ``str`` is refused.
"""

from __future__ import annotations

import math
import os
import weakref
from typing import TYPE_CHECKING, Iterator, Optional

import autodiss as ad

from .core import Automaton, validate
from .dissipation import PROB_SUM_TOL, InputModel, _weights
from .errors import InvalidArgument, ParseError, ValidationError

if TYPE_CHECKING:  # read through the package by the parsers that build them
    from .composition import Wiring
    from .turing import TuringMachine


# A format's grammar: keyword -> (least, most, usage, once).  A directive
# holds least..most tokens after its keyword (``most`` None: no bound),
# else its usage message is raised; a ``once`` keyword may not repeat.
_AUTOMATON_GRAMMAR = {
    "inputs": (0, None, "", False),
    "outputs": (0, None, "", False),
    "states": (0, None, "", False),
    "initial": (1, 1, "initial takes one state", True),
    "output": (2, 2, "output takes <state> <symbol>", False),
    "trans": (3, 3, "trans takes <state> <insym> <state>", False),
    "prob": (3, 3, "prob takes <state> <insym> <p>", False),
}
_MACHINE_GRAMMAR = {
    "blank": (1, 1, "blank takes one symbol", True),
    "tape": (0, None, "", False),
    "states": (0, None, "", False),
    "initial": (1, 1, "initial takes one state", True),
    "halting": (0, None, "", False),
    "rule": (5, 5, "rule takes <state> <read> <state> <write> <move>", False),
}
_WIRING_GRAMMAR = {
    "module": (2, 2, "module takes <name> <file>", False),
    "connect": (2, None, "connect takes <src> <dst> [out=in ...]", False),
    "constant": (2, 2, "constant takes <module> <insym>", False),
    "initial": (2, 2, "initial takes <module> <state>", False),
}
# The automaton parses some caller still holds, by text: each model holds its automaton.
_PARSES = weakref.WeakValueDictionary()


def _tokens(text: str):
    """Each line's tokens, its comment cut off: one list per line of ``text``."""
    lines = text.splitlines()
    return map(str.split, [line.partition("#")[0] for line in lines] if "#" in text else lines)


def _read(text: str, header: str, grammar: dict) -> tuple[str, dict[str, list]]:
    """The name after ``header`` and, per keyword of ``grammar``, the
    tokens after the keyword of each of its directives, in file order.

    Raises the first syntax error in file order: a missing or wrong
    header, an unknown directive, a token count outside the keyword's
    rule, or a second directive of a ``once`` keyword.
    """
    if not isinstance(text, str):
        raise InvalidArgument(f"text must be a str, got {type(text).__name__}")
    lines = filter(None, _tokens(text))
    head = next(lines, None)
    if head is None:
        raise ParseError(0, "empty file")
    if head[0] != header or len(head) != 2:
        raise ParseError(_line(text), f"{header} takes exactly one name" if head[0] == header
                         else f"expected {header!r} header, got {head[0]!r}")
    found: dict[str, list] = {key: [] for key in grammar}
    for tokens in lines:
        key = tokens.pop(0)
        try:
            found[key].append(tokens)
        except KeyError:
            found[key] = [tokens]
    refused = []  # (key, entry, message) of each keyword's first error
    for key, (least, most, usage, once) in grammar.items():
        entries = found[key]
        counts = {*map(len, entries)} if usage else ()  # only a keyword with a usage has bounds
        if counts and counts != {least} and (
                min(counts) < least or most is not None and max(counts) > most):
            k = [least <= n <= (n if most is None else most) for n in map(len, entries)].index(False)
            refused.append((key, k, usage) if k < 2 or not once else (key, 1, f"{key} declared twice"))
        elif once and len(entries) > 1:
            refused.append((key, 1, f"{key} declared twice"))
    if len(found) > len(grammar):
        refused += [(key, 0, f"unknown directive {key!r}") for key in found if key not in grammar]
    if refused:
        raise ParseError(*min((_line(text, key, k), message) for key, k, message in refused))
    return head[1], found


def _line(text: str, key: Optional[str] = None, k: int = 0) -> int:
    """The line of the ``k``-th ``key`` directive of ``text``, or of its header:
    only a refusal reads the text again, through ``_tokens``, to name its line."""
    lines = [(n, tokens[0]) for n, tokens in enumerate(_tokens(text), start=1) if tokens]
    return lines[0][0] if key is None else [n for n, first in lines[1:] if first == key][k]


def _joined(entries: list) -> list[str]:
    """Every token of a list directive's lines, in file order."""
    return [token for tokens in entries for token in tokens]


def _single(entries: list) -> Optional[str]:
    """The one token of a once-only directive, or None when it is absent."""
    return entries[0][0] if entries else None


# The directive holding each argument of ``validate`` and ``make_machine``,
# and whether each of its tokens, not each line, is one entry of it.
_DIRECTIVE_OF = {"input_alphabet": ("inputs", True), "output_alphabet": ("outputs", True),
                 "states": ("states", True), "initial": ("initial", False),
                 "output_map": ("output", False), "transitions": ("trans", False),
                 "tape_alphabet": ("tape", True), "blank": ("blank", False),
                 "control_states": ("states", True), "halting": ("halting", True),
                 "rules": ("rule", False)}


def _line_of(e: ValidationError, text: str, found: dict) -> int:
    """The line of the entry that ``e`` rejects."""
    key, per_token = _DIRECTIVE_OF[e.entry[0]]
    entries = [k for k, tokens in enumerate(found[key]) for _ in range(len(tokens) if per_token else 1)]
    return _line(text, key, entries[e.entry[1]])


def parse_automaton(text: str) -> tuple[Automaton, InputModel]:
    """Parse automaton text; returns the automaton and its input model
    (uniform unless ``prob`` directives override it).  An error of
    :func:`validate` becomes the ``__cause__`` of a :class:`ParseError`.
    While a caller holds the model of an equal text's parse, returns that
    parse unread; a refused text is never kept, so it is refused each time."""
    if isinstance(text, str) and (held := _PARSES.get(text)) is not None:
        return held.automaton, held
    name, found = _read(text, "automaton", _AUTOMATON_GRAMMAR)
    output_map = dict(found["output"])
    if len(output_map) < len(found["output"]):  # refused on the first repeat of a state
        firsts: dict[str, int] = {}
        k = next(k for k, (q, _) in enumerate(found["output"]) if firsts.setdefault(q, k) != k)
        raise ParseError(_line(text, "output", k), f"output of {found['output'][k][0]!r} declared twice")
    try:
        auto = validate(
            name=name,
            input_alphabet=_joined(found["inputs"]),
            output_alphabet=_joined(found["outputs"]),
            states=_joined(found["states"]),
            initial=_single(found["initial"]),
            output_map=output_map,
            transitions=found["trans"],
        )
    except ValidationError as e:
        raise ParseError(_line_of(e, text, found), str(e)) from e

    # Weights per merged arrow, summed over its labels; one line per label.
    given: dict[str, dict[tuple[str, str], float]] = {}
    targets: dict[int, dict[str, int]] = {}  # symbol -> target index, per state read
    declared = set()
    for k, (q, sym, p) in enumerate(found["prob"]):
        i = auto.index.get(q)
        if i is None:
            raise ParseError(_line(text, "prob", k), f"unknown state {q!r}")
        if i not in targets:
            targets[i] = {auto.input_alphabet[s]: j for s, j in auto.moves[i]}
        t = targets[i].get(sym)
        if t is None:
            raise ParseError(_line(text, "prob", k), f"no transition from {q!r} on {sym!r}")
        if (q, sym) in declared:
            raise ParseError(_line(text, "prob", k), f"prob of {q!r} on {sym!r} declared twice")
        declared.add((q, sym))
        try:
            weight = float(p)
        except ValueError:
            raise ParseError(_line(text, "prob", k), f"bad probability {p!r}") from None
        if not math.isfinite(weight):
            raise ParseError(_line(text, "prob", k), f"non-finite probability {p!r}")
        if weight < 0:
            raise ParseError(_line(text, "prob", k), f"negative probability {p!r}")
        dist, arrow = given.setdefault(q, {}), (q, auto.states[t])
        dist[arrow] = dist.get(arrow, 0.0) + weight
        if not math.isfinite(dist[arrow]):
            raise ParseError(_line(text, "prob", k), f"probabilities on arrow {arrow} sum to {dist[arrow]!r}")
    for q, dist in given.items():  # a row off 1 is refused on the state's last prob line
        if abs(sum(dist.values()) - 1.0) > PROB_SUM_TOL:  # summed as from_arrow_probs sums
            k = max(k for k, (q2, _, _) in enumerate(found["prob"]) if q2 == q)
            raise ParseError(_line(text, "prob", k),
                             f"probabilities for state {q!r} sum to {sum(dist.values())!r}")

    model = _PARSES[text] = InputModel.from_arrow_probs(auto, given)
    return auto, model


def write_automaton(a: Automaton, model: Optional[InputModel] = None) -> str:
    """Canonical text form; parsing it back yields an equal automaton and,
    given ``model``, the same weights.

    Raises :class:`ValidationError` for a name, symbol or state that is
    empty or holds whitespace or ``#``, since it would not read back as
    one token, and :class:`InvalidDistribution` for a model of another graph.
    """
    return "".join(_automaton_lines(a, model))


def _automaton_lines(a: Automaton, model: Optional[InputModel] = None) -> Iterator[str]:
    """``write_automaton``'s text one line at a time, each ending in a newline;
    its errors are raised before the first line is yielded."""
    for token in (a.name, *a.input_alphabet, *a.output_alphabet, *a.states):
        if "#" in token or token.split() != [token]:
            raise ValidationError(f"token {token!r} has no text form: it is empty "
                                  "or holds whitespace or '#'")
    weights = None if model is None else _weights(a, model)
    yield f"automaton {a.name}\n"
    if a.input_alphabet:
        yield "inputs " + " ".join(a.input_alphabet) + "\n"
    if a.output_alphabet:
        yield "outputs " + " ".join(a.output_alphabet) + "\n"
    yield "states " + " ".join(a.states) + "\n"
    if a.initial is not None:
        yield f"initial {a.initial}\n"
    for q in a.states:
        yield f"output {q} {a.output_map[q]}\n"
    for q, row in zip(a.states, a.moves):  # each row in alphabet order
        for s, t in row:
            yield f"trans {q} {a.input_alphabet[s]} {a.states[t]}\n"
    if weights is not None:  # the rows that are not uniform, by each arrow's first label
        for q, row in zip(a.states, weights):
            if any(p != 1.0 / len(row) for p in row):
                for ar, p in zip(a.by_source[q], row):
                    yield f"prob {q} {ar.labels[0]} {p!r}\n"


def _text(path: str) -> str:
    """A file's text; a byte that is not UTF-8 is refused on its line, naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:  # the bytes before it decode; count lines as _read does
        line = len((data[: e.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8 text ({e.reason})", path=path) from None


def load_automaton(path: str) -> tuple[Automaton, InputModel]:
    return parse_automaton(_text(path))


def parse_machine(text: str) -> TuringMachine:
    """Parse machine text.  An error of :func:`make_machine` becomes the
    ``__cause__`` of a :class:`ParseError`."""
    name, found = _read(text, "tm", _MACHINE_GRAMMAR)
    blank, initial = _single(found["blank"]), _single(found["initial"])
    if blank is None:
        raise ParseError(0, "missing blank directive")
    if initial is None:
        raise ParseError(0, "missing initial directive")
    try:
        return ad.turing.make_machine(
            name=name,
            tape_alphabet=_joined(found["tape"]),
            blank=blank,
            control_states=_joined(found["states"]),
            initial=initial,
            halting=_joined(found["halting"]),
            rules=found["rule"],
        )
    except ValidationError as e:
        raise ParseError(_line_of(e, text, found), str(e)) from e


def load_machine(path: str) -> TuringMachine:
    return parse_machine(_text(path))


def parse_wiring(text: str, base_dir: str = ".") -> Wiring:
    """Parse a wiring file, loading the module automata it references.

    A module file's :class:`ParseError`, its only error, is raised again
    with that file as ``path``; a module file that cannot be read is
    refused on its ``module`` line.  The modules' models are held until it
    returns, so a file named again is parsed once.
    """
    name, found = _read(text, "wiring", _WIRING_GRAMMAR)
    modules: list[tuple[str, Automaton]] = []
    models = []  # kept alive until return, so that the memo serves a file named again
    for k, (inst, rel) in enumerate(found["module"]):
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        try:
            auto, model = load_automaton(path)
        except OSError as e:
            raise ParseError(_line(text, "module", k), f"cannot read module file: {e}") from None
        except ParseError as e:
            raise ParseError(e.line_number, e.message, path=path) from e.__cause__
        modules.append((inst, auto))
        models.append(model)
    connections: list[ad.composition.Connection] = []
    for k, (src, dst, *pairs) in enumerate(found["connect"]):
        mapping = {}
        for pair in pairs:
            if "=" not in pair:
                raise ParseError(_line(text, "connect", k), f"bad mapping {pair!r}, want out=in")
            out_sym, in_sym = pair.split("=", 1)
            if out_sym in mapping:
                raise ParseError(_line(text, "connect", k), f"output {out_sym!r} mapped twice")
            mapping[out_sym] = in_sym
        connections.append(ad.composition.Connection(src, dst, mapping))
    initials: dict[str, str] = {}
    for k, (inst, state) in enumerate(found["initial"]):
        if inst in initials:
            raise ParseError(_line(text, "initial", k), f"initial of {inst!r} declared twice")
        initials[inst] = state
    return ad.composition.Wiring(
        name=name,
        modules=tuple(modules),
        connections=tuple(connections),
        constants=tuple(map(tuple, found["constant"])),
        initials=initials,
    )


def load_wiring(path: str) -> Wiring:
    return parse_wiring(_text(path), base_dir=os.path.dirname(path) or ".")
