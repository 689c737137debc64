"""Seeded fuzzing of the three text parsers: on any input, only an
``AutomataError`` may escape, and an automaton or machine file's refusal
is a ``ParseError`` that names one of its lines.

Inputs are token soup in each grammar (directive keywords followed by
words from a shared pool), mutations of the bundled asset files and of
one automaton with arrow probabilities (lines dropped, repeated or
swapped, tokens replaced), and that automaton under every assignment of
the pool's numbers to its weights.  Wirings are
parsed against a directory that does not exist, so every module line
fails to load.
"""

import itertools
import os
import random

import pytest

from autodiss.assets import asset_names, asset_path
from autodiss.errors import AutomataError, ParseError
from autodiss import fileformat
from autodiss.fileformat import parse_automaton, parse_machine, parse_wiring

GRAMMARS = {
    ".aut": ("automaton", ("inputs", "outputs", "states", "initial", "output", "trans", "prob"),
             parse_automaton),
    ".tm": ("tm", ("blank", "tape", "states", "initial", "halting", "rule"), parse_machine),
    ".wiring": ("wiring", ("module", "connect", "constant", "initial"),
                lambda text: parse_wiring(text, base_dir=os.path.join("no", "such", "dir"))),
}

POOL = ["q", "r", "0", "1", "_", "a", "x", "o", "ck", "L", "R", "N", "X", "0.5", "-1", "1e400",
        "1e308", "nan", "inf", "a=x", "=", "x=", "(q,r)", "q|r", "é", "#", "automaton", "tm",
        "wiring"]


# No bundled automaton sets arrow probabilities.
PROB_SEED = """automaton skew
inputs x y z
outputs o0 o1
states q0 q1
initial q0
output q0 o0
output q1 o1
trans q0 x q0
trans q0 y q1
trans q0 z q1
trans q1 x q0
prob q0 x 0.25
prob q0 y 0.5
prob q0 z 0.25
"""


def _seeds():
    seeds = {ext: [] for ext in GRAMMARS}
    seeds[".aut"].append(PROB_SEED.splitlines())
    for name in asset_names():
        ext = os.path.splitext(name)[1]
        if ext in seeds:
            with open(asset_path(name), encoding="utf-8") as fh:
                seeds[ext].append(fh.read().splitlines())
    return seeds


def _soup(rng, header, keys, pool):
    lines = [f"{header} {rng.choice(pool)}"] if rng.random() < 0.9 else []
    for _ in range(rng.randint(0, 12)):
        key = rng.choice(keys) if rng.random() < 0.9 else rng.choice(pool)
        lines.append(" ".join([key] + rng.choices(pool, k=rng.randint(0, 5))))
    return "\n".join(lines)


def _mutant(rng, lines, pool):
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, rng.choice(lines))
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(pool)
            lines[i] = " ".join(words)
        if not lines:
            break
    return "\n".join(lines)


# The refusals of a whole file, which have no line of their own.
NO_LINE = {"missing blank directive", "missing initial directive"}


def _check_refusal(error, text):
    """``error`` names a line of ``text`` that holds a directive, or line
    0 of a file with none or of one that lacks a required directive."""
    assert isinstance(error, ParseError), repr(error)
    directives = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    if error.line_number == 0:
        assert error.message in NO_LINE or (
            error.message == "empty file" and not any(directives)), (error, text)
    else:
        assert 1 <= error.line_number <= len(directives), (error, text)
        assert directives[error.line_number - 1], (error, text)


def _is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


def _weightings():
    """``PROB_SEED`` with every assignment of the pool's numbers to its
    three weights, so that any two of them meet on one arrow; random
    mutants rarely replace two chosen tokens."""
    numbers = [w for w in POOL if _is_number(w)]
    head = [line for line in PROB_SEED.splitlines() if not line.startswith("prob")]
    return ["\n".join(head + [f"prob q0 {s} {p}" for s, p in zip("xyz", ps)])
            for ps in itertools.product(numbers, repeat=3)]


def _corpus(seed):
    """Per format, its extension and 6,000 seeded texts (token soup and
    mutants of the seed files, alternating), plus ``_weightings``."""
    rng = random.Random(seed)
    seeds = _seeds()
    for ext, (header, keys, _) in GRAMMARS.items():
        pool = POOL + sorted({w for text in seeds[ext] for line in text for w in line.split()})
        texts = [_soup(rng, header, keys, pool) if case % 2
                 else _mutant(rng, rng.choice(seeds[ext]), pool) for case in range(6000)]
        yield ext, texts + (_weightings() if ext == ".aut" else [])


def test_parsers_raise_only_automata_errors():
    for ext, texts in _corpus(53):
        parse = GRAMMARS[ext][2]
        parsed, refusals = 0, set()
        for text in texts:
            try:
                parse(text)
            except AutomataError as e:
                if ext != ".wiring":
                    _check_refusal(e, text)
                refusals.add(str(e))
                continue
            parsed += 1
        # mutants that stay valid reach the builders behind the parser
        assert parsed > 30, ext
        if ext == ".aut":  # two finite weights of one arrow whose sum overflows
            assert "line 14: probabilities on arrow ('q0', 'q1') sum to inf" in refusals


TABLES = {".aut": fileformat._AUTOMATON_GRAMMAR, ".tm": fileformat._MACHINE_GRAMMAR,
          ".wiring": fileformat._WIRING_GRAMMAR}


def _reference_read(text, header, grammar):
    """The reader written as a line generator and a pass over its list,
    kept as the reference that ``fileformat._read`` must match."""
    def lines():
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield i, line.split()

    directives = list(lines())
    if not directives:
        raise ParseError(0, "empty file")
    lineno, first = directives[0]
    if first[0] != header:
        raise ParseError(lineno, f"expected {header!r} header, got {first[0]!r}")
    if len(first) != 2:
        raise ParseError(lineno, f"{header} takes exactly one name")
    found = {key: [] for key in grammar}
    for lineno, (key, *rest) in directives[1:]:
        if key not in grammar:
            raise ParseError(lineno, f"unknown directive {key!r}")
        least, most, usage, once = grammar[key]
        if len(rest) < least or (most is not None and len(rest) > most):
            raise ParseError(lineno, usage)
        if once and found[key]:
            raise ParseError(lineno, f"{key} declared twice")
        found[key].append(rest)
    return first[1], found


def _outcome(read, text, ext):
    try:
        return read(text, GRAMMARS[ext][0], TABLES[ext])
    except ParseError as e:
        return e.line_number, e.message


# Lexical corners: comments, Unicode whitespace and line breaks.
EDGES = ["", "  \n# only a comment\n\t\n", "#\nautomaton a b", "automaton a#b\ninputs x#y z",
         "automaton\ta\r\ninputs x\x0cy\u00a0z\r\n", "automaton a\u2028inputs x\x1cstates q",
         "automaton a\n  # \ninitial q # r\ninitial", "# c\n\n  automaton   a  # b\noutputs"]


def test_reader_matches_the_reference():
    for ext, texts in _corpus(53):
        for text in texts + [e.replace("automaton", GRAMMARS[ext][0]) for e in EDGES]:
            expected = _outcome(_reference_read, text, ext)
            assert _outcome(fileformat._read, text, ext) == expected, text


def test_fuzzed_keywords_are_the_grammar_tables():
    """A keyword added to a format's table is fuzzed, or this fails."""
    for ext, (_, keys, _) in GRAMMARS.items():
        assert sorted(keys) == sorted(TABLES[ext]), ext


def _refusal(parse, text):
    try:
        parse(text)
    except ParseError as e:
        return e.line_number, e.message
    raise AssertionError(f"parsed: {text!r}")


def test_an_earlier_bad_count_wins_over_a_later_unknown_directive():
    bad_count = "automaton a\ninputs x\ntrans q x\nbogus 1\n"
    assert _refusal(parse_automaton, bad_count) == (3, "trans takes <state> <insym> <state>")
    unknown_first = "automaton a\nbogus 1\ntrans q x\n"
    assert _refusal(parse_automaton, unknown_first) == (2, "unknown directive 'bogus'")
    assert _refusal(parse_machine, "tm t\nrule a b\nblank _\nblank _\n") == (
        2, "rule takes <state> <read> <state> <write> <move>")


def test_a_bad_count_outranks_a_repeat_on_its_line():
    assert _refusal(parse_automaton, "automaton a\ninitial q\ninitial a b\n") == (
        3, "initial takes one state")
    assert _refusal(parse_automaton, "automaton a\ninitial q\ninitial r\ninitial a b\n") == (
        3, "initial declared twice")
    assert _refusal(parse_machine, "tm t\nblank _\nblank\n") == (3, "blank takes one symbol")


# Line breaks that ``str.splitlines`` counts, each ending one line of a case.
BREAKS = ["\n", "\r\n", "\u2028", "\r", "\x0c"]


def _text(lines):
    """``lines`` joined by ``BREAKS`` in turn."""
    return "".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(lines))


AUT_HEAD = ["# automaton under test", "automaton a  # name", "inputs x y", "",
            "outputs o0 o1 # two", "states q0 q1", "  # q1 is last", "output q0 o0"]

# (parse, lines, the 1-based line refused, message, up to an OS error's
# detail); lines are counted as ``splitlines`` counts them, comments and
# blank lines included.
REFUSED_LINES = [
    (parse_automaton, AUT_HEAD + ["output q1 o1", "trans q0 x q1 # ok", "# gap", "trans q0 y q9"],
     12, "state 'q9' is not declared (transition target)"),
    (parse_automaton, AUT_HEAD + ["# again", "output q0 o1"], 10, "output of 'q0' declared twice"),
    (parse_automaton, AUT_HEAD + ["output q1 o9"], 9,
     "symbol 'o9' is not declared (output of state 'q1')"),
    (parse_automaton, AUT_HEAD + ["output q1 o1", "trans q0 x q1", "trans q1 x q0", "#",
                                  "prob q0 x 1.0", "prob q1 z 1.0"],
     14, "no transition from 'q1' on 'z'"),
    (parse_automaton, AUT_HEAD + ["output q1 o1", "trans q0 x q1", "trans q0 y q0",
                                  "prob q0 x 0.5 # half", "", "prob q0 y 0.25"], 14,
     "probabilities for state 'q0' sum to 0.75"),
    (parse_machine, ["tm t # machine", "", "blank _", "tape _ a", "# rules follow",
                     "states s h", "initial s", "halting h", "rule s _ h a R",
                     "rule s a h a X  # bad move"], 10, "bad move 'X', want L, R or N"),
    (parse_wiring, ["# ring", "wiring w", "", "module m missing.aut  # no such file"], 4,
     "cannot read module file"),
    (parse_wiring, ["wiring w", "# links", "connect m n Q0=T0", "", "connect n m Q0"], 5,
     "bad mapping 'Q0', want out=in"),
    (parse_wiring, ["wiring w", "connect m n Q0=T0 # one", "\t", "connect n m Q0=T0 Q0=T1"], 4,
     "output 'Q0' mapped twice"),
]


@pytest.mark.parametrize("parse, lines, line, message", REFUSED_LINES,
                         ids=[f"{p.__name__}-{n}" for n, (p, *_) in enumerate(REFUSED_LINES)])
def test_refused_entries_name_their_line(parse, lines, line, message, tmp_path):
    if parse is parse_wiring:
        parse = lambda text: parse_wiring(text, base_dir=str(tmp_path))  # noqa: E731
    got_line, got_message = _refusal(parse, _text(lines))
    assert (got_line, got_message.split(": [Errno")[0]) == (line, message)
    assert lines[line - 1].split("#")[0].split()  # a directive's line, not a comment's
