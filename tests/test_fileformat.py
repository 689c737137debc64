"""Text format round trips, parse diagnostics and the memo of held parses."""

import gc
import re
import weakref

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from autodiss import (
    InputModel,
    fileformat,
    load_automaton,
    load_wiring,
    parse_automaton,
    parse_machine,
    parse_wiring,
    reachable_states,
    validate,
    write_automaton,
)
from autodiss.assets import asset_names, asset_path
from autodiss.errors import InvalidArgument, NonInjectiveOutput, ParseError, ValidationError


@pytest.mark.parametrize(
    "name", [n for n in asset_names() if n.endswith(".aut")]
)
def test_round_trip(name):
    auto, model = load_automaton(asset_path(name))
    text = write_automaton(auto)
    again, _ = parse_automaton(text)
    assert again == auto
    assert write_automaton(again) == text


@pytest.mark.parametrize("where", ["name", "input", "output", "state"])
@pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\u2028b", "a#b", "#"])
def test_write_refuses_tokens_without_a_text_form(where, bad):
    parts = {"name": "m", "input": "i", "output": "o", "state": "q"}
    parts[where] = bad
    name, i, o, q = parts.values()
    auto = validate(name, [i], [o], [q], q, {q: o}, [(q, i, q)])
    with pytest.raises(ValidationError, match=re.escape(f"token {bad!r} has no text form")):
        write_automaton(auto)


def test_round_trip_with_probabilities():
    text = """
automaton skew
inputs x y
outputs o0 o1
states q0 q1
initial q0
output q0 o0
output q1 o1
trans q0 x q0
trans q0 y q1
trans q1 x q0
prob q0 x 0.25
prob q0 y 0.75
"""
    auto, model = parse_automaton(text)
    assert model.probs["q0"][("q0", "q0")] == pytest.approx(0.25)
    assert model.probs["q0"][("q0", "q1")] == pytest.approx(0.75)
    again, model2 = parse_automaton(write_automaton(auto, model))
    assert model2.probs["q0"][("q0", "q1")] == pytest.approx(0.75)


def test_probabilities_aggregate_over_merged_arrows():
    text = """
automaton merged
inputs x y z
outputs o0 o1
states q0 q1
output q0 o0
output q1 o1
trans q0 x q1
trans q0 y q1
trans q0 z q0
prob q0 x 0.4
prob q0 y 0.2
prob q0 z 0.4
"""
    _, model = parse_automaton(text)
    assert model.probs["q0"][("q0", "q1")] == pytest.approx(0.6)
    assert model.probs["q0"][("q0", "q0")] == pytest.approx(0.4)


def test_probability_sum_checked_per_state():
    text = """
automaton bad
inputs x y
outputs o0 o1
states q0 q1
output q0 o0
output q1 o1
trans q0 x q0
trans q0 y q1
prob q0 x 0.5
prob q0 y 0.6
"""
    with pytest.raises(ParseError, match=r"^line 11: probabilities for state 'q0' sum to 1\.1$"):
        parse_automaton(text)


# One state, three labels on one self-loop arrow.
LOOP3 = "automaton t\ninputs a b c\noutputs o\nstates q\noutput q o\n" \
        "trans q a q\ntrans q b q\ntrans q c q\n"


@pytest.mark.parametrize(
    "probs, message",
    [
        # a label weighted twice is refused on its second line, even
        # where the arrow's sum would come to 1
        ("prob q a 0.25\nprob q a 0.25\nprob q b 0.5",
         "line 10: prob of 'q' on 'a' declared twice"),
        ("prob q b 1\nprob q b nope", "line 10: prob of 'q' on 'b' declared twice"),
        # finite weights whose sum over one arrow overflows
        ("prob q a 1e308\nprob q b 1e308", "line 10: probabilities on arrow ('q', 'q') sum to inf"),
    ],
)
def test_prob_lines_are_refused_on_their_line(probs, message):
    with pytest.raises(ParseError) as exc:
        parse_automaton(LOOP3 + probs)
    assert str(exc.value) == message


def test_prob_lines_on_a_state_of_high_degree():
    """Every label of a 600-symbol state weighted on its own line: the
    weights sum per merged arrow, in ``successors`` order."""
    syms = [f"s{k}" for k in range(600)]
    lines = ["automaton wide", "inputs " + " ".join(syms), "outputs o0 o1 o2 o3",
             "states q0 q1 q2 q3", "initial q0"]
    lines += [f"output q{i} o{i}" for i in range(4)]
    lines += [f"trans q0 {s} q{k % 4}" for k, s in enumerate(syms)]
    lines += [f"prob q0 {s} {(k % 4 + 1) / 1500}" for k, s in enumerate(syms)]
    auto, model = parse_automaton("\n".join(lines))
    assert auto.successors[0] == (0, 1, 2, 3)
    assert model.weights[0] == pytest.approx([150 * (i + 1) / 1500 for i in range(4)])


@pytest.mark.parametrize("probs", ["", "prob q a 0.5\nprob q b 0.25\nprob q c 0.25\n"])
def test_parse_builds_no_named_views(probs):
    """The parser reads the integer rows: no names-keyed view is built."""
    auto, model = parse_automaton(LOOP3 + probs)
    assert model.weights == ((1.0,),)
    assert not {"transitions", "by_source", "arrows", "by_pair"} & set(vars(auto))


def test_comments_and_blank_lines():
    text = """
# a comment
automaton tiny   # trailing comment

inputs a
outputs o
states q
output q o   # another
"""
    auto, _ = parse_automaton(text)
    assert auto.name == "tiny"
    assert auto.states == ("q",)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("states q0", "expected 'automaton'"),
        ("automaton x\nwat q0", "unknown directive"),
        ("automaton x\ninitial a\ninitial b", "declared twice"),
        ("automaton x\nstates q\noutputs o\noutput q o\noutput q o", "declared twice"),
        ("automaton x\ntrans q", "takes"),
        (
            "automaton x\nstates q\ninputs a\noutputs o\noutput q o\ntrans q a z",
            "line 6: state 'z' is not declared (transition target)",
        ),
        (
            "automaton x\nstates q r s\ninputs a\noutputs o1 o2 o3\n"
            "output q o1\noutput r o2\noutput s o3\n"
            "trans q a r\ntrans q a s",
            "line 9: two transitions defined for ('q', 'a')",
        ),
        # rules only validate checks: the line of the second token, of
        # ``initial``, of the ``states`` line declaring the state, and of
        # the later state's ``output``
        (
            "automaton x\ninputs a b\ninputs c a",
            "line 3: identifier 'a' declared twice (input alphabet)",
        ),
        ("automaton x\noutputs o o", "line 2: identifier 'o' declared twice (output alphabet)"),
        ("automaton x\nstates q\nstates r q", "line 3: identifier 'q' declared twice (states)"),
        ("automaton x\nstates q\ninitial z", "line 3: state 'z' is not declared (initial)"),
        (
            "automaton x\noutputs o\nstates q\nstates r\noutput q o",
            "line 4: state 'r' has no output symbol",
        ),
        (
            "automaton x\noutputs o\nstates q r\noutput r o\noutput q o",
            "line 4: states 'q' and 'r' share an output symbol",
        ),
        (
            "automaton x\nstates q\ninputs a\noutputs o\noutput q o\n"
            "trans q a q\nprob q a nope",
            "bad probability",
        ),
        (
            "automaton x\nstates q\ninputs a\noutputs o\noutput q o\n"
            "trans q a q\nprob q a nan",
            "non-finite probability",
        ),
        (
            "automaton x\nstates q\ninputs a\noutputs o\noutput q o\n"
            "trans q a q\nprob q a inf",
            "non-finite probability",
        ),
        (
            "automaton x\nstates q\ninputs a b\noutputs o\noutput q o\n"
            "trans q a q\nprob q b 1.0",
            "no transition",
        ),
        (
            "automaton x\nstates q\ninputs a\noutputs o\noutput q o\n"
            "trans q a q\nprob q a -0.5",
            "line 7: negative probability '-0.5'",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith("line ")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_automaton, "automaton x\ninitial", "line 2: initial takes one state"),
        (parse_automaton, "automaton x\noutput q", "line 2: output takes <state> <symbol>"),
        (parse_automaton, "automaton x\ntrans q a", "line 2: trans takes <state> <insym> <state>"),
        (parse_automaton, "automaton x\nprob q a 1 2", "line 2: prob takes <state> <insym> <p>"),
        (parse_automaton, "automaton x\ninitial q\ninitial q", "line 3: initial declared twice"),
        (parse_machine, "tm x\nblank", "line 2: blank takes one symbol"),
        (parse_machine, "tm x\ninitial a b", "line 2: initial takes one state"),
        (parse_machine, "tm x\nrule a 0 a 0 R N",
         "line 2: rule takes <state> <read> <state> <write> <move>"),
        (parse_machine, "tm x\nblank 0\nblank 0", "line 3: blank declared twice"),
        (parse_machine, "tm x\ninitial a\ninitial a", "line 3: initial declared twice"),
        (parse_wiring, "wiring w\nmodule a", "line 2: module takes <name> <file>"),
        (parse_wiring, "wiring w\nconnect a", "line 2: connect takes <src> <dst> [out=in ...]"),
        (parse_wiring, "wiring w\nconstant a x y", "line 2: constant takes <module> <insym>"),
        (parse_wiring, "wiring w\ninitial a", "line 2: initial takes <module> <state>"),
    ],
)
def test_grammar_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_machine_parse(bb2):
    assert bb2.name == "bb2"
    assert bb2.rules[("a", "0")] == ("b", "1", "R")
    assert bb2.halting == frozenset({"halt"})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("tm x\ntape 0\nstates a\ninitial a", "missing blank"),
        ("tm x\ntape 0\nblank 0\nstates a", "missing initial"),
        ("tm x\nrule a 0 a 0", "takes"),
        ("tm x\nweird", "unknown directive"),
        ("tm x\nblank 0\ntape 0 1\nblank 1", "line 4: blank declared twice"),
        ("tm x\ninitial a\nstates a b\ninitial b", "line 4: initial declared twice"),
    ],
)
def test_machine_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_machine(text)
    assert fragment in str(exc.value)


MACHINE = "tm x\nblank 0\ntape 0 1\nstates a h\ninitial a\nhalting h\nrule a 0 a 1 R\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # every rule make_machine checks, at the line of the entry it rejects
        (MACHINE + "tape 1", "line 8: identifier '1' declared twice (tape alphabet)"),
        (MACHINE.replace("blank 0", "blank _"), "line 2: symbol '_' is not declared (blank)"),
        (MACHINE + "states b a", "line 8: identifier 'a' declared twice (control states)"),
        (MACHINE.replace("initial a", "initial z"), "line 5: state 'z' is not declared (initial)"),
        (MACHINE + "halting a zz yy", "line 8: state 'zz' is not declared (halting)"),
        (MACHINE + "rule a 1 zz 1 R", "line 8: state 'zz' is not declared (rule)"),
        (MACHINE + "rule a 1 a 2 R", "line 8: symbol '2' is not declared (rule)"),
        (MACHINE + "rule a 1 a 1 X", "line 8: bad move 'X', want L, R or N"),
        (MACHINE + "rule h 1 a 1 R", "line 8: halting state 'h' has a rule"),
        (MACHINE + "rule a 0 h 1 R", "line 8: two transitions defined for ('a', '0')"),
    ],
)
def test_machine_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_machine(text)
    assert str(exc.value) == message
    assert isinstance(exc.value.__cause__, ValidationError)
    assert str(exc.value.__cause__) == message.split(": ", 1)[1]


def test_wiring_parse(tff_wiring):
    assert tff_wiring.name == "counter4_tff"
    assert [n for n, _ in tff_wiring.modules] == ["hi", "lo"]
    assert tff_wiring.constants == (("lo", "T1"),)
    conn = tff_wiring.connections[0]
    assert (conn.source, conn.dest) == ("lo", "hi")
    assert conn.mapping == {"Q0": "T0", "Q1": "T1"}
    assert tff_wiring.initials == {"hi": "0", "lo": "0"}


def test_wiring_parse_errors(tmp_path):
    bad = tmp_path / "bad.wiring"
    bad.write_text("wiring w\nmodule a nowhere.aut\n")
    with pytest.raises(ParseError) as exc:
        load_wiring(str(bad))
    assert "cannot read module file" in str(exc.value)
    with pytest.raises(ParseError):
        parse_wiring("wiring w\nconnect a b Q0-T0\n")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("wiring w\nconnect a b Q0-T0", "line 2: bad mapping"),
        ("wiring w\nconnect a b Q1=T1\nconnect a b Q0=T0 Q0=T1", "line 3: output 'Q0' mapped twice"),
        (
            "wiring w\ninitial a 0\ninitial b 0\ninitial a 1",
            "line 4: initial of 'a' declared twice",
        ),
        # every syntax error comes before any module file is read ...
        ("wiring w\nmodule a nowhere.aut\nwat", "line 3: unknown directive 'wat'"),
        # ... and module files are read before connect mappings are checked
        ("wiring w\nconnect a b Q0-T0\nmodule a nowhere.aut", "line 3: cannot read module file"),
    ],
)
def test_wiring_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_wiring(text)
    assert fragment in str(exc.value)


def test_wiring_module_parse_error_names_the_module_file(tmp_path):
    module = tmp_path / "broken.aut"
    module.write_text("automaton m\nbogus q\n")
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\nmodule a broken.aut\n")
    with pytest.raises(ParseError) as exc:
        load_wiring(str(wiring))
    assert exc.value.path == str(module)
    assert exc.value.line_number == 2
    assert str(exc.value) == f"{module}: line 2: unknown directive 'bogus'"


SHARED_OUTPUT = (
    "automaton m\ninputs x\noutputs A\nstates a b\n"
    "output a A\noutput b A\n"
)


def test_wiring_module_validation_error_names_the_module_file(tmp_path):
    module = tmp_path / "shared.aut"
    module.write_text(SHARED_OUTPUT)
    with pytest.raises(ParseError) as exc:
        parse_wiring("wiring w\nmodule a shared.aut\n", base_dir=str(tmp_path))
    assert (exc.value.path, exc.value.line_number) == (str(module), 6)
    assert str(exc.value) == f"{module}: line 6: states 'a' and 'b' share an output symbol"
    assert isinstance(exc.value.__cause__, NonInjectiveOutput)


# a text no other test parses, so that no other caller holds its parse
MEMO = "automaton memo\ninputs x y\noutputs A B\nstates a b\ninitial a\n" \
       "output a A\noutput b B\ntrans a x b\ntrans a y a\ntrans b x a\nprob a x 0.25\nprob a y 0.75\n"


@pytest.fixture
def validations(monkeypatch):
    """The names of the automata ``fileformat`` validates while the test runs;
    a collection first frees any parse an earlier test dropped."""
    names = []

    def counted(name, *args, **kwargs):
        names.append(name)
        return validate(name, *args, **kwargs)

    monkeypatch.setattr(fileformat, "validate", counted)
    gc.collect()
    return names


def test_an_equal_text_returns_the_held_parse(validations):
    a, m = parse_automaton(MEMO)
    again, m2 = parse_automaton("".join(MEMO))  # an equal text, not the same object
    assert (again, m2) == (a, m) and again is a and m2 is m and m.automaton is a
    assert validations == ["memo"]


def test_a_dropped_parse_is_forgotten_and_built_anew(validations):
    a, m = parse_automaton(MEMO)
    dead = weakref.ref(m)
    del a, m
    gc.collect()
    assert dead() is None and MEMO not in fileformat._PARSES
    b, m2 = parse_automaton(MEMO)
    assert validations == ["memo", "memo"] and m2.automaton is b


def test_a_refused_text_is_refused_again_and_never_kept():
    text = MEMO.replace("trans b x a", "trans b x nowhere")
    refusals = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse_automaton(text)
        refusals.append((exc.value.line_number, exc.value.message))
    assert refusals == [(10, "state 'nowhere' is not declared (transition target)")] * 2
    assert text not in fileformat._PARSES


def test_a_text_one_character_longer_is_parsed_anew(validations):
    a, m = parse_automaton(MEMO)
    b, m2 = parse_automaton(MEMO + "#")
    assert b == a and m2.weights == m.weights and b is not a and m2 is not m
    assert validations == ["memo", "memo"]


def test_a_wiring_parses_a_file_it_names_thrice_once_and_reuses_a_held_parse(tmp_path, validations):
    (tmp_path / "m.aut").write_text(MEMO)
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\nmodule p m.aut\nmodule q m.aut\nmodule r m.aut\n")
    (_, p), (_, q), (_, r) = load_wiring(str(wiring)).modules
    assert p is q is r and validations == ["memo"]
    a, m = parse_automaton(MEMO)
    assert load_wiring(str(wiring)).modules[0][1] is a and validations == ["memo", "memo"]


@pytest.mark.parametrize("parse", [parse_automaton, parse_machine, parse_wiring])
@pytest.mark.parametrize("text", [None, 123, ["automaton m"], b"automaton m"],
                         ids=["None", "int", "list", "bytes"])
def test_a_text_that_is_not_a_str_is_refused(parse, text):
    with pytest.raises(InvalidArgument, match=f"^text must be a str, got {type(text).__name__}$"):
        parse(text)


@st.composite
def graphs_with_models(draw):
    """A validated graph with tokens in drawn order, possibly with sinks,
    unreachable states, arrows of several symbols and no initial state,
    and a model with drawn arrow weights, zeros included, on some states."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    states = draw(st.permutations([f"q{i}" for i in range(n)]))
    inputs = draw(st.permutations([f"s{j}" for j in range(k)]))
    outputs = draw(st.permutations([f"o{i}" for i in range(n + draw(st.integers(0, 2)))]))
    moves = draw(st.lists(st.tuples(*map(st.sampled_from, (states, inputs, states))), max_size=20))
    table = {(q, s): t for q, s, t in moves}
    a = validate("drawn", inputs, outputs, states, draw(st.sampled_from([None, *states])),
                 dict(zip(states, outputs)), [(q, s, t) for (q, s), t in table.items()])
    given = {}
    for q in draw(st.lists(st.sampled_from(states), unique=True)):
        arrows = a.by_source[q]
        weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                min_size=len(arrows), max_size=len(arrows)))
        if sum(weights) > 0:
            given[q] = {ar.key: w / sum(weights) for ar, w in zip(arrows, weights)}
    return a, InputModel.from_arrow_probs(a, given)


def _views(a):
    """The derived views, dicts as item lists so that their order is compared too."""
    return a.arrows, list(a.by_source.items()), list(a.by_pair.items()), list(a.index.items())


def _features(a, m):
    """Each shape the drawn cases must cover, and whether ``a`` and ``m`` show it."""
    reached = reachable_states(a, a.initial) if a.initial is not None else set(a.states)
    return {
        "sink": any(not arrows for arrows in a.by_source.values()),
        "unreachable": len(reached) < len(a.states),
        "multi-label": any(len(ar.labels) > 1 for ar in a.arrows),
        "no initial": a.initial is None,
        "non-uniform": m.probs != InputModel.uniform(a).probs,
    }


@settings(max_examples=300, deadline=None)
@given(graphs_with_models())
def test_write_then_parse_gives_back_the_graph_its_views_and_model(case):
    a, m = case
    b, m2 = parse_automaton(write_automaton(a, m))
    assert b == a
    assert _views(b) == _views(a)
    assert [(q, list(d.items())) for q, d in m2.probs.items()] == [
        (q, list(d.items())) for q, d in m.probs.items()]


@pytest.mark.parametrize("feature", ["sink", "unreachable", "multi-label", "no initial",
                                     "non-uniform"])
def test_drawn_graphs_cover(feature):
    find(graphs_with_models(), lambda case: _features(*case)[feature],
         settings=settings(database=None, max_examples=500, phases=[Phase.generate]))
