"""Structural checks: validation, merged arrows, degrees, runs."""

import random

import pytest

from autodiss import (
    AutomatonOracle,
    InputModel,
    arrows_from,
    choice_information,
    cell_automaton,
    convergent_states,
    divergent_states,
    equivalent,
    is_reversible,
    make_machine,
    path_choice_information,
    point_distribution,
    reachable_states,
    run,
    step,
    transition_tour,
    validate,
)
from autodiss.errors import (
    DuplicateIdentifier,
    ForbiddenInput,
    InvalidArgument,
    MissingOutput,
    Nondeterministic,
    NonInjectiveOutput,
    UnknownState,
    UnknownSymbol,
    ValidationError,
)
from helpers import random_automaton


def test_validate_one_bit_memory(onebit):
    auto, _ = onebit
    assert auto.states == ("0", "1")
    assert auto.arrow_count == 4
    assert auto.transitions[("1", "set0")] == "0"


def test_validate_rejects_nondeterminism():
    with pytest.raises(Nondeterministic):
        validate(
            "bad", ["a"], ["o1", "o2", "o3"], ["q0", "q1", "q2"],
            output_map={"q0": "o1", "q1": "o2", "q2": "o3"},
            transitions=[("q0", "a", "q1"), ("q0", "a", "q2")],
        )


def test_validate_allows_repeated_identical_transition():
    auto = validate(
        "ok", ["a"], ["o0", "o1"], ["q0", "q1"],
        output_map={"q0": "o0", "q1": "o1"},
        transitions=[("q0", "a", "q1"), ("q0", "a", "q1")],
    )
    assert auto.arrow_count == 1


def test_validate_rejects_shared_output():
    with pytest.raises(NonInjectiveOutput):
        validate(
            "bad", ["a"], ["o"], ["q0", "q1"],
            output_map={"q0": "o", "q1": "o"},
        )


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(transitions=[("q0", "z", "q0")]), UnknownSymbol),
        (dict(transitions=[("qz", "a", "q0")]), UnknownState),
        (dict(transitions=[("q0", "a", "qz")]), UnknownState),
        (dict(initial="qz"), UnknownState),
        (dict(output_map={"q0": "o0", "q1": "o1", "qz": "o0"}), UnknownState),
        (dict(output_map={"q0": "o0", "q1": "oz"}), UnknownSymbol),
    ],
)
def test_validate_rejects_unknown_tokens(kwargs, error):
    base = dict(
        name="bad",
        input_alphabet=["a"],
        output_alphabet=["o0", "o1"],
        states=["q0", "q1"],
        output_map={"q0": "o0", "q1": "o1"},
    )
    base.update(kwargs)
    with pytest.raises(error):
        validate(**base)


@pytest.mark.parametrize("call", [
    lambda a: run(a, "nowhere", []),
    lambda a: reachable_states(a, "nowhere"),
    lambda a: point_distribution(a, "nowhere"),
    lambda a: InputModel.from_arrow_probs(a, {"nowhere": {}}),
    lambda a: AutomatonOracle(a, "nowhere"),
])
def test_an_undeclared_state_is_named(lossy, call):
    with pytest.raises(UnknownState, match="^state 'nowhere' is not declared"):
        call(lossy[0])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda a: run(a, "A", None), "word must be a sequence of symbols, got None",
                 id="run-word-none"),
    pytest.param(lambda a: run(a, "A", 7), "word must be a sequence of symbols, got 7", id="run-word-int"),
    pytest.param(lambda a: equivalent(a, a, symbol_map=["0"]), r"symbol_map must be a dict, got \['0'\]",
                 id="equivalent-symbol_map-list"),
    pytest.param(lambda a: equivalent(a, a, symbol_map="01"), "symbol_map must be a dict, got '01'",
                 id="equivalent-symbol_map-str"),
])
def test_a_word_or_symbol_map_of_the_wrong_kind_is_an_invalid_argument(lossy, call, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        call(lossy[0])


def test_a_word_given_as_an_iterator_is_read_once(lossy):
    a = lossy[0]
    assert run(a, "A", iter(["0", "1"])) == run(a, "A", ("0", "1")) == run(a, "A", "01")


def test_validate_requires_every_output():
    with pytest.raises(MissingOutput):
        validate("bad", ["a"], ["o0"], ["q0", "q1"], output_map={"q0": "o0"})


def test_validate_rejects_duplicate_declarations():
    with pytest.raises(DuplicateIdentifier):
        validate("bad", ["a", "a"], ["o0"], ["q0"], output_map={"q0": "o0"})


def test_symbols_triggering_same_move_merge():
    auto = validate(
        "merge", ["x", "y"], ["o0", "o1"], ["q0", "q1"],
        output_map={"q0": "o0", "q1": "o1"},
        transitions=[("q0", "x", "q1"), ("q0", "y", "q1")],
    )
    assert auto.arrow_count == 1
    assert auto.arrows[0].labels == ("x", "y")


def test_arrows_from_sorted_by_target(lossy):
    auto, _ = lossy
    arrows = arrows_from(auto, "C")
    assert [(a.source, a.target, a.labels) for a in arrows] == [
        ("C", "C", ("0",)),
        ("C", "D", ("1",)),
    ]
    assert arrows_from(auto, "Stop") == []
    with pytest.raises(UnknownState):
        arrows_from(auto, "nope")


def test_out_degree_names_an_undeclared_state(tff):
    auto, _ = tff
    assert [auto.out_degree(q) for q in auto.states] == [2, 2]
    with pytest.raises(UnknownState, match="^state 'nope' is not declared$"):
        auto.out_degree("nope")


@pytest.mark.parametrize("call", [
    lambda a, m, q: choice_information(a, m, q),
    lambda a, m, q: path_choice_information(a, m, q, []),
    lambda a, m, q: point_distribution(a, q),
    lambda a, m, q: a.out_degree(q),
    lambda a, m, q: arrows_from(a, q),
    lambda a, m, q: step(a, q, "T0"),
    lambda a, m, q: run(a, q, []),
    lambda a, m, q: transition_tour(a, q),
    lambda a, m, q: AutomatonOracle(a, q),
], ids=["choice_information", "path_choice_information", "point_distribution", "out_degree",
        "arrows_from", "step", "run", "transition_tour", "AutomatonOracle"])
def test_an_unhashable_state_is_an_unknown_state(tff, call):
    """A state given as a list is refused as undeclared, not by a bare ``TypeError``."""
    auto, model = tff
    with pytest.raises(UnknownState, match=r"^state \['0'\] is not declared$"):
        call(auto, model, ["0"])


LIST = ["x"]
AUTOMATON = dict(name="a", input_alphabet=["i"], output_alphabet=["o", "p"], states=["s", "t"],
                 initial="s", output_map={"s": "o", "t": "p"}, transitions=[("s", "i", "t")])
MACHINE = dict(name="m", tape_alphabet=["_", "a"], blank="_", control_states=["q", "h"],
               initial="q", halting=["h"], rules=[("q", "a", "h", "a", "R")])


def _with_list(spec, key, at=None):
    """``spec`` with ``LIST`` as its ``key`` token, as the second item of its
    ``key`` list, as state ``t``'s value in its ``key`` map, or at position
    ``at`` of a second ``key`` entry that copies the first."""
    value = spec[key]
    if isinstance(value, dict):
        return dict(spec, **{key: dict(value, t=LIST)})
    if at is not None:
        return dict(spec, **{key: [value[0], (*value[0][:at], LIST, *value[0][at + 1:])]})
    return dict(spec, **{key: [value[0], LIST, *value[1:]] if isinstance(value, list) else LIST})


@pytest.mark.parametrize("build, spec, entry", [
    *[(validate, _with_list(AUTOMATON, key), (key, 1)) for key in
      ("input_alphabet", "output_alphabet", "states", "output_map")],
    (validate, _with_list(AUTOMATON, "initial"), ("initial", 0)),
    *[(validate, _with_list(AUTOMATON, "transitions", at), ("transitions", 1)) for at in range(3)],
    *[(make_machine, _with_list(MACHINE, key), (key, 1))
      for key in ("tape_alphabet", "control_states", "halting")],
    *[(make_machine, _with_list(MACHINE, key), (key, 0)) for key in ("blank", "initial")],
    *[(make_machine, _with_list(MACHINE, "rules", at), ("rules", 1)) for at in range(5)],
    (lambda alphabet: cell_automaton(alphabet), {"alphabet": [LIST, "b"]}, ("alphabet", 0)),
])
def test_an_unhashable_token_is_refused_at_its_entry(build, spec, entry):
    """A token given as a list is refused where it stands, by a
    :class:`ValidationError`, not by a bare ``TypeError``."""
    with pytest.raises(ValidationError) as err:
        build(**spec)
    assert err.value.entry == entry


@pytest.mark.parametrize("build, spec, key, bad", [
    pytest.param(validate, AUTOMATON, "transitions", ("s", "i"), id="transition-short"),
    pytest.param(validate, AUTOMATON, "transitions", ("s", "i", "t", "t"), id="transition-long"),
    pytest.param(validate, AUTOMATON, "transitions", 5, id="transition-not-iterable"),
    pytest.param(make_machine, MACHINE, "rules", ("q", "a", "h", "a"), id="rule-short"),
    pytest.param(make_machine, MACHINE, "rules", ("q", "a", "h", "a", "R", "R"), id="rule-long"),
    pytest.param(make_machine, MACHINE, "rules", None, id="rule-not-iterable"),
])
def test_an_entry_of_the_wrong_length_is_refused_at_its_entry(build, spec, key, bad):
    """A transition that is not three items, or a rule that is not five, is
    refused where it stands, by a :class:`ValidationError`, not by a bare
    ``ValueError`` or ``TypeError``."""
    with pytest.raises(ValidationError) as err:
        build(**dict(spec, **{key: [spec[key][0], bad]}))
    assert type(err.value) is ValidationError and err.value.entry == (key, 1)
    assert str(err.value) == f"bad {key[:-1]} {bad!r}, want {len(spec[key][0])} items"


def test_a_symbol_map_into_unhashable_symbols_is_not_a_renaming(onebit):
    auto, _ = onebit
    assert equivalent(auto, auto, {s: s for s in auto.input_alphabet})
    assert not equivalent(auto, auto, {s: [s] for s in auto.input_alphabet})


def test_arrows_from_memory(onebit):
    auto, _ = onebit
    assert [(a.target, a.labels) for a in arrows_from(auto, "0")] == [
        ("0", ("set0",)),
        ("1", ("set1",)),
    ]


def test_divergent_states(lossy, counter4, tff):
    assert divergent_states(lossy[0]) == {"B", "C", "G"}
    assert divergent_states(counter4[0]) == set()
    assert divergent_states(tff[0]) == {"0", "1"}


def test_convergent_states(lossy, onebit, counter4):
    assert convergent_states(lossy[0]) == {"C", "F"}
    assert convergent_states(onebit[0]) == {"0", "1"}
    assert convergent_states(counter4[0]) == set()


def test_reversibility(counter4, onebit):
    assert is_reversible(counter4[0])
    assert not is_reversible(onebit[0])
    chain = validate(
        "chain", ["a"], ["o0", "o1", "o2"], ["q0", "q1", "q2"],
        output_map={f"q{i}": f"o{i}" for i in range(3)},
        transitions=[("q0", "a", "q1"), ("q1", "a", "q2")],
    )
    assert is_reversible(chain)


def test_step(lossy, onebit):
    auto, _ = lossy
    assert step(auto, "B", "0") == "E"
    with pytest.raises(ForbiddenInput):
        step(auto, "E", "0")
    assert step(onebit[0], "1", "set0") == "0"


def test_run_both_words(lossy):
    auto, _ = lossy
    p1 = run(auto, "A", list("0100001010"))
    assert p1.states == ("A", "B", "C", "C", "C", "C", "C", "D", "F", "G", "Stop")
    p2 = run(auto, "A", list("0011100110"))
    assert p2.states == ("A", "B", "E", "F", "G", "A", "B", "E", "F", "G", "Stop")
    assert p2.outputs[0] == "oA" and p2.outputs[-1] == "oStop"


def test_run_empty_word(lossy):
    path = run(lossy[0], "A", [])
    assert path.states == ("A",)
    assert path.outputs == ("oA",)


def test_run_builds_arrows_only_when_its_steps_are_read():
    """A path records the states it visits; its steps, the arrows taken
    between them, are built on first read."""
    rng = random.Random(19)
    for _ in range(40):
        auto = random_automaton(rng)
        start = q = rng.choice(auto.states)
        word = []
        while len(word) < 12 and auto.moves[auto.index[q]]:
            s, t = rng.choice(auto.moves[auto.index[q]])
            word.append(auto.input_alphabet[s])
            q = auto.states[t]
        path = run(auto, start, word)
        assert "by_pair" not in vars(auto)
        assert (path.start, path.end, len(path)) == (start, q, len(word))
        assert [symbol for symbol, _, _ in path.steps] == word
        for i, (symbol, arrow, target) in enumerate(path.steps):
            assert (arrow.source, arrow.target) == (path.states[i], target)
            assert target == path.states[i + 1] and symbol in arrow.labels
            assert arrow in arrows_from(auto, arrow.source)


def test_run_reports_failing_position(lossy):
    with pytest.raises(ForbiddenInput) as exc:
        run(lossy[0], "A", list("0111"))  # D accepts only 0
    assert exc.value.position == 3
    assert exc.value.state == "D"


@pytest.mark.parametrize("symbol", ["9", ["0"], {"0": 1}])
def test_step_and_run_name_undeclared_symbols(lossy, symbol):
    """Transitions are looked up before the alphabet is scanned; a symbol
    that is not declared, hashable or not, is still an UnknownSymbol."""
    auto, _ = lossy
    with pytest.raises(UnknownSymbol, match=r"^symbol .* is not declared$") as exc:
        step(auto, "A", symbol)
    assert exc.value.symbol == symbol
    with pytest.raises(UnknownSymbol) as exc:
        run(auto, "A", ["0", symbol])
    assert str(exc.value) == f"symbol {symbol!r} is not declared (word position 1)"
    with pytest.raises(UnknownState):
        step(auto, "nowhere", symbol)
    with pytest.raises(ForbiddenInput) as exc:  # declared, but D accepts only 0
        run(auto, "A", list("011") + ["1", symbol])
    assert exc.value.position == 3


def test_label_sets_partition_defined_symbols():
    rng = random.Random(7)
    for _ in range(60):
        auto = random_automaton(rng)
        for q in auto.states:
            defined = {s for (p, s) in auto.transitions if p == q}
            labels = [s for ar in auto.by_source[q] for s in ar.labels]
            assert sorted(labels) == sorted(defined)


def test_reversibility_three_ways_agree():
    rng = random.Random(8)
    for _ in range(60):
        auto = random_automaton(rng)
        indeg = {}
        for ar in auto.arrows:
            indeg[ar.target] = indeg.get(ar.target, 0) + 1
        by_indegree = all(d <= 1 for d in indeg.values())
        assert is_reversible(auto) == by_indegree == (not convergent_states(auto))


def test_run_is_compositional():
    rng = random.Random(9)
    for _ in range(40):
        auto = random_automaton(rng, density=0.9)
        q = rng.choice(auto.states)
        # sample a valid word by walking the graph
        word = []
        cur = q
        for _ in range(rng.randint(0, 8)):
            arrows = auto.by_source[cur]
            if not arrows:
                break
            ar = rng.choice(arrows)
            word.append(rng.choice(ar.labels))
            cur = ar.target
        cut = rng.randint(0, len(word))
        first = run(auto, q, word[:cut])
        second = run(auto, first.end, word[cut:])
        assert run(auto, q, word).end == second.end
        assert len(run(auto, q, word)) == len(word)


def test_arrow_counts_consistent():
    rng = random.Random(10)
    for _ in range(60):
        auto = random_automaton(rng)
        total = sum(len(auto.by_source[q]) for q in auto.states)
        assert total == auto.arrow_count == len(auto.by_pair)
        assert len(auto.transitions) <= len(auto.states) * len(auto.input_alphabet)
        assert auto.arrow_count <= len(auto.transitions)
