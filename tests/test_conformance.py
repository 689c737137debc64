"""Transition tours, test cost, and black-box conformance verdicts."""

import random

import pytest

from autodiss import (
    AutomatonOracle,
    modular_test_cost,
    product,
    run,
    simulate_test,
    test_cost as tour_cost,
    transition_tour,
    validate,
)
from autodiss import core as core_module
from autodiss import conformance
from autodiss.errors import (
    AutomataError, DeviceRefused, ForbiddenInput, SizeLimit, UnknownState, UnknownSymbol,
    Untestable,
)
from helpers import random_automaton, random_strongly_connected
import tour_oracle


def replay_covers(auto, tour):
    path = run(auto, tour.start, tour.word)
    return {ar.key for _, ar, _ in path.steps}


def test_memory_tour_is_minimal(onebit):
    auto, _ = onebit
    tour = transition_tour(auto, "0")
    assert tour.word == ("set0", "set1", "set1", "set0")
    assert tour.length == 4
    assert replay_covers(auto, tour) == {ar.key for ar in auto.arrows}


def test_counter_tour_is_one_lap(counter4):
    auto, _ = counter4
    tour = transition_tour(auto, "0")
    assert tour.word == ("ck", "ck", "ck", "ck")


def test_lossy_tour_covers_and_parks_in_sink(lossy):
    auto, _ = lossy
    tour = transition_tour(auto, "A")
    assert tour.length == 12
    assert replay_covers(auto, tour) == {ar.key for ar in auto.arrows}
    assert run(auto, "A", tour.word).end == "Stop"


def test_tour_requires_known_start(onebit):
    with pytest.raises(UnknownState):
        transition_tour(onebit[0], "9")


def test_tour_covers_random_graphs():
    rng = random.Random(41)
    for _ in range(100):
        auto = random_strongly_connected(rng)
        start = rng.choice(auto.states)
        tour = transition_tour(auto, start)
        assert replay_covers(auto, tour) == {ar.key for ar in auto.arrows}
        assert auto.arrow_count <= max(tour.length, 1)
        assert tour.length <= auto.arrow_count * len(auto.states)


def test_tour_detects_unreachable_arrows():
    auto = validate(
        "split", ["a"], ["o0", "o1", "o2"], ["q0", "q1", "q2"],
        output_map={f"q{i}": f"o{i}" for i in range(3)},
        transitions=[("q0", "a", "q1"), ("q2", "a", "q2")],
    )
    with pytest.raises(Untestable) as exc:
        transition_tour(auto, "q0")
    assert ("q2", "q2") in exc.value.uncovered


def test_tour_strands_in_twin_sinks():
    auto = validate(
        "twins", ["a", "b"], ["o0", "o1", "o2"], ["q0", "q1", "q2"],
        output_map={f"q{i}": f"o{i}" for i in range(3)},
        transitions=[("q0", "a", "q1"), ("q0", "b", "q2")],
    )
    with pytest.raises(Untestable):
        transition_tour(auto, "q0")


def _coverable_exhaustive(auto, start):
    """Ground truth by search over (state, uncovered arrow set) pairs."""
    all_keys = frozenset(ar.key for ar in auto.arrows)
    seen = {(start, all_keys)}
    frontier = [(start, all_keys)]
    while frontier:
        q, rem = frontier.pop()
        if not rem:
            return True
        for ar in auto.by_source[q]:
            nxt = (ar.target, rem - {ar.key})
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def test_tour_builder_matches_exhaustive_coverability():
    rng = random.Random(44)
    for _ in range(300):
        auto = random_automaton(rng, max_states=5, max_symbols=3, density=0.5)
        start = rng.choice(auto.states)
        truth = _coverable_exhaustive(auto, start)
        try:
            tour = transition_tour(auto, start)
        except Untestable:
            assert not truth
            continue
        assert truth
        assert replay_covers(auto, tour) == {ar.key for ar in auto.arrows}


def _tour_outcome(build, auto, start):
    """The word, or for an untestable graph its uncovered set and message."""
    try:
        return "word", build(auto, start).word
    except Untestable as e:
        return "untestable", e.uncovered, str(e)


def _with_sinks_and_unreachable(rng):
    """A random graph, some of whose states are sinks and some of whose
    arrows sit in a part the start state cannot reach."""
    auto = random_automaton(rng, max_states=10, max_symbols=3, density=0.5)
    extra = [f"u{i}" for i in range(rng.randint(1, 3))]
    states = list(auto.states) + extra
    transitions = [
        (q, s, t) for (q, s), t in auto.transitions.items()
        if rng.random() < 0.8  # drop some arrows, leaving sinks
    ]
    for u in extra:  # never a target of the original states
        for s in auto.input_alphabet:
            if rng.random() < 0.5:
                transitions.append((u, s, rng.choice(states)))
    return validate(
        "sinks", auto.input_alphabet, [f"o{i}" for i in range(len(states))],
        states, initial=auto.initial,
        output_map={q: f"o{i}" for i, q in enumerate(states)},
        transitions=transitions,
    ), rng.choice(auto.states)


def test_tour_matches_the_oracle_on_random_graphs():
    rng = random.Random(45)
    kinds = {"word": 0, "untestable": 0}
    for i in range(2400):
        kind = i % 4
        if kind == 0:
            auto = random_strongly_connected(rng, max_states=12, max_symbols=4)
        elif kind < 3:
            auto = random_automaton(rng, max_states=12, max_symbols=4,
                                    density=rng.random(), ensure_out=kind == 2)
        if kind == 3:
            auto, start = _with_sinks_and_unreachable(rng)
        else:
            start = rng.choice(auto.states)
        want = _tour_outcome(tour_oracle.transition_tour, auto, start)
        assert _tour_outcome(transition_tour, auto, start) == want, (auto, start)
        kinds[want[0]] += 1
    assert min(kinds.values()) > 500


def _unsorted(rng):
    """A graph whose declared orders are not its sorted orders: 11 to 14
    symbols, so that ``s10`` sorts before ``s2``, and states drawn from
    ``q0``..``q11``, both lists shuffled.  Each state has few targets, so
    most arrows carry several labels; half the graphs hold a cycle
    through every state."""
    n, k = rng.randint(2, 12), rng.randint(11, 14)
    states = rng.sample([f"q{i}" for i in range(12)], n)
    symbols = rng.sample([f"s{j}" for j in range(k)], k)
    transitions = {}
    if rng.random() < 0.5:
        for q, t in zip(states, states[1:] + states[:1]):
            transitions[q, rng.choice(symbols)] = t
    for q in states:
        targets = rng.sample(states, rng.randint(1, min(n, 3)))
        for s in symbols:
            if (q, s) not in transitions and rng.random() < 0.5:
                transitions[q, s] = rng.choice(targets)
    return validate("unsorted", symbols, [f"o{i}" for i in range(n)], states, states[0],
                    {q: f"o{i}" for i, q in enumerate(states)},
                    [(q, s, t) for (q, s), t in transitions.items()])


def test_tour_matches_the_oracle_when_declared_order_is_not_sorted():
    """Each arrow is presented by its smallest label by name, and ties
    break on names, whatever order the alphabet and states declare."""
    rng = random.Random(47)
    kinds = {"word": 0, "untestable": 0}
    for _ in range(300):
        auto = _unsorted(rng)
        assert list(auto.input_alphabet) != sorted(auto.input_alphabet)
        start = rng.choice(auto.states)
        want = _tour_outcome(tour_oracle.transition_tour, auto, start)
        assert _tour_outcome(transition_tour, auto, start) == want, (auto, start)
        kinds[want[0]] += 1
    assert min(kinds.values()) > 50, kinds


def _large(rng, n, blocks):
    """A graph of ``n`` states in ``blocks`` strongly connected blocks,
    each a random cycle plus random arrows, chained one after another by
    a single ``link`` arrow: one block is strongly connected, several
    are not, and each block must be finished before its link is taken."""
    states = [f"s{i}" for i in range(n)]
    symbols = ["0", "1", "2"]
    size = n // blocks
    parts = [states[b * size:(b + 1) * size] for b in range(blocks - 1)]
    parts.append(states[(blocks - 1) * size:])
    trans = {}
    for part in parts:
        for q in part:
            for s in symbols:
                if rng.random() < 0.5:
                    trans[(q, s)] = rng.choice(part)
        order = part[:]
        rng.shuffle(order)
        for i, q in enumerate(order):
            trans[(q, rng.choice(symbols))] = order[(i + 1) % len(order)]
    for part, after in zip(parts, parts[1:]):
        trans[(rng.choice(part), "link")] = rng.choice(after)
    return validate(
        "large", symbols + ["link"], [f"o{i}" for i in range(n)], states,
        initial=states[0],
        output_map={q: f"o{i}" for i, q in enumerate(states)},
        transitions=[(q, s, t) for (q, s), t in trans.items()],
    )


@pytest.mark.parametrize("blocks", [1, 30])
def test_tour_matches_the_oracle_on_300_states(blocks):
    auto = _large(random.Random(46), 300, blocks)
    want = _tour_outcome(tour_oracle.transition_tour, auto, auto.initial)
    assert want[0] == "word"
    assert _tour_outcome(transition_tour, auto, auto.initial) == want


def test_tour_size_guard(monkeypatch, onebit):
    monkeypatch.setattr(core_module, "MONOLITHIC_STATE_LIMIT", 1)
    with pytest.raises(SizeLimit):
        transition_tour(onebit[0], "0")


def _ring(n):
    """A ring of ``n`` states on one symbol."""
    states = [f"s{i}" for i in range(n)]
    return validate(f"ring{n}", ["x"], [f"o{q}" for q in states], states, initial="s0",
                    output_map={q: f"o{q}" for q in states},
                    transitions=[(q, "x", states[(i + 1) % n]) for i, q in enumerate(states)])


def test_tour_size_guard_boundary(monkeypatch):
    """A graph of exactly ``MONOLITHIC_STATE_LIMIT`` states is toured; one
    state more is refused."""
    monkeypatch.setattr(core_module, "MONOLITHIC_STATE_LIMIT", 5)
    assert transition_tour(_ring(5), "s0").word == ("x",) * 5
    with pytest.raises(SizeLimit, match="6 states"):
        transition_tour(_ring(6), "s0")


def test_tour_passes_over_arrows_into_a_dead_end():
    """Back in ``a`` after three steps, the only uncovered arrow out of it
    leads to ``z``, which cannot reach ``b``'s pending arrow ``b -> c``; so
    no arrow out of ``a`` is acceptable, and the tour must search past
    them and walk ``a -> b -> c`` before it enters ``z``."""
    auto = validate("deadend", ["x", "y"], ["oa", "ob", "oc", "oz"], ["a", "b", "c", "z"],
                    initial="a", output_map={q: f"o{q}" for q in "abcz"},
                    transitions=[("a", "x", "b"), ("a", "y", "z"), ("b", "x", "a"),
                                 ("b", "y", "c"), ("c", "x", "b"), ("z", "x", "z")])
    tour = transition_tour(auto, "a")
    assert run(auto, "a", tour.word).states == ("a", "b", "a", "b", "c", "b", "a", "z", "z")
    assert tour.word == ("x", "x", "x", "y", "x", "x", "y", "x")
    assert tour.word == tour_oracle.transition_tour(auto, "a").word


def test_modular_cost_beats_monolithic(tff, counter2):
    auto, _ = tff
    assert modular_test_cost([auto, auto], ["0", "0"]) == 8
    assert product(auto, auto).arrow_count == 16
    assert modular_test_cost([counter2[0], auto], ["0", "0"]) == 6
    assert modular_test_cost([auto], ["0"]) == tour_cost(auto, "0")


def test_modular_cost_beats_product_tour_on_small_pairs():
    rng = random.Random(43)
    checked = 0
    while checked < 25:
        a = random_strongly_connected(rng, max_states=4, max_symbols=3)
        b = random_strongly_connected(rng, max_states=4, max_symbols=3)
        if a.arrow_count < 2 or b.arrow_count < 2:
            continue
        prod = product(a, b)
        try:
            monolithic = tour_cost(prod, prod.states[0])
        except Untestable:
            continue  # e.g. parity-disconnected product of two cycles
        modular = modular_test_cost([a, b], [a.states[0], b.states[0]])
        assert modular < monolithic
        checked += 1


def test_modular_cost_names_the_failing_module():
    bad = validate(
        "badmod", ["a"], ["o0", "o1"], ["q0", "q1"],
        output_map={"q0": "o0", "q1": "o1"},
        transitions=[("q1", "a", "q1")],
    )
    with pytest.raises(Untestable) as exc:
        modular_test_cost([bad], ["q0"])
    assert "badmod" in str(exc.value)


def test_simulate_against_faithful_device(lossy):
    auto, _ = lossy
    tour = transition_tour(auto, "A")
    verdict = simulate_test(auto, AutomatonOracle(auto, "A"), tour)
    assert verdict.passed
    assert verdict.first_discrepancy is None


def test_simulate_accepts_relabeled_device(counter4):
    auto, _ = counter4
    renamed = validate(
        "shadow", ["ck"], ["Q0", "Q1", "Q2", "Q3"], ["w", "x", "y", "z"],
        initial="w",
        output_map={"w": "Q0", "x": "Q1", "y": "Q2", "z": "Q3"},
        transitions=[("w", "ck", "x"), ("x", "ck", "y"), ("y", "ck", "z"), ("z", "ck", "w")],
    )
    tour = transition_tour(auto, "0")
    assert simulate_test(auto, AutomatonOracle(renamed, "w"), tour).passed


def _retargeted(auto, arrow_key, new_target):
    """Move a whole merged arrow (all its labels) to a new target."""
    src, old_target = arrow_key
    labels = set(auto.by_pair[arrow_key].labels)
    transitions = [
        (q, s, new_target if q == src and s in labels else t)
        for (q, s), t in auto.transitions.items()
    ]
    return validate(
        name=auto.name + "_mutant",
        input_alphabet=auto.input_alphabet,
        output_alphabet=auto.output_alphabet,
        states=auto.states,
        initial=auto.initial,
        output_map=auto.output_map,
        transitions=transitions,
    )


def test_every_single_arrow_retarget_mutation_is_caught():
    rng = random.Random(42)
    automata = [random_strongly_connected(rng, max_states=6) for _ in range(12)]
    for auto in automata:
        start = auto.states[0]
        tour = transition_tour(auto, start)
        for arrow in auto.arrows:
            for other in auto.states:
                if other == arrow.target:
                    continue
                mutant = _retargeted(auto, arrow.key, other)
                try:
                    verdict = simulate_test(auto, AutomatonOracle(mutant, start), tour)
                except DeviceRefused:
                    continue  # refusal is detection too
                assert not verdict.passed


def test_mutation_detected_at_first_divergence(onebit):
    auto, _ = onebit
    mutant = _retargeted(auto, ("1", "0"), "1")  # the set0 arrow out of state 1
    tour = transition_tour(auto, "0")  # set0 set1 set1 set0
    verdict = simulate_test(auto, AutomatonOracle(mutant, "0"), tour)
    assert not verdict.passed
    index, expected, observed = verdict.first_discrepancy
    assert index == 4
    assert (expected, observed) == ("Q0", "Q1")
    # a device started elsewhere differs before the first symbol
    verdict = simulate_test(auto, AutomatonOracle(auto, "1"), tour)
    assert verdict.first_discrepancy == (0, "Q0", "Q1")


def test_device_refusal_is_reported(lossy):
    auto, _ = lossy
    tour = transition_tour(auto, "A")
    partial = validate(
        "partial", auto.input_alphabet, auto.output_alphabet, auto.states,
        initial="A",
        output_map=auto.output_map,
        transitions=[(q, s, t) for (q, s), t in auto.transitions.items() if q != "C"],
    )
    with pytest.raises(DeviceRefused):
        simulate_test(auto, AutomatonOracle(partial, "A"), tour)


def _verdict_from_replay(reference, device, tour):
    """The verdict from a replay of ``transitions`` and ``output_map``,
    with ``run``'s error for a tour that does not run: the reference that
    ``simulate_test`` must match."""
    trans, out, q = reference.transitions, reference.output_map, tour.start
    try:
        expected = [out[q]] + [out[q := trans[q, s]] for s in tour.word]
    except KeyError:
        run(reference, tour.start, tour.word)
        raise
    observed = device.output()
    if observed != expected[0]:
        return conformance.Verdict(passed=False, first_discrepancy=(0, expected[0], observed))
    for i, symbol in enumerate(tour.word):
        try:
            device.apply(symbol)
        except AutomataError as e:
            raise DeviceRefused(i, str(e)) from None
        observed = device.output()
        if observed != expected[i + 1]:
            return conformance.Verdict(passed=False,
                                       first_discrepancy=(i + 1, expected[i + 1], observed))
    return conformance.Verdict(passed=True)


class _Counting:
    """A device that counts the calls made on it and passes them on."""

    def __init__(self, device):
        self.device, self.calls = device, 0

    def output(self):
        self.calls += 1
        return self.device.output()

    def apply(self, symbol):
        self.calls += 1
        self.device.apply(symbol)


def _simulated(simulate, auto, device, tour):
    """The verdict, or the error's type and message and the number of
    calls the device saw before it."""
    counting = _Counting(device)
    try:
        return simulate(auto, counting, tour)
    except AutomataError as e:
        return type(e), str(e), counting.calls


_PARTIAL = validate("part", ["a", "b"], ["o0", "o1"], ["p", "q"],
                    output_map={"p": "o0", "q": "o1"}, transitions=[("p", "a", "q")])


@pytest.mark.parametrize(
    "start, word, error, message",
    [
        ("z", ("a",), UnknownState, "state 'z' is not declared"),
        ("z", (), UnknownState, "state 'z' is not declared"),
        ("p", ("a", "c"), UnknownSymbol, "symbol 'c' is not declared (word position 1)"),
        ("p", ("a", "a"), ForbiddenInput, "input 'a' is forbidden in state 'q' (word position 1)"),
        ("p", ("b",), ForbiddenInput, "input 'b' is forbidden in state 'p' (word position 0)"),
    ],
)
def test_simulate_refuses_a_tour_that_does_not_run(start, word, error, message):
    """The error is ``run``'s, raised before the device is touched."""
    tour = conformance.TestTour(start, word, frozenset())
    device = AutomatonOracle(_PARTIAL, "p")
    assert _simulated(simulate_test, _PARTIAL, device, tour) == (error, message, 0)
    with pytest.raises(error) as exc:
        run(_PARTIAL, start, word)
    assert str(exc.value) == message


def test_simulate_matches_a_replay_of_the_transitions_on_random_graphs():
    rng = random.Random(47)
    for case in range(150):
        auto, start = (_with_sinks_and_unreachable(rng) if case % 2
                       else (random_strongly_connected(rng), None))
        start = start or rng.choice(auto.states)
        words = [tuple(rng.choice(auto.input_alphabet + ("zz",)) for _ in range(rng.randint(0, 8)))]
        try:
            words.append(transition_tour(auto, start).word)
        except Untestable:
            pass
        tours = [conformance.TestTour(start, w, frozenset()) for w in words]
        tours.append(conformance.TestTour("nowhere", words[0], frozenset()))
        devices = [AutomatonOracle(auto, start), AutomatonOracle(auto, rng.choice(auto.states))]
        if auto.arrows:  # one arrow moved, and one arrow missing
            arrow = rng.choice(auto.arrows)
            others = [q for q in auto.states if q != arrow.target]
            if others:
                mutant = _retargeted(auto, arrow.key, rng.choice(others))
                devices.append(AutomatonOracle(mutant, start))
            partial = validate("partial", auto.input_alphabet, auto.output_alphabet, auto.states,
                               output_map=auto.output_map,
                               transitions=[(q, s, t) for (q, s), t in auto.transitions.items()
                                            if (q, t) != arrow.key])
            devices.append(AutomatonOracle(partial, start))
        for tour in tours:
            for device in devices:
                first = device.state
                expected = _simulated(_verdict_from_replay, auto, device, tour)
                device.state = first
                assert _simulated(simulate_test, auto, device, tour) == expected, (auto, tour)
