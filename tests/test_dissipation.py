"""Choice information, ensemble entropy loss, and the accounting identity."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from autodiss import (
    InputModel,
    bennett_simulate,
    check_convergence_lemma,
    choice_information,
    ensemble_dissipation,
    ensemble_step,
    entropy_bits,
    landauer_energy,
    modular_tm_dissipation,
    path_choice_information,
    point_distribution,
    product_input_model,
    product_many,
    szilard_check,
    tm_run,
    uniform_distribution,
    validate,
    BOLTZMANN_K,
)
from autodiss.errors import (
    AutomataError,
    InvalidArgument,
    InvalidDistribution,
    NonPositiveTemperature,
    SizeLimit,
    UnknownState,
)
from autodiss.dissipation import PROB_SUM_TOL
from autodiss.fileformat import parse_automaton, write_automaton
from helpers import random_automaton, random_distribution, random_model

LN2 = math.log(2)


def two_arrow_automaton():
    return validate(
        "fork", ["x", "y"], ["o0", "o1", "o2"], ["q0", "q1", "q2"],
        initial="q0",
        output_map={f"q{i}": f"o{i}" for i in range(3)},
        transitions=[("q0", "x", "q1"), ("q0", "y", "q2")],
    )


def test_choice_information_uniform(lossy):
    auto, model = lossy
    assert choice_information(auto, model, "B") == 1.0
    assert choice_information(auto, model, "A") == 0.0
    assert choice_information(auto, model, "Stop") == 0.0
    with pytest.raises(UnknownState):
        choice_information(auto, model, "nope")


def test_choice_information_skewed():
    auto = two_arrow_automaton()
    model = InputModel.from_arrow_probs(
        auto, {"q0": {("q0", "q1"): 0.25, ("q0", "q2"): 0.75}}
    )
    assert choice_information(auto, model, "q0") == pytest.approx(0.811278, abs=1e-6)


def test_choice_information_bounds():
    rng = random.Random(21)
    for _ in range(50):
        auto = random_automaton(rng)
        model = random_model(rng, auto)
        uniform = InputModel.uniform(auto)
        for q in auto.states:
            h = choice_information(auto, model, q)
            deg = auto.out_degree(q)
            assert -1e-12 <= h <= (math.log2(deg) if deg else 0.0) + 1e-12
            if deg:
                assert choice_information(auto, uniform, q) == pytest.approx(
                    math.log2(deg)
                )


def test_path_bits_for_both_words(lossy):
    auto, model = lossy
    r1 = path_choice_information(auto, model, "A", list("0100001010"))
    assert r1.total_bits == pytest.approx(7.0, abs=1e-12)
    assert r1.per_step_bits == (0, 1, 1, 1, 1, 1, 1, 0, 0, 1)
    assert r1.convergences_entered == (1, 2, 3, 4, 5, 7)
    r2 = path_choice_information(auto, model, "A", list("0011100110"))
    assert r2.total_bits == pytest.approx(4.0, abs=1e-12)


def test_path_bits_empty_word(lossy):
    auto, model = lossy
    assert path_choice_information(auto, model, "A", []).total_bits == 0.0


def test_path_bits_zero_on_single_arrow_sources():
    rng = random.Random(22)
    for _ in range(30):
        auto = random_automaton(rng, density=0.9)
        model = random_model(rng, auto)
        q = rng.choice(auto.states)
        word = []
        cur = q
        for _ in range(6):
            arrows = auto.by_source[cur]
            if not arrows:
                break
            ar = rng.choice(arrows)
            word.append(ar.labels[0])
            cur = ar.target
        report = path_choice_information(auto, model, q, word)
        assert report.total_bits == pytest.approx(sum(report.per_step_bits))
        for (symbol, arrow, _), bits in zip(report.path.steps, report.per_step_bits):
            if auto.out_degree(arrow.source) == 1:
                assert bits == 0.0


def test_loop_charges_only_divergent_exits(lossy):
    auto, model = lossy
    report = path_choice_information(auto, model, "A", list("00111"))
    assert report.path.end == "A"
    divergent_exits = [
        math.log2(auto.out_degree(ar.source))
        for _, ar, _ in report.path.steps
        if auto.out_degree(ar.source) >= 2
    ]
    assert report.total_bits == pytest.approx(sum(divergent_exits)) == 2.0


def test_ensemble_step_memory(onebit):
    auto, model = onebit
    nxt, loss = ensemble_step(auto, model, [0.5, 0.5])
    assert loss == pytest.approx(1.0, abs=1e-12)
    assert nxt == pytest.approx([0.5, 0.5])
    # a freshly written bit is stored, not yet erased
    nxt, loss = ensemble_step(auto, model, point_distribution(auto, "0"))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert entropy_bits(nxt) == pytest.approx(1.0)


def test_ensemble_step_counter(counter4):
    auto, model = counter4
    _, loss = ensemble_step(auto, model, point_distribution(auto, "0"))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ensemble_step_rejects_bad_distributions(onebit):
    auto, model = onebit
    with pytest.raises(InvalidDistribution):
        ensemble_step(auto, model, [0.5, 0.6])
    with pytest.raises(InvalidDistribution):
        ensemble_step(auto, model, [1.5, -0.5])
    with pytest.raises(InvalidDistribution):
        ensemble_step(auto, model, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ensembles_reject_non_finite_distributions(onebit, bad):
    auto, model = onebit
    with pytest.raises(InvalidDistribution, match="non-finite"):
        ensemble_step(auto, model, [bad, 1.0])
    with pytest.raises(InvalidDistribution, match="non-finite"):
        ensemble_dissipation(auto, model, [1.0, bad], 3)


def test_the_negative_mass_boundary(onebit):
    """Mass down to -1e-12 is taken as rounding; one ulp below it is refused."""
    auto, model = onebit
    trace = ensemble_dissipation(auto, model, [1 + 1e-12, -1e-12], 3)
    assert len(trace.per_step_loss_bits) == 3
    with pytest.raises(InvalidDistribution, match="^negative probability mass$"):
        ensemble_dissipation(auto, model, [1 + 1e-12, math.nextafter(-1e-12, -math.inf)], 3)

def test_ensemble_dissipation_memory(onebit):
    auto, model = onebit
    trace = ensemble_dissipation(auto, model, uniform_distribution(auto), 10)
    assert trace.total_loss_bits == pytest.approx(10.0, abs=1e-9)
    assert len(trace.distributions) == 11


def test_ensembles_past_the_byte_limit_are_refused_before_any_step(monkeypatch, onebit):
    """The distributions of 2 states over 10 steps take 176 bytes: at the limit they
    are built, one byte under it nothing is."""
    from autodiss import dissipation

    auto, model = onebit
    monkeypatch.setattr(dissipation, "ENSEMBLE_BYTE_LIMIT", 176)
    assert len(ensemble_dissipation(auto, model, uniform_distribution(auto), 10).distributions) == 11
    monkeypatch.setattr(dissipation, "ENSEMBLE_BYTE_LIMIT", 175)
    monkeypatch.setattr(dissipation, "entropy_bits", lambda p: pytest.fail("a step was taken"))
    with pytest.raises(SizeLimit) as err:
        ensemble_dissipation(auto, model, uniform_distribution(auto), 10)
    assert (err.value.size, err.value.limit) == (176, 175)
    assert str(err.value) == "176 bytes of distributions exceed the monolithic limit of 175"


def test_ensemble_dissipation_counter(counter4):
    auto, model = counter4
    trace = ensemble_dissipation(auto, model, point_distribution(auto, "0"), 100)
    assert trace.total_loss_bits == pytest.approx(0.0, abs=1e-9)


def test_ensemble_dissipation_zero_horizon(lossy):
    auto, model = lossy
    trace = ensemble_dissipation(auto, model, uniform_distribution(auto), 0)
    assert trace.per_step_loss_bits == ()
    assert trace.total_loss_bits == 0.0


def test_sink_mass_is_carried(lossy):
    auto, model = lossy
    pi = point_distribution(auto, "Stop")
    nxt, loss = ensemble_step(auto, model, pi)
    assert nxt == pytest.approx(pi)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_accounting_identity_random():
    rng = random.Random(23)
    for _ in range(80):
        auto = random_automaton(rng)
        model = random_model(rng, auto)
        pi0 = random_distribution(rng, auto)
        horizon = rng.randint(0, 40)
        trace = ensemble_dissipation(auto, model, pi0, horizon)
        lhs = trace.total_loss_bits
        rhs = (
            sum(trace.per_step_input_bits)
            + entropy_bits(trace.distributions[0])
            - entropy_bits(trace.distributions[-1])
        )
        assert abs(lhs - rhs) <= 1e-9
        assert all(l >= -1e-12 for l in trace.per_step_loss_bits)
        # stored entropy is bounded, so loss tracks injected bits
        assert abs(lhs - sum(trace.per_step_input_bits)) <= math.log2(
            len(auto.states)
        ) + 1e-9


def _dense_ensemble(auto, model, pi0, horizon):
    """Reference propagation through the full state-by-state matrix; a
    sink keeps its mass."""
    index = {q: i for i, q in enumerate(auto.states)}
    mat = np.zeros((len(auto.states), len(auto.states)))
    for q in auto.states:
        if not auto.by_source[q]:
            mat[index[q], index[q]] = 1.0
        for ar in auto.by_source[q]:
            mat[index[q], index[ar.target]] += model.arrow_probability(q, ar)
    bits = np.array([choice_information(auto, model, q) for q in auto.states])
    dists, losses = [np.asarray(pi0, dtype=float)], []
    for _ in range(horizon):
        cur = dists[-1]
        nxt = cur @ mat
        losses.append(entropy_bits(cur) + float(cur @ bits) - entropy_bits(nxt))
        dists.append(nxt)
    return dists, losses


def _with_zero_probability_arrow(rng, auto):
    """A model that gives one arrow of a divergent state probability 0."""
    forks = [q for q in auto.states if len(auto.by_source[q]) >= 2]
    if not forks:
        return random_model(rng, auto)
    q = rng.choice(forks)
    arrows = auto.by_source[q]
    dist = {ar.key: 1.0 / (len(arrows) - 1) for ar in arrows[1:]}
    dist[arrows[0].key] = 0.0
    return InputModel.from_arrow_probs(auto, {q: dist})


def test_ensemble_matches_the_dense_matrix_oracle():
    rng = random.Random(24)
    sinks = zeros = 0
    for i in range(150):
        auto = random_automaton(rng, max_states=10, density=0.4)
        model = (_with_zero_probability_arrow if i % 2 else random_model)(rng, auto)
        sinks += any(not auto.by_source[q] for q in auto.states)
        zeros += any(p == 0.0 for d in model.probs.values() for p in d.values())
        pi0 = random_distribution(rng, auto)
        horizon = rng.randint(1, 30)
        want_dists, want_losses = _dense_ensemble(auto, model, pi0, horizon)
        trace = ensemble_dissipation(auto, model, pi0, horizon)
        for got, want in zip(trace.distributions, want_dists, strict=True):
            assert np.abs(got - want).max() <= 1e-12
        assert trace.per_step_loss_bits == pytest.approx(want_losses, abs=1e-9)
        nxt, loss = ensemble_step(auto, model, pi0)
        assert np.abs(nxt - want_dists[1]).max() <= 1e-12
        assert loss == pytest.approx(want_losses[0], abs=1e-9)
    assert sinks > 20 and zeros > 20


def test_stationary_distribution_loses_exactly_the_input(onebit):
    auto, model = onebit
    trace = ensemble_dissipation(auto, model, uniform_distribution(auto), 5)
    assert trace.total_loss_bits == pytest.approx(sum(trace.per_step_input_bits))


def test_reversible_deterministic_chain_loses_nothing(counter4):
    auto, model = counter4
    rng = random.Random(24)
    for _ in range(10):
        pi = random_distribution(rng, auto)
        trace = ensemble_dissipation(auto, model, pi, 20)
        assert all(abs(l) <= 1e-9 for l in trace.per_step_loss_bits)


def test_entropy_bits_ignores_zeros():
    assert entropy_bits(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0)
    assert entropy_bits(np.array([1.0, 0.0])) == 0.0


@pytest.mark.parametrize("pi", [[0.5, -0.5, 1.0], [math.nan, 1.0], [math.inf, 0.0], [-1e-11, 1.0]])
def test_entropy_bits_refuses_negative_or_non_finite_mass(pi):
    with pytest.raises(InvalidDistribution, match="^negative or non-finite probability mass$"):
        entropy_bits(pi)


def test_entropy_bits_forgives_negative_rounding():
    """Mass down to -1e-12, the tolerance of a checked distribution, counts as zero."""
    assert entropy_bits([0.5, -1e-12, 0.5]) == 1.0
    assert entropy_bits([]) == 0.0


def fork_probs(p, q):
    return {"q0": {("q0", "q1"): p, ("q0", "q2"): q}}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda a: InputModel.from_arrow_probs(a, fork_probs("0.5", 0.5)),
                 r"probability on \('q0', 'q1'\) is not a number: '0.5'", id="model-str"),
    pytest.param(lambda a: InputModel.from_arrow_probs(a, fork_probs(0.5, None)),
                 r"probability on \('q0', 'q2'\) is not a number: None", id="model-none"),
    pytest.param(lambda a: entropy_bits(["x"]),
                 "probability mass is not numeric: could not convert string to float: 'x'",
                 id="entropy-str"),
    pytest.param(lambda a: entropy_bits([object()]), "probability mass is not numeric: .*",
                 id="entropy-object"),
    pytest.param(lambda a: ensemble_dissipation(a, InputModel.uniform(a), ["x"] * 3, 2),
                 "probability mass is not numeric: could not convert string to float: 'x'",
                 id="ensemble-str"),
    pytest.param(lambda a: ensemble_step(a, InputModel.uniform(a), [[1.0], [0.0, 0.0], 0.0]),
                 "probability mass is not numeric: .*", id="ensemble_step-ragged"),
])
def test_probabilities_that_are_not_numbers_are_invalid_distributions(call, message):
    with pytest.raises(InvalidDistribution, match=f"^{message}$"):
        call(two_arrow_automaton())


def test_probabilities_of_other_number_types_are_read_as_floats():
    """A model's weights are the floats of its probabilities, and numeric
    strings in a distribution convert as numpy reads them."""
    a = two_arrow_automaton()
    floats = InputModel.from_arrow_probs(a, fork_probs(0.25, 0.75)).weights
    for p, q in ((Decimal("0.25"), Decimal("0.75")), (Fraction(1, 4), Fraction(3, 4)),
                 (np.float32(0.25), 0.75)):
        assert InputModel.from_arrow_probs(a, fork_probs(p, q)).weights == floats
    assert entropy_bits(["0.5", "0.5"]) == 1.0
    assert (ensemble_dissipation(a, InputModel.uniform(a), ["1", "0", "0"], 2).total_loss_bits
            == ensemble_dissipation(a, InputModel.uniform(a), [1.0, 0.0, 0.0], 2).total_loss_bits)


def test_szilard_boundary():
    assert szilard_check(BOLTZMANN_K * LN2, BOLTZMANN_K * LN2)
    assert not szilard_check(0.5 * BOLTZMANN_K * LN2, 0.5 * BOLTZMANN_K * LN2)
    # one state free of charge plus any resolvable positive term breaks the bound
    assert not szilard_check(0.0, 10 * BOLTZMANN_K)
    assert not szilard_check(-BOLTZMANN_K, 100 * BOLTZMANN_K)
    assert szilard_check(1.0, 1.0)  # huge entropies, both terms vanish
    assert szilard_check(-1e-20, 0.0) is False  # exp overflows
    assert szilard_check(np.float64(1.0), np.int64(1))  # any number with __float__


def test_landauer_energy_values():
    assert landauer_energy(1, 300) == pytest.approx(2.8699e-21, abs=1e-24)
    assert landauer_energy(0, 300) == 0.0
    assert landauer_energy(7, 300) == pytest.approx(2.0089e-20, abs=1e-23)
    for bits, temperature in ((Decimal(1), 300), (1, Decimal(300)), (Decimal("2.5"), Decimal("310.5")),
                              (Fraction(7, 2), 300), (1, Fraction(601, 2))):
        assert landauer_energy(bits, temperature) == landauer_energy(float(bits), float(temperature))


def test_landauer_energy_rejects_bad_arguments():
    with pytest.raises(NonPositiveTemperature):
        landauer_energy(1, 0)
    with pytest.raises(NonPositiveTemperature):
        landauer_energy(1, -5)
    with pytest.raises(ValueError):
        landauer_energy(-1, 300)
    for temperature in (math.nan, math.inf, "x", None):
        with pytest.raises(NonPositiveTemperature):
            landauer_energy(1, temperature)
    for bits in (math.nan, math.inf):
        with pytest.raises(ValueError):
            landauer_energy(bits, 300)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda tm, a: tm_run(tm, max_steps=-1), "max_steps must be non-negative",
                 id="tm_run-max_steps-negative"),
    pytest.param(lambda tm, a: bennett_simulate(tm, max_steps=-1), "max_steps must be non-negative",
                 id="bennett-max_steps-negative"),
    pytest.param(lambda tm, a: modular_tm_dissipation(tm, max_steps=-1),
                 "max_steps must be non-negative", id="tm_dissipation-max_steps-negative"),
    pytest.param(lambda tm, a: check_convergence_lemma(tm, horizon=-1), "horizon must be non-negative",
                 id="convergence-horizon-negative"),
    pytest.param(lambda tm, a: ensemble_dissipation(a, InputModel.uniform(a), [0.0, 1.0, 0.0], -1),
                 "horizon must be non-negative", id="ensemble-horizon-negative"),
    pytest.param(lambda tm, a: landauer_energy(-1, 300), "bits must be non-negative",
                 id="landauer-bits-negative"),
    pytest.param(lambda tm, a: landauer_energy(math.nan, 300), "bits must be finite",
                 id="landauer-bits-nan"),
    pytest.param(lambda tm, a: landauer_energy(math.inf, 300), "bits must be finite",
                 id="landauer-bits-inf"),
    pytest.param(lambda tm, a: landauer_energy("x", 300), "bits must be finite",
                 id="landauer-bits-str"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap=-1), "tape_cap must be non-negative",
                 id="tm_run-tape_cap-negative"),
    pytest.param(lambda tm, a: bennett_simulate(tm, tape_cap=-1), "tape_cap must be non-negative",
                 id="bennett-tape_cap-negative"),
])
def test_out_of_domain_numbers_are_automata_errors(bb2, call, message):
    """Still ``ValueError``s, as they were, and now also ``AutomataError``s."""
    with pytest.raises(InvalidArgument, match=f"^{message}$") as exc:
        call(bb2, two_arrow_automaton())
    assert isinstance(exc.value, AutomataError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda tm, a: tm_run(tm, max_steps=2.5), "max_steps must be an integer, got 2.5",
                 id="tm_run-max_steps-float"),
    pytest.param(lambda tm, a: tm_run(tm, max_steps=None), "max_steps must be an integer, got None",
                 id="tm_run-max_steps-none"),
    pytest.param(lambda tm, a: check_convergence_lemma(tm, horizon=2.5),
                 "horizon must be an integer, got 2.5", id="convergence-horizon-float"),
    pytest.param(lambda tm, a: ensemble_dissipation(a, InputModel.uniform(a), [0.0, 1.0, 0.0], 2.5),
                 "horizon must be an integer, got 2.5", id="ensemble-horizon-float"),
    pytest.param(lambda tm, a: szilard_check(1, 1, k=0), "k must be positive and finite",
                 id="szilard-k-zero"),
    pytest.param(lambda tm, a: szilard_check(1, 1, k=-BOLTZMANN_K), "k must be positive and finite",
                 id="szilard-k-negative"),
    pytest.param(lambda tm, a: szilard_check(1, 1, k=math.nan), "k must be positive and finite",
                 id="szilard-k-nan"),
    pytest.param(lambda tm, a: szilard_check(1, 1, k=math.inf), "k must be positive and finite",
                 id="szilard-k-inf"),
    pytest.param(lambda tm, a: szilard_check(1, 1, k="x"), "k must be positive and finite",
                 id="szilard-k-str"),
    pytest.param(lambda tm, a: szilard_check(math.nan, 1, 1), "s1 must be a number, got nan",
                 id="szilard-s1-nan"),
    pytest.param(lambda tm, a: szilard_check("x", 1, 1), "s1 must be a number, got 'x'",
                 id="szilard-s1-str"),
    pytest.param(lambda tm, a: szilard_check(1, None, 1), "s2 must be a number, got None",
                 id="szilard-s2-none"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap=2.5), "tape_cap must be an integer, got 2.5",
                 id="tm_run-tape_cap-float"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap=None), "tape_cap must be an integer, got None",
                 id="tm_run-tape_cap-none"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap="x"), "tape_cap must be an integer, got 'x'",
                 id="tm_run-tape_cap-str"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap=math.nan), "tape_cap must be an integer, got nan",
                 id="tm_run-tape_cap-nan"),
    pytest.param(lambda tm, a: tm_run(tm, tape_cap=math.inf), "tape_cap must be an integer, got inf",
                 id="tm_run-tape_cap-inf"),
    pytest.param(lambda tm, a: bennett_simulate(tm, tape_cap=math.inf),
                 "tape_cap must be an integer, got inf", id="bennett-tape_cap-inf"),
    pytest.param(lambda tm, a: bennett_simulate(tm, tape_cap=None),
                 "tape_cap must be an integer, got None", id="bennett-tape_cap-none"),
])
def test_non_integer_budgets_and_bad_constants_are_invalid_arguments(bb2, call, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        call(bb2, two_arrow_automaton())


HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda a: landauer_energy(HUGE, 300), InvalidArgument, "bits must be finite",
                 id="landauer-bits-huge"),
    pytest.param(lambda a: landauer_energy(-HUGE, 300), InvalidArgument, "bits must be finite",
                 id="landauer-bits-huge-negative"),
    pytest.param(lambda a: landauer_energy(1, HUGE), NonPositiveTemperature,
                 f"temperature must be positive and finite, got {HUGE}", id="landauer-temperature-huge"),
    pytest.param(lambda a: szilard_check(HUGE, 1, 1), InvalidArgument, f"s1 must be a number, got {HUGE}",
                 id="szilard-s1-huge"),
    pytest.param(lambda a: szilard_check(1, 1, HUGE), InvalidArgument, "k must be positive and finite",
                 id="szilard-k-huge"),
    pytest.param(lambda a: szilard_check(1, Decimal("snan"), 1), InvalidArgument,
                 "s2 must be a number, got Decimal\\('sNaN'\\)", id="szilard-s2-signaling-nan"),
    pytest.param(lambda a: entropy_bits([HUGE]), InvalidDistribution,
                 "probability mass is not numeric: int too large to convert to float", id="entropy-huge"),
    pytest.param(lambda a: entropy_bits([0.5, -HUGE]), InvalidDistribution,
                 "probability mass is not numeric: int too large to convert to float",
                 id="entropy-huge-negative"),
    pytest.param(lambda a: ensemble_dissipation(a, InputModel.uniform(a), [HUGE, 0, 0], 1), InvalidDistribution,
                 "probability mass is not numeric: int too large to convert to float", id="ensemble-huge"),
    pytest.param(lambda a: ensemble_step(a, InputModel.uniform(a), [1, 0, -HUGE]), InvalidDistribution,
                 "probability mass is not numeric: int too large to convert to float", id="ensemble-step-huge"),
    pytest.param(lambda a: InputModel.from_arrow_probs(a, fork_probs(HUGE, 0.5)), InvalidDistribution,
                 r"non-finite probability on \('q0', 'q1'\)", id="model-huge"),
])
def test_numbers_beyond_the_float_range_are_refused_as_other_bad_values_are(call, error, message):
    """An int too large for a float is refused with the error that an
    infinite or non-numeric value of the same argument gets, not a bare
    ``OverflowError``."""
    with pytest.raises(error, match=f"^{message}$"):
        call(two_arrow_automaton())


def test_numbers_of_other_types_give_the_energies_and_bounds_of_floats():
    assert szilard_check(Decimal(1), Fraction(1), Decimal(1)) == szilard_check(1.0, 1.0, 1.0)
    assert szilard_check(Decimal("-1e-20"), 0) is False


def test_integer_budgets_of_other_types_are_accepted(bb2):
    a = two_arrow_automaton()
    assert tm_run(bb2, max_steps=np.int64(3)).steps == 3
    assert tm_run(bb2, tape_cap=np.int64(4)).halted
    assert len(ensemble_dissipation(a, InputModel.uniform(a), [1.0, 0.0, 0.0], np.int64(2))
               .per_step_loss_bits) == 2


def test_a_row_off_one_by_more_than_rounding_is_divided_by_its_sum():
    """Within ``PROB_SUM_TOL`` but off 1.0 by more than an ulp per arrow, a
    row is divided by its sum, and the model reads back exactly."""
    a = two_arrow_automaton()
    total = 0.25 + (0.75 + 1e-11)
    assert abs(total - 1.0) > 2 * math.ulp(1.0)
    model = InputModel.from_arrow_probs(a, {"q0": {("q0", "q1"): 0.25, ("q0", "q2"): 0.75 + 1e-11}})
    assert model.weights[0] == (0.25 / total, (0.75 + 1e-11) / total) != (0.25, 0.75 + 1e-11)
    back = parse_automaton(write_automaton(a, model))
    assert back[0] == a and back[1].weights == model.weights


def three_arrow_automaton():
    return validate("fork3", ["x", "y", "z"], ["o0", "o1", "o2", "o3"], ["q0", "q1", "q2", "q3"],
                    initial="q0", output_map={f"q{i}": f"o{i}" for i in range(4)},
                    transitions=[("q0", "x", "q1"), ("q0", "y", "q2"), ("q0", "z", "q3")])


def test_a_row_off_one_by_rounding_only_is_kept_exactly():
    """A row whose sum is off 1.0 by at most an ulp per arrow is kept as
    given: 0.2 + 0.7 + 0.1 sums to 1 - ulp/2, and 0.5 + (0.5 + 2 ulp) to
    exactly 1 + 2 ulp, the bound for two arrows."""
    rounded = {("q0", "q1"): 0.2, ("q0", "q2"): 0.7, ("q0", "q3"): 0.1}
    assert sum(rounded.values()) == 1.0 - math.ulp(1.0) / 2
    assert InputModel.from_arrow_probs(three_arrow_automaton(), {"q0": rounded}).weights[0] == (
        0.2, 0.7, 0.1)
    edge = 0.5 + 2 * math.ulp(1.0)
    assert 0.5 + edge - 1.0 == 2 * math.ulp(1.0)
    model = InputModel.from_arrow_probs(two_arrow_automaton(), {"q0": {("q0", "q1"): 0.5,
                                                                      ("q0", "q2"): edge}})
    assert model.weights[0] == (0.5, edge)
    beyond = 0.5 + 3 * math.ulp(1.0)  # one ulp more in the sum: divided by it
    model = InputModel.from_arrow_probs(two_arrow_automaton(), {"q0": {("q0", "q1"): 0.5,
                                                                      ("q0", "q2"): beyond}})
    assert model.weights[0] == (0.5 / (0.5 + beyond), beyond / (0.5 + beyond))


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_the_row_sum_tolerance_boundary(side):
    """The farthest row from 1.0 that ``PROB_SUM_TOL`` admits, on either
    side, is accepted and divided by its sum; one ulp farther is refused."""
    a, rest = two_arrow_automaton(), 0.75 + side * PROB_SUM_TOL

    def off(w):
        return abs(0.25 + w - 1.0)

    while off(rest) > PROB_SUM_TOL:
        rest = math.nextafter(rest, 0.75)
    while off(math.nextafter(rest, side * math.inf)) <= PROB_SUM_TOL:
        rest = math.nextafter(rest, side * math.inf)
    farther = math.nextafter(rest, side * math.inf)
    while off(farther) == off(rest):
        farther = math.nextafter(farther, side * math.inf)
    total = 0.25 + rest
    model = InputModel.from_arrow_probs(a, {"q0": {("q0", "q1"): 0.25, ("q0", "q2"): rest}})
    assert model.weights[0] == (0.25 / total, rest / total)
    with pytest.raises(InvalidDistribution, match="sum to"):
        InputModel.from_arrow_probs(a, {"q0": {("q0", "q1"): 0.25, ("q0", "q2"): farther}})


def test_every_parsed_prob_line_ends_in_from_arrow_probs(monkeypatch):
    """The parser hands each state's ``prob`` lines, summed per arrow, to
    one ``from_arrow_probs`` call, so a parsed row off 1.0 by rounding only
    is kept exactly too."""
    calls = []
    real = InputModel.from_arrow_probs.__func__

    def spy(cls, a, given):
        calls.append(given)
        return real(cls, a, given)

    monkeypatch.setattr(InputModel, "from_arrow_probs", classmethod(spy))
    text = write_automaton(three_arrow_automaton()) + "".join(
        f"prob q0 {s} {p}\n" for s, p in (("x", 0.2), ("y", 0.7), ("z", 0.1)))
    _, model = parse_automaton(text)
    assert calls == [{"q0": {("q0", "q1"): 0.2, ("q0", "q2"): 0.7, ("q0", "q3"): 0.1}}]
    assert model.weights[0] == (0.2, 0.7, 0.1)


def test_input_model_validation(onebit, lossy):
    auto, _ = onebit
    with pytest.raises(InvalidDistribution, match="^state 'Stop' is a sink$"):
        InputModel.from_arrow_probs(lossy[0], {"Stop": {("Stop", "A"): 1.0}})
    assert InputModel.from_arrow_probs(lossy[0], {"Stop": {}}).probs["Stop"] == {}
    with pytest.raises(InvalidDistribution, match=r"^state '0' has no arrow \('1', '0'\)$"):
        InputModel.from_arrow_probs(auto, {"0": {("0", "0"): 0.5, ("1", "0"): 0.5}})
    with pytest.raises(InvalidDistribution):
        InputModel.from_arrow_probs(auto, {"0": {("0", "0"): 0.2, ("0", "1"): 0.2}})
    with pytest.raises(InvalidDistribution):
        InputModel.from_arrow_probs(auto, {"0": {("0", "0"): -0.5, ("0", "1"): 1.5}})
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidDistribution):
            InputModel.from_arrow_probs(auto, {"0": {("0", "0"): bad, ("0", "1"): 1.0}})
        with pytest.raises(InvalidDistribution):
            InputModel.from_arrow_probs(auto, {"0": {("0", "0"): 1.0, ("0", "1"): bad}})
    model = InputModel.from_arrow_probs(auto, {"0": {("0", "0"): 0.3, ("0", "1"): 0.7}})
    assert model.probs["0"][("0", "1")] == pytest.approx(0.7)
    assert model.probs["1"][("1", "0")] == pytest.approx(0.5)  # untouched: uniform


def test_a_model_is_bound_to_its_graph(bb2):
    """A model of ``a`` used on ``b``, which has ``a``'s states, symbols and
    out-degrees but other arrows, is refused wherever a model is read; read
    by arrow names, its weights would miss ``b``'s arrows and leak mass.  An
    equal graph built anew is the same graph."""
    def fork(name, targets):
        return validate(name, ["x", "y"], ["o0", "o1", "o2"], ["q0", "q1", "q2"], "q0",
                        {f"q{i}": f"o{i}" for i in range(3)},
                        [("q0", "x", targets[0]), ("q0", "y", targets[1]),
                         ("q1", "x", "q0"), ("q2", "x", "q0")])

    a, b = fork("a", ["q1", "q2"]), fork("b", ["q0", "q1"])
    m = InputModel.uniform(a)
    calls = {
        "b": [lambda: choice_information(b, m, "q0"),
              lambda: path_choice_information(b, m, "q0", ["x", "x"]),
              lambda: ensemble_dissipation(b, m, [1.0, 0.0, 0.0], 3),
              lambda: ensemble_step(b, m, [1.0, 0.0, 0.0]),
              lambda: write_automaton(b, m),
              lambda: product_input_model(product_many([b, b]), [m, m])],
        "bb2_head": [lambda: modular_tm_dissipation(bb2, model=m)],
    }
    for name, refused in calls.items():
        for call in refused:
            with pytest.raises(InvalidDistribution) as exc:
                call()
            assert str(exc.value) == (f"input model of graph 'a' is used on graph {name!r}, "
                                      "a different graph")
    again = fork("a", ["q1", "q2"])
    assert again is not a and choice_information(again, m, "q0") == 1.0
    assert ensemble_dissipation(again, m, [1.0, 0.0, 0.0], 3).total_loss_bits == 1.0
