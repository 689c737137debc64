"""Information accounting over automaton graphs.

Two complementary measures of logical dissipation are provided:

* per-run choice information, the bits consumed to steer a single path
  through the divergences of the graph;
* ensemble entropy loss, the bits of state entropy plus injected input
  entropy that a distribution over states sheds at each step.

The two are tied by an exact identity: over any horizon, cumulative loss
equals cumulative injected input bits plus the drop in state entropy.
Both use base-2 logarithms; terms with zero probability contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .core import Arrow, Automaton, Path, _state_index, convergent_states, run
from .errors import InvalidArgument, InvalidDistribution, NonPositiveTemperature, SizeLimit, UnknownState

if TYPE_CHECKING:  # numpy is imported on first use, by the ensemble functions
    import numpy as np

BOLTZMANN_K = 1.38e-23  # Joules per Kelvin

PROB_SUM_TOL = 1e-9
# Most bytes the distributions of an ensemble trace may hold: states x (horizon + 1) floats.
ENSEMBLE_BYTE_LIMIT = 2**30


class InputModel:
    """Per-state probability distribution over outgoing merged arrows.

    A merged arrow is one choice regardless of how many symbols label it.
    Stored as the graph is: ``weights[i]`` holds the probabilities of
    ``automaton.states[i]``'s arrows in ``automaton.successors[i]`` order,
    so a sink's row is empty.  Rows are read-only and states may share one
    row object, as a product model's do.  The constructor checks nothing;
    ``probs``, the weights keyed by state and ``(state, target)``, and each
    state's choice bits are built on first read.
    """

    def __init__(self, automaton: Automaton, weights: tuple[tuple[float, ...], ...]):
        self.automaton = automaton
        self.weights = weights

    @cached_property
    def probs(self) -> dict[str, dict[tuple[str, str], float]]:
        states = self.automaton.states
        return {q: {(q, states[t]): p for t, p in zip(targets, row)}
                for q, targets, row in zip(states, self.automaton.successors, self.weights)}

    @cached_property
    def _choice_bits(self) -> tuple[float, ...]:
        """Each state's ``_bits``, summed once per distinct row: rows grouped by identity, then
        by content (``_bits`` skips ``p <= 0``, so ``-0.0`` and ``0.0`` agree)."""
        by_id = {id(row): row for row in self.weights}
        memo = {row: _bits(row) for row in dict.fromkeys(by_id.values())}
        return tuple(map({i: memo[row] for i, row in by_id.items()}.__getitem__, map(id, self.weights)))

    @classmethod
    def uniform(cls, a: Automaton) -> "InputModel":
        """Equal probability on every arrow leaving each state, one row object per out-degree."""
        rows = {d: (1.0 / d,) * d if d else () for d in set(map(len, a.successors))}
        return cls(a, tuple(map(rows.__getitem__, map(len, a.successors))))

    @classmethod
    def from_arrow_probs(
        cls,
        a: Automaton,
        given: dict[str, dict[tuple[str, str], float]],
    ) -> "InputModel":
        """Build a model from explicit per-arrow probabilities.

        States absent from ``given`` default to uniform.  Each provided state
        must assign finite non-negative numbers, read as floats, to its own arrows
        summing to one within ``PROB_SUM_TOL``.  They are divided by their sum only
        when it is off 1.0 by more than rounding (one ulp of 1.0 per arrow),
        so weights written by ``write_automaton`` read back exactly.
        """
        weights = list(cls.uniform(a).weights)
        for q, dist in given.items():
            if q not in a.index:
                raise UnknownState(q, "input model")
            slot = {(q, a.states[t]): k for k, t in enumerate(a.successors[a.index[q]])}
            if not slot:
                if dist:
                    raise InvalidDistribution(f"state {q!r} is a sink")
                continue
            unknown = set(dist).difference(slot)
            if unknown:
                raise InvalidDistribution(f"state {q!r} has no arrow {sorted(unknown)[0]}")
            row = [0.0] * len(slot)
            total = 0.0
            for key, p in dist.items():
                if not hasattr(p, "__float__"):
                    raise InvalidDistribution(f"probability on {key} is not a number: {p!r}")
                if not math.isfinite(p := _float(p)):
                    raise InvalidDistribution(f"non-finite probability on {key}")
                if p < 0:
                    raise InvalidDistribution(f"negative probability on {key}")
                total += p
                row[slot[key]] = p
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise InvalidDistribution(f"probabilities for state {q!r} sum to {total!r}")
            if abs(total - 1.0) > len(row) * math.ulp(1.0):
                row = [p / total for p in row]
            weights[a.index[q]] = tuple(row)
        return cls(a, tuple(weights))

    def arrow_probability(self, q: str, arrow: Arrow) -> float:
        return self.probs[q].get(arrow.key, 0.0)


def _weights(a: Automaton, m: InputModel) -> tuple[tuple[float, ...], ...]:
    """``m``'s rows, once ``m`` is known to be a model of ``a``; O(1) for ``a``'s own."""
    if m.automaton is not a and m.automaton != a:
        raise InvalidDistribution(f"input model of graph {m.automaton.name!r} is used on "
                                  f"graph {a.name!r}, a different graph")
    return m.weights


def _charges(a: Automaton, m: InputModel) -> tuple[float, ...]:
    """Each state's choice bits under ``m``, once ``m`` is known to be a model of ``a``."""
    _weights(a, m)
    return m._choice_bits


def _check_budget(**budgets) -> None:
    """Refuse, in argument order, a step budget, tape cap or horizon that is not an integer >= 0."""
    for name, value in budgets.items():
        if not hasattr(value, "__index__"):
            raise InvalidArgument(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise InvalidArgument(f"{name} must be non-negative")


def _bits(row: Sequence[float]) -> float:
    """-sum p log2 p over one state's arrow probabilities."""
    return float(sum(-p * math.log2(p) for p in row if p > 0))


@dataclass(frozen=True)
class PathReport:
    """Choice-information accounting for a single run."""

    path: Path
    per_step_bits: tuple[float, ...]
    total_bits: float
    convergences_entered: tuple[int, ...]


@dataclass(frozen=True)
class EnsembleTrace:
    """Entropy accounting for a distribution over states, step by step.

    ``distributions[t]`` is the state distribution before step ``t``;
    there is one more distribution than steps.  ``cumulative_loss_bits``
    holds running sums of ``per_step_loss_bits``.
    """

    states: tuple[str, ...]
    distributions: tuple[np.ndarray, ...]
    per_step_loss_bits: tuple[float, ...]
    per_step_input_bits: tuple[float, ...]
    cumulative_loss_bits: tuple[float, ...]

    @property
    def total_loss_bits(self) -> float:
        return self.cumulative_loss_bits[-1] if self.cumulative_loss_bits else 0.0


def _mass(pi) -> np.ndarray:
    """``pi`` as a float array; raises :class:`InvalidDistribution` when an entry is not a number
    that a float holds, an int beyond the float range included."""
    import numpy as np

    try:
        return np.asarray(pi, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidDistribution(f"probability mass is not numeric: {err}") from None


def entropy_bits(pi: np.ndarray) -> float:
    """Shannon entropy in bits; zero entries add nothing, and negative or non-finite mass raises."""
    import numpy as np

    p = _mass(pi)
    if not (p.min(initial=0.0) >= -1e-12 and p.max(initial=0.0) < math.inf):
        raise InvalidDistribution("negative or non-finite probability mass")
    p = p[p > 0]
    return float(-np.dot(p, np.log2(p)))


def choice_information(a: Automaton, m: InputModel, q: str) -> float:
    """Bits needed to leave ``q`` under the model: -sum p log2 p.

    Zero for sinks and for states with a single arrow (indifferent or
    implicit input); at most log2 of the out-arrow count.  The model sums
    each distinct row once, on the first call, and every call reads it.
    """
    i = _state_index(a, q)
    return _charges(a, m)[i]


def path_choice_information(
    a: Automaton, m: InputModel, start: str, word: Sequence[str]
) -> PathReport:
    """Run a word and charge -log2(arrow probability) at each step.

    Under the uniform model the total is the sum of log2(out-degree)
    over divergent states left along the path.  Also records the step
    indices whose target state is a convergence, where the charged
    information is subsequently lost.
    """
    weights = _weights(a, m)
    path = run(a, start, word)
    conv = convergent_states(a)
    bits = []
    entered = []
    for i, (source, target) in enumerate(zip(path.states, path.states[1:])):
        k = a.index[source]
        p = weights[k][a.successors[k].index(a.index[target])]
        bits.append(-math.log2(p) if p > 0 else math.inf)
        if target in conv:
            entered.append(i)
    return PathReport(
        path=path,
        per_step_bits=tuple(bits),
        total_bits=float(sum(bits)),
        convergences_entered=tuple(entered),
    )


def _check_distribution(a: Automaton, pi: Sequence[float]) -> np.ndarray:
    import numpy as np

    p = _mass(pi)
    if p.shape != (len(a.states),):
        raise InvalidDistribution(f"expected {len(a.states)} entries, got {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidDistribution("non-finite probability mass")
    if np.any(p < -1e-12):
        raise InvalidDistribution("negative probability mass")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidDistribution(f"distribution sums to {total!r}")
    return np.clip(p, 0.0, None)


def ensemble_step(
    a: Automaton, m: InputModel, pi: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Propagate a state distribution one step and return the loss.

    Loss is H(pi) plus the expected choice information injected, minus
    H(pi').  It is non-negative because the joint (state, arrow) choice
    maps deterministically onto the next state; mass on sink states is
    carried unchanged and injects nothing.
    """
    trace = ensemble_dissipation(a, m, pi, 1)
    return trace.distributions[1], trace.per_step_loss_bits[0]


def ensemble_dissipation(
    a: Automaton, m: InputModel, pi0: Sequence[float], horizon: int
) -> EnsembleTrace:
    """Propagate a distribution for ``horizon`` steps, as
    :func:`ensemble_step` does for one.

    Each step pushes the mass along the arrows, ``successors`` with their
    ``weights``, with one ``np.bincount``, O(states + arrows) time and
    memory; no state-by-state matrix is built.  A sink is a self-loop of
    weight one, so it holds its mass.  The trace satisfies, exactly up to
    float error:
    cumulative_loss(T) = sum_t input_bits(t) + H(pi_0) - H(pi_T).
    Distributions past ``ENSEMBLE_BYTE_LIMIT`` bytes raise :class:`SizeLimit` before any step.
    """
    import numpy as np

    _check_budget(horizon=horizon)
    if (size := 8 * len(a.states) * (horizon + 1)) > ENSEMBLE_BYTE_LIMIT:
        raise SizeLimit(size, ENSEMBLE_BYTE_LIMIT, "bytes of distributions")
    p = _check_distribution(a, pi0)
    weights = _weights(a, m)
    targets = [ts or (i,) for i, ts in enumerate(a.successors)]
    source = np.repeat(np.arange(len(targets)), list(map(len, targets)))
    target = np.array([t for ts in targets for t in ts], dtype=np.intp)
    weight = np.array([w for ws in weights for w in ws or (1.0,)], dtype=float)
    cvec = np.array(_charges(a, m))
    dists = [p]
    losses = []
    inputs = []
    cumulative = []
    total, h = 0.0, entropy_bits(p)
    for _ in range(horizon):
        cur = dists[-1]
        nxt = np.bincount(target, weights=cur[source] * weight, minlength=len(cur))
        inj = float(cur @ cvec)
        loss = h + inj - (h := entropy_bits(nxt))  # each entropy is taken once
        dists.append(nxt)
        inputs.append(inj)
        losses.append(loss)
        total += loss
        cumulative.append(total)
    return EnsembleTrace(
        states=a.states,
        distributions=tuple(dists),
        per_step_loss_bits=tuple(losses),
        per_step_input_bits=tuple(inputs),
        cumulative_loss_bits=tuple(cumulative),
    )


def point_distribution(a: Automaton, q: str) -> np.ndarray:
    """All probability mass on one state."""
    import numpy as np

    p = np.zeros(len(a.states))
    p[_state_index(a, q)] = 1.0
    return p


def uniform_distribution(a: Automaton) -> np.ndarray:
    import numpy as np

    return np.full(len(a.states), 1.0 / len(a.states))


def szilard_check(s1: float, s2: float, k: float = BOLTZMANN_K) -> bool:
    """Whether entropy increases of a two-state memory respect the bound
    exp(-s1/k) + exp(-s2/k) <= 1.

    Both entropies are numbers, not NaN, in Joules per Kelvin.  Equality holds at
    s1 = s2 = k ln 2, the symmetric one-bit memory.  ``k`` must be positive and finite.
    """
    if not 0 < (k := _float(k)) < math.inf:
        raise InvalidArgument("k must be positive and finite")
    for name, s in {"s1": s1, "s2": s2}.items():
        if math.isnan(_float(s)):
            raise InvalidArgument(f"{name} must be a number, got {s!r}")
    try:
        total = math.exp(-_float(s1) / k) + math.exp(-_float(s2) / k)
    except OverflowError:
        return False
    return total <= 1.0 + 1e-12


def landauer_energy(bits: float, temperature: float) -> float:
    """Minimum physical cost of erasing ``bits`` at ``temperature``:
    bits * k * T * ln 2, in Joules.  Both arguments must be finite numbers."""
    if not 0 < _float(temperature) < math.inf:
        raise NonPositiveTemperature(temperature)
    if not math.isfinite(_float(bits)):
        raise InvalidArgument("bits must be finite")
    if bits < 0:
        raise InvalidArgument("bits must be non-negative")
    return _float(bits) * BOLTZMANN_K * _float(temperature) * math.log(2)


def _float(x) -> float:
    """``float(x)``, or NaN for a value with no ``__float__`` or none, as an int beyond floats."""
    try:
        return float(x) if hasattr(x, "__float__") else math.nan
    except (OverflowError, ValueError):
        return math.nan
