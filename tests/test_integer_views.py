"""The integer views against references built from named arrows.

Counts, degree sets, uniform models, choice bits and ensemble traces read
``Automaton.successors``, the per-state target indices of the merged
arrows.  Each must equal, float for float and dict order included, what
the same formula gives when it walks ``by_source`` instead; ``by_source``
must equal the grouping of the named ``transitions``, and ``successors``
list its targets in its order.  Input models are weight rows aligned with
``successors``; a whole parse, product, measure and write path never
builds their names-keyed ``probs`` view.
Graphs are random: shuffled state names whose sorted order is not their
index order, sinks, arrows with several labels, unreachable states and
products of such graphs.
"""

import math
import random
from collections import Counter

from autodiss import (
    Arrow,
    InputModel,
    choice_information,
    convergent_states,
    divergent_states,
    ensemble_dissipation,
    entropy_bits,
    parse_automaton,
    path_choice_information,
    product_input_model,
    product_many,
    reachable_states,
    validate,
    write_automaton,
)
from autodiss.errors import AutomataError


def _graph(rng, name):
    """A small graph: some states sinks, few targets for many symbols, and
    the initial state not always able to reach every state."""
    n, k = rng.randint(1, 7), rng.randint(1, 4)
    states = rng.sample([f"{c}{i}" for c in "azq" for i in (1, 10, 2)], n)
    symbols = [f"s{j}" for j in range(k)]
    transitions = []
    for q in states:
        if rng.random() < 0.2:
            continue  # a sink
        targets = rng.sample(states, rng.randint(1, min(n, 3)))
        transitions += [(q, s, rng.choice(targets)) for s in symbols if rng.random() < 0.7]
    rng.shuffle(transitions)
    return validate(name, symbols, [f"o{i}" for i in range(n)], states, states[0],
                    {q: f"o{i}" for i, q in enumerate(states)}, transitions)


def _model(rng, a):
    """Random weights per state, zeros included, on a random part of the
    states; the rest stay uniform."""
    given = {}
    for q, arrows in a.by_source.items():
        if arrows and rng.random() < 0.7:
            weights = [rng.choice([0.0, rng.random()]) for _ in arrows]
            weights[rng.randrange(len(weights))] += 0.5
            given[q] = {ar.key: w / sum(weights) for ar, w in zip(arrows, weights)}
    return InputModel.from_arrow_probs(a, given)


def _grouped(a):
    """``by_source`` as the named transitions group: per state in order,
    per target by name, labels by name."""
    out = {q: {} for q in a.states}
    for (q, s), t in a.transitions.items():
        out[q].setdefault(t, []).append(s)
    return {q: tuple(Arrow(q, t, tuple(sorted(labels[t]))) for t in sorted(labels))
            for q, labels in out.items()}


def _reference(a, m, pi0, horizon):
    """Every checked result, computed from ``by_source``."""
    import numpy as np

    by_source = a.by_source
    bits = {}
    for q, arrows in by_source.items():
        ps = [m.probs[q].get(ar.key, 0.0) for ar in arrows]
        bits[q] = float(sum(-p * math.log2(p) for p in ps if p > 0))
    indeg = Counter(ar.target for arrows in by_source.values() for ar in arrows)
    source, target, weight = [], [], []
    for i, (q, arrows) in enumerate(by_source.items()):
        if not arrows:
            source.append(i)
            target.append(i)
            weight.append(1.0)
        for ar in arrows:
            source.append(i)
            target.append(a.states.index(ar.target))
            weight.append(m.probs[q].get(ar.key, 0.0))
    cvec = np.array([bits[q] for q in a.states])
    dists, losses = [np.clip(np.asarray(pi0, dtype=float), 0.0, None)], []
    for _ in range(horizon):
        cur = dists[-1]
        nxt = np.bincount(target, weights=cur[source] * np.array(weight), minlength=len(cur))
        losses.append(entropy_bits(cur) + float(cur @ cvec) - entropy_bits(nxt))
        dists.append(nxt)
    return {
        "bits": list(bits.items()),
        "uniform": [(q, [(ar.key, 1.0 / len(arrows)) for ar in arrows])
                    for q, arrows in by_source.items()],
        "arrow_count": sum(map(len, by_source.values())),
        "divergent": {q for q, arrows in by_source.items() if len(arrows) >= 2},
        "convergent": {q for q, d in indeg.items() if d >= 2},
        "distributions": [d.tolist() for d in dists],
        "losses": losses,
    }


def _measured(a, m, pi0, horizon):
    trace = ensemble_dissipation(a, m, pi0, horizon)
    return {
        "bits": [(q, choice_information(a, m, q)) for q in a.states],
        "uniform": [(q, list(d.items())) for q, d in InputModel.uniform(a).probs.items()],
        "arrow_count": a.arrow_count,
        "divergent": divergent_states(a),
        "convergent": convergent_states(a),
        "distributions": [d.tolist() for d in trace.distributions],
        "losses": list(trace.per_step_loss_bits),
    }


def test_integer_views_match_references_from_named_arrows():
    rng = random.Random(1401)
    checked = Counter()
    for case in range(400):
        a = _graph(rng, "a")
        if rng.random() < 0.3:
            try:
                a = product_many([a, _graph(rng, "b")])
            except AutomataError:
                continue
        assert list(a.by_source.items()) == list(_grouped(a).items()), case
        assert a.successors == tuple(tuple(a.index[ar.target] for ar in arrows)
                                     for arrows in a.by_source.values()), case
        m = _model(rng, a)
        weights = [rng.random() for _ in a.states]
        pi0 = [w / sum(weights) for w in weights]
        assert _measured(a, m, pi0, 5) == _reference(a, m, pi0, 5), case
        arrows = a.by_source.values()
        checked["sink"] += any(not out for out in arrows)
        checked["multi-label"] += any(len(ar.labels) > 1 for out in arrows for ar in out)
        checked["unreachable"] += len(reachable_states(a, a.initial)) < len(a.states)
        checked["product"] += "|" in a.input_alphabet[0]
    assert min(checked.values()) > 40, checked


def test_models_build_no_names_until_asked():
    """Parse, product, choice bits, ensemble, path bits and the text form
    read every model as weight rows only."""
    lossy, m_lossy = parse_automaton(
        "automaton lossy\ninputs 0 1\noutputs a b c\nstates A B C\ninitial A\n"
        "output A a\noutput B b\noutput C c\n"
        "trans A 0 B\ntrans A 1 C\ntrans B 0 A\ntrans B 1 A\ntrans C 0 C\n"
        "prob A 0 0.25\nprob A 1 0.75\n")
    tff, m_tff = parse_automaton(
        "automaton tff\ninputs T0 T1\noutputs Q0 Q1\nstates 0 1\ninitial 0\n"
        "output 0 Q0\noutput 1 Q1\ntrans 0 T0 0\ntrans 0 T1 1\ntrans 1 T0 1\ntrans 1 T1 0\n")
    prod = product_many([lossy, tff])
    pm = product_input_model(prod, [m_lossy, m_tff])
    bits = [choice_information(prod, pm, q) for q in prod.states]
    n = len(prod.states)
    trace = ensemble_dissipation(prod, pm, [1.0 / n] * n, 4)
    report = path_choice_information(prod, pm, prod.initial, ["0|T1", "1|T0", "0|T0"])
    text = write_automaton(prod, pm) + write_automaton(lossy, m_lossy)
    assert bits[0] == choice_information(lossy, m_lossy, "A") + 1.0
    assert trace.total_loss_bits > 0 and report.per_step_bits == (3.0, 1.0, 3.0)
    assert text.count("\nprob ") == 4 * 2 + 2
    for m in (m_lossy, m_tff, pm):
        assert "probs" not in vars(m)
