"""Digest pins of ``product``, ``wire`` and ``tm`` commands on generated inputs.

``golden/generated_digests.json`` holds, for each case below, the exit
code and the sha256 of stdout and stderr of ``autodiss`` in text and
``--json`` form, and the sha256 of each file written by ``-o``.  The
inputs come from the benchmark's generator ``perfbench/gen.py``:
seeded pairs of 30-state random modules, each given sink states and a
state that no arrow enters; a pair whose state names hold ``+`` and
``!``, so that tuple names do not sort part by part; clock-driven rings
of 8, 10 and 12 T-flip-flops, and one of 21 that ``wire`` refuses
as too large; ``gen.chain_wiring`` rings of random modules, one cut
before a free module, one with two free modules and one with a module
held by a ``constant`` line; ``test`` tours of strongly connected
automata of 80, 160 and 300 states; and seeded sweeper machines of
up to 2,000 steps, one of them cut by its step budget so that it does
not halt.  On three sweepers of about 150, 800 and 1,500 steps it also
pins ``tm run``, ``tm dissip`` and ``tm bennett``, and, in its
``library`` section, the sha256 of the state names and of the arrows of
``global_graph`` on the run and on the Bennett simulation (the CLI never
builds the Bennett chain, so only these pins cover its names), of every
configuration of the run, of some of its indices and slices, and of the
working configuration of every Bennett snapshot.  On ``bincounter.tm``,
which does not halt, it pins ``tm run`` at 100,000 steps, ``tm dissip``
at 5,000, the log of the 100,000-step run, and the configuration names
and some lookups of a 20,000-step run.  On three more sweepers, of 152, 458
and 1,199 steps, and on ``bincounter.tm`` at 1,500 and 3,000 steps, it pins
every analysis of a ``tm_history`` benchmark job, called in the
benchmark's order while its run is held: the run, the modular bits and,
on the sweepers, the lemma's report, the run's chain, every field of the
Bennett simulation and its chain.  On each ``product`` pair, under
seeded non-uniform module models, it pins the ``repr`` of the product
model's weights and every tuple state's choice bits; on a 2,400-state
``gen.strongly_connected`` automaton, the per-step loss and input bits
of a 40-step ensemble.  On seeded random machines over ``_ a b`` it pins
the log, end and result of ``tm_run`` on inputs with gaps, and chains of
``tm_step`` from hand-built configurations whose head lies outside every
cell; the runs move the head left of cell 0 and blank the cells at both
ends of the window.  On the same machines it pins what a replay names:
each run's renders, configurations and lookups, the working
configurations of the Bennett snapshots of each run that halts, and the
render and read of every configuration of each ``tm_step`` chain.  On
each ring and chain wiring that ``wire`` builds, it pins every field of
``reachable_subgraph`` of the closed system.  On one seeded round of the
``tour_ensemble`` benchmark it pins each tour's word and covered set, the
verdicts of an honest device and of one with a redirected arrow, and the
path bits, and the rows, outputs and model weights of the round's two
ensemble files; the same of ten ``gen.random_module`` files with ``prob``
lines; and the ``Untestable`` refusal of five seeded modules with sinks.
On products of three seeded ``gen.strongly_connected`` modules, of three
``gen.random_module`` modules with sinks and of a pair renamed so that
tuple names do not sort part by part, it pins what reads a product's
rows: the rows, the reachable part, the tour from the initial state (or
its refusal), ``equivalent`` of the product with itself, with and
without a ``symbol_map``, the written text and the ``repr``.  On one
seeded ``modular_product`` benchmark round, loaded as a benchmark job
loads it (each module's text, then the wiring's while the modules are
held, then the spec's), it pins the product's rows, its model's weights,
the choice bits, the wiring's reachable states and rows and
``equivalent``; and the reachable part of a wiring that names one module
file three times.

Run as a script, this file only adds pins; for a deliberate change of
output, delete the changed keys by hand first (see ``golden.py``).
"""

import contextlib
import hashlib
import os
import random
import sys

import golden
from autodiss.assets import asset_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "golden", "generated_digests.json")

PRODUCT_SEEDS = (1, 2, 3)
RING_SIZES = (8, 10, 12, 21)  # 2**21 tuple states exceed the monolithic limit
# (seed, module sizes (states, inputs), free modules, module held at its first input
# by a constant line) of gen.chain_wiring rings; the seeds are ones whose closed
# systems reach 15, 7, 10 and 21 tuple states.
CHAINS = ((8, ((3, 2), (4, 2), (3, 3)), {"m1"}, None),
          (35, ((4, 2), (3, 3), (4, 2), (2, 2)), set(), None),
          (40, ((4, 2), (3, 3), (4, 2)), set(), "m1"),
          (42, ((3, 2), (4, 2), (3, 3), (2, 2)), {"m1", "m3"}, None))
TOUR_SIZES = (80, 160, 300)  # states of the gen.strongly_connected automata given to test
TOUR_ROUND_SEED = 36  # the seed of the pinned gen._tour_round
PROB_MODULE_SEED = 36  # draws gen.random_module files until ten hold prob lines
SINK_SEEDS = (1, 2, 3, 4, 5)  # seeds of the _module files whose tours are refused
# seeds of the gen.strongly_connected module sets whose products are pinned, then of the
# gen.random_module set with sinks and of the renamed pair
PRODUCT_PIN_SEEDS, PRODUCT_SINK_SEED, PRODUCT_UNORDERED_SEED = (1, 2, 3), 4, 5
LOAD_ROUND_SEED = 0  # the seed of the pinned gen.generate("modular_product") round
REPEATED_SEED = 38  # draws the module that one wiring names three times
# (seed, width, sweeps, step budget): steps are width + sweeps * (width + 1)
SWEEPS = ((1, 3, 2, 10_000), (2, 12, 9, 10_000), (3, 40, 47, 10_000), (4, 20, 10, 100))
# (seed, width, sweeps) of the sweepers of 155, 799 and 1,516 steps pinned by every tm command
TM_SWEEPS = ((5, 11, 12), (6, 24, 31), (7, 36, 40))
# (command, step budget) of the long runs of bincounter.tm, which does not halt
LONG_RUNS = (("run", 100_000), ("dissip", 5_000))
# (seed, width, sweeps) of the sweepers of 152, 458 and 1,199 steps, and the step budgets
# of bincounter.tm, whose every analysis is pinned in the benchmark's order
JOB_SWEEPS = ((11, 8, 16), (12, 16, 26), (13, 24, 47))
COUNTER_BUDGETS = (1_500, 3_000)
WANDERER_SEEDS = tuple(range(1, 13))  # seeded random machines of four control states
WANDERER_TAPES = ("a_b_a", "__ab_b", "")  # gaps, and a head left of every cell
# hand-built starts of the tm_step chains: the head left of, right of and
# between the cells, and on a blank tape
STEP_STARTS = (("q0", -4, ((0, "a"), (3, "b"), (7, "a"))), ("q1", 9, ((-2, "b"), (1, "a"), (2, "a"))),
               ("q2", 4, ((0, "a"), (8, "b"))), ("q3", -1, ()))


def _module(gen, rng, name):
    """A 30-state, 3-symbol random module from ``gen``, with two sinks
    and one state that no arrow enters."""
    spec = gen.random_module(rng, 30, 3)
    states = spec["states"]
    sinks, hidden = rng.sample(states[1:], 2), rng.choice(states[1:])
    for q in sinks:
        spec["trans"] = {k: t for k, t in spec["trans"].items() if k[0] != q}
        spec["prob"] = {k: p for k, p in spec["prob"].items() if k[0] != q}
    spec["trans"] = {k: (states[0] if t == hidden else t) for k, t in spec["trans"].items()}
    return gen.aut_text(name, spec)


def _renamed(spec, mark):
    """``spec`` with each state ``q`` renamed ``q<mark>``, or ``<mark>q`` for
    every third one, so that tuple names do not sort as their parts do."""
    ren = {q: f"{mark}{q}" if i % 3 == 0 else f"{q}{mark}" for i, q in enumerate(spec["states"])}
    return dict(spec, states=[ren[q] for q in spec["states"]], initial=ren[spec["initial"]],
                output={ren[q]: r for q, r in spec["output"].items()},
                trans={(ren[q], s): ren[t] for (q, s), t in spec["trans"].items()},
                prob={(ren[q], s): p for (q, s), p in spec["prob"].items()})


def _ring(n: int) -> str:
    """A clock-driven ring of ``n`` T-flip-flops, each toggled by its
    predecessor's bit, started with one bit set."""
    lines = [f"wiring ring{n}"] + [f"module m{i} tff.aut" for i in range(n)]
    lines += [f"connect m{i} m{(i + 1) % n} Q0=T0 Q1=T1" for i in range(n)]
    return "\n".join(lines + ["initial m0 1"]) + "\n"


def _inputs(gen, tmp_dir) -> list[tuple[str, list[str]]]:
    """``(key, argv)`` of each case, its input files written to ``tmp_dir``."""
    def write(name, text):
        path = os.path.join(tmp_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    out_file = os.path.join(tmp_dir, "out.aut")
    cases = []
    for seed in PRODUCT_SEEDS:
        rng = random.Random(seed)
        a = write(f"a{seed}.aut", _module(gen, rng, f"a{seed}"))
        b = write(f"b{seed}.aut", _module(gen, rng, f"b{seed}"))
        cases += [(f"product/{seed}", ["product", a, b]),
                  (f"product/{seed}/o", ["product", a, b, "-o", out_file])]
    rng = random.Random(4)
    a, b = (write(f"{name}.aut", gen.aut_text(name, _renamed(gen.random_module(rng, 6, 3), mark)))
            for name, mark in (("plus", "+"), ("bang", "!")))
    cases += [("product/unordered", ["product", a, b]),
              ("product/unordered/o", ["product", a, b, "-o", out_file])]
    with open(os.path.join(ROOT, "src", "autodiss", "assets", "tff.aut"), encoding="utf-8") as fh:
        write("tff.aut", fh.read())
    for n in RING_SIZES:
        ring = write(f"ring{n}.wiring", _ring(n))
        cases += [(f"wire/ring{n}", ["wire", ring]),
                  (f"wire/ring{n}/o", ["wire", ring, "-o", out_file])]
    for seed, sizes, free, held in CHAINS:
        rng = random.Random(seed)
        mods = [(f"m{i}", gen.random_module(rng, nq, ns)) for i, (nq, ns) in enumerate(sizes)]
        lines, _ = gen.chain_wiring(rng, mods, free)
        lines = [f"constant {held} {dict(mods)[held]['inputs'][0]}"
                 if line.startswith("connect ") and line.split()[2] == held else line
                 for line in lines]
        files = [write(f"chain{seed}_{n}.aut", gen.aut_text(f"chain{seed}{n}", spec))
                 for n, spec in mods]
        chain = write(f"chain{seed}.wiring", "\n".join(
            [f"wiring chain{seed}"] + [f"module {n} {os.path.basename(f)}"
                                       for (n, _), f in zip(mods, files)] + lines) + "\n")
        cases += [(f"wire/chain{seed}", ["wire", chain]),
                  (f"wire/chain{seed}/o", ["wire", chain, "-o", out_file])]
    for n in TOUR_SIZES:
        aut = write(f"sc{n}.aut", gen.aut_text(f"sc{n}", gen.strongly_connected(random.Random(n), n)))
        cases.append((f"test/sc{n}", ["test", aut]))
    for seed, width, sweeps, budget in SWEEPS:
        tm = write(f"sw{seed}.tm", gen.sweeper_text(random.Random(seed), f"sw{seed}",
                                                      width, sweeps))
        argv = ["tm", "linear", tm, "--max-steps", str(budget)]
        cases += [(f"linear/{seed}", argv), (f"linear/{seed}/o", argv + ["-o", out_file])]
    for seed, width, sweeps in TM_SWEEPS:
        tm = write(f"sw{seed}.tm", _sweeper(gen, seed, width, sweeps))
        for command in ("run", "dissip", "bennett", "linear"):
            cases.append((f"tm-{command}/{seed}", ["tm", command, tm, "--max-steps", "10000"]))
        cases.append((f"tm-linear/{seed}/o", cases[-1][1] + ["-o", out_file]))
    for command, budget in LONG_RUNS:
        cases.append((f"tm-{command}/bincounter",
                      ["tm", command, asset_path("bincounter.tm"), "--max-steps", str(budget)]))
    return cases


def _sweeper(gen, seed, width, sweeps) -> str:
    return gen.sweeper_text(random.Random(seed), f"sw{seed}", width, sweeps)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _graph_digests(graph) -> dict:
    arrows = "".join(f"{a.source}\t{a.target}\t{','.join(a.labels)}\n" for a in graph.arrows)
    return {"states": _sha("".join(f"{q}\n" for q in graph.states)), "arrows": _sha(arrows)}


def _lookups(configs) -> list:
    """Five middle configurations and three slices, one of them reversed."""
    n = len(configs) - 1
    return ([configs[i] for i in (1, n // 3, n // 2, 2 * n // 3, n - 1)]
            + [configs[n // 5: n // 5 + 9], configs[n // 2:: 7], configs[3 * n // 4: n // 4: -5]])


def wanderer(seed):
    """A random machine over ``_ a b`` with control states ``q0``-``q3``:
    each rule writes any symbol and moves L, R or N, and on ``b`` it may
    halt in ``h``."""
    from autodiss import turing

    rng = random.Random(seed)
    states = ["q0", "q1", "q2", "q3"]
    rules = [(q, s, rng.choice(states + ["h"] * (s == "b")), rng.choice("_ab"), rng.choice("LLRRN"))
             for q in states for s in "_ab"]
    return turing.make_machine(f"wander{seed}", "_ab", "_", states + ["h"], "q0", ["h"], rules)


def wanderings(tm):
    """``tm_run`` on each ``WANDERER_TAPES`` input for up to 500 steps, and
    up to 201 ``tm_step`` configurations from each ``STEP_STARTS`` start."""
    from autodiss import turing
    from autodiss.errors import Halted

    runs = [turing.tm_run(tm, list(tape), max_steps=500) for tape in WANDERER_TAPES]
    chains = []
    for control, head, cells in STEP_STARTS:
        chain = [turing.Configuration(control, head, cells)]
        with contextlib.suppress(Halted):
            while len(chain) <= 200:
                chain.append(turing.tm_step(tm, chain[-1]))
        chains.append(chain)
    return runs, chains


def _model(a, rng):
    """A seeded non-uniform model of ``a``: each arrow weighs 0 to 3 before
    the row is divided by its sum, so rows repeat and hold zeros."""
    from autodiss.dissipation import InputModel

    rows = []
    for ts in a.successors:
        row = [float(rng.randint(0, 3)) for _ in ts]
        if row and not any(row):
            row[0] = 1.0
        rows.append(tuple([w / sum(row) for w in row]))
    return InputModel(a, tuple(rows))


def _model_digests(texts, seed) -> dict:
    """The product model's ``repr`` and every tuple state's choice bits,
    under seeded non-uniform models of the modules in ``texts``."""
    from autodiss import composition, dissipation, fileformat

    rng = random.Random(seed)
    mods = [fileformat.parse_automaton(text)[0] for text in texts]
    p = composition.product_many(mods)
    pm = composition.product_input_model(p, [_model(a, rng) for a in mods])
    return {"weights": _sha(repr(pm.weights)), "choice_bits": _sha(repr(
        [dissipation.choice_information(p, pm, q) for q in p.states]))}


def library(gen, tmp_dir) -> dict:
    """Digests of ``global_graph`` on the run and on the Bennett
    simulation of each ``TM_SWEEPS`` machine, of the run's configurations
    and of the working configurations of the Bennett snapshots, of the
    step log of the long ``bincounter.tm`` run, and of the names and
    lookups of a 20,000-step one; of the product models of the
    ``product`` cases; of every analysis of each ``JOB_SWEEPS`` machine and of
    ``bincounter.tm`` at each ``COUNTER_BUDGETS`` budget, in the benchmark's
    order; of the per-step bits of a 2,400-state ensemble; and
    of the runs, replays and ``tm_step`` chains of the ``WANDERER_SEEDS`` machines;
    and of the reachable part of the closed system of each ring and chain
    wiring that ``wire`` builds, read from the files :func:`_inputs` wrote
    to ``tmp_dir``; then the tour pins and the product pins."""
    from autodiss import dissipation, fileformat, turing

    bincounter = fileformat.load_machine(asset_path("bincounter.tm"))
    pins = {"log/bincounter": _sha(repr(turing.tm_run(bincounter, max_steps=100_000).log))}
    counting = turing.tm_run(bincounter, max_steps=20_000).configurations
    pins["trajectory/bincounter"] = {"renders": _sha(repr(counting.renders())),
                                     "lookups": _sha(repr(_lookups(counting)))}
    for seed, width, sweeps in TM_SWEEPS:
        tm = fileformat.parse_machine(_sweeper(gen, seed, width, sweeps))
        run, ben = turing.tm_run(tm), turing.bennett_simulate(tm)
        pins[f"run/{seed}"] = _graph_digests(turing.global_graph(run))
        pins[f"bennett/{seed}"] = _graph_digests(turing.global_graph(ben))
        pins[f"trajectory/{seed}"] = {
            "configurations": _sha(repr(tuple(run.configurations))),
            "lookups": _sha(repr(_lookups(run.configurations)))}
        pins[f"snapshots/{seed}"] = _sha(repr([g.config for g in ben.global_configs]))
    for seed, width, sweeps in JOB_SWEEPS:
        tm = fileformat.parse_machine(_sweeper(gen, seed, width, sweeps))
        pins[f"job/{seed}"] = _job_digests(tm, width + sweeps * (width + 1) + 8, halts=True)
    for budget in COUNTER_BUDGETS:
        pins[f"job/bincounter/{budget}"] = _job_digests(bincounter, budget, halts=False)
    for seed in PRODUCT_SEEDS:
        rng = random.Random(seed)
        pins[f"model/{seed}"] = _model_digests(
            [_module(gen, rng, f"a{seed}"), _module(gen, rng, f"b{seed}")], seed)
    rng = random.Random(4)
    pins["model/unordered"] = _model_digests(
        [gen.aut_text(name, _renamed(gen.random_module(rng, 6, 3), mark))
         for name, mark in (("plus", "+"), ("bang", "!"))], 4)
    a, m = fileformat.parse_automaton(
        gen.aut_text("sc2400", gen.strongly_connected(random.Random(2400), 2400)))
    trace = dissipation.ensemble_dissipation(a, m, dissipation.uniform_distribution(a), 40)
    pins["ensemble/2400"] = {"loss_bits": _sha(repr(trace.per_step_loss_bits)),
                             "input_bits": _sha(repr(trace.per_step_input_bits))}
    for seed in WANDERER_SEEDS:
        tm = wanderer(seed)
        runs, chains = wanderings(tm)
        pins[f"wander/{seed}"] = {
            "runs": _sha(repr([(run.log, run.configurations[-1], run.result) for run in runs])),
            "steps": _sha(repr(chains))}
        pins[f"replay/{seed}"] = _replay_digests(tm, runs, chains)
    # every ring but the last, which ``wire`` refuses
    wirings = [f"ring{n}" for n in RING_SIZES[:-1]] + [f"chain{seed}" for seed, *_ in CHAINS]
    for name in wirings:
        pins[f"reach/{name}"] = _reach_digest(os.path.join(tmp_dir, f"{name}.wiring"))
    pins.update(_tour_digests(gen))
    pins.update(_product_digests(gen))
    pins.update(_load_digests(gen, tmp_dir))
    return pins


class _Redirected:
    """A device stepping ``a`` from ``state``, except that ``redirect``'s
    (state, symbol) leads to its third item."""

    def __init__(self, a, state, redirect):
        self.a, self.state, self.redirect = a, state, tuple(redirect)

    def output(self):
        return self.a.output_map[self.state]

    def apply(self, symbol):
        from autodiss import core

        q, s, t = self.redirect
        self.state = t if (self.state, symbol) == (q, s) else core.step(self.a, self.state, symbol)


def _tour_digests(gen) -> dict:
    """Each tour of one seeded ``tour_ensemble`` round: its word, covered set,
    the honest and redirected verdicts and the path bits; the rows, outputs
    and weights of the round's ensemble files and of ten ``gen.random_module``
    files with ``prob`` lines; and the refusal of the ``SINK_SEEDS`` modules."""
    from autodiss import conformance, dissipation, fileformat
    from autodiss.errors import Untestable

    out = gen.JobList()
    jobs = gen._tour_round(random.Random(TOUR_ROUND_SEED), ROOT, out, 0)
    pins = {}
    for job in jobs:
        a, m = fileformat.parse_automaton(out.files[job["file"]])
        key = job["file"].rsplit(".", 1)[0]
        if job["kind"] == "ensemble":
            pins[f"parse/{key}"] = _sha(repr((a.moves, a.output_map, m.weights)))
            continue
        tour = conformance.transition_tour(a, a.initial)
        honest = conformance.AutomatonOracle(a, a.initial)
        faulty = _Redirected(a, a.initial, job["redirect"])
        report = dissipation.path_choice_information(a, m, a.initial, tour.word)
        pins[f"tour/{key}"] = {
            "word": _sha(repr(tour.word)), "covered": _sha(repr(sorted(tour.covered))),
            "verdicts": repr([conformance.simulate_test(a, d, tour) for d in (honest, faulty)]),
            "bits": _sha(repr((report.per_step_bits, report.total_bits)))}
    rng, found = random.Random(PROB_MODULE_SEED), 0
    while found < 10:
        spec = gen.random_module(rng, 30, 3)
        if spec["prob"]:
            a, m = fileformat.parse_automaton(gen.aut_text(f"p{found}", spec))
            pins[f"parse/prob{found}"] = _sha(repr((a.moves, a.output_map, m.weights)))
            found += 1
    for seed in SINK_SEEDS:
        a, _ = fileformat.parse_automaton(_module(gen, random.Random(seed), f"u{seed}"))
        try:
            conformance.transition_tour(a, a.initial)
        except Untestable as e:
            pins[f"untestable/{seed}"] = {"uncovered": _sha(repr(sorted(e.uncovered))),
                                          "message": _sha(str(e))}
    return pins


def _product_digests(gen) -> dict:
    """Of each pinned product: its rows, the states and rows of its reachable
    part, the word of its tour from ``initial`` or the refusal, ``equivalent``
    with itself without and with the identity ``symbol_map``, the text that
    ``write_automaton`` gives and the ``repr``."""
    from autodiss import composition, conformance, fileformat
    from autodiss.errors import Untestable

    def modules(seed, draw):
        rng = random.Random(seed)
        return [gen.aut_text(f"p{seed}m{i}", draw(rng)) for i in range(3)]

    sets = {str(seed): modules(seed, lambda rng: gen.strongly_connected(
        rng, rng.randint(3, 6), rng.randint(2, 3))) for seed in PRODUCT_PIN_SEEDS}
    sets["sinks"] = modules(PRODUCT_SINK_SEED, lambda rng: gen.random_module(
        rng, rng.randint(2, 5), rng.randint(1, 3)))
    rng = random.Random(PRODUCT_UNORDERED_SEED)
    sets["unordered"] = [gen.aut_text(name, _renamed(gen.strongly_connected(rng, 5, 2), mark))
                         for name, mark in (("plus", "+"), ("bang", "!"))]
    pins = {}
    for key, texts in sets.items():
        p = composition.product_many([fileformat.parse_automaton(text)[0] for text in texts])
        sub = composition.reachable_subgraph(p)
        try:
            tour = repr(conformance.transition_tour(p, p.initial).word)
        except Untestable as e:
            tour = str(e)
        same = {s: s for s in p.input_alphabet}
        pins[f"product/{key}"] = {
            "moves": _sha(repr(p.moves)), "reach": _sha(repr((sub.states, sub.moves))),
            "tour": _sha(tour), "text": _sha(fileformat.write_automaton(p)), "repr": _sha(repr(p)),
            "equivalent": repr([composition.equivalent(p, p), composition.equivalent(p, p, same)])}
    return pins


def _load_digests(gen, tmp_dir) -> dict:
    """Of one seeded ``modular_product`` round, loaded job by job as the benchmark
    loads it, with each job's module models held while its wiring is parsed: the
    product's rows, its model's weights, the choice bits, the wiring's reachable
    states and rows and ``equivalent``.  Then the reachable part of a chain wiring
    whose three modules are one file."""
    from autodiss import composition, dissipation, fileformat

    base = os.path.join(tmp_dir, "round")
    os.makedirs(base)
    out = gen.generate("modular_product", LOAD_ROUND_SEED, 1, ROOT)
    for name, text in out.files.items():
        with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    got = {"moves": [], "weights": [], "choice_bits": [], "reach": [], "equivalent": []}
    for job in out.jobs:
        parsed = [fileformat.parse_automaton(out.files[name]) for name in job["modules"]]
        p = composition.product_many([a for a, _ in parsed])
        pm = composition.product_input_model(p, [m for _, m in parsed])
        w = fileformat.parse_wiring(out.files[job["wiring"]], base_dir=base)
        sub = composition.reachable_subgraph(composition.wire(w))
        ref, _ = fileformat.parse_automaton(out.files[job["spec"]])
        got["moves"].append(p.moves)
        got["weights"].append(pm.weights)
        got["choice_bits"].append({q: dissipation.choice_information(p, pm, q) for q in p.states})
        got["reach"].append((sub.states, sub.moves))
        got["equivalent"].append(composition.equivalent(sub, ref))
    spec = gen.strongly_connected(random.Random(REPEATED_SEED), 4, 2)
    mods = [(f"m{i}", spec) for i in range(3)]
    lines, _ = gen.chain_wiring(random.Random(REPEATED_SEED), mods, {"m0"})
    path = os.path.join(base, "repeated.wiring")
    with open(os.path.join(base, "rep.aut"), "w", encoding="utf-8") as fh:
        fh.write(gen.aut_text("rep", spec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["wiring repeated"] + [f"module {n} rep.aut" for n, _ in mods] + lines) + "\n")
    return {"load/modular_round": {key: _sha(repr(values)) for key, values in got.items()},
            "load/repeated_module": _reach_digest(path)}


def _job_digests(tm, budget: int, halts: bool) -> dict:
    """Every analysis of a benchmark job on ``tm`` with ``budget`` steps, called in the
    benchmark's order with the run held: the run, the modular bits, and, when the
    machine halts, the lemma's report, the run's chain, Bennett's fields and chain."""
    import dataclasses

    from autodiss import turing

    run = turing.tm_run(tm, [], max_steps=budget)
    acc = turing.modular_tm_dissipation(tm, [], max_steps=budget)
    pins = {"run": _sha(repr((run.log, run.configurations[-1], run.halted, run.steps, run.result,
                              run.result_length))),
            "bits": _sha(repr((acc.per_step_bits, acc.head_bits, acc.cell_bits,
                               acc.cumulative_bits, acc.total_bits, acc.trace.log)))}
    if halts:
        pins["lemma"] = _sha(repr(turing.check_convergence_lemma(tm, [], horizon=budget)))
        pins["linear"] = _sha("".join(f"{q}\n" for q in turing.global_graph(run).states))
        ben = turing.bennett_simulate(tm, [], max_steps=budget)
        pins["bennett"] = _sha(repr([getattr(ben, f.name) for f in dataclasses.fields(ben)]
                                    + [ben.classic_step_count]))
        pins["global"] = _graph_digests(turing.global_graph(ben))
    return pins


def _reach_digest(path: str) -> str:
    """The sha256 of the ``repr`` of every field of the reachable part of the
    wiring at ``path``, in order, with each dict as its item list."""
    import dataclasses

    from autodiss import composition, fileformat

    sub = composition.reachable_subgraph(composition.wire(fileformat.load_wiring(path)))
    values = [getattr(sub, f.name) for f in dataclasses.fields(sub)]
    return _sha(repr([list(v.items()) if isinstance(v, dict) else v for v in values]))


def _replay_digests(tm, runs, chains) -> dict:
    """What a replay names on a wanderer: each run's renders and configurations,
    the lookups of each run of 10 steps or more, the working configurations
    of the Bennett snapshots of each tape that halts, and the render and read
    of every configuration along each ``tm_step`` chain."""
    from autodiss import turing

    halting = [tape for tape, run in zip(WANDERER_TAPES, runs) if run.halted]
    return {
        "renders": _sha(repr([run.configurations.renders() for run in runs])),
        "configurations": _sha(repr([tuple(run.configurations) for run in runs])),
        "lookups": _sha(repr([_lookups(run.configurations) for run in runs if run.steps >= 10])),
        "snapshots": _sha(repr([[g.config for g in turing.bennett_simulate(
            tm, list(tape), max_steps=500).global_configs] for tape in halting])),
        "chains": _sha(repr([[(c.render("_"), c.read("_")) for c in chain] for chain in chains]))}


def collect(gen, tmp_dir) -> dict:
    pins = golden.run_forms(_inputs(gen, tmp_dir), os.path.join(tmp_dir, "out.aut"), pin=_sha)
    return {**pins, "library": library(gen, tmp_dir)}


def test_generated_outputs_match_digests(gen, tmp_path):
    golden.check(FIXTURE, collect(gen, str(tmp_path)))


def test_the_wanderers_reach_what_they_are_pinned_for():
    """The pinned runs and chains move left of cell 0 and blank the lowest
    and the highest non-blank cell; some runs halt, with a gap in a result,
    and some run out of budget."""
    seen = set()
    for seed in WANDERER_SEEDS:
        runs, chains = wanderings(wanderer(seed))
        seen.update("halted" if run.halted else "budget" for run in runs)
        seen.update("gap" for run in runs if "_" in (run.result or ()))
        for chain in [list(run.configurations) for run in runs] + chains:
            for c, d in zip(chain, chain[1:]):
                blanked = c.head in dict(c.cells) and c.head not in dict(d.cells)
                if d.head < 0:
                    seen.add("left")
                if blanked and c.head == c.cells[0][0]:
                    seen.add("blank lo")
                if blanked and c.head == c.cells[-1][0]:
                    seen.add("blank hi")
    assert seen == {"halted", "budget", "gap", "left", "blank lo", "blank hi"}


if __name__ == "__main__":
    import tempfile

    sys.dont_write_bytecode = True  # leave perfbench/ as checked in
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        golden.extend(FIXTURE, collect(gen, tmp))
