"""Benchmark worker: one closed loop, one client, jobs back to back.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to
one thread.  It imports autodiss from the checkout, runs a fixed job
list, checks each job's output against the expected values ``gen.py``
computes without autodiss, and writes latencies, speed probes (see
``clock.py``), failures and, when traced, per-layer spans to a JSON
file.

    python3 perfbench/worker.py <workdir> <workload> <seconds> <trace 0|1> [--corrupt]
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import clock
import gen
import autodiss
from autodiss import cli, composition, conformance, core, dissipation, fileformat, turing

perf = time.perf_counter

MIN_JOBS = 100  # so that ten latencies lie beyond the 90th percentile
HARD_STOP_S = 140.0  # a timed pass never runs past this


class Tracer:
    """Spans recorded around the benchmark's own calls into autodiss.

    A span is (job, name, start, end, ok, size); its parent is the job
    it ran in.  Disabled, ``call`` is a plain call and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}

    def call(self, name, size, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start, ok = perf(), False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.spans.append((self.job, name, start, perf(), ok, size))

    def count(self, key: str, value: float) -> None:
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + value


class Env:
    """Paths of one run: generated files live in ``workdir``."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.corrupt = False
        self.python = sys.executable
        self.root = os.getcwd()

    def read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return fh.read()


class DictDevice:
    """A black-box device stepping a plain transition table; one
    transition may be redirected to model a faulty implementation."""

    def __init__(self, trans, output, state, redirect=None):
        self.trans = dict(trans)
        if redirect:
            q, s, t = redirect
            self.trans[(q, s)] = t
        self.outputs, self.state = output, state

    def output(self):
        return self.outputs[self.state]

    def apply(self, symbol):
        self.state = self.trans[(self.state, symbol)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _lines(text: str) -> int:
    return text.count("\n")


# ---------------------------------------------------------------- jobs
#
# A job runs the calls a user's file load and analysis would make and
# returns a small summary; ``check_*`` compares the summary with the
# expected values and returns a list of problems (empty when correct).


def job_tm(spec, T: Tracer, env: Env):
    text = env.read(spec["file"])
    tm = T.call("fileformat.parse_machine", _lines(text), fileformat.parse_machine, text)
    budget = spec["budget"]
    steps = spec["expected"]["steps"]
    run = T.call("turing.tm_run", steps, turing.tm_run, tm, [], max_steps=budget)
    T.count("turing.tm_run.steps", run.steps)
    acc = T.call("turing.modular_tm_dissipation", steps,
                 turing.modular_tm_dissipation, tm, [], max_steps=budget)
    out = {"halted": run.halted, "steps": run.steps,
           "cells": [list(c) for c in run.configurations[-1].cells],
           "result": list(run.result) if run.result is not None else None,
           "bits": acc.total_bits}
    if not spec["halts"]:
        return out
    lemma = T.call("turing.check_convergence_lemma", steps,
                   turing.check_convergence_lemma, tm, [], horizon=budget)
    linear = T.call("turing.global_graph.run", steps, turing.global_graph, run)
    ben = T.call("turing.bennett_simulate", steps, turing.bennett_simulate,
                 tm, [], max_steps=budget)
    graph = T.call("turing.global_graph.bennett", steps, turing.global_graph, ben)
    indeg: dict[str, int] = {}
    for ar in graph.arrows:
        indeg[ar.target] = indeg.get(ar.target, 0) + 1
    out.update(
        has_convergence=lemma.has_convergence,
        lemma_halted=lemma.halted,
        head_sequence=len(lemma.head_sequence),
        linear_states=len(linear.states),
        bennett_steps=ben.total_steps,
        history_empty=not ben.global_configs[-1].history,
        input_restored=ben.global_configs[-1].config == ben.global_configs[0].config,
        output_tape=list(ben.output_tape),
        global_states=len(graph.states),
        global_reversible=max(indeg.values(), default=0) <= 1,
    )
    return out


def check_tm(spec, out):
    exp = spec["expected"]
    bad = [k for k in ("halted", "steps", "cells", "result") if out[k] != exp[k]]
    if not _close(out["bits"], exp["bits"]):
        bad.append("bits")
    if not spec["halts"]:
        return bad
    n, r = exp["steps"], len(exp["result"])
    want = {"has_convergence": exp["has_convergence"], "lemma_halted": True,
            "head_sequence": n + 1, "linear_states": n + 1, "bennett_steps": 2 * n + r,
            "history_empty": True, "input_restored": True, "output_tape": exp["result"],
            "global_states": 2 * n + r + 1, "global_reversible": True}
    return bad + [k for k, v in want.items() if out[k] != v]


def job_product(spec, T: Tracer, env: Env):
    autos, models = [], []
    for name in spec["modules"]:
        text = env.read(name)
        a, m = T.call("fileformat.parse_automaton", _lines(text), fileformat.parse_automaton, text)
        autos.append(a)
        models.append(m)
    size = spec["size"]
    p = T.call("composition.product_many", size, composition.product_many, autos)
    T.count("composition.product_many.arrows", p.arrow_count)
    pm = T.call("composition.product_input_model", size,
                composition.product_input_model, p, models)
    bits = T.call("dissipation.choice_information", size, lambda: {
        q: dissipation.choice_information(p, pm, q) for q in p.states})
    text = env.read(spec["wiring"])
    w = T.call("fileformat.parse_wiring", _lines(text), fileformat.parse_wiring,
               text, base_dir=env.workdir)
    closed = T.call("composition.wire", size, composition.wire, w)
    sub = T.call("composition.reachable_subgraph", size, composition.reachable_subgraph, closed)
    T.count("composition.wire.states", len(closed.automaton.states))
    T.count("composition.reachable_subgraph.states", len(sub.states))
    text = env.read(spec["spec"])
    ref, _ = T.call("fileformat.parse_automaton", _lines(text), fileformat.parse_automaton, text)
    same = T.call("composition.equivalent", size, composition.equivalent, sub, ref)
    return {"states": len(p.states), "arrows": p.arrow_count, "bits": bits,
            "reached": sorted(sub.states),
            "wire_trans": sorted([q, s, t] for (q, s), t in sub.transitions.items()),
            "equivalent": same}


def check_product(spec, out):
    exp = spec["expected"]
    bad = [k for k in ("states", "arrows", "reached", "wire_trans")
           if out[k] != exp[k]]
    if out["bits"].keys() != exp["bits"].keys() or not all(
            _close(out["bits"][q], b) for q, b in exp["bits"].items()):
        bad.append("bits")
    if out["equivalent"] is not True:
        bad.append("equivalent")
    return bad


def job_tour(spec, T: Tracer, env: Env):
    text = env.read(spec["file"])
    a, m = T.call("fileformat.parse_automaton", _lines(text), fileformat.parse_automaton, text)
    start = a.initial
    size = spec["size"]
    tour = T.call("conformance.transition_tour", size, conformance.transition_tour, a, start)
    T.count("conformance.transition_tour.arrows", a.arrow_count)
    T.count("conformance.transition_tour.length", tour.length)
    ref = spec["expected"]
    honest = DictDevice(ref["trans"], ref["output"], start)
    faulty = DictDevice(ref["trans"], ref["output"], start, spec["redirect"])
    good = T.call("conformance.simulate_test", size, conformance.simulate_test, a, honest, tour)
    caught = T.call("conformance.simulate_test", size, conformance.simulate_test, a, faulty, tour)
    path = T.call("core.run", size, core.run, a, start, tour.word)
    report = T.call("dissipation.path_choice_information", size,
                    dissipation.path_choice_information, a, m, start, tour.word)
    return {"start": start, "word": list(tour.word), "passed": good.passed,
            "caught": not caught.passed, "end": path.end, "bits": report.total_bits}


def check_tour(spec, out):
    exp = spec["expected"]
    trans = exp["trans"]
    bad = [] if out["start"] == exp["start"] else ["start"]
    q, covered, bits = exp["start"], set(), 0.0
    for s in out["word"]:
        t = trans.get((q, s))
        if t is None:
            return bad + ["word"]
        covered.add((q, t))
        bits += exp["log2_outdeg"][q]
        q = t
    if len(covered) != exp["arrows"]:
        bad.append("covered")
    if out["end"] != q:
        bad.append("end")
    if not _close(out["bits"], bits):
        bad.append("bits")
    return bad + [k for k in ("passed", "caught") if out[k] is not True]


def job_ensemble(spec, T: Tracer, env: Env):
    text = env.read(spec["file"])
    a, m = T.call("fileformat.parse_automaton", _lines(text), fileformat.parse_automaton, text)
    n = len(a.states)
    trace = T.call("dissipation.ensemble_dissipation", spec["size"],
                   dissipation.ensemble_dissipation, a, m, [1.0 / n] * n, spec["horizon"])
    T.count("dissipation.ensemble_dissipation.state_steps", n * spec["horizon"])

    def entropy(p):
        return -math.fsum(x * math.log2(x) for x in p.tolist() if x > 0)

    first, last = trace.distributions[0], trace.distributions[-1]
    return {"states": n, "total": trace.total_loss_bits,
            "identity": math.fsum(trace.per_step_input_bits) + entropy(first) - entropy(last),
            "mass": math.fsum(last.tolist()), "min_loss": min(trace.per_step_loss_bits)}


def check_ensemble(spec, out):
    bad = [] if out["states"] == spec["expected"]["states"] else ["states"]
    if abs(out["total"] - out["identity"]) > 1e-9 * max(1.0, abs(out["total"])):
        bad.append("identity")
    if abs(out["mass"] - 1.0) > 1e-9:
        bad.append("mass")
    if out["min_loss"] < -1e-9:
        bad.append("loss")
    return bad


def _cli_argv(spec, env: Env):
    return ["--json"] + [os.path.join(env.workdir, a[6:]) if a.startswith("@work/") else a
                         for a in spec["args"]]


def job_cli(spec, T: Tracer, env: Env):
    proc = subprocess.run([env.python, "-m", "autodiss.cli"] + _cli_argv(spec, env),
                          capture_output=True, text=True, cwd=env.root)
    return {"code": proc.returncode, "stdout": proc.stdout}


def check_cli(spec, out):
    if out["code"] != 0:
        return ["exit code"]
    exp = spec["expected"]
    if "digraph" in exp:
        want = f'digraph "{exp["digraph"]}"'
        return [] if out["stdout"].startswith(want) else ["digraph"]
    try:
        report = json.loads(out["stdout"])
    except ValueError:
        return ["json"]
    bad = []
    for k, v in exp.items():
        got = report.get(k)
        if isinstance(v, float) and isinstance(got, (int, float)):
            if not _close(got, v):
                bad.append(k)
        elif got != v:
            bad.append(k)
    return bad


def prepare_product(spec, env: Env):
    ref = gen.product_reference([env.read(f) for f in spec["modules"]])
    return dict(spec, expected={**spec["expected"], **ref})


def prepare_tour(spec, env: Env):
    return dict(spec, expected=gen.tour_reference(env.read(spec["file"])))


def _as_is(spec, env: Env):
    return spec


# kind: (derive expected values, run the job, check its output)
JOBS = {"tm": (_as_is, job_tm, check_tm),
        "product": (prepare_product, job_product, check_product),
        "tour": (prepare_tour, job_tour, check_tour),
        "ensemble": (_as_is, job_ensemble, check_ensemble),
        "cli": (_as_is, job_cli, check_cli)}


def _corrupt(expected: dict) -> bool:
    """Add one to the first number among the expected values."""
    for key, value in expected.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            expected[key] = value + 1
            return True
    return False


def run_pass(jobs, T: Tracer, env: Env, seconds=None, min_jobs=0):
    """Run jobs back to back.  Returns raw latencies, the speed probe
    taken before each job and after the last (empty when untimed),
    failures, and the pass wall time without checking and probing.

    With ``seconds``, stop at the first round boundary after that many
    seconds once ``min_jobs`` are done (or after HARD_STOP_S), so that
    every run holds whole rounds of the same size mix."""
    latencies, probes, failures, overhead = [], [], [], 0.0
    start = perf()
    for i, spec in enumerate(jobs):
        if seconds is not None:
            if i and spec["round"] != jobs[i - 1]["round"]:
                elapsed = perf() - start
                if (elapsed >= seconds and len(latencies) >= min_jobs) or elapsed >= HARD_STOP_S:
                    break
            probes.append(clock.probe())
            overhead += probes[-1]
        prepare, job, check = JOBS[spec["kind"]]
        t0 = perf()
        spec = prepare(spec, env)
        if env.corrupt:  # self-test: one wrong expected value per run
            spec = dict(spec, expected=dict(spec["expected"]))
            env.corrupt = not _corrupt(spec["expected"])
        T.job = (spec["round"], i)
        overhead += perf() - t0
        t0 = perf()
        try:
            out = job(spec, T, env)
        except Exception as e:  # a raising job counts as failed, the loop goes on
            latencies.append(perf() - t0)
            failures.append((i, f"raised {type(e).__name__}: {e}"))
            continue
        t1 = perf()
        latencies.append(t1 - t0)
        problems = check(spec, out)
        if problems:
            failures.append((i, "wrong " + ", ".join(problems)))
        del out
        overhead += perf() - t1
    if seconds is not None:
        probes.append(clock.probe())
    return latencies, probes, failures, perf() - start - overhead


def warm_up(workload: str, env: Env) -> float:
    """The one-off warm-up before the first timed job: one tiny fixed
    job on bundled assets, touching the layers the workload uses."""
    asset = os.path.join(env.root, "src", "autodiss", "assets")

    def read(name):
        with open(os.path.join(asset, name), encoding="utf-8") as fh:
            return fh.read()

    before = clock.probe()
    start = perf()
    if workload == "tm_history":
        tm = fileformat.parse_machine(read("bb2.tm"))
        turing.global_graph(turing.bennett_simulate(tm))
    elif workload == "modular_product":
        tff, m = fileformat.parse_automaton(read("tff.aut"))
        composition.product_input_model(composition.product_many([tff, tff]), [m, m])
        composition.reachable_subgraph(
            composition.wire(fileformat.load_wiring(os.path.join(asset, "counter4_tff.wiring"))))
    elif workload == "tour_ensemble":
        a, m = fileformat.parse_automaton(read("lossy.aut"))
        conformance.transition_tour(a, a.initial)
        dissipation.ensemble_dissipation(a, m, dissipation.uniform_distribution(a), 4)
    elapsed = perf() - start
    return elapsed * clock.scale(before, clock.probe())


# ---------------------------------------------------------------- traced run


def _cli_inprocess(jobs, T: Tracer, env: Env):
    """Each command in-process through ``cli.main``, after parsing its
    input files, so the parse share of a command shows."""
    parsers = {".aut": fileformat.parse_automaton, ".tm": fileformat.parse_machine,
               ".wiring": fileformat.parse_wiring}
    for i, spec in enumerate(jobs):
        T.job = i
        argv = _cli_argv(spec, env)
        for path in argv:
            parse = parsers.get(os.path.splitext(path)[1])
            if parse is None:
                continue
            path = os.path.join(env.root, path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            extra = {"base_dir": os.path.dirname(path)} if parse is fileformat.parse_wiring else {}
            T.call(f"fileformat.{parse.__name__}", _lines(text), parse, text, **extra)
        with contextlib.redirect_stdout(io.StringIO()):
            code = T.call(f"cli.main.{spec['command']}", None, cli.main, argv)
        if code != 0:
            raise RuntimeError(f"in-process {spec['command']} exited {code}")


def bennett_peak_mb(jobs, env: Env) -> float:
    """tracemalloc peak of Bennett on the longest halting job."""
    halting = [j for j in jobs if j["kind"] == "tm" and j["halts"]]
    if not halting:
        return 0.0
    spec = max(halting, key=lambda j: j["expected"]["steps"])
    tm = fileformat.parse_machine(env.read(spec["file"]))
    tracemalloc.start()
    try:
        turing.bennett_simulate(tm, [], max_steps=spec["budget"])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv):
    workdir, workload, seconds, traced = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    env = Env(workdir)
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    env.corrupt = "--corrupt" in argv
    result = {"autodiss": autodiss.__file__, "warmup_ref_s": warm_up(workload, env)}
    if not traced:
        lat, probes, fail, wall = run_pass(jobs, Tracer(False), env, seconds, MIN_JOBS)
        result.update(latencies=lat, probes=probes, failures=fail, wall_s=wall)
        usage = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    else:
        # Each round twice, untraced then traced, so that both passes
        # see the same machine speed.
        T, lat, fail, wall, traced_wall = Tracer(True), [], [], 0.0, 0.0
        for r in sorted({j["round"] for j in jobs}):
            part = [j for j in jobs if j["round"] == r]
            for tracer in (Tracer(False), T):
                got, _, bad, spent = run_pass(part, tracer, env)
                lat += got
                fail += bad
                if tracer is T:
                    traced_wall += spent
                else:
                    wall += spent
        if workload == "cli_oneshot":
            _cli_inprocess(jobs, T, env)
        result.update(latencies=lat, failures=fail, wall_s=wall, traced_wall_s=traced_wall,
                      spans=T.spans, counts=T.counts,
                      bennett_peak_mb=bennett_peak_mb(jobs, env))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
