"""The autodiss benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; autodiss is imported from its
``src/``.  Inputs are generated from the seed (``gen.py``), then one
worker process runs the fixed job list as a closed loop with one client
(``worker.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (jobs that raised or whose output
failed its check) and ``metrics``, the end-to-end metrics with
``--trace 0`` or the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("tm_history", "modular_product", "tour_ensemble", "cli_oneshot")

# Rounds a second at the seed commit on a 2-core x86-64 box.  They size
# the job list, which depends only on the seed and --seconds, never on
# the speed of the code under test.
ROUNDS_PER_S = {"tm_history": 0.6, "modular_product": 1.0,
                "tour_ensemble": 0.5, "cli_oneshot": 0.3}
IMPORTS = 11  # fresh interpreters timed for setup_s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SPANS = [
    "fileformat.parse_machine", "fileformat.parse_automaton", "fileformat.parse_wiring",
    "core.run",
    "turing.tm_run", "turing.modular_tm_dissipation", "turing.check_convergence_lemma",
    "turing.global_graph.run", "turing.bennett_simulate", "turing.global_graph.bennett",
    "composition.product_many", "composition.product_input_model", "composition.wire",
    "composition.reachable_subgraph", "composition.equivalent",
    "dissipation.choice_information", "dissipation.path_choice_information",
    "dissipation.ensemble_dissipation",
    "conformance.transition_tour", "conformance.simulate_test",
] + [f"cli.main.{c}" for c in gen.CLI_COMMANDS]
# Spans whose busy time is fitted against job size (log-log slope):
# steps for machine runs, arrows for tours and products, states x
# horizon for the ensemble.
SCALED = ["turing.tm_run", "turing.bennett_simulate", "turing.global_graph.bennett",
          "composition.product_many", "conformance.transition_tour",
          "dissipation.ensemble_dissipation"]


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def fresh_import_s(module: str, env: dict, times: int) -> float:
    """Median time, in reference seconds, of a fresh interpreter that
    imports ``module``."""
    walls = []
    for _ in range(times):
        before = clock.probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}" if module else "pass"],
                       env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        walls.append(wall * clock.scale(before, clock.probe()))
    return statistics.median(walls)


def rounds_for(workload: str, seconds: int, traced: bool) -> int:
    """Rounds to generate.  A timed run takes whole rounds until
    ``seconds`` have passed, so it gets room for code three times faster
    than the seed; a traced run runs a fixed half of a run's rounds."""
    rounds = seconds * ROUNDS_PER_S[workload]
    return max(1, math.ceil(rounds / 2)) if traced else math.ceil(3 * rounds) + 1


def run_worker(workload: str, jobs: gen.JobList, seconds: int, traced: bool,
               corrupt: bool = False):
    """Write the inputs, run one worker over them, return its result."""
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=base)
    try:
        for name, text in jobs.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(jobs.jobs, fh)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), workdir, workload,
                str(seconds), "1" if traced else "0"] + (["--corrupt"] if corrupt else [])
        subprocess.run(argv, env=worker_env(), cwd=ROOT, check=True, timeout=170)
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    src = os.path.join(ROOT, "src", "autodiss")
    if os.path.dirname(os.path.abspath(result["autodiss"])) != src:
        raise SystemExit(f"worker imported autodiss from {result['autodiss']}, not {src}")
    return result


def end_to_end(result: dict, setup_s: float) -> dict:
    """Job latencies in reference seconds (see clock.py); throughput is
    jobs over their summed latency."""
    raw, probes = result["latencies"], result["probes"]
    lat = [t * clock.scale(probes[i], probes[i + 1]) for i, t in enumerate(raw)]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(lat) / math.fsum(lat), "jobs/s"),
        "job_s.p50": (statistics.median(lat), "s"),
        "job_s.p90": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _slope(points) -> float:
    """Least-squares slope of log(duration) against log(size)."""
    pts = [(math.log(s), math.log(d)) for s, d in points if s and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def per_layer(result: dict, interpreter_s: float, import_s: float) -> dict:
    busy = {n: 0.0 for n in SPANS}
    calls = {n: 0 for n in SPANS}
    fail = {n: 0 for n in SPANS}
    points = {n: [] for n in SCALED}
    lines = 0
    for _, name, start, end, ok, size in result["spans"]:
        busy[name] += end - start
        calls[name] += 1
        fail[name] += not ok
        if name in points:
            points[name].append((size, end - start))
        if name.startswith("fileformat."):
            lines += size
    counts = result["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for n in SPANS:
        m[n + ".busy_s"] = (busy[n], "s")
        m[n + ".calls"] = (calls[n], "count")
        m[n + ".fail"] = (fail[n], "count")
    c = counts.get
    m.update({
        "turing.tm_run.steps_per_s": (ratio(c("turing.tm_run.steps", 0),
                                            busy["turing.tm_run"]), "steps/s"),
        "turing.bennett_simulate.peak_mb": (result["bennett_peak_mb"], "MB"),
        "composition.product_many.arrows": (c("composition.product_many.arrows", 0), "count"),
        "composition.wire.states": (c("composition.wire.states", 0), "count"),
        "composition.reachable_subgraph.states": (
            c("composition.reachable_subgraph.states", 0), "count"),
        "composition.wire.reached_ratio": (ratio(c("composition.reachable_subgraph.states", 0),
                                                 c("composition.wire.states", 0)), "ratio"),
        "conformance.transition_tour.cover_ratio": (
            ratio(c("conformance.transition_tour.arrows", 0),
                  c("conformance.transition_tour.length", 0)), "ratio"),
        "dissipation.ensemble_dissipation.state_steps_per_s": (
            ratio(c("dissipation.ensemble_dissipation.state_steps", 0),
                  busy["dissipation.ensemble_dissipation"]), "steps/s"),
        "fileformat.lines_per_s": (ratio(lines, sum(
            busy[n] for n in SPANS if n.startswith("fileformat."))), "lines/s"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_ratio": (result["traced_wall_s"] / result["wall_s"], "ratio"),
        "repo.src_lines": (src_lines(), "lines"),
    })
    for n in SCALED:
        m[n + ".scaling_exp"] = (_slope(points[n]), "exponent")
    return m


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "autodiss", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def versions() -> dict:
    env = worker_env()
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "threads": {v: env[v] for v in THREAD_VARS}}


def benchmark(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    jobs = gen.generate(workload, seed, rounds_for(workload, seconds, traced), ROOT)
    print(f"inputs: {len(jobs.jobs)} jobs, {len(jobs.files)} files, "
          f"sha256 {jobs.checksum()}")
    print("environment: " + json.dumps(versions(), sort_keys=True))
    env = worker_env()
    module = "autodiss.cli" if workload == "cli_oneshot" else "autodiss"
    fresh_import_s(module, env, 1)  # compile the bytecode before timing
    import_s = fresh_import_s(module, env, IMPORTS)
    result = run_worker(workload, jobs, seconds, traced)
    lat, failures = result["latencies"], result["failures"]
    for i, why in failures[:10]:
        print(f"job {i} failed: {why}")
    print(f"{workload}: {len(lat)} jobs, error_rate {len(failures) / len(lat):.4f}")
    if not traced:
        print(f"raw wall: {len(lat) / result['wall_s']:.3f} jobs/s, "
              f"p50 {statistics.median(lat):.4f} s, "
              f"p90 {statistics.quantiles(lat, n=10, method='inclusive')[8]:.4f} s, "
              f"median speed probe {statistics.median(result['probes']) * 1e3:.3f} ms "
              f"(reference {clock.REFERENCE_S * 1e3:.3f} ms)")
    if traced:
        interpreter = fresh_import_s("", env, IMPORTS)
        cli_import = fresh_import_s("autodiss.cli", env, IMPORTS) - interpreter
        metrics = per_layer(result, interpreter, cli_import)
    else:
        metrics = end_to_end(result, import_s + result["warmup_ref_s"])
    return {"correct": not failures, "attempted": len(lat), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def self_test() -> int:
    """Each workload's checks pass on one round and fail when one
    expected value is corrupted; the metric names match BENCHMARK.json."""
    ok = True
    for workload in WORKLOADS:
        jobs = gen.generate(workload, 1, 1, ROOT)
        if jobs.checksum() != gen.generate(workload, 1, 1, ROOT).checksum():
            print(f"{workload}: same seed, different inputs")
            ok = False
        clean = len(run_worker(workload, jobs, 0, False)["failures"])
        broken = len(run_worker(workload, jobs, 0, False, corrupt=True)["failures"])
        print(f"{workload}: {len(jobs.jobs)} jobs, {clean} failed as generated, "
              f"{broken} failed with one corrupted expected value")
        ok = ok and clean == 0 and broken > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    fake = {"latencies": [1.0, 1.0], "probes": [1.0] * 3, "wall_s": 1.0, "peak_rss_mb": 1.0, "spans": [], "counts": {},
            "bennett_peak_mb": 0.0, "traced_wall_s": 1.0}
    for key, names in (("end_to_end", end_to_end(fake, 1.0)),
                       ("per_layer", per_layer(fake, 1.0, 1.0))):
        if [m["name"] for m in spec[key]] != list(names):
            print(f"BENCHMARK.json {key} names differ from the metrics printed")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "autodiss", "__init__.py")):
        print(f"error: no autodiss sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    out = benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
