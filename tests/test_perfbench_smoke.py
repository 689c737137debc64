"""One seeded round of each in-process benchmark workload:
``tm_history``, ``modular_product`` and ``tour_ensemble``.

The jobs are the ones ``perfbench/run.py`` times: sweeper machines
through runs, modular bits, the convergence lemma, Bennett simulations
and global graphs, plus budgeted runs of the binary counter; products of
5-8 modules with input models and choice bits, then a ring wiring
reduced to its reachable part and compared with the expected automaton;
and transition tours and ensembles on random strongly connected
automata.  Each job goes through the worker's own (prepare, job, check)
triple; expected values come from the benchmark's plain-Python
references, which never call autodiss.
"""

import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _round(workload, tmp_path, gen):
    """The benchmark's worker and one seeded round of ``workload``: its
    files written to ``tmp_path``, its specs as the worker reads them."""
    import worker

    jobs = gen.generate(workload, 3, 1, ROOT)
    for name, text in jobs.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return worker, worker.Env(str(tmp_path)), json.loads(json.dumps(jobs.jobs))


@pytest.mark.parametrize("workload", ["tm_history", "modular_product", "tour_ensemble"])
def test_benchmark_round_passes_its_checks(workload, tmp_path, gen):
    worker, env, specs = _round(workload, tmp_path, gen)
    assert len(specs) == gen.JOBS_PER_ROUND[workload]
    for spec in specs:
        prepare, job, check = worker.JOBS[spec["kind"]]
        spec = prepare(spec, env)
        out = job(spec, worker.Tracer(False), env)
        assert check(spec, out) == [], (spec["kind"], spec.get("file", spec.get("wiring")))
