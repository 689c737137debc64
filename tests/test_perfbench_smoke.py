"""One seeded round of the benchmark's ``modular_product`` and
``tm_history`` jobs.

The jobs are the ones ``perfbench/run.py`` times: products of 5-8
modules with input models and choice bits, then a ring wiring reduced
to its reachable part and compared with the expected automaton; and
sweeper machines through runs, modular bits, the convergence lemma,
Bennett simulations and global graphs, plus budgeted runs of the binary
counter.  Their expected values come from the benchmark's own
plain-Python references, which never call autodiss.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _round(workload, tmp_path, monkeypatch):
    """The benchmark's modules and one seeded round of ``workload``: its
    files written to ``tmp_path``, its specs as the worker reads them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    import worker

    jobs = gen.generate(workload, 3, 1, ROOT)
    for name, text in jobs.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return gen, worker, worker.Env(str(tmp_path)), json.loads(json.dumps(jobs.jobs))


def test_benchmark_product_round_passes_its_checks(tmp_path, monkeypatch):
    gen, worker, env, specs = _round("modular_product", tmp_path, monkeypatch)
    assert len(specs) == len(gen.PRODUCT_CLASSES)
    for spec in specs:
        spec = worker.prepare_product(spec, env)
        out = worker.job_product(spec, worker.Tracer(False), env)
        assert worker.check_product(spec, out) == [], spec["wiring"]


def test_benchmark_tm_round_passes_its_checks(tmp_path, monkeypatch):
    gen, worker, env, specs = _round("tm_history", tmp_path, monkeypatch)
    assert len(specs) == gen.JOBS_PER_ROUND["tm_history"] == 11
    for spec in specs:
        out = worker.job_tm(spec, worker.Tracer(False), env)
        assert worker.check_tm(spec, out) == [], spec["file"]
