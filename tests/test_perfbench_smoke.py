"""One seeded round of the benchmark's ``modular_product`` jobs.

The jobs are the ones ``perfbench/run.py`` times: products of 5-8
modules with input models and choice bits, then a ring wiring reduced
to its reachable part and compared with the expected automaton.  Their
expected values come from the benchmark's own plain-Python references,
which never call autodiss.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_product_round_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen
    import worker

    jobs = gen.generate("modular_product", 3, 1, ROOT)
    for name, text in jobs.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = worker.Env(str(tmp_path))
    specs = json.loads(json.dumps(jobs.jobs))  # as the worker reads them
    assert len(specs) == len(gen.PRODUCT_CLASSES)
    for spec in specs:
        spec = worker.prepare_product(spec, env)
        out = worker.job_product(spec, worker.Tracer(False), env)
        assert worker.check_product(spec, out) == [], spec["wiring"]
