"""Digest pins of ``product`` and ``tm linear`` on generated inputs.

``golden/generated_digests.json`` holds, for each case below, the exit
code and the sha256 of stdout and stderr of ``autodiss`` in text and
``--json`` form, and the sha256 of each file written by ``-o``.  The
inputs come from the benchmark's generator ``perfbench/gen.py``:
seeded pairs of 30-state random modules, each given sink states and a
state that no arrow enters, and seeded sweeper machines of up to 2,000
steps, one of them cut by its step budget so that it does not halt.
Regenerate the fixture (``python tests/test_generated_digests.py``)
only for a deliberate change of output.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from autodiss.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "golden", "generated_digests.json")

PRODUCT_SEEDS = (1, 2, 3)
# (seed, width, sweeps, step budget): steps are width + sweeps * (width + 1)
SWEEPS = ((1, 3, 2, 10_000), (2, 12, 9, 10_000), (3, 40, 47, 10_000), (4, 20, 10, 100))


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
    for seed, width, sweeps, budget in SWEEPS:
        tm = write(f"sw{seed}.tm", gen.sweeper_text(random.Random(seed), f"sw{seed}",
                                                      width, sweeps))
        argv = ["tm", "linear", tm, "--max-steps", str(budget)]
        cases += [(f"linear/{seed}", argv), (f"linear/{seed}/o", argv + ["-o", out_file])]
    return cases


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def collect(gen, tmp_dir) -> dict:
    out_file = os.path.join(tmp_dir, "out.aut")
    cli, written = {}, {}
    for key, argv in _inputs(gen, tmp_dir):
        for label, prefix in (("text", []), ("json", ["--json"])):
            if os.path.exists(out_file):
                os.remove(out_file)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(prefix + argv)
            cli[f"{key}/{label}"] = {"code": code, "out": _sha(out.getvalue()),
                                     "err": _sha(err.getvalue())}
            if os.path.exists(out_file):
                with open(out_file, encoding="utf-8") as fh:
                    written[f"{key}/{label}"] = _sha(fh.read())
    return {"cli": cli, "written": written}


def test_generated_outputs_match_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen

    with open(FIXTURE, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = collect(gen, str(tmp_path))
    for section in ("cli", "written"):
        assert sorted(got[section]) == sorted(golden[section]), section
        for key, want in golden[section].items():
            assert got[section][key] == want, f"{section} {key}"


if __name__ == "__main__":
    import tempfile

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        data = collect(gen, tmp)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
