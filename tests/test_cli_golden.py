"""Byte-for-byte pins of the automaton commands' output.

``golden/cli_outputs.json`` holds, for each case below, the exit code,
stdout and stderr of ``autodiss`` in text and ``--json`` form, and the
files written by ``-o``.  Inputs are the bundled ``.aut`` and ``.wiring``
assets plus one seeded wiring of modules whose states each have three
merged arrows, so the open graph's out-degree is not a power of two.
Regenerate the fixture (``python tests/test_cli_golden.py``) only for a
deliberate change of output.
"""

import contextlib
import io
import json
import os
import random

from autodiss.assets import asset_path
from autodiss.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "cli_outputs.json")

AUTOMATA = ("lossy", "onebit", "counter2", "counter4", "tff")
WIRINGS = ("counter4_mixed", "counter4_tff")
RUNS = (
    ("lossy", ["--word", "0100001010"]),
    ("lossy", ["--word", "0011100110", "--temp", "4.2"]),
    ("lossy", ["--start", "E", "--word", "0"]),
    ("onebit", ["--start", "1", "--word", "set1 set0 set0"]),
    ("counter4", ["--word", "ck ck ck ck ck"]),
)
PRODUCTS = (("tff", "tff"), ("counter2", "tff"), ("lossy", "onebit"))
EQUIVS = (("counter4", "counter2"), ("counter2", "tff"), ("onebit", "tff"),
          ("lossy", "lossy"))


def generated_wiring(tmp_dir, seed=7):
    """Write a wiring of three modules whose every state has three merged
    arrows: one free, one fed by a connection, one held by a constant.
    The last module labels one arrow per state with two symbols."""
    rng = random.Random(seed)
    modules = []
    for name, inputs in (("f", "a b c"), ("g", "P0 P1 P2"), ("h", "a b c d")):
        symbols, states = inputs.split(), ["0", "1", "2"]
        text = [f"automaton {name}", f"inputs {inputs}",
                f"outputs {' '.join('P' + q for q in states)}",
                f"states {' '.join(states)}", f"initial {rng.choice(states)}"]
        text += [f"output {q} P{q}" for q in states]
        for q in states:
            targets = rng.sample(states, 3)
            targets += [rng.choice(targets)] * (len(symbols) - 3)
            text += [f"trans {q} {s} {t}" for s, t in zip(symbols, targets)]
        with open(os.path.join(tmp_dir, f"{name}.aut"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(text) + "\n")
        modules.append(f"module {name} {name}.aut")
    lines = ["wiring gen3", *modules, "connect f g", "constant h c"]
    path = os.path.join(tmp_dir, "gen3.wiring")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def collect(tmp_dir) -> dict:
    paths = {name: asset_path(f"{name}.aut") for name in AUTOMATA}
    paths.update({name: asset_path(f"{name}.wiring") for name in WIRINGS})
    paths["gen3"] = generated_wiring(tmp_dir)
    out_file = os.path.join(tmp_dir, "out.aut")

    cases = []  # (key, argv, writes to out_file)
    for name in AUTOMATA:
        cases += [(f"analyze/{name}", ["analyze", paths[name]], False),
                  (f"reach/{name}", ["reach", paths[name], "-o", out_file], True),
                  (f"test/{name}", ["test", paths[name]], False),
                  (f"dot/{name}", ["dot", paths[name]], False)]
    for k, (name, extra) in enumerate(RUNS):
        cases.append((f"run/{k}/{name}", ["run", paths[name], *extra], False))
    for a, b in PRODUCTS:
        cases.append((f"product/{a}*{b}", ["product", paths[a], paths[b], "-o", out_file],
                      True))
    for a, b in EQUIVS:
        cases.append((f"equiv/{a}~{b}", ["equiv", paths[a], paths[b]], False))
    for name in (*WIRINGS, "gen3"):
        cases.append((f"wire/{name}", ["wire", paths[name], "-o", out_file], True))
        wired = os.path.join(tmp_dir, f"{name}.closed.aut")
        _cli(["wire", paths[name], "-o", wired])
        cases.append((f"reach/{name}.closed", ["reach", wired, "-o", out_file], True))

    cli, written = {}, {}
    for key, argv, writes in cases:
        for label, prefix in (("text", []), ("json", ["--json"])):
            if os.path.exists(out_file):
                os.remove(out_file)
            cli[f"{key}/{label}"] = _cli(prefix + argv)
            if writes and os.path.exists(out_file):
                with open(out_file, encoding="utf-8") as fh:
                    written[f"{key}/{label}"] = fh.read()
    return {"cli": cli, "written": written}


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("AUTODISS_TEMP", raising=False)
    with open(FIXTURE, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = collect(str(tmp_path))
    for section in ("cli", "written"):
        assert sorted(got[section]) == sorted(golden[section]), section
        for key, want in golden[section].items():
            assert got[section][key] == want, f"{section} {key}"


if __name__ == "__main__":
    import tempfile

    os.environ.pop("AUTODISS_TEMP", None)
    with tempfile.TemporaryDirectory() as tmp:
        data = collect(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
