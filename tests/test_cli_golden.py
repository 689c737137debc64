"""Byte-for-byte pins of the automaton commands' output.

``golden/cli_outputs.json`` holds, for each case below, the exit code,
stdout and stderr of ``autodiss`` in text and ``--json`` form, and the
files written by ``-o``.  Inputs are the bundled ``.aut`` and ``.wiring``
assets plus one seeded wiring of modules whose states each have three
merged arrows, so the open graph's out-degree is not a power of two.
Run as a script, this file only adds pins; for a deliberate change of
output, delete the changed keys by hand first (see ``golden.py``).
"""

import os
import random

import golden
from autodiss.assets import asset_path

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


def collect(tmp_dir) -> dict:
    paths = {name: asset_path(f"{name}.aut") for name in AUTOMATA}
    paths.update({name: asset_path(f"{name}.wiring") for name in WIRINGS})
    paths["gen3"] = generated_wiring(tmp_dir)
    out_file = os.path.join(tmp_dir, "out.aut")

    cases = []  # (key, argv); only the -o runs write out_file
    for name in AUTOMATA:
        cases += [(f"analyze/{name}", ["analyze", paths[name]]),
                  (f"reach/{name}", ["reach", paths[name], "-o", out_file]),
                  (f"test/{name}", ["test", paths[name]]),
                  (f"dot/{name}", ["dot", paths[name]])]
    for k, (name, extra) in enumerate(RUNS):
        cases.append((f"run/{k}/{name}", ["run", paths[name], *extra]))
    for a, b in PRODUCTS:
        cases.append((f"product/{a}*{b}", ["product", paths[a], paths[b], "-o", out_file]))
    for a, b in EQUIVS:
        cases.append((f"equiv/{a}~{b}", ["equiv", paths[a], paths[b]]))
    for name in (*WIRINGS, "gen3"):
        cases.append((f"wire/{name}", ["wire", paths[name], "-o", out_file]))
        wired = os.path.join(tmp_dir, f"{name}.closed.aut")
        golden.run(["wire", paths[name], "-o", wired])
        cases.append((f"reach/{name}.closed", ["reach", wired, "-o", out_file]))
    return golden.run_forms(cases, out_file)


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("AUTODISS_TEMP", raising=False)
    golden.check(FIXTURE, collect(str(tmp_path)))


if __name__ == "__main__":
    import tempfile

    os.environ.pop("AUTODISS_TEMP", None)
    with tempfile.TemporaryDirectory() as tmp:
        golden.extend(FIXTURE, collect(tmp))
