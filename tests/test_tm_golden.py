"""Byte-for-byte pins of every Turing-machine output the package emits.

``golden/tm_outputs.json`` holds, for each case below, the exit code,
stdout and stderr of ``autodiss --json tm ...``, the files written by
``-o``, and the full state-name lists of the global graphs.  The fixture
was captured before runs were stored as step logs and is the reference
that representation must reproduce.  Run as a script, this file only
adds pins; for a deliberate change of output, delete the changed keys by
hand first (see ``golden.py``).
"""

import os

import golden
from autodiss import bennett_simulate, global_graph, load_machine, parse_machine, tm_run
from autodiss.assets import asset_path

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "tm_outputs.json")

# Writes over the input, walks back, then erases the leftmost written cell:
# the result window shrinks from the left and a blank is written.
SWEEP_TM = """\
tm sweep
blank _
tape _ 1 x
states w b e f halt
initial w
halting halt
rule w x w 1 R
rule w _ b _ L
rule b 1 b 1 L
rule b _ e _ R
rule e 1 f _ R
rule f 1 halt 1 N
"""

ASSETS = ("bb2", "bincounter", "loop")
COMMANDS = ("run", "head", "dissip", "linear", "bennett")
# (label, extra arguments) applied to every command that takes them
VARIANTS = (
    ("default", []),
    ("budget40", ["--max-steps", "40"]),
)
EXTRA_CLI = (
    ("bb2/tape", "bb2", ["--tape", "1 1 0 1"]),
    ("sweep/tape", "sweep", ["--tape", "x x x x x"]),
)
GRAPH_INPUTS = (
    ("bb2", []),
    ("bb2", ["0", "1", "1"]),
    ("bb2", ["1", "1", "0", "1"]),
    ("sweep", ["x"] * 5),
)


def collect(tmp_dir) -> dict:
    sweep_path = os.path.join(tmp_dir, "sweep.tm")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_TM)
    paths = {name: asset_path(f"{name}.tm") for name in ASSETS}
    paths["sweep"] = sweep_path

    cases = [
        (f"{name}/{label}", name, extra)
        for name in ASSETS
        for label, extra in VARIANTS
    ] + list(EXTRA_CLI)
    cli = {}
    written = {}
    for key, name, extra in cases:
        for cmd in COMMANDS:
            if cmd == "head" and extra:
                continue  # head takes no tape or budget
            argv = ["--json", "tm", cmd, paths[name], *extra]
            out_file = None
            if cmd in ("head", "linear"):
                out_file = os.path.join(tmp_dir, "out.aut")
                if os.path.exists(out_file):
                    os.remove(out_file)
                argv += ["-o", out_file]
            cli[f"{key}/{cmd}"] = golden.run(argv)
            if out_file and os.path.exists(out_file):
                with open(out_file, encoding="utf-8") as fh:
                    written[f"{key}/{cmd}"] = fh.read()

    machines = {"bb2": load_machine(paths["bb2"]), "sweep": parse_machine(SWEEP_TM)}
    states = {}
    for name, tape in GRAPH_INPUTS:
        key = f"{name}[{' '.join(tape)}]"
        tm = machines[name]
        states[f"{key}/run"] = list(global_graph(tm_run(tm, tape)).states)
        states[f"{key}/bennett"] = list(global_graph(bennett_simulate(tm, tape)).states)
    return {"cli": cli, "written": written, "global_states": states}


def test_tm_outputs_match_golden(tmp_path):
    golden.check(FIXTURE, collect(str(tmp_path)))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden.extend(FIXTURE, collect(tmp))
