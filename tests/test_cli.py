"""End-to-end command-line checks: reports, exit codes, file emission."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings

import autodiss
from autodiss import composition, core, turing
from autodiss.assets import asset_path
from autodiss.cli import main
from autodiss.core import convergent_states, divergent_states, is_reversible
from autodiss.errors import AutomataError, ValidationError
from autodiss.fileformat import write_automaton
from helpers import random_automaton
from test_parser_golden import parsers
from test_tm_properties import machine_text, machines

LOSSY = asset_path("lossy.aut")
ONEBIT = asset_path("onebit.aut")
COUNTER4 = asset_path("counter4.aut")
COUNTER2 = asset_path("counter2.aut")
TFF = asset_path("tff.aut")
BB2 = asset_path("bb2.tm")
TFF_WIRING = asset_path("counter4_tff.wiring")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", LOSSY)
    assert code == 0
    assert "divergent: B C G" in out
    assert "convergent: C F" in out
    assert "reversible: False" in out
    assert "choice_bits.B: 1.000000" in out


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "missing.aut")
    assert code == 2
    assert "not found" in err


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("automaton x\nwat\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err


def test_analyze_validation_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("automaton x\ninputs a\noutputs o\nstates q q\n")
    assert run_cli(capsys, "analyze", str(bad)) == (
        2, "", "error: line 4: identifier 'q' declared twice (states)\n")


@pytest.mark.parametrize(
    "probs, message",
    [
        ("prob q a 0.25\nprob q a 0.25\nprob q b 0.5", "line 9: prob of 'q' on 'a' declared twice"),
        ("prob q a 1e308\nprob q b 1e308", "line 9: probabilities on arrow ('q', 'q') sum to inf"),
    ],
)
def test_analyze_refuses_bad_prob_lines_with_their_line(tmp_path, capsys, probs, message):
    bad = tmp_path / "bad.aut"
    bad.write_text("automaton x\ninputs a b\noutputs o\nstates q\noutput q o\n"
                   f"trans q a q\ntrans q b q\n{probs}\n")
    assert run_cli(capsys, "analyze", str(bad)) == (2, "", f"error: {message}\n")


def test_run_word_one(capsys):
    code, out, _ = run_cli(capsys, "run", LOSSY, "--word", "0100001010")
    assert code == 0
    assert "total_bits: 7.000000" in out
    assert "path: A B C C C C C D F G Stop" in out


def test_run_word_two(capsys):
    code, out, _ = run_cli(capsys, "run", LOSSY, "--word", "0011100110")
    assert code == 0
    assert "total_bits: 4.000000" in out


def test_run_spaced_symbols(capsys):
    code, out, _ = run_cli(capsys, "run", ONEBIT, "--start", "0", "--word", "set1 set0")
    assert code == 0
    assert "path: 0 1 0" in out


def test_run_forbidden_input(capsys):
    code, _, err = run_cli(capsys, "run", LOSSY, "--start", "E", "--word", "0")
    assert code == 1
    assert "position 0" in err


def test_run_undeclared_symbol_is_a_domain_error(capsys):
    # "zz" is neither a symbol nor a string of symbols, so it is passed on whole
    code, out, err = run_cli(capsys, "run", TFF, "--word", "zz")
    assert (code, out, err) == (1, "", "error: symbol 'zz' is not declared (word position 0)\n")


def test_run_zero_probability_step_is_a_domain_error(capsys, tmp_path):
    aut = tmp_path / "zero.aut"
    aut.write_text(
        "automaton z\ninputs x y\noutputs a b\nstates q0 q1\ninitial q0\n"
        "output q0 a\noutput q1 b\ntrans q0 x q1\ntrans q0 y q0\n"
        "prob q0 x 0\nprob q0 y 1\n"
    )
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "run", str(aut), "--word", "y x", *flags)
        assert code == 1
        assert out == ""
        assert err == ("error: input 'x' has probability 0 in state 'q0' (word position 1), "
                       "so its choice information is infinite\n")
    code, out, _ = run_cli(capsys, "run", str(aut), "--word", "y y", "--json")
    assert code == 0 and json.loads(out)["total_bits"] == 0.0


def test_run_temperature_env(capsys, monkeypatch):
    monkeypatch.setenv("AUTODISS_TEMP", "150")
    _, out, _ = run_cli(capsys, "run", LOSSY, "--word", "0100001010", "--json")
    low = json.loads(out)
    monkeypatch.delenv("AUTODISS_TEMP")
    _, out, _ = run_cli(capsys, "run", LOSSY, "--word", "0100001010", "--json")
    normal = json.loads(out)
    assert low["temperature_kelvin"] == 150
    assert normal["temperature_kelvin"] == 300
    assert low["landauer_joules"] == pytest.approx(normal["landauer_joules"] / 2)


def test_run_non_numeric_temperature_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("AUTODISS_TEMP", "warm")
    with pytest.raises(SystemExit) as exc:
        main(["run", LOSSY, "--word", "0 1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --temp: invalid float value: 'warm'" in err
    # an explicit flag overrides the environment
    code, out, _ = run_cli(capsys, "run", LOSSY, "--word", "0 1", "--temp", "20")
    assert code == 0
    assert "temperature_kelvin: 20.000000" in out


@pytest.mark.parametrize("command", ["run", "dissip", "linear", "bennett"])
def test_tm_negative_max_steps_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["tm", command, BB2, "--max-steps", "-1"])
    assert exc.value.code == 2
    assert "argument --max-steps: must be non-negative, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["tm", command, BB2, "--max-steps", "x"])
    assert "argument --max-steps: invalid int value: 'x'" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "tm", command, BB2, "--max-steps", "0")
    assert code in (0, 1)  # a zero budget runs no step; some reports need a halt
    assert "usage" not in err


def test_reports_serialize_only_on_output_flag(capsys, monkeypatch):
    def refuse(automaton, model=None):
        raise AssertionError("an automaton was serialized without -o")

    # both the text form and the lines that -o writes
    monkeypatch.setattr(autodiss.fileformat, "write_automaton", refuse)
    monkeypatch.setattr(autodiss.fileformat, "_automaton_lines", refuse)
    for argv in (["product", TFF, TFF], ["wire", TFF_WIRING], ["reach", LOSSY],
                 ["tm", "head", BB2], ["tm", "linear", BB2]):
        assert run_cli(capsys, "--json", *argv)[0] == 0, argv


def test_a_refused_automaton_leaves_the_output_file_alone(tmp_path):
    """``-o`` makes every check before it opens the file, so a refusal
    neither creates nor truncates it."""
    bad = core.validate("m", ["i"], ["o"], ["a b"], "a b", {"a b": "o"}, [("a b", "i", "a b")])
    old, new = tmp_path / "old.aut", tmp_path / "new.aut"
    old.write_text("kept\n", encoding="utf-8")
    for path in (old, new):
        with pytest.raises(ValidationError, match="^token 'a b' has no text form"):
            autodiss.cli._write_out(argparse.Namespace(output=str(path)), bad)
    assert old.read_text(encoding="utf-8") == "kept\n" and not new.exists()


def test_json_outputs_are_stable(capsys):
    _, first, _ = run_cli(capsys, "analyze", LOSSY, "--json")
    _, second, _ = run_cli(capsys, "--json", "analyze", LOSSY)
    assert first == second
    parsed = json.loads(first)
    assert list(parsed) == sorted(parsed)


def test_product_report(capsys, tmp_path):
    out_file = tmp_path / "prod.aut"
    code, out, _ = run_cli(capsys, "product", TFF, TFF, "-o", str(out_file))
    assert code == 0
    assert "state_count: 4" in out
    assert "arrow_count: 16" in out
    assert out_file.read_text().startswith("automaton tff*tff")


def test_wire_reach_equiv_flow(capsys, tmp_path):
    closed = tmp_path / "closed.aut"
    code, out, _ = run_cli(capsys, "wire", TFF_WIRING, "-o", str(closed))
    assert code == 0
    assert "state_count: 4" in out
    # the modules are certified on the open graph (2 bits of choice per
    # step) even though the wired loop itself makes no choices
    assert "open_choice_bits.(0,0): 2.000000" in out
    assert "closed_choice_bits.(0,0): 0.000000" in out

    reached = tmp_path / "reached.aut"
    code, out, _ = run_cli(capsys, "reach", str(closed), "-o", str(reached))
    assert code == 0
    assert "state_count: 4" in out
    assert "reversible: True" in out

    code, out, _ = run_cli(capsys, "equiv", str(reached), COUNTER4)
    assert code == 0
    assert "equivalent: True" in out

    code, out, _ = run_cli(capsys, "equiv", COUNTER4, COUNTER2)
    assert code == 0
    assert "equivalent: False" in out


def test_tour_command(capsys):
    code, out, _ = run_cli(capsys, "test", ONEBIT, "--start", "0")
    assert code == 0
    assert "length: 4" in out
    assert "word: set0 set1 set1 set0" in out


@pytest.mark.parametrize("argv", [["run", "--word", "a"], ["test"]])
def test_no_start_state_is_a_domain_error(capsys, tmp_path, argv):
    aut = tmp_path / "free.aut"
    aut.write_text("automaton free\ninputs a\noutputs o\nstates q\noutput q o\ntrans q a q\n")
    code, out, err = run_cli(capsys, argv[0], str(aut), *argv[1:])
    assert (code, out, err) == (1, "", "error: no start state: give --start or declare initial\n")


def test_tour_untestable_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text(
        "automaton bad\ninputs a\noutputs o0 o1\nstates q0 q1\n"
        "output q0 o0\noutput q1 o1\ntrans q1 a q1\n"
    )
    code, _, err = run_cli(capsys, "test", str(bad), "--start", "q0")
    assert code == 1
    assert "cannot cover" in err


def test_wire_module_validation_error_names_the_module_file(capsys, tmp_path):
    module = tmp_path / "shared.aut"
    module.write_text(
        "automaton m\ninputs x\noutputs A\nstates a b\n"
        "output a A\noutput b A\n"
    )
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\nmodule a shared.aut\n")
    code, _, err = run_cli(capsys, "wire", str(wiring))
    assert code == 2
    assert err == f"error: {module}: line 6: states 'a' and 'b' share an output symbol\n"


def test_wire_refuses_an_initial_for_an_undeclared_module(capsys, tmp_path):
    wiring = tmp_path / "w.wiring"
    wiring.write_text(f"wiring w\nmodule a {TFF}\nconstant a T1\ninitial zz 0\n")
    code, out, err = run_cli(capsys, "wire", str(wiring))
    assert (code, out) == (1, "")
    assert err == "error: state 'zz' is not declared (initial module)\n"


def test_wire_without_modules_is_a_domain_error(capsys, tmp_path):
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\n")
    assert run_cli(capsys, "wire", str(wiring)) == (1, "", "error: need at least one module\n")


def _fresh_interpreter(probe, **env):
    """Run ``probe`` in a new interpreter that imports this ``autodiss``,
    with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(autodiss.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("pairs, message", [
    ("Q0=X Q1=Y", "'X' is not an input of module 'b'"),
    ("Q5=T0", "no mapping for output 'Q0' of module 'a'"),
])
def test_wire_names_the_first_bad_output_under_any_hash_seed(tmp_path, pairs, message):
    """The source's outputs are checked in state order, not set order."""
    wiring = tmp_path / "w.wiring"
    wiring.write_text(f"wiring w\nmodule a {TFF}\nmodule b {TFF}\nconstant a T1\n"
                      f"connect a b {pairs}\n")
    probe = f"import sys; from autodiss.cli import main; sys.exit(main(['wire', {str(wiring)!r}]))"
    runs = [_fresh_interpreter(probe, PYTHONHASHSEED=seed) for seed in ("1", "4")]
    assert [(run.returncode, run.stderr) for run in runs] == [(1, f"error: {message}\n")] * 2


def test_tm_rule_error_names_its_line(capsys, tmp_path):
    machine = tmp_path / "m.tm"
    machine.write_text("tm m\nblank _\ntape _ 1\nstates a h\ninitial a\nhalting h\n"
                       "rule a _ zz 1 R\n")
    assert run_cli(capsys, "tm", "run", str(machine)) == (
        2, "", "error: line 7: state 'zz' is not declared (rule)\n")


def test_tm_names_the_first_bad_halting_state_under_any_hash_seed(tmp_path):
    """The halting states are checked in file order, not set order."""
    machine = tmp_path / "m.tm"
    machine.write_text("tm m\nblank _\ntape _ 1\nstates a h\ninitial a\nhalting zz yy xx ww\n")
    probe = f"import sys; from autodiss.cli import main; sys.exit(main(['tm', 'run', {str(machine)!r}]))"
    runs = [_fresh_interpreter(probe, PYTHONHASHSEED=seed) for seed in ("1", "5")]
    assert [(run.returncode, run.stderr) for run in runs] == [
        (2, "error: line 6: state 'zz' is not declared (halting)\n")] * 2


CLI_MODULES = {"autodiss", "autodiss.errors", "autodiss.cli", "autodiss.core"}
LOADER = CLI_MODULES | {"autodiss.dissipation", "autodiss.fileformat"}  # what reads the files


def _command(*argv):
    return f"from autodiss.cli import main; assert main({list(argv)!r}) == 0"


@pytest.mark.parametrize("statement, loaded", [
    ("import autodiss", {"autodiss", "autodiss.errors"}),
    ("import autodiss.cli", CLI_MODULES),
    (_command("analyze", LOSSY), LOADER),
    (_command("product", TFF, TFF), LOADER),
    (_command("reach", TFF), LOADER | {"autodiss.composition"}),
    (_command("test", LOSSY), LOADER | {"autodiss.conformance"}),
    (_command("tm", "run", BB2), LOADER | {"autodiss.turing"}),
], ids=["import", "import-cli", "analyze", "product", "reach", "test", "tm-run"])
def test_each_command_loads_only_the_modules_it_runs(statement, loaded):
    """A fresh interpreter imports a submodule only for a command that
    calls it, and none of them loads numpy."""
    proc = _fresh_interpreter(f"""if True:
        import contextlib, io, json, sys
        with contextlib.redirect_stdout(io.StringIO()):
            {statement}
        print(json.dumps([[m for m in sys.modules if m.partition(".")[0] == "autodiss"],
                          "numpy" in sys.modules]))
    """)
    assert proc.returncode == 0, proc.stderr
    modules, numpy = json.loads(proc.stdout)
    assert (set(modules), numpy) == (loaded, False)


SUBMODULES = ("core", "dissipation", "composition", "conformance", "turing", "fileformat", "dot",
              "errors")


def test_the_lazy_package_keeps_its_public_surface():
    """Every public name is its defining module's object, by any route,
    and each submodule resolves from a bare ``import autodiss``."""
    star = {}
    exec("from autodiss import *", star)
    for name in autodiss.__all__:
        obj = getattr(autodiss, name)
        assert star[name] is obj, name
        if name in SUBMODULES:
            assert obj is sys.modules[f"autodiss.{name}"]
            continue
        module = sys.modules[f"autodiss.{autodiss._MODULE_OF[name]}"]
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert set(autodiss.__all__) <= set(dir(autodiss))
    assert not hasattr(autodiss, "no_such_name")
    proc = _fresh_interpreter(f"""if True:
        import sys, autodiss
        for name in {SUBMODULES!r}:
            assert getattr(autodiss, name) is sys.modules["autodiss." + name], name
    """)
    assert proc.returncode == 0, proc.stderr


def test_product_path_leaves_numpy_unloaded():
    """Products, their input models and choice bits, wirings and reachable
    parts run on plain Python: numpy is loaded by the ensemble functions
    only."""
    proc = _fresh_interpreter("""if True:
        import sys
        from autodiss import (choice_information, load_automaton, load_wiring,
                              product_input_model, product_many, reachable_subgraph, wire)
        from autodiss.assets import asset_path
        tff, model = load_automaton(asset_path("tff.aut"))
        prod = product_many([tff] * 4)
        pm = product_input_model(prod, [model] * 4)
        bits = [choice_information(prod, pm, q) for q in prod.states]
        sub = reachable_subgraph(wire(load_wiring(asset_path("counter4_tff.wiring"))))
        assert (prod.arrow_count, bits, len(sub.states)) == (256, [4.0] * 16, 4)
        assert "numpy" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_dot_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "dot", LOSSY)
    _, second, _ = run_cli(capsys, "dot", LOSSY)
    assert first == second
    assert first.startswith('digraph "lossy"')
    # divergences double-circled, convergences shaded
    assert '"B" [label="B/oB", shape=doublecircle];' in first
    assert '"F" [label="F/oF", shape=circle, style=filled, fillcolor=lightgrey];' in first
    assert '"C" [label="C/oC", shape=doublecircle, style=filled, fillcolor=lightgrey];' in first
    assert '"C" -> "D" [label="1"];' in first


def test_dot_onebit_counts(capsys):
    _, out, _ = run_cli(capsys, "dot", ONEBIT)
    assert out.count(" -> ") == 5  # 4 arrows + the initial marker
    assert '"0" -> "1" [label="set1"];' in out


def test_tm_run(capsys):
    code, out, _ = run_cli(capsys, "tm", "run", BB2)
    assert code == 0
    assert "halted: True" in out
    assert "steps: 6" in out
    assert "result: 1 1 1 1" in out


def test_tm_run_past_the_step_log_limit_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(turing, "STEP_LOG_LIMIT", 100)
    assert run_cli(capsys, "tm", "run", asset_path("bincounter.tm")) == (
        1, "", "error: 101 recorded steps exceed the monolithic limit of 100\n")
    assert run_cli(capsys, "tm", "run", BB2, "--max-steps", "1000000000")[:2] == (
        0, "name: bb2\nhalted: True\nsteps: 6\nresult: 1 1 1 1\nresult_length: 4\n"
           "final_control: halt\n")


def test_tm_head(capsys):
    code, out, _ = run_cli(capsys, "tm", "head", BB2)
    assert code == 0
    assert "control_states: 3" in out
    assert "arrow_count: 3" in out
    assert "has_convergence: False" in out


def test_tm_dissip(capsys):
    code, out, _ = run_cli(capsys, "tm", "dissip", BB2, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["total_bits"] == 9.0
    assert report["slope_bits_per_step"] == 1.5


def test_tm_linear(capsys):
    code, out, _ = run_cli(capsys, "tm", "linear", BB2)
    assert code == 0
    assert "state_count: 7" in out
    assert "reversible: True" in out


def test_tm_bennett(capsys):
    code, out, _ = run_cli(capsys, "tm", "bennett", BB2)
    assert code == 0
    assert "total_steps: 16" in out
    assert "history_empty: True" in out
    assert "input_restored: True" in out
    assert "classic_step_count: 45" in out


@pytest.mark.parametrize("key, extra", [
    ("bb2/default/bennett", []),
    ("bb2/tape/bennett", ["--tape", "1 1 0 1"]),
])
def test_tm_bennett_reports_without_the_global_graph(capsys, monkeypatch, key, extra):
    golden = os.path.join(os.path.dirname(__file__), "golden", "tm_outputs.json")
    with open(golden, encoding="utf-8") as fh:
        want = json.load(fh)["cli"][key]

    def refuse(trace):
        raise AssertionError("tm bennett built the global graph")

    monkeypatch.setattr(autodiss.turing, "global_graph", refuse)
    code, out, err = run_cli(capsys, "--json", "tm", "bennett", BB2, *extra)
    assert {"code": code, "out": out, "err": err} == want


def test_tm_bennett_not_halting(capsys):
    code, _, err = run_cli(
        capsys, "tm", "bennett", asset_path("loop.tm"), "--max-steps", "40"
    )
    assert code == 1
    assert "did not halt" in err


def _write(path, automaton):
    path.write_text(write_automaton(automaton), encoding="utf-8")
    return str(path)


def _json_report(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, err) == (0, ""), err
    return json.loads(out)


def test_product_report_counts_match_the_built_product(capsys, tmp_path):
    """The report's counts are closed forms of the modules' degree tables;
    random small pairs, with sinks, unreachable states and self-loops,
    agree with the counts read off the built product."""
    rng = random.Random(19)
    for case in range(150):
        a = random_automaton(rng, max_states=6, max_symbols=3, density=0.6, name="a")
        b = random_automaton(rng, max_states=6, max_symbols=3, density=0.6, name="b")
        report = _json_report(capsys, "product", _write(tmp_path / "a.aut", a),
                              _write(tmp_path / "b.aut", b))
        prod = composition.product(a, b)
        assert report == {
            "name": prod.name, "modules": list(prod.module_names),
            "module_state_counts": [len(a.states), len(b.states)],
            "module_arrow_counts": [a.arrow_count, b.arrow_count],
            "state_count": len(prod.states), "arrow_count": prod.arrow_count,
            "divergent_count": len(divergent_states(prod)),
            "convergent_count": len(convergent_states(prod)),
        }, case


@settings(max_examples=100, deadline=None)
@given(machines())
def test_tm_linear_report_counts_match_the_global_graph(case):
    tm, _, tape, budget = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.tm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(machine_text(tm))
        argv = ["--json", "tm", "linear", path, "--tape", " ".join(tape),
                "--max-steps", str(budget)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    try:
        graph = turing.global_graph(turing.tm_run(tm, tape, max_steps=budget))
    except AutomataError as e:  # no rule for a step, or a run cut by its budget
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {e}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue()) == {
        "name": graph.name, "state_count": len(graph.states),
        "reversible": is_reversible(graph),
        "divergent_count": len(divergent_states(graph)),
        "convergent_count": len(convergent_states(graph)),
    }


def test_product_and_tm_linear_build_their_graphs_for_o_only(capsys, monkeypatch, tmp_path):
    rng = random.Random(5)
    ra, rb = (random_automaton(rng, max_states=6, name=n) for n in "ab")
    tff, onebit = (autodiss.load_automaton(path)[0] for path in (TFF, ONEBIT))
    bb2 = autodiss.load_machine(BB2)
    cases = [
        (["product", TFF, ONEBIT], composition.product(tff, onebit)),
        (["product", _write(tmp_path / "a.aut", ra), _write(tmp_path / "b.aut", rb)],
         composition.product(ra, rb)),
        (["tm", "linear", BB2], turing.global_graph(turing.tm_run(bb2, []))),
        (["tm", "linear", BB2, "--tape", "1 1 0 1"],
         turing.global_graph(turing.tm_run(bb2, "1 1 0 1".split()))),
    ]

    def refuse(*_):
        raise AssertionError("a graph was built without -o")

    out_file = tmp_path / "out.aut"
    for argv, graph in cases:
        for prefix in ([], ["--json"]):
            with_o = run_cli(capsys, *prefix, *argv, "-o", str(out_file))
            assert with_o[0] == 0, argv
            assert out_file.read_text(encoding="utf-8") == write_automaton(graph), argv
            with monkeypatch.context() as mp:
                mp.setattr(composition, "product", refuse)
                mp.setattr(turing, "global_graph", refuse)
                assert run_cli(capsys, *prefix, *argv) == with_o, argv


def _chain(tmp_path, name, n):
    """An ``n``-state cycle module file."""
    states = [f"q{i}" for i in range(n)]
    text = [f"automaton {name}", "inputs a", f"outputs {' '.join('o' + q for q in states)}",
            f"states {' '.join(states)}", *(f"output {q} o{q}" for q in states),
            *(f"trans {q} a {states[(i + 1) % n]}" for i, q in enumerate(states))]
    path = tmp_path / f"{name}.aut"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return str(path)


def test_product_over_the_monolithic_limit_is_refused_for_o_only(capsys, monkeypatch,
                                                                  tmp_path):
    monkeypatch.setattr(core, "MONOLITHIC_STATE_LIMIT", 16)
    a, b = _chain(tmp_path, "a", 5), _chain(tmp_path, "b", 5)
    code, out, err = run_cli(capsys, "product", a, b)
    assert (code, err) == (0, "") and "state_count: 25\n" in out
    out_file = tmp_path / "out.aut"
    assert run_cli(capsys, "product", a, b, "-o", str(out_file)) == (
        1, "", "error: 25 states exceed the monolithic limit of 16\n")
    assert not out_file.exists()


def test_product_with_colliding_tuple_names_is_refused_for_o_only(capsys, tmp_path):
    """States ``1,2`` and ``1`` of module a with states ``3`` and ``2,3`` of
    module b both spell the tuple state ``(1,2,3)``."""
    a = tmp_path / "a.aut"
    a.write_text("automaton a\ninputs x\noutputs p r\nstates 1,2 1\n"
                 "output 1,2 p\noutput 1 r\ntrans 1,2 x 1\n", encoding="utf-8")
    b = tmp_path / "b.aut"
    b.write_text("automaton b\ninputs y\noutputs s t\nstates 3 2,3\n"
                 "output 3 s\noutput 2,3 t\ntrans 3 y 2,3\n", encoding="utf-8")
    report = _json_report(capsys, "product", str(a), str(b))
    assert (report["state_count"], report["arrow_count"]) == (4, 1)
    code, out, err = run_cli(capsys, "product", str(a), str(b), "-o", str(tmp_path / "o.aut"))
    assert (code, out) == (1, "") and "declared twice" in err


def test_unreadable_file_is_a_usage_error(capsys, tmp_path):
    assert run_cli(capsys, "analyze", str(tmp_path)) == (
        2, "", f"error: Is a directory: {tmp_path}\n")
    (tmp_path / "m.aut").mkdir()
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\n\nmodule a m.aut\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "wire", str(wiring))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: cannot read module file: [Errno 21] Is a directory")


def test_non_utf8_file_is_refused_on_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_bytes(b"automaton x\ninputs a\nstates \xff\n")
    assert run_cli(capsys, "analyze", str(bad)) == (
        2, "", f"error: {bad}: line 3: not UTF-8 text (invalid start byte)\n")


def test_wire_refuses_a_non_utf8_module_file_on_its_line(capsys, tmp_path):
    (tmp_path / "m.aut").write_bytes(b"automaton m\n\xc3\n")
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\nmodule a m.aut\n", encoding="utf-8")
    assert run_cli(capsys, "wire", str(wiring)) == (
        2, "", f"error: {tmp_path / 'm.aut'}: line 2: not UTF-8 text (invalid continuation "
        "byte)\n")


PROB_OFF_ONE = ("automaton x\ninputs a b\noutputs o\nstates p0\noutput p0 o\n"
                "trans p0 a p0\ntrans p0 b p0\nprob p0 a 0.25\nprob p0 b 0.25\n# end\n")


def test_prob_row_off_one_is_refused_on_its_last_line(capsys, tmp_path):
    aut = tmp_path / "p.aut"
    aut.write_text(PROB_OFF_ONE, encoding="utf-8")
    assert run_cli(capsys, "analyze", str(aut)) == (
        2, "", "error: line 9: probabilities for state 'p0' sum to 0.5\n")
    wiring = tmp_path / "w.wiring"
    wiring.write_text("wiring w\nmodule a p.aut\n", encoding="utf-8")
    assert run_cli(capsys, "wire", str(wiring)) == (
        2, "", f"error: {aut}: line 9: probabilities for state 'p0' sum to 0.5\n")


def readme_usages():
    """The usage column of each line of the README's command table, split
    into words: ``autodiss``, the command, then its arguments."""
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"),
              encoding="utf-8") as fh:
        block = fh.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [re.split(r"\s{2,}", line)[0].split() for line in block.splitlines()]


def test_readme_command_table_matches_the_parser(monkeypatch):
    """One line per command, with its positionals, and its flags in order,
    required or ``[optional]``, and a default other than none as ``=VALUE``."""
    monkeypatch.delenv("AUTODISS_TEMP", raising=False)
    commands = {tuple(prefix): parser for prefix, parser in parsers()
                if not parser._subparsers}
    seen = []
    for usage in readme_usages():
        assert usage[0] == "autodiss", usage
        depth = max(n for n in range(len(usage)) if tuple(usage[1:n + 1]) in commands)
        key, words = tuple(usage[1:depth + 1]), iter(usage[depth + 1:])
        got = []
        for word in words:
            if word.lstrip("[").startswith("-"):
                meta = next(words).rstrip("]")
                got.append((word.lstrip("["), not word.startswith("["),
                            meta.partition("=")[2] or None))
            else:
                got.append(("", True, None))
        want = [(a.option_strings[0] if a.option_strings else "", a.required,
                 f"{a.default:g}" if a.default not in (None, "", False) else None)
                for a in commands[key]._actions if a.dest not in ("help", "json")]
        assert got == want, key
        seen.append(key)
    assert seen == list(commands)
