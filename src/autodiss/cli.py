"""Command-line front end.

A command takes its files, then ``--start``, ``--tape`` and ``--max-steps``
(by default 1000 steps for ``tm dissip``, else 10000) and ``-o``, as the
README's command table lists.  ``-o`` writes the automaton built, once it
passes every check, one line at a time.  Every command takes ``--json``.

Every command prints a report: ``key: value`` lines with numbers at six
decimal places by default, or a stable JSON object (sorted keys) with
``--json``.  Exit codes: 0 success, 1 domain error (forbidden input,
untestable graph, machine not halting, ...), 2 usage or parse error; a
usage error prints the usage line of the command it was given to.
Every ``.aut`` content error exits 2 naming its line, after the module
file's path inside a wiring, and so does every ``.tm`` content error; a
file that cannot be read exits 2 naming it.  ``.wiring`` semantic errors
exit 1 with no line.

Each command reads the modules it calls as attributes of the package,
which loads a submodule on first read, so that a call loads no other.

The default temperature for energy figures is 300 K; the environment
variable ``AUTODISS_TEMP`` or ``run``'s ``--temp`` flag overrides it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import autodiss as ad

from . import core
from .core import convergent_states, divergent_states, is_reversible
from .errors import AutomataError, ParseError

DEFAULT_TEMPERATURE = 300.0


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _fmt(v: float) -> str:
    # Six decimal places; tiny magnitudes switch to scientific notation
    # so energy figures stay readable.
    if v != 0 and abs(v) < 1e-4:
        return f"{v:.6e}"
    return f"{v + 0.0:.6f}"


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, float):
            print(f"{key}: {_fmt(value)}")
        elif isinstance(value, (list, tuple)):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        elif isinstance(value, dict):
            for sub, v in value.items():  # every dict in a report maps to bits
                print(f"{key}.{sub}: {_fmt(v)}")
        else:
            print(f"{key}: {value}")


def _split_word(word: str, alphabet) -> list[str]:
    """Whitespace-separated symbols; a single unbroken token expands to
    its characters when those are all alphabet symbols."""
    tokens = word.split()
    symbols: list[str] = []
    alpha = set(alphabet)
    for t in tokens:
        if t in alpha:
            symbols.append(t)
        elif all(ch in alpha for ch in t):
            symbols.extend(t)
        else:
            symbols.append(t)  # let the run report the offender
    return symbols


def _write_out(args, automaton) -> None:
    if args.output:
        lines = ad.fileformat._automaton_lines(automaton)
        first = next(lines)  # every check passes before the file is opened
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(lines)


def cmd_analyze(args) -> dict:
    auto, model = ad.fileformat.load_automaton(args.file)
    return {
        "name": auto.name,
        "state_count": len(auto.states),
        "arrow_count": auto.arrow_count,
        "divergent": sorted(divergent_states(auto)),
        "convergent": sorted(convergent_states(auto)),
        "reversible": is_reversible(auto),
        "choice_bits": {
            q: ad.dissipation.choice_information(auto, model, q) for q in auto.states
        },
    }


def cmd_run(args) -> dict:
    auto, model = ad.fileformat.load_automaton(args.file)
    start = args.start or auto.initial
    if start is None:
        raise AutomataError("no start state: give --start or declare initial")
    word = _split_word(args.word, auto.input_alphabet)
    report = ad.dissipation.path_choice_information(auto, model, start, word)
    if math.isinf(report.total_bits):
        i = report.per_step_bits.index(math.inf)
        raise AutomataError(
            f"input {word[i]!r} has probability 0 in state {report.path.states[i]!r} "
            f"(word position {i}), so its choice information is infinite"
        )
    return {
        "name": auto.name,
        "start": start,
        "word": word,
        "path": list(report.path.states),
        "outputs": list(report.path.outputs),
        "total_bits": report.total_bits,
        "per_step_bits": [round(b, 9) for b in report.per_step_bits],
        "convergences_entered": list(report.convergences_entered),
        "temperature_kelvin": args.temp,
        "landauer_joules": ad.dissipation.landauer_energy(report.total_bits, args.temp),
    }


def cmd_product(args) -> dict:
    a, _ = ad.fileformat.load_automaton(args.file_a)
    b, _ = ad.fileformat.load_automaton(args.file_b)
    if args.output:  # the product is built for its file only
        _write_out(args, ad.composition.product(a, b))
    # A tuple state's degree is its modules' product: >= 2 iff each is >= 1, not all 1.
    out = [(sum(map(bool, m.successors)), len(divergent_states(m))) for m in (a, b)]
    into = [(len(set().union(*m.successors)), len(convergent_states(m))) for m in (a, b)]
    return {
        "name": f"{a.name}*{b.name}",
        "modules": [a.name, b.name],
        "module_state_counts": [len(a.states), len(b.states)],
        "module_arrow_counts": [a.arrow_count, b.arrow_count],
        "state_count": len(a.states) * len(b.states),
        "arrow_count": a.arrow_count * b.arrow_count,
        "divergent_count": math.prod(n for n, _ in out) - math.prod(n - k for n, k in out),
        "convergent_count": math.prod(n for n, _ in into) - math.prod(n - k for n, k in into),
    }


def cmd_wire(args) -> dict:
    wiring = ad.fileformat.load_wiring(args.file)
    closed = ad.composition.wire(wiring)
    auto = closed.automaton
    _write_out(args, auto)
    shown = (range(len(auto.states)) if auto.initial is None
             else sorted(core._reached(auto, auto.initial), key=auto.states.__getitem__))
    # Degrees are read for the shown states only, by index, so no view over
    # every tuple state is built.  Dissipation is owed on the open graph
    # (what the per-module tests certify), even though the wired loop itself
    # may be choice-free: there a state's out-degree is the product of its modules'
    # out-degrees, at the module states that the rows' ``_at`` gives for its index.
    # Choice bits of d equally likely arrows, summed as choice_information
    # sums them so that the floats agree; once per degree, as one can be 2**20.
    bits = functools.lru_cache(maxsize=None)(lambda d: ad.dissipation._bits([1 / max(d, 1)] * d))
    return {
        "name": auto.name,
        "modules": [n for n, _ in wiring.modules],
        "free_inputs": list(closed.free_modules),
        "state_count": len(auto.states),
        "arrow_count": sum(len({t for _, t in row}) for row in auto.moves),
        "initial": auto.initial,
        "open_choice_bits": {auto.states[i]: bits(math.prod(
            len(m.successors[q]) for (_, m), q in zip(wiring.modules, auto.moves._at(i))))
            for i in shown},
        "closed_choice_bits": {auto.states[i]: bits(len({t for _, t in auto.moves[i]}))
                               for i in shown},
    }


def cmd_reach(args) -> dict:
    auto, _ = ad.fileformat.load_automaton(args.file)
    sub = ad.composition.reachable_subgraph(auto)
    _write_out(args, sub)
    return {
        "name": sub.name,
        "state_count": len(sub.states),
        "arrow_count": sub.arrow_count,
        "states": list(sub.states),
        "reversible": is_reversible(sub),
    }


def cmd_equiv(args) -> dict:
    a, _ = ad.fileformat.load_automaton(args.file_a)
    b, _ = ad.fileformat.load_automaton(args.file_b)
    return {"equivalent": ad.composition.equivalent(a, b)}


def cmd_test(args) -> dict:
    auto, _ = ad.fileformat.load_automaton(args.file)
    start = args.start or auto.initial
    if start is None:
        raise AutomataError("no start state: give --start or declare initial")
    tour = ad.conformance.transition_tour(auto, start)
    return {
        "name": auto.name,
        "start": start,
        "length": tour.length,
        "arrow_count": auto.arrow_count,
        "covered": len(tour.covered),
        "word": list(tour.word),
    }


def cmd_dot(args) -> dict | None:
    auto, _ = ad.fileformat.load_automaton(args.file)
    sys.stdout.write(ad.dot.export_dot(auto))
    return None


def cmd_tm_run(args) -> dict:
    tm = ad.fileformat.load_machine(args.file)
    trace = ad.turing.tm_run(tm, args.tape.split(), max_steps=args.max_steps)
    return {
        "name": tm.name,
        "halted": trace.halted,
        "steps": trace.steps,
        "result": list(trace.result) if trace.result is not None else None,
        "result_length": trace.result_length,
        "final_control": trace.configurations[-1].control,
    }


def cmd_tm_head(args) -> dict:
    tm = ad.fileformat.load_machine(args.file)
    head = ad.turing.head_automaton(tm)
    convergent = sorted(convergent_states(head))
    _write_out(args, head)
    return {
        "name": head.name,
        "control_states": len(head.states),
        "arrow_count": head.arrow_count,
        "has_convergence": bool(convergent),
        "convergent": convergent,
    }


def cmd_tm_dissip(args) -> dict:
    tm = ad.fileformat.load_machine(args.file)
    acc = ad.turing.modular_tm_dissipation(tm, args.tape.split(), max_steps=args.max_steps)
    steps = len(acc.per_step_bits)
    return {
        "name": tm.name,
        "steps": steps,
        "halted": acc.trace.halted,
        "per_step_bits": [round(b, 9) for b in acc.per_step_bits],
        "cumulative_bits": [round(b, 9) for b in acc.cumulative_bits],
        "total_bits": acc.total_bits,
        "slope_bits_per_step": acc.total_bits / steps if steps else 0.0,
    }


def cmd_tm_linear(args) -> dict:
    tm = ad.fileformat.load_machine(args.file)
    trace = ad.turing.tm_run(tm, args.tape.split(), max_steps=args.max_steps)
    if args.output or not trace.halted:  # names for -o; a run not halted is refused there
        _write_out(args, ad.turing.global_graph(trace))
    return {
        "name": f"{tm.name}_global",
        "state_count": trace.steps + 1,  # a halted run revisits no configuration
        "reversible": True,
        "divergent_count": 0,
        "convergent_count": 0,
    }


def cmd_tm_bennett(args) -> dict:
    tm = ad.fileformat.load_machine(args.file)
    trace = ad.turing.bennett_simulate(tm, args.tape.split(), max_steps=args.max_steps)
    snapshots = trace.global_configs
    # One global state per snapshot, and no two snapshots share a key (within
    # each phase one counter is strictly monotone), so the chain has no
    # convergence; only the two end snapshots are built, and no name.
    return {
        "name": tm.name,
        "forward_steps": trace.forward.steps,
        "result_length": trace.forward.result_length,
        "total_steps": trace.total_steps,
        "history_empty": not snapshots[-1].history,
        "input_restored": snapshots[-1].config == snapshots[0].config,
        "output": list(trace.output_tape),
        "global_states": len(snapshots),
        "global_reversible": True,
        "classic_step_count": trace.classic_step_count,
    }


class _Parser(argparse.ArgumentParser):
    """A parser, like each of its subparsers, that refuses unknown arguments with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="autodiss",
        description="Analyze automata as physical implements: structure, "
        "dissipation, composition, conformance tests, Turing machines.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps an absent sub-level flag from clobbering the root one
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, helptext, func, files=("file",), start=False, steps=None,
            tape_help=None, output=None):
        """A command taking ``files``, then ``--start``, then ``--tape`` and
        ``--max-steps`` (default ``steps``), then ``-o`` for the ``output`` automaton."""
        p = group.add_parser(name, help=helptext, parents=[common])
        for file in files:
            p.add_argument(file)
        if start:
            p.add_argument("--start")
        if steps is not None:
            p.add_argument("--tape", default="", help=tape_help)
            p.add_argument("--max-steps", type=_non_negative_int, default=steps)
        if output:
            p.add_argument("-o", "--output", help=f"write the {output} automaton here")
        p.set_defaults(func=func)
        return p

    add(sub, "analyze", "graph structure and per-state choice bits", cmd_analyze)
    p = add(sub, "run", "run a word and report its choice information", cmd_run, start=True)
    p.add_argument("--word", required=True)
    # argparse converts a string default as it converts the flag, so a
    # non-numeric AUTODISS_TEMP is a usage error
    p.add_argument("--temp", type=float,
                   default=os.environ.get("AUTODISS_TEMP", DEFAULT_TEMPERATURE),
                   help="temperature in Kelvin (default: $AUTODISS_TEMP, else 300)")
    add(sub, "product", "Cartesian product of two module graphs", cmd_product,
        files=("file_a", "file_b"), output="product")
    add(sub, "wire", "close a wiring into a tuple-state automaton", cmd_wire, output="closed")
    add(sub, "reach", "restrict to states reachable from the initial", cmd_reach,
        output="reachable")
    add(sub, "equiv", "rooted isomorphism up to symbol renaming", cmd_equiv,
        files=("file_a", "file_b"))
    add(sub, "test", "covering transition tour and its cost", cmd_test, start=True)
    add(sub, "dot", "deterministic Graphviz rendering", cmd_dot)

    tm = sub.add_parser("tm", help="Turing machine analyses", parents=[common])
    tmsub = tm.add_subparsers(dest="tm_command", required=True)
    add(tmsub, "run", "run a machine", cmd_tm_run, steps=10_000,
        tape_help="whitespace-separated input symbols")
    add(tmsub, "head", "the finite control as an automaton", cmd_tm_head, output="head")
    add(tmsub, "dissip", "modular per-step information charges", cmd_tm_dissip, steps=1000)
    add(tmsub, "linear", "global graph of a halted run", cmd_tm_linear, steps=10_000,
        output="linear")
    add(tmsub, "bennett", "record, copy, uncompute simulation", cmd_tm_bennett, steps=10_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except OSError as e:  # missing, a directory, no permission, not UTF-8
        reason = "file not found" if isinstance(e, FileNotFoundError) else e.strerror
        print(f"error: {reason}: {e.filename or e}", file=sys.stderr)
        return 2
    except AutomataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 1
    if report is not None:
        _emit(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
