"""Byte-for-byte pins of the command-line parser.

``golden/parser_outputs.json`` holds, for each of the 15 parsers that
``build_parser`` makes (the root, its eight commands, ``tm`` and the five
``tm`` commands), the ``--help`` text, the exit code and stderr of a
flag it does not know and of ``--max-steps -1``, and the namespace that
its smallest valid command line parses to (a usage error for the root and
``tm``, which need a command).  Each case only parses; no command runs.
``main`` is checked to print the pinned stderr of each usage error.
Help is wrapped at 80 columns and ``AUTODISS_TEMP`` is unset.  Run as a
script, this file only adds pins; for a deliberate change of output,
delete the changed keys by hand first (see ``golden.py``).
"""

import argparse
import contextlib
import io
import json
import os

import pytest

import golden
from autodiss.cli import build_parser, main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "parser_outputs.json")


def parsers(parser=None, prefix=()):
    """``(argv prefix, parser)`` of the root parser and of every command under it."""
    parser = parser or build_parser()
    yield list(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, (*prefix, name))


def smallest(parser) -> list[str]:
    """The parser's positionals and required flags, each given its ``dest``."""
    argv = []
    for action in parser._actions:
        if not action.option_strings and action.nargs != argparse.PARSER:
            argv.append(action.dest)
        elif action.required and action.option_strings:
            argv += [action.option_strings[0], action.dest]
    return argv


def parse(argv) -> dict:
    """Exit code, stdout, stderr and parsed namespace of ``argv``; the
    namespace's ``func`` by name, and ``None`` when parsing exits."""
    out, err = io.StringIO(), io.StringIO()
    code, args = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = build_parser().parse_args(argv)
            args = {k: getattr(v, "__name__", v) for k, v in sorted(vars(ns).items())}
        except SystemExit as e:
            code = e.code
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "args": args}


def collect() -> dict:
    got = {"help": {}, "bad_flag": {}, "max_steps": {}, "parsed": {}}
    for prefix, parser in parsers():
        key, argv = " ".join(["autodiss", *prefix]), prefix + smallest(parser)
        got["help"][key] = parse(prefix + ["--help"])
        got["bad_flag"][key] = parse(argv + ["--no-such-flag"])
        got["max_steps"][key] = parse(argv + ["--max-steps", "-1"])
        got["parsed"][key] = parse(argv)
    return got


def test_fifteen_parsers_are_pinned():
    assert len(list(parsers())) == 15


def test_parser_outputs_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("AUTODISS_TEMP", raising=False)
    golden.check(FIXTURE, collect())


def test_main_prints_the_pinned_usage_errors(monkeypatch):
    """``main`` exits as ``build_parser().parse_args`` does on each pinned
    unknown flag and ``--max-steps -1``, so the two cannot drift apart."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("AUTODISS_TEMP", raising=False)
    with open(FIXTURE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for prefix, parser in parsers():
        key, argv = " ".join(["autodiss", *prefix]), prefix + smallest(parser)
        for section, extra in (("bad_flag", ["--no-such-flag"]), ("max_steps", ["--max-steps", "-1"])):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
                main(argv + extra)
            want = pinned[section][key]
            assert (exit_.value.code, err.getvalue()) == (want["code"], want["err"]), f"{section} {key}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("AUTODISS_TEMP", None)
    golden.extend(FIXTURE, collect())
