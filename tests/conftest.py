import os
import sys

import pytest

from autodiss import load_automaton, load_machine, load_wiring
from autodiss.assets import asset_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_acceptance_outcomes = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_outcomes:
        terminalreporter.write_line(f"{name}: {outcome.upper()}")


@pytest.fixture(scope="session")
def lossy():
    return load_automaton(asset_path("lossy.aut"))


@pytest.fixture(scope="session")
def onebit():
    return load_automaton(asset_path("onebit.aut"))


@pytest.fixture(scope="session")
def counter4():
    return load_automaton(asset_path("counter4.aut"))


@pytest.fixture(scope="session")
def counter2():
    return load_automaton(asset_path("counter2.aut"))


@pytest.fixture(scope="session")
def tff():
    return load_automaton(asset_path("tff.aut"))


@pytest.fixture(scope="session")
def bb2():
    return load_machine(asset_path("bb2.tm"))


@pytest.fixture(scope="session")
def bincounter():
    return load_machine(asset_path("bincounter.tm"))


@pytest.fixture(scope="session")
def loop_machine():
    return load_machine(asset_path("loop.tm"))


@pytest.fixture(scope="session")
def tff_wiring():
    return load_wiring(asset_path("counter4_tff.wiring"))


@pytest.fixture(scope="session")
def mixed_wiring():
    return load_wiring(asset_path("counter4_mixed.wiring"))


@pytest.fixture
def gen(monkeypatch):
    """The benchmark's input generator ``perfbench/gen.py``; ``perfbench/``
    stays on the import path for the test, so its other modules import too."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import gen

    return gen
