"""Logical dissipation analysis for deterministic automata.

Treats a finite automaton as a testable physical implement: analyses
its divergence/convergence structure, quantifies the information its
runs consume and lose, composes modules by Cartesian product and
wiring, generates covering test tours, and extends the same accounting
to deterministic Turing machines, including a reversible
record/copy/uncompute simulation.
"""

from .core import (
    Arrow,
    Automaton,
    Path,
    arrows_from,
    convergent_states,
    divergent_states,
    is_reversible,
    reachable_states,
    run,
    step,
    validate,
)
from .dissipation import (
    BOLTZMANN_K,
    EnsembleTrace,
    InputModel,
    PathReport,
    choice_information,
    ensemble_dissipation,
    ensemble_step,
    entropy_bits,
    landauer_energy,
    path_choice_information,
    point_distribution,
    szilard_check,
    uniform_distribution,
)
from .composition import (
    ClosedSystem,
    Connection,
    ProductAutomaton,
    Wiring,
    equivalent,
    product,
    product_input_model,
    product_many,
    reachable_subgraph,
    wire,
)
from .conformance import (
    AutomatonOracle,
    TestTour,
    Verdict,
    modular_test_cost,
    simulate_test,
    test_cost,
    transition_tour,
)
from .turing import (
    BennettTrace,
    Configuration,
    ConvergenceReport,
    RunTrace,
    TmDissipation,
    TuringMachine,
    bennett_simulate,
    cell_automaton,
    check_convergence_lemma,
    global_graph,
    head_automaton,
    initial_configuration,
    make_machine,
    modular_tm_dissipation,
    tm_run,
    tm_step,
)
from .fileformat import (
    load_automaton,
    load_machine,
    load_wiring,
    parse_automaton,
    parse_machine,
    parse_wiring,
    write_automaton,
)
from .dot import export_dot
from . import errors

__version__ = "0.1.0"
# glibc hands its heap top back once twice the largest block it ever mapped lies free, so
# whether blocks of a few hundred kB were re-faulted on every call hung on incidental layout
# (the checkout path's length); freeing one 1 MiB mapping here lifts that bar to 2 MiB.
bytes(1 << 20)

__all__ = [
    "Arrow", "Automaton", "Path", "arrows_from", "convergent_states",
    "divergent_states", "is_reversible", "reachable_states", "run", "step",
    "validate",
    "BOLTZMANN_K", "EnsembleTrace", "InputModel", "PathReport",
    "choice_information", "ensemble_dissipation", "ensemble_step",
    "entropy_bits", "landauer_energy", "path_choice_information",
    "point_distribution", "szilard_check", "uniform_distribution",
    "ClosedSystem", "Connection", "ProductAutomaton", "Wiring", "equivalent",
    "product", "product_input_model", "product_many", "reachable_subgraph",
    "wire",
    "AutomatonOracle", "TestTour", "Verdict", "modular_test_cost",
    "simulate_test", "test_cost", "transition_tour",
    "BennettTrace", "Configuration", "ConvergenceReport", "RunTrace",
    "TmDissipation", "TuringMachine", "bennett_simulate", "cell_automaton",
    "check_convergence_lemma", "global_graph", "head_automaton",
    "initial_configuration", "make_machine", "modular_tm_dissipation",
    "tm_run", "tm_step",
    "load_automaton", "load_machine", "load_wiring", "parse_automaton",
    "parse_machine", "parse_wiring", "write_automaton",
    "export_dot", "errors",
]
