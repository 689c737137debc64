"""Logical dissipation analysis for deterministic automata.

Treats a finite automaton as a testable physical implement: analyses
its divergence/convergence structure, quantifies the information its
runs consume and lose, composes modules by Cartesian product and
wiring, generates covering test tours, and extends the same accounting
to deterministic Turing machines, including a reversible
record/copy/uncompute simulation.

Every public name is importable from the package, but a submodule is
loaded only when one of its names, or the submodule itself, is first
read (PEP 562), so ``import autodiss`` loads ``errors`` alone.
"""

import importlib

from . import errors

# Each submodule and the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "core": "Arrow Automaton Path arrows_from convergent_states divergent_states "
            "is_reversible reachable_states run step validate",
    "dissipation": "BOLTZMANN_K EnsembleTrace InputModel PathReport choice_information "
                   "ensemble_dissipation ensemble_step entropy_bits landauer_energy "
                   "path_choice_information point_distribution szilard_check "
                   "uniform_distribution",
    "composition": "ClosedSystem Connection ProductAutomaton Wiring equivalent product "
                   "product_input_model product_many reachable_subgraph wire",
    "conformance": "AutomatonOracle TestTour Verdict modular_test_cost simulate_test "
                   "test_cost transition_tour",
    "turing": "BennettTrace Configuration ConvergenceReport RunTrace TmDissipation "
              "TuringMachine bennett_simulate cell_automaton check_convergence_lemma "
              "global_graph head_automaton initial_configuration make_machine "
              "modular_tm_dissipation tm_run tm_step",
    "fileformat": "load_automaton load_machine load_wiring parse_automaton parse_machine "
                  "parse_wiring write_automaton",
    "dot": "export_dot",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
# glibc hands its heap top back once twice the largest block it ever mapped lies free, so
# whether blocks of a few hundred kB were re-faulted on every call hung on incidental layout
# (the checkout path's length); freeing one 1 MiB mapping here lifts that bar to 2 MiB.
bytes(1 << 20)

__all__ = [*_MODULE_OF, "errors"]


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
