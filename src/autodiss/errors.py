"""Exception hierarchy shared by all autodiss modules."""


class AutomataError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AutomataError):
    """An automaton or machine description violates a structural rule.

    ``entry``, set by :func:`autodiss.core.validate` and
    :func:`autodiss.turing.make_machine`, names the rejected entry as
    ``(parameter, position)``: ``("transitions", 4)`` is the fifth triple.
    A ``context`` is appended to the message in parentheses."""

    def __init__(self, message, entry=None, context=""):
        super().__init__(message + (f" ({context})" if context else ""))
        self.entry = entry


class Nondeterministic(ValidationError):
    def __init__(self, state, symbol, entry=None):
        self.state = state
        self.symbol = symbol
        super().__init__(f"two transitions defined for ({state!r}, {symbol!r})", entry)


class NonInjectiveOutput(ValidationError):
    def __init__(self, state1, state2, entry=None):
        self.state1 = state1
        self.state2 = state2
        super().__init__(f"states {state1!r} and {state2!r} share an output symbol", entry)


class UnknownSymbol(ValidationError):
    def __init__(self, symbol, context="", entry=None):
        self.symbol = symbol
        super().__init__(f"symbol {symbol!r} is not declared", entry, context)


class UnknownState(ValidationError):
    def __init__(self, state, context="", entry=None):
        self.state = state
        super().__init__(f"state {state!r} is not declared", entry, context)


class MissingOutput(ValidationError):
    def __init__(self, state, entry=None):
        self.state = state
        super().__init__(f"state {state!r} has no output symbol", entry)


class DuplicateIdentifier(ValidationError):
    def __init__(self, token, context="", entry=None):
        self.token = token
        super().__init__(f"identifier {token!r} declared twice", entry, context)


class ForbiddenInput(AutomataError):
    """The environment presented a symbol the current state does not accept."""

    def __init__(self, state, symbol, position=None):
        self.state = state
        self.symbol = symbol
        self.position = position
        msg = f"input {symbol!r} is forbidden in state {state!r}"
        if position is not None:
            msg += f" (word position {position})"
        super().__init__(msg)


class InvalidDistribution(AutomataError):
    pass


class NonPositiveTemperature(AutomataError):
    def __init__(self, temperature):
        self.temperature = temperature
        super().__init__(f"temperature must be positive and finite, got {temperature!r}")


class MultiplyDrivenPort(AutomataError):
    def __init__(self, module):
        self.module = module
        super().__init__(f"input of module {module!r} is driven more than once")


class AlphabetMismatch(AutomataError):
    pass


class MissingInitial(AutomataError):
    def __init__(self, name=""):
        super().__init__(f"no initial state declared{' for ' + name if name else ''}")


class Untestable(AutomataError):
    """A transition tour cannot cover the whole arrow set."""

    def __init__(self, uncovered, detail=""):
        self.uncovered = frozenset(uncovered)
        pairs = ", ".join(f"{s}->{t}" for s, t in sorted(self.uncovered))
        msg = f"cannot cover arrows: {pairs}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class SizeLimit(AutomataError):
    def __init__(self, size, limit, unit="states"):
        self.size = size
        self.limit = limit
        super().__init__(f"{size} {unit} exceed the monolithic limit of {limit}")


class ArityMismatch(AutomataError, ValueError):
    """A call got the wrong number of parts (modules, models, starts)."""


class InvalidArgument(AutomataError, ValueError):
    """An argument is outside its domain: a step budget, horizon or bit count, or a word or symbol map."""


class DeviceRefused(AutomataError):
    def __init__(self, step_index, reason=""):
        self.step_index = step_index
        msg = f"device refused the symbol at step {step_index}"
        super().__init__(msg + (f": {reason}" if reason else ""))


class NoRule(AutomataError):
    def __init__(self, state, symbol):
        self.state = state
        self.symbol = symbol
        super().__init__(f"no rule for control state {state!r} reading {symbol!r}")


class Halted(AutomataError):
    pass


class NotHalted(AutomataError):
    pass


class NotHalting(AutomataError):
    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"machine did not halt within {budget} steps")


class RepeatedConfiguration(AutomataError):
    """Internal inconsistency: a halted run revisited a configuration."""


class IrreversibleStep(AutomataError):
    """Internal inconsistency: a forward run's log or end does not fit its machine."""


class AlphabetTooSmall(AutomataError):
    def __init__(self, size):
        super().__init__(f"memory cell needs at least 2 symbols, got {size}")


class TapeOverflow(AutomataError):
    def __init__(self, span, cap):
        self.span = span
        self.cap = cap
        super().__init__(f"tape window of {span} cells exceeds the cap of {cap}")


class ParseError(AutomataError):
    """A malformed line; ``path`` names the file when it is not the one
    the caller opened, such as a module file inside a wiring."""

    def __init__(self, line_number, message, path=None):
        self.line_number = line_number
        self.message = message
        self.path = path
        where = f"{path}: line {line_number}" if path else f"line {line_number}"
        super().__init__(f"{where}: {message}")
