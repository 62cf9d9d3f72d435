"""Exception types shared across the package."""


class AaulError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(AaulError):
    """Malformed formula or update text. Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ModelFormatError(AaulError):
    """Malformed model or tile file. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownStateError(AaulError):
    pass


class UnknownAgentError(AaulError):
    pass


class BudgetExceededError(AaulError):
    """A check was refused rather than answered. Never silently converted
    to a truth value. `kind` says why: "arrow_blocks" when a quantified
    model has more arrow blocks than `Budget.max_arrow_blocks`, and
    "recursion" when a formula is nested deeper than the interpreter's
    stack allows."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind
