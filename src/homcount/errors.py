"""Shared exception types; the CLI maps them to exit codes."""


class HomcountError(Exception):
    pass


class SignatureMismatchError(HomcountError):
    """Two structures fed to a binary operation carry different signatures."""


class CapExceededError(HomcountError):
    """A configured size or enumeration cap was exceeded.

    `count` carries the size reached when it is known.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


def cap_exceeded(cap: str, limit: int, what: str, count: int,
                 unit: str) -> CapExceededError:
    """The one way a cap error is built: `what` reached `count` `unit`,
    above `limit`.  `cap` names the cap: HOMCOUNT_CAP, the one a setting
    raises, or a fixed module constant."""
    if cap == "HOMCOUNT_CAP":
        how = "set the environment variable HOMCOUNT_CAP to raise it"
    else:
        how = f"{cap} is fixed; no setting raises it"
    return CapExceededError(f"{what} {count} {unit}, exceeding cap {limit} ({how})",
                            count=count)


class ParseError(HomcountError):
    """Text-format violation; `line` is the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolationError(HomcountError):
    """An internal theorem-check failed; this signals an implementation bug."""
