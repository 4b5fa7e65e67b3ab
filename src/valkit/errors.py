"""Exception types shared across the library."""


class ValkitError(Exception):
    """Base class for every error raised by this library."""


class ArgumentError(ValkitError, ValueError):
    """A malformed argument: bad elimination order, liar cycle length < 2, unknown builtin."""


class DomainError(ValkitError):
    """A variable set violates a domain precondition (projection target not a subset, unknown variable)."""


class UniverseMismatchError(DomainError):
    """Two operands were built over different variable universes."""


class CapabilityError(ValkitError):
    """The input lacks what the operation needs: idempotency (`calibrate`), the order (`leq`), adjointness
    (`check_global_agreement_adjoint`), or the algebra that the feasibility path or `search_truth_valuations` needs."""


class ResourceLimitError(ValkitError):
    """An intermediate result would exceed the configured size limit."""


class PreconditionError(ValkitError):
    """The input violates a documented precondition (e.g. a signalling empirical model)."""


class SignallingError(PreconditionError):
    """An empirical model signals; `verdict` is its failed NoSignallingVerdict."""

    def __init__(self, verdict):
        super().__init__(f"model signals between contexts {verdict.pair[0]!r} and {verdict.pair[1]!r}")
        self.verdict = verdict


class ParseError(ValkitError):
    """An input document failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def location(self) -> str:
        if self.line is None:
            return ""
        return f" (line {self.line}, column {self.column})"
