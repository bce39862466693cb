"""Exception types, each tagged with the stable error code used in CLI output."""


class QuiverHomError(Exception):
    """Base class; `code` is the machine-readable tag, exit code 1 unless noted.
    A `line` (of an input file) is prefixed to the message."""

    code = "ERROR"

    def __init__(self, message="", line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.message = message
        self.line = line


class ComposeMismatch(QuiverHomError):
    code = "COMPOSE_MISMATCH"


class NotAdmissible(QuiverHomError):
    code = "NOT_ADMISSIBLE"


class InfiniteDimensional(QuiverHomError):
    code = "INFINITE_DIMENSIONAL"


class BadRelation(QuiverHomError):
    code = "BAD_RELATION"


class ZeroPath(QuiverHomError):
    code = "ZERO_PATH"


class UnsupportedIdeal(QuiverHomError):
    code = "UNSUPPORTED_IDEAL"


class PreconditionViolated(QuiverHomError):
    code = "PRECONDITION"


class FieldMismatch(QuiverHomError):
    code = "FIELD_MISMATCH"


class Indeterminate(QuiverHomError):
    """A configurable cap was hit before a certified answer; CLI exit code 2."""

    code = "INDETERMINATE"


class NoDecomposition(QuiverHomError):
    code = "NO_DECOMPOSITION"


class HypothesisViolated(QuiverHomError):
    code = "HYPOTHESIS_VIOLATED"

    def __init__(self, message="", bullet=None):
        super().__init__(message)
        self.bullet = bullet


class ParseError(QuiverHomError):
    code = "PARSE_ERROR"


class InternalInvariantError(QuiverHomError):
    """An internal cross-check failed; CLI exit code 3."""

    code = "INTERNAL"
