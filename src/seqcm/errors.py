"""Exception hierarchy shared by all modules."""


class SeqcmError(Exception):
    """Base class for every error raised by this package."""


class RingMismatchError(SeqcmError):
    """Operands live in different rings."""


class ZeroPolynomialError(SeqcmError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class NotBihomogeneousError(SeqcmError):
    """The polynomial mixes distinct bidegrees."""


class NotMonomialError(SeqcmError):
    """The ideal is not generated by monomials."""


class UnitIdealError(SeqcmError):
    """A proper ideal was required but the unit ideal was supplied."""


class ZeroModuleError(SeqcmError):
    """The module A/B is zero, so the invariant is undefined."""


class NoRegularFormError(SeqcmError):
    """No regular linear form was found within the retry budget.

    Over a small prime field the randomized search can exhaust even when a
    regular form exists; rerun over the rationals (or a larger prime field).
    """


class UnsupportedIdealClassError(SeqcmError):
    """The decision procedure does not cover this ideal class."""


class CertificateVerificationError(SeqcmError):
    """A certificate failed its independent re-check (internal inconsistency)."""


class ParseError(SeqcmError):
    """Syntax or semantic error in textual input, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
