"""Exception taxonomy.

Every error carries a ``category`` used by the CLI to pick an exit code:
validation, parse, horizon, degenerate-assumption, io.
"""


class UrnovaError(Exception):
    category = "validation"


class ValidationError(UrnovaError):
    category = "validation"


class ParseError(UrnovaError):
    category = "parse"


class HorizonError(UrnovaError):
    category = "horizon"


class IoError(UrnovaError):
    category = "io"


class DegenerateAssumption(UrnovaError):
    """A pivot constant required to be nonzero vanished."""

    category = "degenerate-assumption"


# -- model construction ------------------------------------------------------

class EmptyMeasure(ValidationError):
    pass


class ExhaustedUrn(ValidationError):
    """A replacement factor or denominator can reach a negative value."""


class UnknownSymbol(ValidationError):
    pass


class LengthExceeded(HorizonError):
    pass


HorizonTooShort = LengthExceeded  # one horizon refusal; the old name still imports


# -- kernels -----------------------------------------------------------------

class MissingMultiset(ValidationError):
    pass


class DuplicateMultiset(ValidationError):
    pass


class ArityMismatch(ValidationError):
    pass


class NonNumericAlphabet(ValidationError):
    pass


class ZeroDenominator(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class DegeneracyViolated(ValidationError):
    pass


class ZeroProjection(ValidationError):
    pass


class RequiresPositiveC(ValidationError):
    pass
