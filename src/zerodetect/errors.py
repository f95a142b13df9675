"""Exception types shared across the package."""


class ZeroDetectError(Exception):
    """Base class for every error raised by zerodetect."""


class BadValue(ZeroDetectError, ValueError):
    """An argument or configuration value is outside its allowed range."""


class DimensionMismatch(ZeroDetectError, ValueError):
    """Operands have incompatible shapes."""


class ZeroColumn(ZeroDetectError, ValueError):
    """A column that must be normalizable has (numerically) zero norm."""

    def __init__(self, column: int):
        self.column = column  # 1-based
        super().__init__(f"column {column} has zero norm")


class SingleColumn(ZeroDetectError, ValueError):
    """The statistic needs at least two columns (denominator p - 1)."""


class NoGroups(ZeroDetectError, ValueError):
    """A group partition with q >= 2 groups is required but absent."""


class IndivisibleGroupSize(ZeroDetectError, ValueError):
    """Requested group size does not divide the column count."""


class InvalidSpec(ZeroDetectError, ValueError):
    """A matrix-family specification is malformed (e.g. even Kerdock degree)."""


class ThetaOutOfRange(BadValue):
    """Requested estimate size is outside [1, p] (or [1, q] for groups)."""


class BadK(ZeroDetectError, ValueError):
    """Sparsity / support-size argument out of range."""


class ZeroZ(ZeroDetectError, ValueError):
    """The probe vector of the orthogonality estimator must be nonzero."""


class EmptySupport(ZeroDetectError, ValueError):
    """Signal statistics are undefined for an all-zero signal."""


class IncompleteReport(ZeroDetectError, ValueError):
    """A batch report is missing cells required by the requested figure."""


class ConstructionError(ZeroDetectError, RuntimeError):
    """A deterministic matrix construction failed its built-in integrity check."""


class CmatFormatError(ZeroDetectError, ValueError):
    """A matrix text file does not conform to the CMAT v1 format."""
