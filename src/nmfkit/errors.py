"""Exception and warning types shared across the package."""


class NmfError(Exception):
    """Base class for all nmfkit errors."""


class NumericalError(NmfError):
    """A computation cannot proceed on these numbers; the CLI exits 4."""


class InvalidConfig(ValueError):
    """A solver, initializer or benchmark setting is out of range; the CLI exits 2 (usage)."""


class DimensionMismatch(NmfError):
    """Operand shapes are inconsistent."""


class SingularSystem(NumericalError):
    """A Cholesky pivot fell below tolerance; the system is numerically singular."""


class RankTooLarge(NumericalError):
    """Requested rank exceeds min(m, n)."""


class InvalidRank(NumericalError):
    """Solver rank is invalid for the given matrix."""


class DegenerateInput(NumericalError):
    """Input is degenerate for the requested operation (e.g. too few nonzero columns)."""


class PTooLarge(NumericalError):
    """Column-averaging count p exceeds the available column pool."""


class ZeroVector(NumericalError):
    """A nonzero vector was required."""


class EmptyCorpus(NmfError):
    """No usable documents were supplied."""


class NonpositiveBaseline(NumericalError):
    """SVD baseline error must be positive to normalize against."""


class EmptyDocumentWarning(UserWarning):
    """A document produced no tokens; its column is retained as all zeros."""
