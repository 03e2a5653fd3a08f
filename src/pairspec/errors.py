"""Exception types shared across the package."""

__all__ = [
    "PairspecError",
    "NonPositiveSigma",
    "TauOutOfUnitDisc",
    "ComplexTauInRealKind",
    "EmptyMatrix",
    "ShapeMismatch",
    "NonSquare",
    "NonFinite",
    "NoConvergence",
    "AlphaOneUnsupported",
    "LambdaZero",
    "EmptyInput",
    "ConfigError",
]


class PairspecError(Exception):
    """Base class for every error this package raises deliberately."""


class NonPositiveSigma(PairspecError):
    """A scale parameter (sigma_x or sigma_y) is zero or negative."""


class TauOutOfUnitDisc(PairspecError):
    """|tau| exceeds 1 beyond the admitted numerical slack."""


class ComplexTauInRealKind(PairspecError):
    """A complex correlation was supplied to a kind that requires real tau."""


class EmptyMatrix(PairspecError):
    """A matrix with zero rows or zero columns where content is required."""


class ShapeMismatch(PairspecError):
    """Operand shapes are not conformable."""


class NonSquare(PairspecError):
    """A square matrix is required."""


class NonFinite(PairspecError):
    """Input contains NaN or infinite entries."""


class NoConvergence(PairspecError):
    """The iterative eigensolver hit its iteration cap; input is pathological."""


class AlphaOneUnsupported(PairspecError):
    """Square-aspect pseudo-inverse products have no disc prediction."""


class LambdaZero(PairspecError):
    """The evaluation point must be nonzero."""


class EmptyInput(PairspecError):
    """At least one sample is required."""


class ConfigError(PairspecError):
    """An experiment configuration violates its invariants."""
