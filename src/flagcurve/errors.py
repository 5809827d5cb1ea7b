"""Exception types shared across the package.

Every error raised by the library derives from FlagCurveError so the CLI
can map failures onto exit codes in one place.
"""


class FlagCurveError(Exception):
    """Base class for all library errors."""


class UnsupportedGenus(FlagCurveError):
    """Surface genus below 2."""


class NotHyperbolic(FlagCurveError):
    """2x2 matrix with |trace| <= 2; no translation length."""


class NotUnimodular(FlagCurveError):
    """Input matrix determinant too far from 1."""


class InsufficientSamples(FlagCurveError):
    """Curve model has too few samples for the requested analysis."""


class NotRadial(FlagCurveError):
    """Operation requires a spec that states its shear (mu, nu)."""


class PolarDegenerate(FlagCurveError):
    """Curve sample too close to the polar point [e2] for chart coordinates."""


class NonLoxodromicEncountered(FlagCurveError):
    """A ball element failed the loxodromy requirement; carries the witness word."""

    def __init__(self, word: str):
        super().__init__(f"non-loxodromic ball element: {word!r}")
        self.word = word


class UnsupportedSpec(FlagCurveError):
    """The spec lacks a fact this operation needs, such as its u."""


class BaseNotInterior(FlagCurveError):
    """Recurrence base flag is not inside the invariant domain with margin."""


class ConfigError(FlagCurveError):
    """Malformed or invalid run configuration."""
