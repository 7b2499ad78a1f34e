"""Error types shared across the package.

Every failure mode that callers are expected to handle gets its own class
here, so the CLI can map them onto exit codes without string matching.
"""


class PhaselessError(Exception):
    """Base class for all package errors."""


class ConfigError(PhaselessError):
    """Malformed, unknown-key, or out-of-range experiment configuration."""


class GridMismatchError(PhaselessError):
    """Field and grid (or spectral/spatial pair) do not belong together."""


class SupportOutsideBoxError(PhaselessError):
    """A potential's support is not strictly inside the grid box."""


class UnsupportedPrimitiveError(PhaselessError):
    """No closed-form transform is available for the requested primitive."""


class ZeroDisplacementError(PhaselessError):
    """Outgoing kernel evaluated at zero displacement."""


class UnresolvedGridError(PhaselessError):
    """Grid spacing too coarse for the requested wavelength."""


class SolverConvergenceError(PhaselessError):
    """Fixed-point iteration diverged and no fallback was possible."""


class EnergyShellError(PhaselessError):
    """Incident and outgoing wave vectors are not on the same energy shell."""


class OutOfBallError(PhaselessError):
    """Requested momentum-transfer node lies outside the reachable ball."""


class BackgroundValidationError(PhaselessError):
    """Background set violates disjointness, non-zero, or distinctness."""


class SingularNodeError(PhaselessError):
    """Phase recovery attempted at a node flagged as singular."""


class NoDataError(PhaselessError):
    """No usable measurement is available at the requested node."""


class DegenerateDataError(PhaselessError):
    """Dataset is too degenerate to reconstruct (mask fraction too high)."""


class DivergentIntegralError(PhaselessError):
    """Weight-norm integral diverges for the requested exponent."""


class DegenerateFitError(PhaselessError):
    """Not enough (or non-positive) samples for a decay fit."""
