"""Error types shared across the package.

Every failure mode that callers are expected to handle gets its own class
here.  Each class carries the CLI's exit code and the label of its stderr
line, so the CLI maps errors onto exit codes without string matching.
"""


class PhaselessError(Exception):
    """Base class for all package errors: exit code 2, a config error unless overridden."""

    exit_code = 2
    label = "config error"


class ConfigError(PhaselessError):
    """Malformed, unknown-key, or out-of-range experiment configuration."""


class InputFileError(PhaselessError, ValueError):
    """An input file (a dataset, an error table) is missing, unreadable or malformed."""

    label = "input error"


class GridMismatchError(PhaselessError):
    """Field and grid (or spectral/spatial pair) do not belong together."""


class SupportOutsideBoxError(PhaselessError):
    """A potential's support is not strictly inside the grid box."""


class ZeroDisplacementError(PhaselessError):
    """Outgoing kernel evaluated at zero displacement."""


class UnresolvedGridError(PhaselessError):
    """Grid spacing too coarse for the requested wavelength."""


class SolverConvergenceError(PhaselessError):
    """An iteration of the field solver did not converge."""

    exit_code = 3
    label = "solver failure"


class EnergyShellError(PhaselessError):
    """Incident and outgoing wave vectors are not on the same energy shell."""


class OutOfBallError(PhaselessError):
    """Requested momentum-transfer node lies outside the reachable ball."""

    label = "input error"


class BackgroundValidationError(PhaselessError):
    """Background set violates disjointness, non-zero, or distinctness."""


class SingularNodeError(PhaselessError):
    """Phase recovery attempted at a node flagged as singular."""


class NoDataError(PhaselessError):
    """No usable measurement is available at the requested node."""


class DegenerateDataError(PhaselessError):
    """Dataset is too degenerate to reconstruct (mask fraction too high)."""

    exit_code = 4
    label = "threshold failure"


class DivergentIntegralError(PhaselessError):
    """Weight-norm integral diverges for the requested exponent."""


class DegenerateFitError(PhaselessError):
    """Not enough (or non-positive) samples for a decay fit."""
