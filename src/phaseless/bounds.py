"""Quantitative constants for the high-energy error model.

The forward map's Born remainder admits an explicit bound of the form
C * E^(-1/2) where C is assembled from three measurable ingredients: a
weighted-volume constant depending only on dimension and a weight
exponent, the peak of the weight over the scatterer's support, and the
scatterer's size in the weighted sup norm.  This module evaluates those
constants in closed form, assembles the composite coefficient, and fits
measured error-versus-energy tables on a log-log scale so experiments
can compare against the predicted -1/2 power.

One operator-norm constant (called a0 here) is quoted by the
literature without a numeric value; it enters linearly everywhere, so
reports treat it as a labeled input with default 1.0 and additionally
solve for the value the measurements imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFitError, DivergentIntegralError
from .potentials import PotentialSpec, sup_weighted_norm

__all__ = [
    "weight_norm_constant",
    "sup_weight_on_support",
    "contraction_onset",
    "error_coefficient",
    "fit_decay",
    "BoundsReport",
    "bounds_report",
]


def _gamma_ratio(a: float, h: float) -> float:
    """Gamma(a) / Gamma(a + h) for a, h > 0, without overflow.

    math.gamma below a = 100.  Above, each Gamma alone overflows from
    a ~ 171 on, and exp(lgamma(a) - lgamma(a + h)) carries the absolute
    rounding of two logarithms near a log(a) (relative 3e-13 at a = 171),
    so the difference is taken from Stirling's series of log Gamma,
    (x - 1/2) log(x) - x + log(2 pi)/2 + S(x), with the large terms
    cancelled by hand.
    """
    if a < 100.0:
        return math.gamma(a) / math.gamma(a + h)

    def series(x: float) -> float:  # S(x) to O(x^-7), below 1e-17 here
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x * x)) / (x * x)) / x

    log_ratio = (
        h - (a - 0.5) * math.log1p(h / a) - h * math.log(a + h) + series(a) - series(a + h)
    )
    return math.exp(log_ratio)


def weight_norm_constant(dim: int, sigma: float) -> float:
    """sqrt of the integral of (1 + |x|^2)^(-sigma/2) over R^dim.

    Finite only for sigma > dim.  Closed form:
    (pi^(d/2) * Gamma((sigma - d)/2) / Gamma(sigma/2))^(1/2).
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if sigma <= dim:
        raise DivergentIntegralError(
            f"the weight integral diverges for sigma={sigma} <= dim={dim}"
        )
    return math.sqrt(math.pi ** (dim / 2.0) * _gamma_ratio((sigma - dim) / 2.0, dim / 2.0))


def sup_weight_on_support(spec: PotentialSpec, sigma: float) -> float:
    """max of (1 + |x|^2)^(sigma/2) over the union of support balls.

    Exact: the weight is radial and increasing, so the sup sits at the
    farthest point of the farthest ball.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if spec.is_zero():
        raise ValueError("empty potential has no support")
    far = max(float(np.linalg.norm(c)) + r for c, r in spec.support_balls())
    return float((1.0 + far * far) ** (sigma / 2.0))


def contraction_onset(norm_bound: float, a0: float = 1.0) -> float:
    """sqrt(E) above which the iteration is provably contracting.

    max(2 * a0 * norm_bound, 1), with ``norm_bound`` the weighted sup
    norm of the potential and ``a0`` the resolvent-bound constant.
    """
    if norm_bound < 0 or a0 <= 0:
        raise ValueError("norm bound must be nonnegative and a0 positive")
    return float(max(2.0 * a0 * norm_bound, 1.0))


def error_coefficient(dim: int, sigma: float, norm: float, a0: float = 1.0) -> float:
    """Coefficient of E^(-1/2) in the squared-modulus error bound.

    6 * (2 pi)^(-2 dim) * a0 * c1^4 * norm^3, where c1 is the
    weight-norm constant and ``norm`` the weighted sup norm of the
    potential.
    """
    c1 = weight_norm_constant(dim, sigma)
    return float(6.0 * (2.0 * np.pi) ** (-2 * dim) * a0 * c1**4 * norm**3)


def fit_decay(energies, errors) -> tuple[float, float]:
    """Least-squares slope and intercept of log(err) against log(E).

    Requires at least four strictly increasing energies with positive
    errors; raises DegenerateFitError otherwise.  Multiplying all
    errors by a constant shifts the intercept only.
    """
    E = np.asarray(list(energies), dtype=float)
    err = np.asarray(list(errors), dtype=float)
    if E.shape != err.shape or E.ndim != 1:
        raise DegenerateFitError("energies and errors must be equal-length vectors")
    if E.size < 4:
        raise DegenerateFitError("need at least four energies for a decay fit")
    if np.any(np.diff(E) <= 0):
        raise DegenerateFitError("energies must be strictly increasing")
    if np.any(err <= 0) or not np.all(np.isfinite(err)):
        raise DegenerateFitError("errors must be positive and finite")
    slope, intercept = np.polyfit(np.log(E), np.log(err), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class BoundsReport:
    """Constants, fit, and self-consistency info for one error table."""

    dim: int
    sigma: float
    a0: float
    c1: float
    c2: float
    norm_bound: float
    contraction_sqrt_e: float
    coefficient: float
    energies: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    implied_a0: float

    def bound_at(self, E: float) -> float:
        return self.coefficient * E ** (-0.5)

    def bound_holds(self) -> bool:
        return all(e <= self.bound_at(E) for E, e in zip(self.energies, self.errors))


def bounds_report(
    spec: PotentialSpec,
    energies,
    errors,
    sigma: float | None = None,
    a0: float = 1.0,
) -> BoundsReport:
    """Assemble constants for ``spec`` and fit the measured error table.

    ``implied_a0`` is the smallest a0 making the theoretical line an
    upper envelope of the measurements; comparing it with the supplied
    a0 is the report's self-consistency check (reported, not asserted,
    since a0 has no literature value).
    """
    sigma = float(sigma) if sigma is not None else spec.dim + 1.0
    slope, intercept = fit_decay(energies, errors)
    c1 = weight_norm_constant(spec.dim, sigma)
    c2 = sup_weight_on_support(spec, sigma)
    norm = sup_weighted_norm(spec, sigma)
    coeff = error_coefficient(spec.dim, sigma, norm, a0)
    E = np.asarray(list(energies), dtype=float)
    err = np.asarray(list(errors), dtype=float)
    with np.errstate(divide="ignore"):
        implied = float(np.max(err * np.sqrt(E))) / (coeff / a0)
    return BoundsReport(
        dim=spec.dim,
        sigma=sigma,
        a0=a0,
        c1=c1,
        c2=c2,
        norm_bound=norm,
        contraction_sqrt_e=contraction_onset(norm, a0),
        coefficient=coeff,
        energies=tuple(float(e) for e in E),
        errors=tuple(float(e) for e in err),
        slope=slope,
        intercept=intercept,
        implied_a0=implied,
    )
