import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from phaseless.bounds import (
    bounds_report,
    contraction_onset,
    error_coefficient,
    fit_decay,
    sup_weight_on_support,
    weight_norm_constant,
)
from phaseless.exceptions import DegenerateFitError, DivergentIntegralError
from phaseless.potentials import PotentialSpec, sup_weighted_norm


def test_weight_norm_constant_closed_forms():
    # Gamma((sigma-d)/2)/Gamma(sigma/2) collapses for these pairs
    assert_allclose(weight_norm_constant(2, 4.0), np.sqrt(np.pi), rtol=1e-12)
    assert_allclose(weight_norm_constant(3, 4.0), np.pi, rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bump", [1.0, 2.0, "double"])
def test_weight_norm_constant_quadrature_agrees(dim, bump):
    sigma = 2.0 * dim if bump == "double" else dim + bump

    def radial(r):
        return r ** (dim - 1) * (1.0 + r * r) ** (-sigma / 2.0)

    # split at r = 1, where the integrand peaks, ahead of the infinite tail
    head, _ = quad(radial, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    tail, _ = quad(radial, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    sphere = 2.0 * np.pi if dim == 2 else 4.0 * np.pi
    assert_allclose(weight_norm_constant(dim, sigma), np.sqrt(sphere * (head + tail)), rtol=1e-8)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("sigma", [345.0, 400.0, 1000.0])
def test_weight_norm_constant_large_sigma(dim, sigma):
    # Gamma((sigma-d)/2) alone overflows here; the ratio must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = weight_norm_constant(dim, sigma)
        step = weight_norm_constant(dim, sigma + 2.0)
    assert np.isfinite(value) and value > 0.0
    # Gamma(a + 1) = a Gamma(a) on both Gammas
    assert_allclose(step**2, value**2 * (sigma - dim) / sigma, rtol=1e-13)


def test_weight_norm_constant_divergence():
    with pytest.raises(DivergentIntegralError):
        weight_norm_constant(2, 2.0)
    with pytest.raises(DivergentIntegralError):
        weight_norm_constant(3, 2.5)
    with pytest.raises(ValueError):
        weight_norm_constant(4, 6.0)


def test_sup_weight_on_support():
    unit = PotentialSpec.ball((0.0, 0.0), 1.0, 1.0)
    assert_allclose(sup_weight_on_support(unit, 4.0), 4.0, rtol=1e-14)
    assert_allclose(sup_weight_on_support(unit, 0.0), 1.0)
    pair = unit + PotentialSpec.ball((1.5, 0.0), 0.5, 1.0)
    # farthest point sits at |x| = 2 on the second ball
    assert_allclose(sup_weight_on_support(pair, 4.0), 25.0, rtol=1e-14)
    with pytest.raises(ValueError):
        sup_weight_on_support(PotentialSpec(2, ()), 4.0)
    with pytest.raises(ValueError):
        sup_weight_on_support(unit, -1.0)


def test_contraction_onset():
    assert contraction_onset(3.0, a0=2.0) == 12.0
    assert contraction_onset(0.1) == 1.0
    with pytest.raises(ValueError):
        contraction_onset(-1.0)
    with pytest.raises(ValueError):
        contraction_onset(1.0, a0=0.0)


def test_error_coefficient_value_and_scaling():
    # dim 2, sigma 4, unit norm: 6 (2 pi)^-4 pi^2 = 3 / (8 pi^2)
    base = error_coefficient(2, 4.0, 1.0)
    assert_allclose(base, 3.0 / (8.0 * np.pi**2), rtol=1e-13)
    assert_allclose(error_coefficient(2, 4.0, 2.0), 8.0 * base, rtol=1e-13)
    assert_allclose(error_coefficient(2, 4.0, 1.0, a0=5.0), 5.0 * base, rtol=1e-13)


def test_fit_decay_exact_power_law():
    E = [10.0, 30.0, 90.0, 270.0, 810.0]
    err = [3.7 * e**-0.5 for e in E]
    slope, intercept = fit_decay(E, err)
    assert_allclose(slope, -0.5, atol=1e-12)
    assert_allclose(intercept, np.log(3.7), atol=1e-12)
    slope10, intercept10 = fit_decay(E, [10.0 * x for x in err])
    assert_allclose(slope10, slope, atol=1e-12)
    assert_allclose(intercept10, intercept + np.log(10.0), atol=1e-12)


def test_fit_decay_rejects_degenerate_tables():
    with pytest.raises(DegenerateFitError):
        fit_decay([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])
    with pytest.raises(DegenerateFitError):
        fit_decay([1.0, 2.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3])
    with pytest.raises(DegenerateFitError):
        fit_decay([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.0, 0.3])
    with pytest.raises(DegenerateFitError):
        fit_decay([1.0, 2.0, 3.0, 4.0], [1.0, 0.5])


def test_bounds_report_assembly():
    spec = PotentialSpec.ball((0.0, 0.0), 1.0, 0.5)
    sigma = 4.0
    E = (10.0, 20.0, 40.0, 80.0)
    errors = tuple(0.1 * e**-0.5 for e in E)
    report = bounds_report(spec, E, errors, sigma=sigma)
    assert report.norm_bound == sup_weighted_norm(spec, sigma)
    assert_allclose(report.norm_bound, 2.0, rtol=1e-14)
    assert_allclose(report.coefficient, 3.0 / np.pi**2, rtol=1e-13)
    assert_allclose(report.slope, -0.5, atol=1e-12)
    assert report.bound_holds()
    assert_allclose(report.implied_a0 * report.coefficient / report.a0, 0.1, rtol=1e-12)
    too_big = tuple(1.0 * e**-0.5 for e in E)
    loud = bounds_report(spec, E, too_big, sigma=sigma)
    assert not loud.bound_holds()
    assert loud.implied_a0 > 1.0


def test_bounds_report_default_sigma():
    spec = PotentialSpec.ball((0.0, 0.0), 0.5, 1.0)
    E = (10.0, 20.0, 40.0, 80.0)
    errors = tuple(0.01 * e**-0.5 for e in E)
    report = bounds_report(spec, E, errors)
    assert report.sigma == 3.0
