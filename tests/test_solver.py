import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless.exceptions import (
    EnergyShellError,
    SolverConvergenceError,
    UnresolvedGridError,
)
from phaseless.grids import GridSpec
from phaseless.potentials import PotentialSpec, rasterize
from phaseless.solver import (
    SolverConfig,
    WaveVector,
    born_amplitude,
    far_field_check,
    plane_wave,
    scattering_amplitude,
    solve_lippmann_schwinger,
)

SMOOTH = PotentialSpec.gaussian((0.0, 0.1), width=0.15, cutoff=0.6, amplitude=1.0)
GRID = GridSpec(2, 64, (-1.5, -1.5), (1.5, 1.5))


def test_wave_vector():
    k = WaveVector((3.0, 4.0))
    assert_allclose(k.energy, 25.0)
    assert_allclose(k.magnitude, 5.0)
    with pytest.raises(ValueError):
        WaveVector((0.0, 0.0))
    with pytest.raises(ValueError):
        WaveVector((1.0,))


def test_zero_potential_returns_incident_wave():
    g = GridSpec(2, 32, (-1.0, -1.0), (1.0, 1.0))
    z = rasterize(PotentialSpec(2, ()), g)
    k = WaveVector((0.0, 3.0))
    psi, rep = solve_lippmann_schwinger(z, k)
    assert rep.iterations == 0
    assert rep.residual == 0.0
    assert rep.converged
    assert np.array_equal(psi.values, plane_wave(g, k))


def test_born_iteration_agrees_with_dense():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi_b, rep_b = solve_lippmann_schwinger(fld, k, SolverConfig(method="born"))
    psi_d, rep_d = solve_lippmann_schwinger(fld, k, SolverConfig(method="dense"))
    rel = np.linalg.norm(psi_b.values - psi_d.values) / np.linalg.norm(psi_d.values)
    assert rel < 1e-6
    assert rep_b.method == "born-iteration"
    assert rep_d.method == "dense-direct"
    assert rep_b.residual < 1e-8
    assert rep_d.residual < 1e-12


def test_residual_is_recomputed_not_update_size():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, rep = solve_lippmann_schwinger(fld, k, SolverConfig(method="born", tolerance=1e-10))
    assert rep.method == "born-iteration"
    assert rep.residual < 1e-10
    assert rep.converged


def test_divergent_iteration_raises_without_fallback():
    strong = PotentialSpec.ball((0.0, 0.0), 0.5, 60.0)
    fld = rasterize(strong, GridSpec(2, 48, (-1.5, -1.5), (1.5, 1.5)))
    k = WaveVector((0.0, 2.0))
    with pytest.raises(SolverConvergenceError):
        solve_lippmann_schwinger(fld, k, SolverConfig(method="born", max_iterations=30))


def test_auto_route_follows_dense_limit():
    fld = rasterize(SMOOTH, GRID)
    support = int(np.count_nonzero(fld.mask & (fld.values != 0)))
    k = WaveVector((0.0, 5.0))
    _, rep = solve_lippmann_schwinger(fld, k, SolverConfig(dense_limit=support))
    assert rep.method == "dense-direct"
    assert rep.iterations == 1
    assert rep.residual < 1e-12
    _, rep = solve_lippmann_schwinger(fld, k, SolverConfig(dense_limit=support - 1))
    assert rep.method == "born-iteration"
    assert rep.residual < 1e-8
    # above the dense limit nothing falls back: a diverging iteration raises
    strong = PotentialSpec.ball((0.0, 0.0), 0.4, 60.0)
    fld = rasterize(strong, GridSpec(2, 48, (-1.5, -1.5), (1.5, 1.5)))
    with pytest.raises(SolverConvergenceError, match="diverged"):
        solve_lippmann_schwinger(
            fld, WaveVector((0.0, 2.0)), SolverConfig(max_iterations=30, dense_limit=10)
        )


def test_unresolved_grid_raises_with_diagnostic():
    fld = rasterize(PotentialSpec.ball((0, 0), 0.3, 1.0), GridSpec(2, 16, (-1.5, -1.5), (1.5, 1.5)))
    with pytest.raises(UnresolvedGridError, match="resolution"):
        solve_lippmann_schwinger(fld, WaveVector((0.0, 20.0)))


def test_born_substitution_recovers_transform():
    # plugging the incident wave into the amplitude quadrature must give
    # the potential's transform at the transfer up to raster error
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    l = np.array([3.0, 4.0])
    inc = type(fld)(GRID, plane_wave(GRID, k))
    f1 = scattering_amplitude(fld, inc, k, l)
    f2 = born_amplitude(SMOOTH, k, l)
    assert abs(f1 - f2) < 1e-6


def test_scattering_amplitude_checks_shell():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, _ = solve_lippmann_schwinger(fld, k)
    with pytest.raises(EnergyShellError):
        scattering_amplitude(fld, psi, k, np.array([1.0, 1.0]))


def test_far_field_radiation_matches_amplitude():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    gap_near = far_field_check(fld, k, radius=50.0)
    gap_far = far_field_check(fld, k, radius=400.0)
    assert gap_near < 5e-3
    assert gap_far < gap_near


def test_reciprocity_for_real_potential():
    fld = rasterize(SMOOTH, GRID)
    cfg = SolverConfig(method="dense")
    k1 = WaveVector(4.0 * np.array([np.cos(0.3), np.sin(0.3)]))
    l1 = 4.0 * np.array([np.cos(2.1), np.sin(2.1)])
    psi1, _ = solve_lippmann_schwinger(fld, k1, cfg)
    f_kl = scattering_amplitude(fld, psi1, k1, l1)
    k2 = WaveVector(-l1)
    psi2, _ = solve_lippmann_schwinger(fld, k2, cfg)
    f_rev = scattering_amplitude(fld, psi2, k2, -k1.array)
    assert abs(f_kl - f_rev) < 1e-12


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="magic")
