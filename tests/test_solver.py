import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless.exceptions import (
    EnergyShellError,
    SolverConvergenceError,
    UnresolvedGridError,
)
from phaseless import solver
from phaseless.grids import GridSpec, ScalarField
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


def _masks(dim, n):
    """Supports: one node, a 5-node box (L = 2b - 1 = 9 exactly), opposite grid faces (b = n), a ball pair."""
    one = np.zeros((n,) * dim, dtype=bool)
    one[(n // 3,) * dim] = True
    five = np.zeros((n,) * dim, dtype=bool)
    five[(2,) * dim] = five[(6,) * dim] = five[(4, 2) + (6,) * (dim - 2)] = True
    faces = np.zeros((n,) * dim, dtype=bool)
    faces[(0,) * dim] = faces[(n - 1,) * dim] = faces[(n // 2,) + (0,) * (dim - 1)] = True
    grid = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim)
    pair = PotentialSpec.ball((0.4,) * dim, 0.5, 1.0) + PotentialSpec.ball((-0.8,) * dim, 0.3, 1.0)
    pair = solver._support(rasterize(pair, grid))
    return grid, {"one-node": one, "five-wide": five, "opposite-faces": faces, "ball-pair": pair}


@pytest.mark.parametrize("dim,n", [(2, 30), (3, 12)])
def test_box_operator_matches_full_grid_kernel(dim, n):
    grid, masks = _masks(dim, n)
    weights_tab, spectrum = solver._kernel_tables(grid, 4.0)
    rng = np.random.default_rng(dim)
    for name, mask in masks.items():
        op = solver._BoxOperator(mask, weights_tab)
        m = int(np.count_nonzero(mask))
        cols = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
        batch = op.apply(cols)
        assert batch.shape == (m, 5)
        for c in range(5):
            source = np.zeros(grid.shape, dtype=complex)
            source[mask] = cols[:, c]
            full = solver._apply_kernel(source, spectrum, grid)[mask]
            scale = np.linalg.norm(full)
            assert np.linalg.norm(batch[:, c] - full) <= 1e-13 * scale, name
            # a column of a batch equals its own single-column application
            # (batched transforms may round differently)
            single = op.apply(cols[:, c : c + 1])[:, 0]
            assert np.linalg.norm(single - batch[:, c]) <= 1e-14 * scale, name
        if name == "five-wide":
            assert op.length == (9,) * dim
        if name == "opposite-faces":
            assert op.box == (n,) * dim
        assert all(size <= 2 * n for size in op.length)


def test_fft_length_is_smallest_5_smooth():
    assert [solver._fft_length(k) for k in (0, 1, 7, 11, 13, 17, 97, 127)] == [
        1, 1, 8, 12, 15, 18, 100, 128
    ]


def test_born_on_box_agrees_with_dense_on_criterion_3_field():
    grid = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    fld = rasterize(PotentialSpec.ball((0.3, -0.2), 0.25, 1.0), grid)
    for E in (100.0, 200.0, 400.0):
        k = WaveVector((0.0, np.sqrt(E)))
        psi_b, rep_b = solve_lippmann_schwinger(
            fld, k, SolverConfig(method="born", resolution_factor=2.0)
        )
        psi_d, _ = solve_lippmann_schwinger(
            fld, k, SolverConfig(method="dense", resolution_factor=2.0)
        )
        gap = np.linalg.norm(psi_b.values - psi_d.values) / np.linalg.norm(psi_d.values)
        assert gap <= 1e-10, E
        assert rep_b.residual <= 1e-10, E
        # off the support the field is the equation's own extension
        mask = fld.values != 0
        source = np.where(mask, fld.values * psi_b.values, 0.0)
        _, spectrum = solver._kernel_tables(grid, k.magnitude)
        extended = plane_wave(grid, k) + solver._apply_kernel(source, spectrum, grid)
        assert np.abs(psi_b.values - extended)[~mask].max() <= 1e-13


@pytest.mark.parametrize("dim,n", [(2, 24), (3, 10)])
def test_support_matrix_matches_elementwise_assembly(dim, n, monkeypatch):
    grid = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim)
    spec = PotentialSpec.ball((0.3,) * dim, 0.6, 1.0 + 0.5j) + PotentialSpec.ball(
        (-0.9,) * dim, 0.4, 2.0
    )
    fld = rasterize(spec, grid)
    weights_tab, _ = solver._kernel_tables(grid, 3.0)
    monkeypatch.setattr(solver, "_ASSEMBLY_ELEMENTS", 7 * n)  # several row blocks
    mask, a_mat = solver._support_matrix(fld, weights_tab, SolverConfig())
    idx = np.argwhere(mask)
    vsub = fld.values[mask]
    pad = 2 * n
    expected = np.empty((len(idx), len(idx)), dtype=complex)
    for i, xi in enumerate(idx):
        for j, xj in enumerate(idx):
            w = weights_tab[tuple((xi - xj) % pad)]
            expected[i, j] = (1.0 if i == j else 0.0) - w * vsub[j]
    assert len(idx) > 7
    assert a_mat.flags.f_contiguous
    assert np.array_equal(a_mat, expected)


@pytest.mark.parametrize("method", ["dense", "born"])
def test_channel_amplitudes_do_not_depend_on_block_size(method, monkeypatch):
    # 3-D, 40 channels: two blocks by default, one channel per block when
    # the box buffer budget admits a single column (on the iteration
    # route, one channel per batched iteration too)
    grid = GridSpec(3, 12, (-1.5,) * 3, (1.5,) * 3)
    spec = PotentialSpec.ball((0.5, 0.0, 0.0), 0.4, 1.0) + PotentialSpec.ball((-0.8, 0.3, 0.0), 0.3, 2.0)
    fld = rasterize(spec, grid)
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((2, 40, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    incident, outgoing = 2.0 * dirs
    cfg = SolverConfig(method=method)
    amps, failed, iterations, residual = solver.channel_amplitudes(fld, incident, outgoing, cfg)
    monkeypatch.setattr(solver, "_BOX_BYTES", 1)
    one, failed_one, iterations_one, residual_one = solver.channel_amplitudes(
        fld, incident, outgoing, cfg
    )
    assert_allclose(one, amps, rtol=1e-13, atol=0.0)
    assert not failed.any() and not failed_one.any()
    assert iterations == iterations_one == (1 if method == "dense" else 7)
    limit = 1e-13 if method == "dense" else cfg.tolerance
    assert residual < limit and residual_one < limit
