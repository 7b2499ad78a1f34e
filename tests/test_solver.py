from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless.exceptions import (
    EnergyShellError,
    SolverConvergenceError,
    UnresolvedGridError,
)
from phaseless import solver
from phaseless.greens import singular_cell_weight
from phaseless.grids import GridSpec, ScalarField
from phaseless.potentials import PotentialSpec, rasterize
from phaseless.special import hankel1
from phaseless.solver import (
    SolverConfig,
    WaveVector,
    born_amplitude,
    far_field_check,
    scattering_amplitude,
    solve_lippmann_schwinger,
)

SMOOTH = PotentialSpec.gaussian((0.0, 0.1), width=0.15, cutoff=0.6, amplitude=1.0)
GRID = GridSpec(2, 64, (-1.5, -1.5), (1.5, 1.5))
# both routes, each case named by its route: "auto" solves every support
# these tests use directly, the "dense-direct" route of SolverReport
ROUTES = pytest.mark.parametrize("method", ["auto", "born"], ids=["dense", "born"])


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
    assert np.array_equal(psi.values, g.wave(k.k))


def test_born_iteration_agrees_with_dense():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi_b, rep_b = solve_lippmann_schwinger(fld, k, SolverConfig(method="born"))
    psi_d, rep_d = solve_lippmann_schwinger(fld, k, SolverConfig())
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
    assert solver.uses_direct_solve(support, SolverConfig(dense_limit=support))
    assert not solver.uses_direct_solve(support, SolverConfig(method="born", dense_limit=support))
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
    inc = type(fld)(GRID, GRID.wave(k.k))
    f1 = scattering_amplitude(fld, inc, k, l)
    f2 = born_amplitude(SMOOTH, k, l)
    assert abs(f1 - f2) < 1e-6


def test_scattering_amplitude_checks_shell():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, _ = solve_lippmann_schwinger(fld, k)
    with pytest.raises(EnergyShellError):
        scattering_amplitude(fld, psi, k, np.array([1.0, 1.0]))


def test_amplitudes_put_nan_outgoing_off_the_shell():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, _ = solve_lippmann_schwinger(fld, k)
    with pytest.raises(EnergyShellError, match="nan"):
        scattering_amplitude(fld, psi, k, [np.nan, np.nan])
    with pytest.raises(EnergyShellError, match="nan"):
        born_amplitude(SMOOTH, k, [np.nan, np.nan])
    with pytest.raises(EnergyShellError, match="nan"):
        born_amplitude(SMOOTH, k, [np.nan, 3.0])


def test_row_wise_amplitudes_equal_per_row_calls():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, _ = solve_lippmann_schwinger(fld, k)
    rows = _shell_channels(40, 2, 0, kmag=5.0)[1]
    for got, per_row in [
        (scattering_amplitude(fld, psi, k, rows), [scattering_amplitude(fld, psi, k, l) for l in rows]),
        (born_amplitude(SMOOTH, k, rows), [born_amplitude(SMOOTH, k, l) for l in rows]),
    ]:
        assert got.shape == (40,)
        assert all(type(f) is complex for f in per_row)
        assert_allclose(got, per_row, rtol=1e-14, atol=0.0)
    # no rows, no amplitudes
    assert scattering_amplitude(fld, psi, k, rows[:0]).shape == (0,)
    assert born_amplitude(SMOOTH, k, rows[:0]).shape == (0,)
    # a byte budget of 7 support columns sums the rows in blocks of 7
    one_block = scattering_amplitude(fld, psi, k, rows)
    support = int(np.count_nonzero(solver._support(fld)))
    with mock.patch.object(solver, "_BOX_BYTES", 16 * 7 * support):
        assert_allclose(scattering_amplitude(fld, psi, k, rows), one_block, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "bad", [[1.0, 1.0], [np.nan, np.nan], [np.nan, 3.0]], ids=["off-shell", "nan", "half-nan"]
)
def test_off_shell_row_raises_naming_it(bad):
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi = ScalarField(GRID, GRID.wave(k.k))
    rows = _shell_channels(6, 2, 0, kmag=5.0)[1]
    rows[4] = bad
    with pytest.raises(EnergyShellError, match="channel 4: outgoing energy .* off the shell E=25.0"):
        scattering_amplitude(fld, psi, k, rows)
    with pytest.raises(EnergyShellError, match="channel 4: outgoing energy .* off the shell E=25.0"):
        born_amplitude(SMOOTH, k, rows)


def test_far_field_radiation_matches_amplitude():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    gap_near = far_field_check(fld, k, radius=50.0)
    gap_far = far_field_check(fld, k, radius=400.0)
    assert gap_near < 5e-3
    assert gap_far < gap_near


def test_far_field_check_normalizes_directions():
    fld = rasterize(SMOOTH, GRID)
    k = WaveVector((0.0, 5.0))
    psi, _ = solve_lippmann_schwinger(fld, k)
    units = _shell_channels(9, 2, 3, kmag=1.0)[1]
    scales = np.geomspace(1e-3, 1e3, 9)[:, None]
    unit_gap = far_field_check(fld, k, directions=units, radius=200.0, psi=psi)
    scaled_gap = far_field_check(fld, k, directions=units * scales, radius=200.0, psi=psi)
    assert unit_gap < 5e-3
    assert_allclose(scaled_gap, unit_gap, rtol=1e-10)


def test_reciprocity_for_real_potential():
    fld = rasterize(SMOOTH, GRID)
    cfg = SolverConfig()
    k1 = WaveVector(4.0 * np.array([np.cos(0.3), np.sin(0.3)]))
    l1 = 4.0 * np.array([np.cos(2.1), np.sin(2.1)])
    psi1, _ = solve_lippmann_schwinger(fld, k1, cfg)
    f_kl = scattering_amplitude(fld, psi1, k1, l1)
    k2 = WaveVector(-l1)
    psi2, _ = solve_lippmann_schwinger(fld, k2, cfg)
    f_rev = scattering_amplitude(fld, psi2, k2, -k1.array)
    assert abs(f_kl - f_rev) < 1e-12


def test_solver_config_validation():
    for method in ("magic", "dense"):
        with pytest.raises(ValueError, match="expected 'auto' or 'born'"):
            SolverConfig(method=method)


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


def _offset_sum(weights_tab, targets, sources, values):
    """sum over sources j of W(x_i - x_j) values_j, read offset by offset from the weight table."""
    offsets = (targets[:, None, :] - sources[None, :, :]) % weights_tab.shape[0]
    return weights_tab[tuple(np.moveaxis(offsets, -1, 0))] @ values


def test_single_solve_incident_wave_is_a_channel_column(monkeypatch):
    # a single solve and channel_amplitudes hand the support solver the
    # same incident wave, bit for bit, for a vector off every axis, and
    # report the same residual for it
    seen = []
    support_solver = solver._support_solver

    def record(*args):
        solve, *rest = support_solver(*args)

        def recording(inc):
            seen.append(inc[:, 0].copy())
            return solve(inc)

        return (recording, *rest)

    monkeypatch.setattr(solver, "_support_solver", record)
    fld = rasterize(SMOOTH, GRID)
    incident = np.array([[3.0 * np.cos(0.7), 3.0 * np.sin(0.7)]])
    outgoing = np.array([[3.0 * np.cos(2.1), 3.0 * np.sin(2.1)]])
    cfg = SolverConfig()
    _, report = solve_lippmann_schwinger(fld, WaveVector(tuple(incident[0])), cfg)
    *_, residual = solver.channel_amplitudes([fld], 9.0, incident, outgoing, cfg)
    assert len(seen) == 2
    assert seen[0].tobytes() == seen[1].tobytes()
    assert report.residual == residual > 0.0


@pytest.mark.parametrize("dim,n", [(2, 30), (3, 12)])
def test_box_operator_matches_full_grid_kernel(dim, n):
    grid, masks = _masks(dim, n)
    weights_tab = solver._kernel_weights(grid, 4.0)
    rng = np.random.default_rng(dim)
    for name, mask in masks.items():
        op = solver._BoxOperator(mask, weights_tab)
        m = int(np.count_nonzero(mask))
        cols = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
        batch = op.apply(cols)
        assert batch.shape == (m, 5)
        idx = np.argwhere(mask)
        for c in range(5):
            full = _offset_sum(weights_tab, idx, idx, cols[:, c])
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
            fld, k, SolverConfig(resolution_factor=2.0)
        )
        gap = np.linalg.norm(psi_b.values - psi_d.values) / np.linalg.norm(psi_d.values)
        assert gap <= 1e-10, E
        assert rep_b.residual <= 1e-10, E
        # off the support the field is the equation's own extension
        mask = fld.values != 0
        sources = np.argwhere(mask)
        targets = np.argwhere(~mask)
        scattered = _offset_sum(
            solver._kernel_weights(grid, k.magnitude), targets, sources,
            fld.values[mask] * psi_b.values[mask],
        )
        extended = grid.wave(k.k)[~mask] + scattered
        assert np.abs(psi_b.values[~mask] - extended).max() <= 1e-13


def _full_offset_table(grid, kmag):
    """The weight table evaluated at every one of its (2n)^d signed offsets."""
    pad = 2 * grid.n
    offs = np.arange(pad)
    offs[offs > pad // 2] -= pad
    r2 = np.zeros((pad,) * grid.dim)
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = pad
        r2 = r2 + (offs * grid.spacing[a]).reshape(shape) ** 2
    r = np.sqrt(r2)
    origin = (0,) * grid.dim
    r[origin] = 1.0
    if grid.dim == 2:
        weights = (-0.25j * hankel1(0, kmag * r)) * grid.cell_volume
    else:
        weights = (-np.exp(1j * kmag * r) / (4.0 * np.pi * r)) * grid.cell_volume
    weights[origin] = singular_cell_weight(kmag, grid.dim, grid.cell_volume)
    return weights


@pytest.mark.parametrize(
    "grid,kmag",
    [
        (GridSpec(2, 64, (-1.5, -1.5), (1.5, 1.5)), 10.0),
        (GridSpec(2, 9, (-1.0, -2.0), (1.2, 2.0)), 7.0),
        (GridSpec(3, 12, (-1.0, -2.0, -1.5), (1.2, 2.0, 0.5)), 3.3),
    ],
    ids=["2d", "2d-anisotropic", "3d-anisotropic"],
)
def test_kernel_table_from_one_quadrant_equals_full_construction(grid, kmag):
    weights_tab = solver._kernel_weights(grid, kmag)
    assert weights_tab.shape == (2 * grid.n,) * grid.dim
    assert np.array_equal(weights_tab, _full_offset_table(grid, kmag))


@pytest.mark.parametrize("dim,n", [(2, 24), (3, 10)])
def test_support_matrix_matches_elementwise_assembly(dim, n, monkeypatch):
    grid = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim)
    spec = PotentialSpec.ball((0.3,) * dim, 0.6, 1.0 + 0.5j) + PotentialSpec.ball(
        (-0.9,) * dim, 0.4, 2.0
    )
    fld = rasterize(spec, grid)
    weights_tab = solver._kernel_weights(grid, 3.0)
    monkeypatch.setattr(solver, "_ASSEMBLY_ELEMENTS", 7 * n)  # several row blocks
    mask = solver._support(fld)
    a_mat = solver._support_matrix(fld, mask, weights_tab)
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


def _two_balls_3d():
    # 25 support nodes, a (15, 8, 5) padded box of 600 points
    grid = GridSpec(3, 12, (-1.5,) * 3, (1.5,) * 3)
    spec = PotentialSpec.ball((0.5, 0.0, 0.0), 0.4, 1.0) + PotentialSpec.ball((-0.8, 0.3, 0.0), 0.3, 2.0)
    return rasterize(spec, grid)


def _shell_channels(count, dim, seed, kmag=2.0):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((2, count, dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return kmag * dirs


@ROUTES
def test_channel_amplitudes_do_not_depend_on_block_size(method, monkeypatch):
    # 3-D, 40 channels: one block at the default byte budget, several
    # chunks and blocks per chunk below it.  Budget 1 gives one column per
    # block; 2800 gives the direct route chunks of 25 columns in blocks of
    # 7 (25 = 3 * 7 + 4) and the box operator one column per block; 48000
    # gives the box operator blocks of 5 columns, below the amplitude
    # block of the default budget
    fld = _two_balls_3d()
    incident, outgoing = _shell_channels(40, 3, 3)
    cfg = SolverConfig(method=method)
    weights_tab = solver._kernel_weights(fld.grid, 2.0)
    amps, failed, iterations, residual = solver.channel_amplitudes([fld], 4.0, incident, outgoing, cfg)
    amps = amps[:, 0]
    assert not failed.any()
    assert iterations == (1 if method == "auto" else 7)
    limit = 1e-13 if method == "auto" else cfg.tolerance
    assert residual < limit
    for budget in (1, 2800, 48000):
        monkeypatch.setattr(solver, "_BOX_BYTES", budget)
        assert solver._BoxOperator(solver._support(fld), weights_tab).block < 32
        small, failed_small, iterations_small, residual_small = solver.channel_amplitudes(
            [fld], 4.0, incident, outgoing, cfg
        )
        assert_allclose(small[:, 0], amps, rtol=1e-13, atol=0.0, err_msg=str(budget))
        assert not failed_small.any(), budget
        assert iterations_small == iterations, budget
        assert residual_small < limit, budget


@pytest.fixture(scope="module")
def unsplit():
    """The 3-D fixture's 40 channels and their amplitudes from one unsplit call per route."""
    fld = _two_balls_3d()
    incident, outgoing = _shell_channels(40, 3, 5)
    amps = {
        method: solver.channel_amplitudes([fld], 4.0, incident, outgoing, SolverConfig(method=method))[0]
        for method in ("auto", "born")
    }
    return fld, incident, outgoing, amps


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(["auto", "born"]),
    count=st.integers(1, 40),
    units=st.integers(1, 40 * 600),
)
def test_channel_amplitudes_any_chunk_and_block(unsplit, method, count, units):
    # _BOX_BYTES = 16 * units: the box operator takes units // 600 columns
    # per block (at least one), the direct route solves chunks of
    # max(25, units // 25) columns in blocks of units // 25; every split of
    # the channels gives the amplitudes of one unsplit call
    fld, incident, outgoing, amps = unsplit
    cfg = SolverConfig(method=method)
    with mock.patch.object(solver, "_BOX_BYTES", 16 * units):
        split, failed, _, residual = solver.channel_amplitudes([fld], 4.0, incident[:count], outgoing[:count], cfg)
    assert not failed.any()
    assert_allclose(split, amps[method][:count], rtol=1e-13, atol=0.0)
    assert residual < (1e-13 if method == "auto" else cfg.tolerance)


def _exp_wave_amplitudes(fld, incident, outgoing, cfg):
    """channel_amplitudes with every wave built as exp(1j * coords @ k), in one block."""
    grid = fld.grid
    mask = solver._support(fld)
    coords = grid.nodes()[mask.reshape(-1)]
    weights_tab = solver._kernel_weights(grid, float(np.linalg.norm(incident[0])))
    solve = solver._support_solver(fld, mask, weights_tab, cfg)[0]
    psi = solve(np.exp(1j * (coords @ incident.T)))[0]
    phase = np.exp(-1j * (outgoing @ coords.T))
    scale = (2.0 * np.pi) ** (-grid.dim) * grid.cell_volume
    return scale * np.einsum("cm,mc->c", phase, fld.values[mask][:, None] * psi)


@ROUTES
@pytest.mark.parametrize("dim", [2, 3])
def test_channel_amplitudes_match_exp_wave_reference(dim, method):
    # waves from per-axis factor tables agree with waves exponentiated
    # from the node coordinates; the anisotropic box and the support off
    # the grid's centre make every axis's factors differ
    n = 40 if dim == 2 else 12
    grid = GridSpec(dim, n, (-1.5, -1.0, -2.0)[:dim], (1.5, 2.0, 1.0)[:dim])
    spec = PotentialSpec.ball((0.4, 0.6, -0.3)[:dim], 0.5, 1.0 + 0.5j) + PotentialSpec.ball(
        (-0.7, -0.2, -0.9)[:dim], 0.3, 2.0
    )
    fld = rasterize(spec, grid)
    incident, outgoing = _shell_channels(70, dim, dim, kmag=3.0)
    cfg = SolverConfig(method=method, resolution_factor=4.0)
    amps, failed, _, _ = solver.channel_amplitudes([fld], 9.0, incident, outgoing, cfg)
    expected = _exp_wave_amplitudes(fld, incident, outgoing, cfg)
    assert not failed.any()
    assert_allclose(amps[:, 0], expected, rtol=1e-12, atol=0.0)


def _variant_fields(dim):
    """A target and the target plus each of two references, rasterized on one grid."""
    n = 24 if dim == 2 else 12
    grid = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim)
    target = PotentialSpec.ball((0.3,) * dim, 0.4, 1.0 + 0.5j)
    refs = (
        PotentialSpec.ball((-0.8, 0.5, 0.5)[:dim], 0.3, 2.0),
        PotentialSpec.ball((0.7, -0.9, 0.0)[:dim], 0.25, 1.5),
    )
    return [rasterize(spec, grid) for spec in (target, target + refs[0], target + refs[1])]


@ROUTES
@pytest.mark.parametrize("dim", [2, 3])
def test_each_column_equals_a_single_field_call(dim, method):
    fields = _variant_fields(dim)
    incident, outgoing = _shell_channels(30, dim, dim + 7)
    cfg = SolverConfig(method=method)
    amps, failed, iterations, residual = solver.channel_amplitudes(fields, 4.0, incident, outgoing, cfg)
    assert amps.shape == (30, 3)
    assert not failed.any()
    singles = [solver.channel_amplitudes([fld], 4.0, incident, outgoing, cfg) for fld in fields]
    for col, (single, lost, _, _) in enumerate(singles):
        assert not lost.any()
        assert np.array_equal(amps[:, col], single[:, 0]), col
    assert iterations == max(single[2] for single in singles)
    assert residual == max(single[3] for single in singles)


def test_fields_of_one_call_share_one_grid():
    # the call's one kernel table is the first field's grid's
    fields = _variant_fields(2)
    other = rasterize(PotentialSpec.ball((0.3, 0.3), 0.4, 1.0), GridSpec(2, 24, (-1.5, -1.5), (1.6, 1.5)))
    incident, outgoing = _shell_channels(4, 2, 1)
    with pytest.raises(ValueError, match="one grid"):
        solver.channel_amplitudes(fields + [other], 4.0, incident, outgoing)


def _ball_pair(turn):
    """Two balls 1.4 apart, their axis turned by ``turn`` from the first grid axis."""
    c, s = 0.7 * np.cos(turn), 0.7 * np.sin(turn)
    return PotentialSpec.ball((-c, -s), 0.3, 2.0) + PotentialSpec.ball((c, s), 0.3, 2.0)


def _ball_pair_rows():
    """Two ball pairs on 32^2 and 36 channels at E = 9, incident 3(cos t, sin t).

    The iteration converges faster for incidence across a pair's axis:
    capped at 9 steps, the pair along the first axis fails the rows near
    that axis, and the pair turned by 0.6 rad fails other rows.
    """
    grid = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    fields = [rasterize(_ball_pair(turn), grid) for turn in (0.0, 0.6)]
    ang = np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False)
    incident = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return grid, fields, incident, np.roll(incident, 5, axis=0)


def test_rows_one_field_fails_skip_the_later_fields(monkeypatch):
    grid, fields, incident, outgoing = _ball_pair_rows()
    cfg = SolverConfig(method="born", max_iterations=9)
    seen = []
    field_amplitudes = solver._field_amplitudes

    def record(v, weights_tab, inc, out, cfg):
        seen.append(inc)
        return field_amplitudes(v, weights_tab, inc, out, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_field_amplitudes", record)
        amps, failed, iterations, residual = solver.channel_amplitudes(fields, 9.0, incident, outgoing, cfg)
    first = solver.channel_amplitudes(fields[:1], 9.0, incident, outgoing, cfg)
    live = np.flatnonzero(~first[1])
    # the call's one kernel table, at sqrt(E), serves every field
    weights_tab = solver._kernel_weights(grid, 3.0)
    second = field_amplitudes(fields[1], weights_tab, incident[live], outgoing[live], cfg)
    assert first[1].any() and live.size
    assert second[1].any() and not second[1].all()
    # the second field solves only the rows the first did not fail
    assert len(seen) == 2
    assert np.array_equal(seen[0], incident) and np.array_equal(seen[1], incident[live])
    both = first[1].copy()
    both[live[second[1]]] = True
    assert np.array_equal(failed, both)
    # a failed row is NaN in every column, the first field's included
    assert np.isnan(amps[failed]).all() and not np.isnan(amps[~failed]).any()
    assert np.array_equal(amps[~failed, 0], first[0][~failed, 0])
    assert np.array_equal(amps[live[~second[1]], 1], second[0][~second[1]])
    assert iterations == max(first[2], second[2])
    assert residual == max(first[3], second[3])


def test_channel_amplitudes_do_not_depend_on_the_other_rows(monkeypatch):
    # rows of one energy differ in |k| by a few ulps; the kernel is built
    # at sqrt(E), not from the first row, so a call on some rows answers
    # them as the call on all rows does
    _, fields, incident, outgoing = _ball_pair_rows()
    cfg = SolverConfig(method="born", max_iterations=9)
    kmags = []
    kernel_weights = solver._kernel_weights

    def record(grid, kmag):
        kmags.append(kmag)
        return kernel_weights(grid, kmag)

    monkeypatch.setattr(solver, "_kernel_weights", record)
    every = solver.channel_amplitudes(fields, 9.0, incident, outgoing, cfg)
    some = np.r_[7:12, 25:30]
    part = solver.channel_amplitudes(fields, 9.0, incident[some], outgoing[some], cfg)
    assert kmags == [3.0, 3.0]
    assert np.array_equal(part[1], every[1][some])
    ok = ~part[1]
    assert ok.any()
    assert_allclose(part[0][ok], every[0][some][ok], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dim,n", [(2, 30), (3, 12)])
def test_support_matrix_agrees_with_box_operator(dim, n):
    # each route checks its answers with its own form of I - K v, the
    # assembled matrix or the box FFT: the two forms must agree
    grid, masks = _masks(dim, n)
    weights_tab = solver._kernel_weights(grid, 4.0)
    rng = np.random.default_rng(dim + 10)
    for name, mask in masks.items():
        m = int(np.count_nonzero(mask))
        values = np.zeros(grid.shape, dtype=complex)
        values[mask] = rng.uniform(0.5, 2.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        fld = ScalarField(grid, values)
        a_mat = solver._support_matrix(fld, mask, weights_tab)
        op = solver._BoxOperator(mask, weights_tab)
        x = rng.standard_normal((m, 5)) + 1j * rng.standard_normal((m, 5))
        box = x - op.apply(values[mask][:, None] * x)
        gap = np.linalg.norm(a_mat @ x - box, axis=0)
        assert np.all(gap <= 1e-13 * np.linalg.norm(box, axis=0)), name
        # and so do the two routes' residuals, built on those forms
        zero = np.zeros_like(x)
        dense = solver._support_solver(fld, mask, weights_tab, SolverConfig())[1]
        born = solver._support_solver(fld, mask, weights_tab, SolverConfig(method="born"))[1]
        assert np.array_equal(dense(x, zero), a_mat @ x), name
        assert np.array_equal(born(x, zero), box), name


def test_direct_route_makes_no_fft(monkeypatch):
    grid = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    spec = PotentialSpec.ball((0.3, -0.2), 0.4, 1.0 + 0.5j) + PotentialSpec.ball((-0.8, 0.5), 0.3, 2.0)
    fld = rasterize(spec, grid)
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    incident = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    outgoing = 3.0 * np.stack([np.cos(2.0 * ang + 1.0), np.sin(2.0 * ang + 1.0)], axis=1)
    cfg = SolverConfig()
    k = WaveVector(incident[0])
    psi, rep = solve_lippmann_schwinger(fld, k, cfg)
    single = [
        scattering_amplitude(fld, solve_lippmann_schwinger(fld, WaveVector(kc), cfg)[0], WaveVector(kc), lc)
        for kc, lc in zip(incident, outgoing)
    ]

    def boom(*args, **kwargs):
        raise AssertionError("the direct route made an FFT")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_BoxOperator", boom)
        for name in np.fft.__all__:
            patch.setattr(np.fft, name, boom)
        amps, failed, iterations, residual = solver.channel_amplitudes([fld], 9.0, incident, outgoing, cfg)
    assert_allclose(amps[:, 0], single, rtol=1e-12, atol=0.0)
    assert not failed.any()
    assert iterations == 1
    assert residual < 1e-13
    # a single solve builds one box operator, the whole grid's, only to
    # extend its field off the support
    built = []
    box_operator = solver._BoxOperator

    def record(mask, weights_tab):
        built.append(mask)
        return box_operator(mask, weights_tab)

    monkeypatch.setattr(solver, "_BoxOperator", record)
    psi_again, rep_again = solve_lippmann_schwinger(fld, k, cfg)
    assert len(built) == 1
    assert built[0].shape == grid.shape and built[0].all()
    assert np.array_equal(psi_again.values, psi.values)
    assert rep_again == rep
    assert rep.iterations == 1 and rep.residual < 1e-13


def _shell_cases():
    incident = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]])
    outgoing = incident[[1, 2, 3, 0]]
    off = outgoing.copy()
    off[2] = (0.0, 4.0)
    two_in, two_out = incident.copy(), outgoing.copy()
    two_in[3], two_out[3] = (0.0, 4.0), (4.0, 0.0)
    dark = incident.copy()
    dark[1] = 0.0
    wide = np.zeros((4, 4))
    wide[:, :2] = incident
    return {
        "outgoing-off-shell": (incident, off, EnergyShellError, "channel 2: outgoing energy 16.0 is off the shell E=9.0"),
        "two-energies": (two_in, two_out, EnergyShellError, "channel 3: incident energy 16.0 is off the shell E=9.0"),
        "zero-incident": (dark, outgoing, EnergyShellError, "channel 1: incident energy 0.0 is off the shell E=9.0"),
        "four-columns": (wide, wide, ValueError, "shape"),
    }


@pytest.mark.parametrize("case", list(_shell_cases()))
def test_channel_amplitudes_check_channels_row_wise(case):
    incident, outgoing, kind, message = _shell_cases()[case]
    fld = rasterize(SMOOTH, GRID)
    with pytest.raises(kind) as err:
        solver.channel_amplitudes([fld], 9.0, incident, outgoing)
    assert type(err.value) is kind
    assert message in str(err.value)
