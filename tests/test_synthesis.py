import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless import solver
from phaseless.exceptions import (
    BackgroundValidationError,
    GridMismatchError,
    OutOfBallError,
    SolverConvergenceError,
)
from phaseless.geometry import EnergySet, channels_on_grid
from phaseless.grids import GridSpec
from phaseless.potentials import PotentialSpec, analytic_hat, rasterize
from phaseless.solver import (
    SolverConfig,
    WaveVector,
    born_amplitude,
    scattering_amplitude,
    solve_lippmann_schwinger,
)
from phaseless.synthesis import (
    FLAG_OK,
    FLAG_SOLVER_FAILED,
    BackgroundSet,
    read_dataset,
    synthesize,
    translation_twin_demo,
    validate_backgrounds,
    write_dataset,
)

PGRID = GridSpec(2, 12, (-2.0, -2.0), (2.0, 2.0)).dual()
ENERGIES = EnergySet((4.0, 9.0))


def test_born_values_are_squared_transforms(off_center_ball, two_ball_refs):
    ds = synthesize(off_center_ball, two_ball_refs, ENERGIES, PGRID)
    assert ds.values.shape[1] == 3
    variants = [off_center_ball] + [off_center_ball + w for w in two_ball_refs.backgrounds]
    chans = ds.channels
    for row in range(ds.rows):
        k = WaveVector(chans.incident[row])
        for col, spec in enumerate(variants):
            expected = abs(analytic_hat(spec, chans.transfer[row])) ** 2
            assert_allclose(ds.values[row, col], expected, rtol=1e-13, atol=1e-300)
            # one batched call per (variant, energy) gives each channel's own bits
            assert ds.values[row, col] == abs(born_amplitude(spec, k, chans.outgoing[row])) ** 2
    assert np.all(ds.flags == FLAG_OK)


def test_refsfree_dataset_has_single_column(off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    assert ds.values.shape[1] == 1
    assert ds.n_refs == 0


def test_single_reference_gives_two_columns(off_center_ball):
    refs = BackgroundSet((PotentialSpec.ball((-1.0, -1.0), 0.3, 1.0),))
    ds = synthesize(off_center_ball, refs, ENERGIES, PGRID)
    assert ds.values.shape[1] == 2


def test_overlapping_reference_rejected(off_center_ball):
    refs = BackgroundSet((PotentialSpec.ball((0.35, -0.2), 0.3, 1.0),))
    with pytest.raises(BackgroundValidationError, match="overlap"):
        synthesize(off_center_ball, refs, ENERGIES, PGRID)


def test_identical_references_rejected():
    w = PotentialSpec.ball((0.8, 0.8), 0.3, 1.0)
    with pytest.raises(BackgroundValidationError, match="identical"):
        BackgroundSet((w, PotentialSpec.ball((0.8, 0.8), 0.3, 1.0)))


def test_zero_reference_rejected():
    with pytest.raises(BackgroundValidationError, match="zero"):
        BackgroundSet((PotentialSpec(2, ()),))


def test_background_count_limits(off_center_ball):
    balls = tuple(PotentialSpec.ball((0.9 * j, -0.9), 0.1, 1.0) for j in range(3))
    with pytest.raises(BackgroundValidationError):
        BackgroundSet(balls)
    with pytest.raises(BackgroundValidationError):
        BackgroundSet(())


def test_channel_rows_address_probe_nodes(off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    nodes = PGRID.nodes()
    assert_allclose(nodes[ds.node_index], ds.channels.transfer, atol=1e-12)
    assert ds.node_index.dtype == np.intp
    # one row per (energy, node) pair, each energy's rows in one block
    pairs = {(E, idx) for E, idx in zip(ds.energy.tolist(), ds.node_index.tolist())}
    assert len(pairs) == ds.rows == len(ds.channels)
    for E in ENERGIES:
        rows = np.flatnonzero(ds.energy == E)
        assert rows.size and np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))


def test_failed_solves_are_flagged_not_dropped(tmp_path):
    # an iteration cap this tight cannot converge on a strong scatterer,
    # and a direct solve above the dense limit fails for the whole energy
    strong = PotentialSpec.ball((0.0, 0.0), 0.4, 60.0)
    grid = GridSpec(2, 48, (-1.5, -1.5), (1.5, 1.5))
    for cfg in (
        SolverConfig(method="born", max_iterations=2),
        SolverConfig(method="dense", dense_limit=10),
    ):
        ds = synthesize(
            strong, None, EnergySet((4.0,)), PGRID, mode="full-solver", grid=grid, solver=cfg
        )
        assert np.all(ds.flags == FLAG_SOLVER_FAILED)
        assert np.all(np.isnan(ds.values))
        base = str(tmp_path / "failed")
        write_dataset(ds, base)
        back = read_dataset(base)
        assert np.all(back.flags == FLAG_SOLVER_FAILED)
        assert np.all(np.isnan(back.values))
        assert np.array_equal(back.node_index, ds.node_index)


def test_batched_direct_solve_matches_per_channel_dense(off_center_ball, two_ball_refs):
    grid = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    pg = GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual()
    energies = EnergySet((9.0, 16.0))
    ds = synthesize(off_center_ball, two_ball_refs, energies, pg, mode="full-solver", grid=grid)
    assert not np.any(ds.flags)
    assert all(note["iterations"] == 1 for note in ds.solver_notes["per_energy"].values())
    dense = SolverConfig(method="dense")
    variants = [off_center_ball] + [off_center_ball + w for w in two_ball_refs.backgrounds]
    for col, spec in enumerate(variants):
        fld = rasterize(spec, grid)
        for row, (kc, lc) in enumerate(zip(ds.channels.incident, ds.channels.outgoing)):
            k = WaveVector(kc)
            psi, _ = solve_lippmann_schwinger(fld, k, dense)
            want = abs(scattering_amplitude(fld, psi, k, lc)) ** 2
            assert abs(ds.values[row, col] - want) <= 1e-12 * want


# two balls apart: on 32^2 at E = 9 the channels iterate 9 or 10 steps,
# depending on the incident direction
TWO_BALLS = PotentialSpec.ball((-0.7, 0.0), 0.3, 2.0) + PotentialSpec.ball((0.7, 0.1), 0.3, 2.0)
GRID_32 = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
PGRID_8 = GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual()


def _synthesize_two_balls(cfg):
    return synthesize(
        TWO_BALLS, None, EnergySet((9.0, 16.0)), PGRID_8, mode="full-solver", grid=GRID_32,
        solver=cfg,
    )


def test_batched_iteration_matches_single_solves(monkeypatch):
    born = SolverConfig(method="born")
    box_operator = solver._BoxOperator

    def support_only(mask, weights_tab):
        if mask.all():
            raise AssertionError("synthesis extended a field to the whole grid")
        return box_operator(mask, weights_tab)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_BoxOperator", support_only)
        ds = _synthesize_two_balls(born)
    assert not np.any(ds.flags)
    fld = rasterize(TWO_BALLS, GRID_32)
    worst: dict = {}
    chans = ds.channels
    for row in range(ds.rows):
        k = WaveVector(chans.incident[row])
        psi, rep = solve_lippmann_schwinger(fld, k, born)
        want = abs(scattering_amplitude(fld, psi, k, chans.outgoing[row])) ** 2
        assert abs(ds.values[row, 0] - want) <= 1e-12 * want
        E = repr(float(chans.energy[row]))
        worst[E] = max(worst.get(E, 0), rep.iterations)
    notes = ds.solver_notes["per_energy"]
    assert {E: note["iterations"] for E, note in notes.items()} == worst == {"9.0": 10, "16.0": 8}


def test_iteration_failures_flag_only_their_channels():
    capped = SolverConfig(method="born", max_iterations=9)
    ds = _synthesize_two_balls(capped)
    fld = rasterize(TWO_BALLS, GRID_32)
    raises = np.zeros(ds.rows, dtype=bool)
    for row, kc in enumerate(ds.channels.incident):
        try:
            solve_lippmann_schwinger(fld, WaveVector(kc), capped)
        except SolverConvergenceError:
            raises[row] = True
    assert 0 < np.sum(raises) < ds.rows
    assert np.array_equal(ds.flags == FLAG_SOLVER_FAILED, raises)
    assert np.array_equal(np.isnan(ds.values[:, 0]), raises)


def test_full_solver_checks_rows_and_builds_one_kernel_per_energy(
    monkeypatch, off_center_ball, two_ball_refs
):
    # three variants share each energy's row check and kernel table
    calls = {"_kernel_weights": 0, "check_shell": 0}

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    ds = synthesize(
        off_center_ball, two_ball_refs, EnergySet((9.0, 16.0)), PGRID_8, mode="full-solver",
        grid=GRID_32,
    )
    assert ds.values.shape[1] == 3
    assert calls == {"_kernel_weights": 2, "check_shell": 2}


def test_full_solver_energy_without_channels(off_center_ball):
    # a probe grid far from the origin has no node inside the ball at E = 4
    far = GridSpec(2, 8, (10.0, 10.0), (14.0, 14.0))
    ds = synthesize(off_center_ball, None, EnergySet((4.0,)), far, mode="full-solver", grid=GRID_32)
    assert ds.values.shape == (0, 1)
    assert ds.solver_notes["per_energy"]["4.0"] == {
        "channels": 0, "failed": 0, "iterations": 0, "residual": 0.0
    }


def test_dataset_roundtrip(tmp_path, off_center_ball, two_ball_refs):
    ds = synthesize(off_center_ball, two_ball_refs, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base, target=off_center_ball)
    back = read_dataset(base)
    assert back.mode == ds.mode
    assert back.pgrid.key() == ds.pgrid.key()
    assert back.energies == ds.energies
    for name in ("energy", "transfer", "node_index", "values", "flags"):
        want, got = getattr(ds, name), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert back.backgrounds is not None
    assert back.backgrounds.count == 2


def test_dataset_hash_guards_tampering(tmp_path, off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    with open(base + ".csv") as fh:
        text = fh.read()
    with open(base + ".csv", "w") as fh:
        fh.write(text.replace("4.0", "4.1", 1))
    with pytest.raises(ValueError, match="hash"):
        read_dataset(base)


def _write_with_transfer(tmp_path, ds, row, p):
    """Write ``ds`` with row ``row``'s transfer replaced; the hash stays valid."""
    transfer = np.array(ds.transfer)
    transfer[row] = p
    base = str(tmp_path / "edited")
    write_dataset(dataclasses.replace(ds, transfer=transfer), base)
    return base


def test_read_dataset_rejects_rows_off_grid_or_outside_ball(tmp_path, off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    assert read_dataset(base).rows == ds.rows
    row = int(np.argmin(np.linalg.norm(ds.transfer, axis=1)))
    half_step = 0.5 * np.array(PGRID.spacing)
    with pytest.raises(GridMismatchError):
        read_dataset(_write_with_transfer(tmp_path, ds, row, ds.transfer[row] + half_step))
    _, skipped = channels_on_grid(4.0, PGRID)
    outside = PGRID.nodes()[skipped[0]]
    with pytest.raises(OutOfBallError):
        read_dataset(_write_with_transfer(tmp_path, ds, 0, outside))


def test_withheld_target_not_recorded(tmp_path, off_center_ball):
    import json

    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "blind")
    write_dataset(ds, base, withhold_target=True, target=off_center_ball)
    with open(base + ".json") as fh:
        header = json.load(fh)
    assert header["target"] is None
    assert header["target_withheld"] is True


def test_translation_twin_is_invisible(off_center_ball):
    gap = translation_twin_demo(off_center_ball, (0.3, -0.4), 9.0, PGRID)
    assert gap < 1e-12
    assert translation_twin_demo(off_center_ball, (0.0, 0.0), 9.0, PGRID) == 0.0


def test_translation_twin_follows_the_convention():
    # full solver: the discrepancy under "mirror" is the one its two mirrored
    # syntheses give, not the default convention's
    v, y, E = TWO_BALLS, (0.2, -0.1), 9.0
    shifted = v.translate(y)
    single = EnergySet((E,))
    a, b = (
        synthesize(spec, None, single, PGRID_8, "full-solver", GRID_32, convention="mirror")
        for spec in (v, shifted)
    )
    want = float(np.max(np.abs(a.values - b.values)) / np.max(a.values))
    got = translation_twin_demo(v, y, E, PGRID_8, "full-solver", GRID_32, convention="mirror")
    assert got == want > 0.0


def test_validate_backgrounds_translate_detector():
    w1 = PotentialSpec.ball((0.0, 0.0), 0.3, 1.0)
    y = (0.6, -0.4)
    refs = BackgroundSet((w1, w1.translate(y)))
    report = validate_backgrounds(refs, PGRID)
    assert report.translate_degeneracy
    assert_allclose(report.estimated_shift, y, atol=1e-8)
    assert any("translate" in w for w in report.warnings)


def test_validate_backgrounds_healthy_pair(two_ball_refs):
    pg = GridSpec(2, 48, (-1.6, -1.6), (1.6, 1.6)).dual()
    report = validate_backgrounds(two_ball_refs, pg)
    assert not report.translate_degeneracy
    assert report.estimated_shift is None
    assert report.degenerate_pair_fraction is not None
    assert 0.0 <= report.degenerate_pair_fraction < 0.25
    # ball transforms vanish on rings; every flagged node sits near one
    assert len(report.zero_radii) == 2
    for radii in report.zero_radii:
        assert all(r > 0 for r in radii)


def test_validate_backgrounds_explicit_threshold(two_ball_refs):
    pg = GridSpec(2, 48, (-1.6, -1.6), (1.6, 1.6)).dual()
    strict = validate_backgrounds(two_ball_refs, pg, eps_zero=1e-30)
    assert strict.zero_fraction == (0.0, 0.0)
    loose = validate_backgrounds(two_ball_refs, pg, eps_zero=1e30)
    assert loose.zero_fraction == (1.0, 1.0)
