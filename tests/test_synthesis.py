import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless import solver, synthesis
from phaseless.exceptions import (
    BackgroundValidationError,
    InputFileError,
    OutOfBallError,
    SolverConvergenceError,
)
from phaseless.geometry import EnergySet, channels_on_grid
from phaseless.grids import GridSpec, intensity
from phaseless.potentials import PotentialSpec, analytic_hat, grid_hats, rasterize
from phaseless.solver import (
    SolverConfig,
    WaveVector,
    scattering_amplitude,
    solve_lippmann_schwinger,
)
from phaseless.synthesis import (
    FLAG_OK,
    FLAG_SOLVER_FAILED,
    BackgroundSet,
    PhaselessDataset,
    _cluster_radii,
    null_nodes,
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
    # the node rule: the target's and each reference's transform on the
    # whole probe grid, column j the target's plus reference j's
    target, *refs = grid_hats([off_center_ball, *two_ball_refs.backgrounds], PGRID)
    nodes = [target] + [target + h for h in refs]
    for row, node in enumerate(ds.node_index):
        for col, spec in enumerate(variants):
            expected = abs(analytic_hat(spec, ds.transfer[row])) ** 2
            assert_allclose(ds.values[row, col], expected, rtol=1e-13, atol=1e-300)
            assert ds.values[row, col] == abs(complex(nodes[col][node])) ** 2
    assert np.all(ds.flags == FLAG_OK)


def test_refsfree_dataset_has_single_column(off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    assert ds.values.shape[1] == 1
    assert ds.n_refs == 0


def test_single_reference_gives_two_columns(off_center_ball):
    refs = BackgroundSet((PotentialSpec.ball((-1.0, -1.0), 0.3, 1.0),))
    ds = synthesize(off_center_ball, refs, ENERGIES, PGRID)
    assert ds.values.shape[1] == 2


def test_intensity_columns_match_the_references(off_center_ball, two_ball_refs):
    ds = synthesize(off_center_ball, two_ball_refs, ENERGIES, PGRID)
    for refs in (BackgroundSet(two_ball_refs.backgrounds[:1]), None):
        with pytest.raises(ValueError, match="3 intensity columns"):
            dataclasses.replace(ds, backgrounds=refs)


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
    # a row's transfer is its node, bit for bit, and the energies are the rows'
    assert ds.transfer.tobytes() == nodes[ds.node_index].tobytes()
    assert ds.energies == ENERGIES.energies
    for bad in (-1, PGRID.node_count):
        with pytest.raises(ValueError, match="no node of the probe grid"):
            dataclasses.replace(ds, node_index=np.full(ds.rows, bad))
    assert ds.node_index.dtype == np.intp
    # one row per (energy, node) pair, each energy's rows in one block
    pairs = {(E, idx) for E, idx in zip(ds.energy.tolist(), ds.node_index.tolist())}
    assert len(pairs) == ds.rows == len(ds.channels)
    for E in ENERGIES:
        rows = np.flatnonzero(ds.energy == E)
        assert rows.size and np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))


def test_failed_solves_are_flagged_not_dropped(tmp_path):
    # an iteration cap this tight cannot converge on a strong scatterer
    strong = PotentialSpec.ball((0.0, 0.0), 0.4, 60.0)
    grid = GridSpec(2, 48, (-1.5, -1.5), (1.5, 1.5))
    cfg = SolverConfig(method="born", max_iterations=2)
    ds = synthesize(strong, None, EnergySet((4.0,)), PGRID, mode="full-solver", grid=grid, solver=cfg)
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
    dense = SolverConfig()
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


def test_full_solver_rows_store_the_intensity_of_their_amplitudes(
    monkeypatch, off_center_ball, two_ball_refs
):
    # the oracle rows' rule, grids.intensity, bit for bit: numpy's
    # abs(amps) ** 2 differs from it in the last ulp of some cells
    answers = []
    channel_amplitudes = synthesis.channel_amplitudes

    def recording(*args):
        answer = channel_amplitudes(*args)
        answers.append(answer[0])
        return answer

    monkeypatch.setattr(synthesis, "channel_amplitudes", recording)
    ds = synthesize(
        off_center_ball, two_ball_refs, EnergySet((9.0, 16.0)), PGRID_8, mode="full-solver",
        grid=GRID_32,
    )
    amps = np.concatenate(answers)
    assert amps.shape == ds.values.shape and not np.any(ds.flags)
    assert ds.values.tobytes() == intensity(amps.ravel()).tobytes()


def test_dataset_roundtrip(tmp_path, off_center_ball, two_ball_refs):
    ds = synthesize(off_center_ball, two_ball_refs, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    with open(base + ".json") as fh:
        assert sorted(json.load(fh)) == [
            "convention", "csv_sha256", "mode", "pgrid", "references", "schema", "solver_notes"
        ]
    back = read_dataset(base)
    assert back.mode == ds.mode
    assert back.pgrid == ds.pgrid
    assert back.energies == ds.energies
    for name in ("energy", "transfer", "node_index", "values", "flags"):
        want, got = getattr(ds, name), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert back.backgrounds is not None
    assert back.backgrounds.count == 2


_ORACLE_GRIDS = {
    2: GridSpec(2, 12, (-2.0, -2.0), (2.0, 2.0)).dual(),
    3: GridSpec(3, 8, (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)).dual(),
}
_ORACLE_REFS = {
    2: (PotentialSpec.ball((-1.2, 0.9), 0.3, 1.0), PotentialSpec.ball((1.1, -1.0), 0.4, 0.5j)),
    3: (
        PotentialSpec.ball((-1.1, 0.9, 0.4), 0.3, 1.0),
        PotentialSpec.ball((1.0, -0.9, -0.5), 0.4, 0.5j),
    ),
}


def _oracle_target(dim, kind, shift):
    """A target near the origin: one ball, two balls, or a ball plus a Gaussian."""
    center = (0.1 + shift,) + (-0.05,) * (dim - 1)
    target = PotentialSpec.ball(center, 0.2, 1.0 - 0.5j)
    second = (center[0] - 0.35,) + (0.15,) * (dim - 1)
    if kind == "two-balls":
        target = target + PotentialSpec.ball(second, 0.1, 0.7)
    elif kind == "ball-gaussian":
        target = target + PotentialSpec.gaussian(second, 0.05, 0.12, 2.0)
    return target


# a fixed case with nodes reached at several energies, some of them by rows
# whose k - l differs in its bits from the node
_MULTI_ENERGY_CASE = (2, 2, "ball-gaussian", "mirror", [4.0, 9.0, 25.0], 0.0)

_ORACLE_CASES = (
    st.sampled_from((2, 3)),
    st.sampled_from((0, 1, 2)),
    st.sampled_from(("ball", "two-balls", "ball-gaussian")),
    st.sampled_from(("default", "mirror")),
    st.lists(st.floats(0.5, 30.0), min_size=1, max_size=3, unique=True),
    st.floats(-0.1, 0.1),
)


def _oracle_case(dim, n_refs, kind, convention, energies, shift):
    """The oracle dataset of one drawn case, with its target and references."""
    target = _oracle_target(dim, kind, shift)
    refs = BackgroundSet(_ORACLE_REFS[dim][:n_refs]) if n_refs else None
    ds = synthesize(target, refs, EnergySet(sorted(energies)), _ORACLE_GRIDS[dim],
                    convention=convention)
    return ds, target, _ORACLE_REFS[dim][:n_refs]


@settings(max_examples=40, deadline=None)
@given(*_ORACLE_CASES)
@example(*_MULTI_ENERGY_CASE)
def test_oracle_values_equal_per_energy_transforms(dim, n_refs, kind, convention, energies, shift):
    ds, target, refs = _oracle_case(dim, n_refs, kind, convention, energies, shift)
    pgrid = ds.pgrid
    # the reference: one table per energy, every variant's transform on
    # the whole probe grid at each row's node, then Python's abs(z) ** 2;
    # and within rtol 1e-13, analytic_hat of the variant at the row's transfer
    hat, *others = grid_hats([target, *refs], pgrid)
    columns = [hat] + [hat + h for h in others]
    variants = [target] + [target + w for w in refs]
    want = []
    for E in sorted(energies):
        table, _ = channels_on_grid(E, pgrid, convention)
        want += [[abs(complex(c[node])) ** 2 for c in columns] for node in table.node]
        close = np.stack([intensity(analytic_hat(spec, table.transfer)) for spec in variants], 1)
        rows = ds.energy == E
        assert_allclose(ds.values[rows], close, rtol=1e-13, atol=1e-300)
    want = np.array(want, dtype=float).reshape(-1, len(variants))
    assert ds.values.shape == want.shape
    assert ds.values.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(*_ORACLE_CASES)
@example(*_MULTI_ENERGY_CASE)
def test_oracle_node_has_one_intensity_at_every_energy(dim, n_refs, kind, convention, energies,
                                                        shift):
    # |f|^2 -> |v^(p)|^2 depends on the node p alone, so every energy that
    # reaches a node stores the same bits there
    ds, _, _ = _oracle_case(dim, n_refs, kind, convention, energies, shift)
    first = np.unique(ds.node_index, return_index=True)[1]
    node_values = np.full((ds.pgrid.node_count, ds.values.shape[1]), np.nan)
    node_values[ds.node_index[first]] = ds.values[first]
    assert node_values[ds.node_index].tobytes() == ds.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from((2, 3)), st.sampled_from((1, 2)))
def test_oracle_rows_read_the_reference_scan(data, dim, n_refs):
    # grid_hats gives any subset of nodes the whole-grid call's bits, so
    # an oracle row's column j is the target's transform plus the one
    # that BackgroundSet.scan, and with it phase recovery, reads
    pgrid = _ORACLE_GRIDS[dim]
    target = _oracle_target(dim, data.draw(st.sampled_from(("ball", "two-balls",
                                                              "ball-gaussian"))), 0.0)
    refs = BackgroundSet(_ORACLE_REFS[dim][:n_refs])
    specs = [target, *refs.backgrounds]
    whole = grid_hats(specs, pgrid)
    nodes = np.array(data.draw(st.lists(st.integers(0, pgrid.node_count - 1), min_size=1,
                                        max_size=60)))
    for part, hat in zip(grid_hats(specs, pgrid, nodes), whole):
        assert part.tobytes() == hat[nodes].tobytes()
    ds = synthesize(target, refs, EnergySet((4.0, 16.0)), pgrid)
    scan = refs.scan(pgrid)
    for j, ref in enumerate(scan.hats, start=1):
        assert ds.values[:, j].tobytes() == intensity(whole[0] + ref)[ds.node_index].tobytes()
    assert ds.values[:, 0].tobytes() == intensity(whole[0])[ds.node_index].tobytes()


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
    """Write ``ds``, then set row ``row``'s transfer cells to ``p`` and re-stamp the hash."""
    base = str(tmp_path / "edited")
    write_dataset(ds, base)
    _restamp(base, _set_cells({(row + 1, 1 + a): repr(float(x)) for a, x in enumerate(p)}))
    return base


def test_read_dataset_rejects_rows_off_grid_or_outside_ball(tmp_path, off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    assert read_dataset(base).rows == ds.rows
    row = int(np.argmin(np.linalg.norm(ds.transfer, axis=1)))
    half_step = 0.5 * np.array(PGRID.spacing)
    # the header is not hashed, so its grid may be the file at fault: both are named
    edited = _write_with_transfer(tmp_path, ds, row, ds.transfer[row] + half_step)
    with pytest.raises(InputFileError, match=f"^{edited}.csv: .* {edited}.json$"):
        read_dataset(edited)
    _, skipped = channels_on_grid(4.0, PGRID)
    outside = PGRID.nodes()[skipped[0]]
    with pytest.raises(OutOfBallError):
        read_dataset(_write_with_transfer(tmp_path, ds, 0, outside))


@pytest.mark.parametrize(
    "cell", ["0.0", "-4.0", "nan", "1e-320"], ids=["zero", "negative", "nan", "subnormal"]
)
def test_read_dataset_rejects_row_energies_not_positive_and_finite(
    tmp_path, off_center_ball, cell
):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    # every row of energy 4.0 gets ``cell``
    _restamp(base, lambda lines: [cell + line[3:] if line.startswith("4.0,") else line
                                  for line in lines])
    with pytest.raises(InputFileError) as info:
        read_dataset(base)
    assert str(info.value) == (
        f"{base}.csv: line 2: energy {float(cell)!r} is not in [2.2250738585072014e-308, inf)"
    )


def test_read_dataset_names_the_row_outside_the_ball(tmp_path, off_center_ball):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    _, skipped = channels_on_grid(4.0, PGRID)
    outside = PGRID.nodes()[skipped[0]]
    edited = _write_with_transfer(tmp_path, ds, 0, outside)
    with pytest.raises(OutOfBallError) as info:
        read_dataset(edited)
    radius = float(np.linalg.norm(outside))
    assert str(info.value) == f"{edited}.csv: line 2: |p|={radius:.6g} exceeds 2*sqrt(E)=4"


def _per_cell_csv(ds):
    """The dataset CSV as one ``repr`` per cell, the writer's reference format."""
    d = ds.pgrid.dim
    cols = ["E"] + [f"p_{a + 1}" for a in range(d)] + ["m_0"]
    cols += [f"m_{j + 1}" for j in range(ds.n_refs)]
    cols.append("flags")
    lines = [",".join(cols)]
    for E, p, vals, flag in zip(
        ds.energy.tolist(), ds.transfer.tolist(), ds.values.tolist(), ds.flags.tolist()
    ):
        cells = [repr(E)] + [repr(x) for x in p]
        cells += ["nan" if math.isnan(val) else repr(val) for val in vals]
        cells.append(str(flag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_CSV_GRIDS = {
    2: GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual(),
    3: GridSpec(3, 8, (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)).dual(),
}
_CSV_REFS = {
    d: BackgroundSet(
        tuple(PotentialSpec.ball((0.5 * j - 0.3,) * d, 0.2, 1.0 + j) for j in range(2))
    )
    for d in (2, 3)
}
_EDGE_VALUES = (0.0, -0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1.0, 0.1, 1e300)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dataset_csv_matches_per_cell_format_and_round_trips(tmp_path_factory, data):
    d = data.draw(st.sampled_from((2, 3)), label="dim")
    n_refs = data.draw(st.sampled_from((1, 2)), label="n_refs")
    pgrid = _CSV_GRIDS[d]
    energies = EnergySet((4.0, 9.0))
    tables = [channels_on_grid(E, pgrid)[0] for E in energies]
    rows = sum(len(t) for t in tables)
    # a small pool drawn per example makes values repeat within and across columns
    pool = data.draw(
        st.lists(
            st.sampled_from(_EDGE_VALUES) | st.floats(0.0, 1e308, allow_subnormal=True),
            min_size=1, max_size=6,
        ),
        label="pool",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.choice(np.array(pool), size=(rows, 1 + n_refs))
    flags = rng.choice(np.array([FLAG_OK, FLAG_SOLVER_FAILED], dtype=np.uint8), size=rows)
    values[flags == FLAG_SOLVER_FAILED] = np.nan
    ds = PhaselessDataset(
        mode="born-oracle",
        pgrid=pgrid,
        energy=np.concatenate([t.energy for t in tables]),
        node_index=np.concatenate([t.node for t in tables]),
        values=values,
        flags=flags,
        backgrounds=BackgroundSet(_CSV_REFS[d].backgrounds[:n_refs]),
    )
    base = str(tmp_path_factory.mktemp("csv") / "ds")
    write_dataset(ds, base)
    with open(base + ".csv") as fh:
        assert fh.read() == _per_cell_csv(ds)
    back = read_dataset(base)
    for name in ("energy", "transfer", "values", "flags"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name

    # energy cells: the writer does not check them, so negative values,
    # -0.0, subnormals and NaN of either sign print too
    odd_pool = pool + [-x for x in _EDGE_VALUES] + [math.nan, -math.nan]
    odd_ds = dataclasses.replace(ds, energy=rng.choice(np.array(odd_pool), size=rows))
    write_dataset(odd_ds, base)
    with open(base + ".csv") as fh:
        assert fh.read() == _per_cell_csv(odd_ds)


def _restamp(base, edit):
    """Rewrite ``base``.csv as ``edit`` of its lines and record the new hash."""
    with open(base + ".csv") as fh:
        lines = fh.read().split("\n")
    text = "\n".join(edit(lines))
    with open(base + ".csv", "w") as fh:
        fh.write(text)
    with open(base + ".json") as fh:
        header = json.load(fh)
    header["csv_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)


def _move_last_cell(lines):
    # row 1 loses its flag cell to row 2: the total cell count is unchanged
    head, _, flag = lines[1].rpartition(",")
    return [lines[0], head, lines[2] + "," + flag, *lines[3:]]


def _set_cells(edits):
    """An edit that puts ``edits[(row, col)]`` into each named cell."""
    def edit(lines):
        rows = [line.split(",") for line in lines]
        for (row, col), cell in edits.items():
            rows[row][col] = cell
        return [",".join(cells) for cells in rows]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_move_last_cell, "{base}.csv: line 2 has 4 cells, not 5"),
        (_set_cells({(2, -1): "1.5"}), "{base}.csv: line 3: flag '1.5' is not an integer 0-255"),
        (_set_cells({(4, -1): "256"}), "{base}.csv: line 5: flag '256' is not an integer 0-255"),
        # the first bad cell in row order is the one reported
        (
            _set_cells({(9, 1): "abc", (8, 2): "abd"}),
            "{base}.csv: line 9: 'abd' is not a number",
        ),
        (
            _set_cells({(6, -2): "-0.5"}),
            "{base}.csv: line 7: unflagged intensities [-0.5] are not all finite and nonnegative",
        ),
        (
            _set_cells({(3, -2): "nan"}),
            "{base}.csv: line 4: unflagged intensities [nan] are not all finite and nonnegative",
        ),
    ],
    ids=[
        "cell-moved", "fractional-flag", "flag-out-of-range", "non-numeric-value",
        "negative-intensity", "nan-intensity",
    ],
)
def test_read_dataset_rejects_malformed_rows(tmp_path, off_center_ball, edit, message):
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    _restamp(base, edit)
    with pytest.raises(InputFileError) as info:
        read_dataset(base)
    assert str(info.value) == message.format(base=base)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3)),
    st.sampled_from((0, 1, 2)),
    st.sampled_from((0.0, 0.4, 1.0)),
    st.integers(0, 2**32 - 1),
)
@example(2, 0, 0.0, 0)  # an empty body reads as zero rows, without loadtxt's warning
def test_read_dataset_round_trips_every_bit(tmp_path_factory, dim, n_refs, share, seed):
    # a share of the channels of two energies, flagged NaN rows, -0.0 in
    # intensity cells, and none, one or two references
    rng = np.random.default_rng(seed)
    pgrid = _CSV_GRIDS[dim]
    table, _ = channels_on_grid((4.0, 9.0), pgrid)
    keep = rng.random(len(table)) < share
    rows = int(np.count_nonzero(keep))
    values = rng.choice(np.array([0.0, -0.0, 5e-324, 0.1, 1e300]), size=(rows, 1 + n_refs))
    flags = rng.choice(np.array([FLAG_OK, FLAG_SOLVER_FAILED], dtype=np.uint8), size=rows)
    values[flags == FLAG_SOLVER_FAILED] = np.nan
    refs = BackgroundSet(_CSV_REFS[dim].backgrounds[:n_refs]) if n_refs else None
    ds = PhaselessDataset(
        mode="born-oracle",
        pgrid=pgrid,
        energy=table.energy[keep],
        node_index=table.node[keep],
        values=values,
        flags=flags,
        backgrounds=refs,
        solver_notes={"seed": seed},
    )
    assert ds.energies == tuple(sorted(set(table.energy[keep].tolist())))
    assert ds.transfer.tobytes() == table.transfer[keep].tobytes()
    base = str(tmp_path_factory.mktemp("read") / "ds")
    write_dataset(ds, base)
    back = read_dataset(base)
    assert (back.mode, back.pgrid, back.convention, back.solver_notes, back.backgrounds) == (
        ds.mode, ds.pgrid, ds.convention, ds.solver_notes, ds.backgrounds
    )
    assert back.energies == ds.energies and back.n_refs == n_refs
    for name in ("energy", "node_index", "transfer", "values", "flags"):
        want, got = getattr(ds, name), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


_EDGE_CELLS = ("1_0", "1#2", "nan", "-0.0", "1e400", "", "256", "1.0")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((2, 3)),
    st.integers(1, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(_EDGE_CELLS),
)
def test_read_dataset_edited_cell_is_read_or_named(tmp_path_factory, dim, row, col, cell):
    # one cell set to an edge value, the hash re-stamped; Python's float
    # reads 1_0 and numpy's parser does not
    pgrid = _CSV_GRIDS[dim]
    ds = synthesize(_CSV_REFS[dim].backgrounds[0], None, EnergySet((4.0, 9.0)), pgrid)
    base = str(tmp_path_factory.mktemp("edit") / "ds")
    write_dataset(ds, base)
    row, col = 1 + row % ds.rows, col % (dim + 3)
    _restamp(base, _set_cells({(row, col): cell}))
    try:
        read_dataset(base)
    except (InputFileError, OutOfBallError) as exc:
        assert str(exc).startswith(base)


def _first_reference_component(header):
    return header["references"][0]["components"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h["pgrid"].update(n=12.9), "header.pgrid.n: expected an integer, got 12.9"),
        (lambda h: _first_reference_component(h).update(amplitude=float("nan")),
         "header.references[0].components[0].amplitude: expected a finite number, got nan"),
        (lambda h: _first_reference_component(h).update(radius="0.3"),
         "header.references[0].components[0].radius: expected a number, got '0.3'"),
        (lambda h: _first_reference_component(h).update(colour="red"),
         "header.references[0].components[0]: unknown keys ['colour']"),
        (lambda h: h.update(comment="hand-edited"), "header: unknown keys ['comment']"),
        (lambda h: h["pgrid"]["box_max"].__setitem__(0, float("inf")),
         "header.pgrid.box_max: expected a finite number, got inf"),
    ],
    ids=["fractional-n", "amplitude-nan", "radius-string", "component-extra-key",
         "extra-key", "box-infinite"],
)
def test_read_dataset_reads_its_header_by_the_config_rules(
    tmp_path, off_center_ball, two_ball_refs, edit, message
):
    ds = synthesize(off_center_ball, two_ball_refs, ENERGIES, PGRID)
    base = str(tmp_path / "ds")
    write_dataset(ds, base)
    with open(base + ".json") as fh:
        header = json.load(fh)
    edit(header)
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with pytest.raises(InputFileError) as info:
        read_dataset(base)
    assert str(info.value) == f"{base}.json: malformed dataset header ({message})"


def test_read_dataset_rejects_a_version_1_header(tmp_path, off_center_ball):
    # a phaseless-dataset/1 header stated the rows' energies, dim and
    # reference count a second time; such a dataset is synthesized again
    ds = synthesize(off_center_ball, None, ENERGIES, PGRID)
    base = str(tmp_path / "old")
    write_dataset(ds, base)
    with open(base + ".json") as fh:
        header = json.load(fh)
    header.update(schema="phaseless-dataset/1", dim=2, energies=list(ds.energies), n_refs=0,
                  target=None, target_withheld=False)
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with pytest.raises(InputFileError) as info:
        read_dataset(base)
    assert str(info.value) == f"{base}.json: unknown dataset schema 'phaseless-dataset/1'"


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
    # the second pair leaves unusable nodes next to usable ones: the detector
    # divides usable neighbours only (a RuntimeWarning fails the test)
    cases = [
        ((0.0, 0.0), (0.6, -0.4), PGRID),
        ((-0.9, -0.6), (0.5, 0.0), GridSpec(2, 24, (-1.5, -1.5), (1.5, 1.5)).dual()),
    ]
    for center, y, pgrid in cases:
        w1 = PotentialSpec.ball(center, 0.3, 1.0)
        report = validate_backgrounds(BackgroundSet((w1, w1.translate(y))), pgrid)
        assert report.translate_degeneracy
        assert_allclose(report.estimated_shift, y, atol=1e-8)
        assert all(type(x) is float for x in report.estimated_shift)
        assert report.warnings[-1] == (
            f"reference 2 looks like a translate of reference 1 (estimated shift "
            f"{report.estimated_shift}); the pair degeneracy then fills hyperplanes and "
            "two-reference recovery breaks down"
        )


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


@pytest.mark.parametrize("peak", [2.0, 1e-300, 1e-310, 0.0])
def test_null_nodes_below_a_thousandth_of_the_peak(peak):
    # the rule of the target and of every reference: the threshold is
    # 1e-3 of the peak, and a zero or subnormal peak makes every node null
    moduli = np.array([1.0, 1e-3, 0.999e-3, 0.0]) * peak
    null, eps = null_nodes(moduli)
    assert eps == 1e-3 * peak
    expected = [True] * 4 if peak < 2.2250738585072014e-308 else [False, False, True, True]
    assert null.tolist() == expected


def test_cluster_radii_split_where_steps_exceed_resolution():
    # steps of exactly the resolution stay in one cluster
    assert _cluster_radii(np.array([3.0, 1.0, 1.5, 2.0, 0.0]), 0.5) == (0.0, 1.5, 3.0)
    assert _cluster_radii(np.array([2.0, 1.0]), 0.0) == (1.0, 2.0)
    assert _cluster_radii(np.array([]), 1.0) == ()
