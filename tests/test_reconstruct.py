import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless import synthesis
from phaseless.exceptions import (
    BackgroundValidationError,
    DegenerateDataError,
    GridMismatchError,
    NoDataError,
    SingularNodeError,
)
from phaseless.geometry import EnergySet, channels_on_grid
from phaseless.grids import GridSpec
from phaseless.potentials import PotentialSpec, analytic_hat
from phaseless.reconstruct import (
    ReconstructionOptions,
    _inpaint,
    build_mask,
    reconstruct,
    recover_modulus_sq,
    recover_phase_one_ref,
    recover_phase_two_refs,
)
from phaseless.synthesis import (
    FLAG_SOLVER_FAILED,
    BackgroundSet,
    PhaselessDataset,
    synthesize,
    validate_backgrounds,
)


def test_two_ref_phase_known_point():
    # alpha = pi/3 against references at phases 0 and pi/2
    z, dev = recover_phase_two_refs(1.0, 3.0, 2.0 + np.sqrt(3.0), 1.0 + 0.0j, 1.0j)
    assert_allclose(z, complex(0.5, np.sqrt(3.0) / 2.0), atol=1e-12)
    assert dev < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-np.pi, np.pi, allow_nan=False),
    beta1=st.floats(-np.pi, np.pi, allow_nan=False),
    beta2=st.floats(-np.pi, np.pi, allow_nan=False),
    amp0=st.floats(0.1, 10.0, allow_nan=False),
    a1=st.floats(0.1, 10.0, allow_nan=False),
    a2=st.floats(0.1, 10.0, allow_nan=False),
)
def test_two_ref_phase_exact_data(alpha, beta1, beta2, amp0, a1, a2):
    assume(abs(np.sin(beta2 - beta1)) > 1e-3)
    vhat = amp0 * np.exp(1j * alpha)
    w1 = a1 * np.exp(1j * beta1)
    w2 = a2 * np.exp(1j * beta2)
    m0 = abs(vhat) ** 2
    m1 = abs(vhat + w1) ** 2
    m2 = abs(vhat + w2) ** 2
    z, dev = recover_phase_two_refs(m0, m1, m2, w1, w2)
    assert abs(z - np.exp(1j * alpha)) < 1e-9
    assert dev < 1e-9


def test_two_ref_phase_degeneracies():
    # only an exactly zero divisor raises: equal reference phases give det 0
    with pytest.raises(SingularNodeError, match="target"):
        recover_phase_two_refs(0.0, 1.0, 1.0, 1.0 + 0.0j, 1.0j)
    with pytest.raises(SingularNodeError, match="reference"):
        recover_phase_two_refs(1.0, 1.0, 1.0, 0.0j, 1.0j)
    with pytest.raises(SingularNodeError, match="degenerate"):
        recover_phase_two_refs(1.0, 1.0, 1.0, 1.0 + 0.0j, 2.0 + 0.0j)


def test_one_ref_phase_known_point():
    cos_d, clamp, (plus, minus) = recover_phase_one_ref(1.0, 3.0, 1.0 + 0.0j)
    assert_allclose(cos_d, 0.5)
    assert clamp == 0.0
    assert_allclose(plus, np.exp(1j * np.pi / 3.0), atol=1e-15)
    assert_allclose(minus, np.exp(-1j * np.pi / 3.0), atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-np.pi, np.pi, allow_nan=False),
    beta=st.floats(-np.pi, np.pi, allow_nan=False),
    amp0=st.floats(0.1, 10.0, allow_nan=False),
    a1=st.floats(0.1, 10.0, allow_nan=False),
)
def test_one_ref_branches_cover_truth(alpha, beta, amp0, a1):
    vhat = amp0 * np.exp(1j * alpha)
    w1 = a1 * np.exp(1j * beta)
    m0 = abs(vhat) ** 2
    m1 = abs(vhat + w1) ** 2
    _, clamp, (plus, minus) = recover_phase_one_ref(m0, m1, w1)
    assert clamp < 1e-9
    truth = np.exp(1j * alpha)
    # near branch coincidence (offset ~ 0 or pi) arccos turns rounding
    # into sqrt(eps)-sized phase error; that is the construction's
    # conditioning, not slack in the solver
    assert min(abs(plus - truth), abs(minus - truth)) < 1e-6
    # both candidates reproduce the interfered intensity
    for cand in (plus, minus):
        assert abs(abs(amp0 * cand + w1) ** 2 - m1) < 1e-9 * max(m1, 1.0)


@st.composite
def _ball_pairs(draw, dim):
    """Two balls in dimension ``dim`` that BackgroundSet accepts as distinct."""
    balls = [
        PotentialSpec.ball(
            draw(st.tuples(*[st.floats(-1.0, 1.0)] * dim)),
            draw(st.floats(0.1, 0.5)),
            draw(st.sampled_from([1.0, 0.01, -2.0])),
        )
        for _ in range(2)
    ]
    # equal balls, and balls whose transforms agree within 1e-12 (radii
    # an ulp apart), are one reference to BackgroundSet
    try:
        return BackgroundSet(tuple(balls))
    except BackgroundValidationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from([2, 3]),
    eps_pair=st.one_of(st.none(), st.floats(1e-6, 0.1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_recovery_applies_the_singular_node_rule(data, dim, eps_pair, seed):
    # the probe grid of an 8^d box of half-width 2; reference pairs of two
    # balls, so the pair set and the null sets vary from draw to draw
    refs = data.draw(_ball_pairs(dim))
    pg = GridSpec(dim, 8, (-2.0,) * dim, (2.0,) * dim).dual()
    scan = refs.scan(pg, None, eps_pair)
    hats = scan.hats
    rng = np.random.default_rng(seed)
    n = pg.node_count
    vhat = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    m0, m1, m2 = (np.abs(vhat + h) ** 2 for h in (0.0, *hats))
    m1[rng.random(n) < 0.2] *= 1.7  # inconsistent data, so some cosines are clamped

    def two_refs(idx):
        return recover_phase_two_refs(m0[idx], m1[idx], m2[idx], hats[0][idx], hats[1][idx])

    def one_ref(idx):
        return recover_phase_one_ref(m0[idx], m1[idx], hats[0][idx])

    # every node off the reference null sets and the pair set is solved,
    # finitely, and a one-node call gives the full call's bits
    ok = np.flatnonzero(~(scan.ref_null[0] | scan.ref_null[1] | scan.pair_degenerate))
    z, dev = two_refs(ok)
    cos_d, clamp, (plus, minus) = one_ref(ok)
    assert all(np.isfinite(x).all() for x in (z, dev, cos_d, clamp, plus, minus))
    for k, i in enumerate(ok):
        zi, devi = two_refs([i])
        assert (zi.tobytes(), devi.tobytes()) == (z[k : k + 1].tobytes(), dev[k : k + 1].tobytes())
        ci, cli, (pi, mi) = one_ref([i])
        got = b"".join(x.tobytes() for x in (ci, cli, pi, mi))
        assert got == b"".join(x[k : k + 1].tobytes() for x in (cos_d, clamp, plus, minus))


def test_references_an_ulp_apart_are_identical():
    # concentric balls of radius 0.5 and the float below it transform alike
    # within 1e-12, so they are one reference
    radius = np.nextafter(0.5, 0.0)
    with pytest.raises(BackgroundValidationError, match="identical"):
        BackgroundSet((PotentialSpec.ball((0.0, 0.0), 0.5, 1.0),
                       PotentialSpec.ball((0.0, 0.0), radius, 1.0)))


@pytest.mark.parametrize("dim,n", [(2, 24), (3, 12)])
def test_boundary_energies_follow_one_ball_rule(dim, n):
    # at each node's boundary energy E = |p|^2/4 the channel table holds
    # exactly the nodes with radii <= 2 sqrt(E), and the mask calls none
    # of them out of the ball: both read pgrid.radii
    pg = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim).dual()
    radii = pg.radii()
    refs = BackgroundSet((PotentialSpec.ball((0.2,) * dim, 0.3, 1.0),))
    scan = refs.scan(pg)
    moduli = np.full((pg.node_count, 2), np.nan)
    for energy in np.unique(radii[radii > 0] ** 2 / 4):
        table, _ = channels_on_grid(energy, pg)
        assert np.array_equal(table.node, np.flatnonzero(radii <= 2 * np.sqrt(energy)))
        rows = len(table)
        ds = PhaselessDataset("born-oracle", pg, (energy,), table.energy, table.transfer,
                              table.node, np.ones((rows, 2)), np.zeros(rows), refs)
        assert not build_mask(ds, moduli, scan).out_of_ball[table.node].any()


def test_real_reference_pair_is_degenerate_everywhere():
    # concentric balls have real transforms, so their unit phases agree
    # modulo pi at every node; the gap is rounding noise, all of it flagged
    refs = BackgroundSet(
        (PotentialSpec.ball((0.0, 0.0), 0.5, 1.0), PotentialSpec.ball((0.0, 0.0), 0.125, 1.0))
    )
    pg = GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual()
    scan = refs.scan(pg)
    assert scan.eps_pair == pytest.approx(1e-12)
    assert np.array_equal(scan.pair_degenerate, ~(scan.ref_null[0] | scan.ref_null[1]))


def test_one_ref_clamp_reported():
    # m1 inconsistent with any phase: raw cosine 1.25, clamped to 1
    cos_d, clamp, (plus, minus) = recover_phase_one_ref(1.0, 4.5, 1.0 + 0.0j)
    assert cos_d == 1.0
    assert_allclose(clamp, 0.25)
    assert plus == minus


def test_modulus_estimators(off_center_ball):
    pg = GridSpec(2, 12, (-2.0, -2.0), (2.0, 2.0)).dual()
    ds = synthesize(off_center_ball, None, EnergySet((4.0, 9.0)), pg)
    # doctor the target column onto the model limit + c / sqrt(E)
    limit, c = 0.37, 0.21
    vals = np.array(ds.values)
    for row, E in enumerate(ds.energy.tolist()):
        vals[row, 0] = limit + c / np.sqrt(E)
    doctored = dataclasses.replace(ds, values=vals)
    hist = _histogram(doctored)
    both = [idx for idx, h in hist.items() if len({e for e, _ in h}) == 2]
    assert both
    top = recover_modulus_sq(doctored, estimator="top")
    rich = recover_modulus_sq(doctored, estimator="richardson")
    assert top.shape == rich.shape == (pg.node_count, 1)
    assert_allclose(top[both, 0], limit + c / 3.0, rtol=1e-13)
    assert_allclose(rich[both, 0], limit, rtol=1e-12)
    # a node no channel reaches has no estimate
    unreached = np.setdiff1d(np.arange(pg.node_count), ds.node_index)
    assert unreached.size and np.isnan(top[unreached]).all() and np.isnan(rich[unreached]).all()
    node = both[0]
    # a flagged top row leaves the lower energy as the only estimate
    (_, top_row), = [(e, r) for e, r in hist[node] if e == 9.0]
    flags = np.array(doctored.flags)
    flags[top_row] = FLAG_SOLVER_FAILED
    partial = dataclasses.replace(doctored, flags=flags)
    for estimator in ("top", "richardson"):
        got = recover_modulus_sq(partial, estimator=estimator)
        assert_allclose(got[node, 0], limit + c / 2.0, rtol=1e-13)
    assert recover_modulus_sq(partial, estimator="top")[both[1], 0] == top[both[1], 0]
    with pytest.raises(ValueError):
        recover_modulus_sq(doctored, estimator="median")
    # a node whose every row is flagged has no estimate either
    (_, low_row), = [(e, r) for e, r in hist[node] if e == 4.0]
    flags = np.array(partial.flags)
    flags[low_row] = FLAG_SOLVER_FAILED
    flagged = recover_modulus_sq(dataclasses.replace(doctored, flags=flags))
    assert np.isnan(flagged[node]).all()


def _histogram(ds):
    hist = {}
    for row, (E, idx) in enumerate(zip(ds.energy.tolist(), ds.node_index)):
        hist.setdefault(idx, []).append((E, row))
    return hist


def test_build_mask_flags(off_center_ball, two_ball_refs):
    pg = GridSpec(2, 12, (-2.0, -2.0), (2.0, 2.0)).dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((4.0,)), pg)
    flags = np.array(ds.flags)
    flags[3] = FLAG_SOLVER_FAILED
    ds = dataclasses.replace(ds, flags=flags)
    n = pg.node_count
    moduli = np.full((n, 3), np.nan)
    for row, idx in enumerate(ds.node_index):
        moduli[idx] = ds.values[row]
    mask = build_mask(ds, moduli, two_ball_refs.scan(pg))
    nodes = pg.nodes()
    in_ball = np.linalg.norm(nodes, axis=1) <= 2.0 * np.sqrt(4.0)
    assert np.array_equal(mask.out_of_ball, ~in_ball | np.isnan(moduli[:, 0]))
    assert mask.solver_failed[ds.node_index[3]]
    assert not np.any(mask.pair_degenerate & (mask.ref_null[0] | mask.ref_null[1]))
    assert 0.0 <= mask.masked_fraction <= 1.0


def _good_neighbor_mean(values, good, shape, flat):
    """Mean of the good neighbors of node ``flat``, enumerated one by one."""
    center = np.unravel_index(flat, shape)
    picked = []
    for offset in itertools.product((-1, 0, 1), repeat=len(shape)):
        idx = tuple(c + o for c, o in zip(center, offset))
        if any(offset) and all(0 <= i < s for i, s in zip(idx, shape)):
            if good.reshape(shape)[idx]:
                picked.append(values.reshape(shape)[idx])
    return len(picked), np.mean(picked)


def test_inpaint_averages_good_neighbors():
    shape = (3, 3)
    values = np.arange(9, dtype=complex)
    good = np.ones(9, dtype=bool)
    good[4] = False
    fill = ~good
    out = _inpaint(values, good, fill, shape)
    neighbors = [0, 1, 2, 3, 5, 6, 7, 8]
    assert_allclose(out[4], np.mean(values[neighbors]))
    assert np.array_equal(out[good], values[good])
    # an isolated bad node has nothing to average and goes to zero
    alone = np.zeros(9, dtype=bool)
    alone[4] = True
    out2 = _inpaint(values, np.zeros(9, dtype=bool), alone, shape)
    assert out2[4] == 0.0

    # 3-D: an interior node averages all 26 neighbors, an edge node
    # only the good ones inside the grid
    shape = (4, 4, 4)
    values = np.sin(np.arange(64.0)) + 1j * np.cos(np.arange(64.0))
    interior = np.ravel_multi_index((1, 2, 1), shape)
    edge = np.ravel_multi_index((0, 0, 2), shape)
    good = np.ones(64, dtype=bool)
    good[[interior, edge]] = False
    out = _inpaint(values, good, ~good, shape)
    assert np.array_equal(out[good], values[good])
    counts = []
    for flat in (interior, edge):
        count, mean = _good_neighbor_mean(values, good, shape, flat)
        counts.append(count)
        assert_allclose(out[flat], mean, rtol=1e-14)
    assert counts == [26, 11]


def _whole_grid_inpaint(values, good, fill, shape):
    """_inpaint as 3^d - 1 shifted-window sums over the whole zero-padded grid."""
    good_grid = np.pad(good.reshape(shape), 1)
    val_grid = np.pad(np.where(good, values, 0.0).reshape(shape), 1)
    acc = np.zeros(shape, dtype=complex)
    count = np.zeros(shape)
    for offset in np.ndindex(*(3,) * len(shape)):
        if all(o == 1 for o in offset):
            continue
        window = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        acc += val_grid[window]
        count += good_grid[window]
    avg = np.divide(acc, count, out=np.zeros(shape, dtype=complex), where=count > 0)
    out = values.copy()
    out[fill] = avg.reshape(-1)[fill]
    return out


@settings(max_examples=80, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    ),
    p_good=st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
    p_fill=st.sampled_from([0.0, 0.3, 1.0]),
    p_zero=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# seed 4: the fill node (1, 1) has eight good neighbors, all -0.0
@example(shape=(5, 5), p_good=0.9, p_fill=1.0, p_zero=1.0, seed=4)
def test_inpaint_equals_whole_grid_windows(shape, p_good, p_fill, p_zero, seed):
    # fill nodes on the border, with no good neighbor, and an empty fill
    # all occur; -0.0 values check that the sums start from +0.0
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    scale = 10.0 ** rng.integers(-3, 4, size)
    values = rng.standard_normal(size) * scale + 1j * rng.standard_normal(size)
    values[rng.random(size) < p_zero] = complex(-0.0, -0.0)
    good = rng.random(size) < p_good
    fill = ~good & (rng.random(size) < p_fill)
    got = _inpaint(values, good, fill, shape)
    assert got.tobytes() == _whole_grid_inpaint(values, good, fill, shape).tobytes()


def test_failed_solves_count_toward_mask(box_grid, off_center_ball, two_ball_refs):
    pg = box_grid.dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0,)), pg)
    flags = np.array(ds.flags)
    values = np.array(ds.values)
    flags[::2] = FLAG_SOLVER_FAILED
    values[::2] = np.nan
    ds = dataclasses.replace(ds, flags=flags, values=values)
    failed = np.asarray(ds.node_index)[::2]
    with pytest.raises(DegenerateDataError):
        reconstruct(ds, options=ReconstructionOptions(spatial_grid=box_grid))
    (res,) = reconstruct(
        ds, options=ReconstructionOptions(spatial_grid=box_grid, mask_fraction_limit=1.0)
    )
    mask = res.mask
    assert mask.solver_failed[failed].all()
    assert not mask.out_of_ball[failed].any()
    assert mask.masked_fraction >= failed.size / np.sum(~mask.out_of_ball)
    assert np.all(np.isfinite(res.spectrum.values))


def test_background_report_matches_mask(off_center_ball, two_ball_refs):
    # the probe grid of a 128^2 box of half-width 1.5, where a reference
    # far below the larger one's maximum shows any mismatch of the rules
    pg = GridSpec(2, 128, (-1.5, -1.5), (1.5, 1.5)).dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0,)), pg)
    mask = build_mask(ds, np.full((pg.node_count, 3), np.nan), two_ball_refs.scan(pg))
    report = validate_backgrounds(two_ball_refs, pg)
    assert report.zero_fraction == tuple(float(np.mean(r)) for r in mask.ref_null)
    off_zero = ~(mask.ref_null[0] | mask.ref_null[1])
    assert report.degenerate_pair_fraction == np.sum(mask.pair_degenerate) / np.sum(off_zero)


def test_each_command_scans_the_references_once(box_grid, off_center_ball, two_ball_refs):
    # reconstruct and validate_backgrounds each make one grid scan and
    # compute one pair gap, which the mask and the phase recovery share;
    # the profiler counts calls by code object, whatever name a caller binds
    names = {synthesis.grid_hats.__code__: "grid_hats", synthesis.pair_gap.__code__: "pair_gap"}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls.append(names[frame.f_code])

    pg = box_grid.dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0,)), pg)
    sys.setprofile(profile)
    try:
        reconstruct(ds, ReconstructionOptions(spatial_grid=box_grid))
        assert calls == ["grid_hats", "pair_gap"]
        validate_backgrounds(two_ball_refs, pg)
    finally:
        sys.setprofile(None)
    assert calls == ["grid_hats", "pair_gap"] * 2


def test_end_to_end_two_refs(box_grid, off_center_ball, two_ball_refs):
    pg = box_grid.dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0, 50.0)), pg)
    (res,) = reconstruct(ds, options=ReconstructionOptions(spatial_grid=box_grid))
    assert res.branch == "two-reference"
    usable = ~res.mask.any_flag
    truth = analytic_hat(off_center_ball, pg.nodes())
    err = np.abs(res.spectrum.values.ravel()[usable] - truth[usable])
    assert err.max() < 1e-10
    assert res.mask.masked_fraction < 0.05
    assert res.diagnostics["max_phase_residual"] < 1e-10


def test_end_to_end_one_ref_branches(box_grid, off_center_ball):
    pg = box_grid.dual()
    refs = BackgroundSet((PotentialSpec.ball((-0.93, -0.61), 0.3, 1.0),))
    ds = synthesize(off_center_ball, refs, EnergySet((25.0,)), pg)
    plus, minus = reconstruct(ds, options=ReconstructionOptions(spatial_grid=box_grid))
    assert plus.branch == "one-reference-plus"
    assert minus.branch == "one-reference-minus"
    assert plus.mask is minus.mask
    usable = ~plus.mask.any_flag
    truth = analytic_hat(off_center_ball, pg.nodes())
    ep = np.abs(plus.spectrum.values.ravel() - truth)
    em = np.abs(minus.spectrum.values.ravel() - truth)
    assert np.minimum(ep, em)[usable].max() < 1e-10


@pytest.mark.parametrize("n_refs", [2, 1])
def test_weak_references_are_masked_not_fatal(box_grid, off_center_ball, n_refs):
    # each reference is judged against its own maximum by the mask, which
    # alone picks the nodes phase recovery solves, so scaling the
    # references changes nothing
    pg = box_grid.dual()
    truth = analytic_hat(off_center_ball, pg.nodes())
    centers = (((-0.93, -0.61), 0.3), ((0.88, 0.79), 0.45))[:n_refs]
    masks = []
    for amplitude in (1.0, 0.01):
        refs = BackgroundSet(tuple(PotentialSpec.ball(c, r, amplitude) for c, r in centers))
        ds = synthesize(off_center_ball, refs, EnergySet((25.0, 50.0)), pg)
        branches = reconstruct(ds, options=ReconstructionOptions(spatial_grid=box_grid))
        usable = ~branches[0].mask.any_flag
        err = np.min([np.abs(b.spectrum.values.ravel() - truth) for b in branches], axis=0)
        assert err[usable].max() <= 1e-8
        mask = branches[0].mask
        masks.append(
            [mask.target_null, *mask.ref_null, mask.pair_degenerate, mask.out_of_ball]
        )
    for strong, weak in zip(*masks):
        assert np.array_equal(strong, weak)


def test_translate_pair_raises_degenerate():
    sg = GridSpec(2, 12, (-2.0, -2.0), (2.0, 2.0))
    pg = sg.dual()
    v = PotentialSpec.ball((0.3, -0.2), 0.25, 1.0)
    w1 = PotentialSpec.ball((-1.2, -1.2), 0.3, 1.0)
    refs = BackgroundSet((w1, w1.translate((1.0, 0.0))))
    ds = synthesize(v, refs, EnergySet((4.0, 9.0)), pg)
    with pytest.raises(DegenerateDataError, match="pure shift"):
        reconstruct(ds, options=ReconstructionOptions(spatial_grid=sg))


def test_references_come_from_the_dataset(box_grid, off_center_ball):
    ds = synthesize(off_center_ball, None, EnergySet((25.0,)), box_grid.dual())
    with pytest.raises(NoDataError, match="reference"):
        reconstruct(ds, ReconstructionOptions(box_grid))


def test_spatial_grid_must_match_probe(box_grid, off_center_ball, two_ball_refs):
    pg = box_grid.dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0,)), pg)
    wrong = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    with pytest.raises(GridMismatchError):
        reconstruct(ds, options=ReconstructionOptions(spatial_grid=wrong))


def test_support_restriction_and_realness(box_grid, off_center_ball, two_ball_refs):
    pg = box_grid.dual()
    ds = synthesize(off_center_ball, two_ball_refs, EnergySet((25.0, 50.0)), pg)
    opts = ReconstructionOptions(
        spatial_grid=box_grid,
        declared_support=off_center_ball,
        declared_real=True,
    )
    (res,) = reconstruct(ds, options=opts)
    mesh = np.meshgrid(*box_grid.axes(), indexing="ij")
    (center, radius), = off_center_ball.support_balls()
    r2 = (mesh[0] - center[0]) ** 2 + (mesh[1] - center[1]) ** 2
    outside = r2 > radius * radius
    assert np.all(res.potential.values[outside] == 0.0)
    assert res.diagnostics["imag_to_real_ratio"] < 0.05
    assert "realness_warning" not in res.diagnostics


def test_options_validation(box_grid):
    with pytest.raises(TypeError, match="spatial_grid"):
        ReconstructionOptions()
    with pytest.raises(ValueError):
        ReconstructionOptions(box_grid, estimator="mode")
    with pytest.raises(ValueError):
        ReconstructionOptions(box_grid, taper_fraction=1.0)
    with pytest.raises(ValueError):
        ReconstructionOptions(box_grid, mask_fraction_limit=0.0)
