import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless.exceptions import EnergyShellError, OutOfBallError
from phaseless.geometry import (
    EnergySet,
    channel,
    channel_table,
    channels_on_grid,
    check_shell,
)
from phaseless.grids import GridSpec


def test_channel_known_point():
    ch = channel(1.0, (1.0, 0.0))
    assert len(ch) == 1 and ch.node is None
    assert_allclose(ch.incident, [(0.5, np.sqrt(3) / 2)], atol=1e-15)
    assert_allclose(ch.outgoing, [(-0.5, np.sqrt(3) / 2)], atol=1e-15)
    assert_allclose(ch.transverse, [(0.0, 1.0)])
    assert_allclose(ch.transfer, [(1.0, 0.0)])


def _ball_points(dim):
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    return st.tuples(
        st.floats(0.5, 500.0, allow_nan=False),
        st.lists(unit, min_size=dim, max_size=dim),
        st.floats(0.0, 1.0, allow_nan=False),
    )


@settings(max_examples=200, deadline=None)
@given(_ball_points(2))
@example((1.0, [0.0, 1.0], 4.20993163139155e-160))  # |p|^2 is subnormal
@example((1.0, [0.0, 8.876485733260173e-158], 1.0))  # |d|^2 is subnormal
@example((1.0, [0.0, 2.225073858507e-311], 1.0))  # d is subnormal
@example((1.0, [5e-324, 5e-324], 1.0))  # hypot of the raw d rounds to 5e-324
def test_channel_invariants_2d(draw):
    E, direction, frac = draw
    # scaling by a power of two is exact and brings max |d_a| into [0.5, 1):
    # hypot of a subnormal d rounds, and d / norm would leave the unit sphere
    d = np.ldexp(direction, -np.frexp(np.max(np.abs(direction)))[1])
    norm = math.hypot(*d)
    if norm == 0.0:
        p = np.zeros(2)
    else:
        p = (2.0 * np.sqrt(E) * frac) * (d / norm)
    ch = channel(E, p)
    k, l = ch.incident[0], ch.outgoing[0]
    assert abs(k @ k - E) <= 1e-12 * E
    assert abs(l @ l - E) <= 1e-12 * E
    assert np.linalg.norm((k - l) - p) <= 1e-13 * (1.0 + np.sqrt(E))
    t = ch.transverse[0]
    assert abs(t @ p) <= 1e-12 * (1.0 + np.linalg.norm(p))
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(_ball_points(3))
@example((1.0, [0.0, 1.0, 0.0], 2.1e-160))  # |p|^2 is subnormal
@example((1.0, [0.0, 5e-324, 5e-324], 1.0))  # hypot of the raw d rounds to 5e-324
def test_channel_invariants_3d(draw):
    E, direction, frac = draw
    d = np.ldexp(direction, -np.frexp(np.max(np.abs(direction)))[1])
    norm = math.hypot(*d)
    if norm == 0.0:
        p = np.zeros(3)
    else:
        p = (2.0 * np.sqrt(E) * frac) * (d / norm)
    ch = channel(E, p)
    k, l = ch.incident[0], ch.outgoing[0]
    assert abs(k @ k - E) <= 1e-12 * E
    assert abs(l @ l - E) <= 1e-12 * E
    assert np.linalg.norm((k - l) - p) <= 1e-13 * (1.0 + np.sqrt(E))


def test_ball_boundary_degenerates_to_backscattering():
    E = 4.0
    p = np.array([4.0, 0.0])
    ch = channel(E, p)
    assert_allclose(ch.incident, [p / 2])
    assert_allclose(ch.outgoing, [-p / 2])


def test_transfer_outside_ball_rejected():
    with pytest.raises(OutOfBallError):
        channel(4.0, (4.0 + 1e-6, 0.0))
    with pytest.raises(ValueError):
        channel(-1.0, (0.1, 0.0))


def test_transverse_unit_conventions():
    # the table's transverse column: p turned by +90 degrees, a fixed
    # axis at p = 0, and its negative under the mirrored convention
    assert_allclose(channel(30.0, (0.0, 0.0)).transverse, [(0.0, 1.0)])
    assert_allclose(channel(30.0, (0.0, 0.0, 0.0)).transverse, [(0.0, 0.0, 1.0)])
    t = channel(30.0, (3.0, 4.0)).transverse
    assert_allclose(t, [(-0.8, 0.6)])
    assert_allclose(channel(30.0, (3.0, 4.0), convention="mirror").transverse, -t)
    with pytest.raises(ValueError):
        channel(30.0, (1.0, 0.0), convention="sideways")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=3))
def test_transverse_unit_3d(coords):
    p = np.asarray(coords)
    # squaring coordinates below ~1e-150 underflows to subnormals and
    # costs the normalization a digit; irrelevant at physical scales
    assume(np.linalg.norm(p) == 0.0 or np.linalg.norm(p) > 1e-9)
    t = channel(75.0, p).transverse[0]  # every |p| <= 5 sqrt(3) is inside the ball
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-12
    assert abs(t @ p) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_channels_on_grid_partitions_nodes():
    pg = GridSpec(2, 16, (-4.0, -4.0), (4.0, 4.0)).dual()
    chans, skipped = channels_on_grid(4.0, pg)
    assert len(chans) + len(skipped) == pg.node_count
    limit = 2.0 * np.sqrt(4.0)
    assert np.all(np.linalg.norm(chans.transfer, axis=1) <= limit)
    nodes = pg.nodes()
    for idx in skipped:
        assert np.linalg.norm(nodes[idx]) > limit


def _edge_transfers(E, dim):
    e1 = np.eye(dim)[0]
    return np.array(
        [
            np.zeros(dim),  # p = 0
            np.full(dim, 5e-324),  # subnormal components
            4.2e-160 * np.eye(dim)[1],  # |p|^2 is subnormal
            2.0 * np.sqrt(E) * e1,  # |p| = 2 sqrt(E): back-scattering
            -0.7 * np.sqrt(E) * e1,  # 3-D: the cross product with e1 vanishes
            0.5 * np.sqrt(E) * e1 + 1e-13 * np.eye(dim)[1],  # nearly parallel to e1
        ]
    )


def _vector_channel(E, p, convention):
    """(transverse, incident, outgoing) by the one-vector construction, a bitwise reference."""
    q2 = float(p @ p)
    big = max(map(abs, p.tolist()))
    s = np.ldexp(p, -math.frexp(big)[1]) if big > 0.0 else p
    q = float(np.linalg.norm(s))
    if q == 0.0:
        t = np.eye(len(p))[-1]
    elif len(p) == 2:
        t = np.array([-s[1], s[0]]) / q
    else:
        for e in np.eye(3):
            cross = np.cross(s, e)
            norm = float(np.linalg.norm(cross))
            if norm > 1e-12 * q:
                t = cross / norm
                break
    if convention == "mirror":
        t = -t
    shift = np.sqrt(max(E - 0.25 * q2, 0.0)) * t
    return t, 0.5 * p + shift, shift - 0.5 * p


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_channel_table_rows_equal_single_channels(data):
    dim = data.draw(st.sampled_from([2, 3]))
    E = data.draw(st.floats(0.5, 500.0))
    convention = data.draw(st.sampled_from(["default", "mirror"]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    draws = data.draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), max_size=16))
    p = np.array(draws, dtype=float).reshape(-1, dim) * (2.0 * np.sqrt(E / dim))
    p = np.vstack([p, _edge_transfers(E, dim)])
    table = channel_table(E, p, convention)
    assert len(table) == len(p)
    for row, pr in enumerate(p):
        ch = channel(E, pr, convention)
        for name in ("energy", "transfer", "transverse", "incident", "outgoing"):
            assert getattr(table, name)[row].tobytes() == getattr(ch, name)[0].tobytes()
        want = _vector_channel(E, pr, convention)
        got = (table.transverse[row], table.incident[row], table.outgoing[row])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 16), (3, 8)]), st.floats(0.25, 40.0))
def test_channels_on_grid_rows_complement_skipped_nodes(shape, E):
    dim, n = shape
    pg = GridSpec(dim, n, (-4.0,) * dim, (4.0,) * dim).dual()
    table, skipped = channels_on_grid(E, pg)
    nodes = pg.nodes()
    inside = np.array([np.linalg.norm(p) <= 2.0 * np.sqrt(E) for p in nodes])
    assert table.node.dtype == np.intp
    assert np.array_equal(table.node, np.flatnonzero(inside))
    assert np.array_equal(table.transfer, nodes[inside])
    assert skipped.dtype == np.intp
    assert np.array_equal(skipped, np.flatnonzero(~inside))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 16), (3, 8)]),
    st.lists(st.floats(0.25, 40.0), min_size=1, max_size=4),
    st.sampled_from(["default", "mirror"]),
)
def test_channels_on_grid_of_several_energies_concatenates_single_calls(shape, energies, convention):
    dim, n = shape
    pg = GridSpec(dim, n, (-4.0,) * dim, (4.0,) * dim).dual()
    table, skipped = channels_on_grid(energies, pg, convention)
    singles = [channels_on_grid(E, pg, convention) for E in energies]
    for name in ("energy", "transfer", "transverse", "incident", "outgoing", "node"):
        want = np.concatenate([getattr(t, name) for t, _ in singles])
        got = getattr(table, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    # the nodes outside every ball are those outside the largest one
    assert skipped.dtype == np.intp
    assert np.array_equal(skipped, singles[int(np.argmax(energies))][1])


def test_channels_on_grid_rejects_bad_energies():
    pg = GridSpec(2, 8, (-4.0, -4.0), (4.0, 4.0)).dual()
    for E in (0.0, -1.0, [4.0, 0.0]):
        with pytest.raises(ValueError, match="energy must be positive"):
            channels_on_grid(E, pg)
    for E in ([], [[4.0]]):
        with pytest.raises(ValueError, match="one energy or a non-empty sequence"):
            channels_on_grid(E, pg)


def test_channel_table_rejects_rows_outside_ball():
    with pytest.raises(OutOfBallError):
        channel_table(4.0, [(1.0, 0.0), (4.0 + 1e-6, 0.0)])
    with pytest.raises(ValueError):
        channel_table([4.0, 0.0], [(1.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        channel_table(4.0, [(1.0, 0.0, 0.0, 0.0)])


def test_channel_shell_enforced_on_construction():
    # the one shell rule: each row's |k|^2 and |l|^2 within relative 1e-12
    # of the larger of it and E, NaN off the shell; the error names the
    # first offending row, its vector, that vector's energy and E
    k = np.array([(0.5, np.sqrt(3) / 2), (0.6, np.sqrt(3) / 2), (0.5, np.sqrt(3) / 2)])
    l = np.array([(-0.5, np.sqrt(3) / 2), (-0.5, np.sqrt(3) / 2), (np.nan, 0.0)])
    check_shell(1.0, k[:1], l[:1], 2)
    check_shell(1.0 + 1e-13, k[:1], l[:1], 2)
    with pytest.raises(EnergyShellError, match=r"^channel 1: incident energy 1.1\d* is off the shell E=1.0$"):
        check_shell(1.0, k, l, 2)
    with pytest.raises(EnergyShellError, match=r"^channel 1: outgoing energy nan is off the shell E=1.0$"):
        check_shell([1.0, 1.0], k[::2], l[::2], 2)
    with pytest.raises(EnergyShellError, match=r"^channel 0: incident energy [.\d]+ is off the shell E=nan$"):
        check_shell(np.nan, k[:1], l[:1], 2)
    with pytest.raises(ValueError, match="shape"):
        check_shell(1.0, k, l[:2], 2)
    with pytest.raises(ValueError, match="shape"):
        check_shell(1.0, k, l, 3)


def test_channel_table_puts_nan_rows_off_the_shell():
    # a NaN energy is off the shell: it fails the shell rule, not a later
    # numerical step, and never yields a NaN channel
    with pytest.raises(EnergyShellError):
        channel_table(9.0, [[np.nan, 0.0]])
    with pytest.raises(EnergyShellError):
        channel_table(9.0, [[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]])


def test_energy_set_rules():
    es = EnergySet((1.0, 2.0, 4.0))
    assert es.top == 4.0
    assert len(es) == 3
    assert list(es) == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        EnergySet((2.0, 1.0))
    with pytest.raises(ValueError):
        EnergySet(())
