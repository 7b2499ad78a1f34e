import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless.exceptions import EnergyShellError, OutOfBallError
from phaseless.geometry import (
    EnergySet,
    ScatteringChannel,
    channel,
    channels_on_grid,
    transverse_unit,
)
from phaseless.grids import GridSpec


def test_channel_known_point():
    ch = channel(1.0, (1.0, 0.0))
    assert_allclose(ch.incident, (0.5, np.sqrt(3) / 2), atol=1e-15)
    assert_allclose(ch.outgoing, (-0.5, np.sqrt(3) / 2), atol=1e-15)
    assert_allclose(ch.transverse, (0.0, 1.0))
    assert_allclose(ch.transfer_norm, 1.0)


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
def test_channel_invariants_2d(draw):
    E, direction, frac = draw
    d = np.asarray(direction)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        p = np.zeros(2)
    else:
        p = (2.0 * np.sqrt(E) * frac / norm) * d
    ch = channel(E, p)
    k = np.asarray(ch.incident)
    l = np.asarray(ch.outgoing)
    assert abs(k @ k - E) <= 1e-12 * E
    assert abs(l @ l - E) <= 1e-12 * E
    assert np.linalg.norm((k - l) - p) <= 1e-13 * (1.0 + np.sqrt(E))
    t = np.asarray(ch.transverse)
    assert abs(t @ p) <= 1e-12 * (1.0 + np.linalg.norm(p))
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(_ball_points(3))
@example((1.0, [0.0, 1.0, 0.0], 2.1e-160))  # |p|^2 is subnormal
def test_channel_invariants_3d(draw):
    E, direction, frac = draw
    d = np.asarray(direction)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        p = np.zeros(3)
    else:
        p = (2.0 * np.sqrt(E) * frac / norm) * d
    ch = channel(E, p)
    k = np.asarray(ch.incident)
    l = np.asarray(ch.outgoing)
    assert abs(k @ k - E) <= 1e-12 * E
    assert abs(l @ l - E) <= 1e-12 * E
    assert np.linalg.norm((k - l) - p) <= 1e-13 * (1.0 + np.sqrt(E))


def test_ball_boundary_degenerates_to_backscattering():
    E = 4.0
    p = np.array([4.0, 0.0])
    ch = channel(E, p)
    assert_allclose(ch.incident, p / 2)
    assert_allclose(ch.outgoing, -p / 2)


def test_transfer_outside_ball_rejected():
    with pytest.raises(OutOfBallError):
        channel(4.0, (4.0 + 1e-6, 0.0))
    with pytest.raises(ValueError):
        channel(-1.0, (0.1, 0.0))


def test_transverse_unit_conventions():
    assert_allclose(transverse_unit((0.0, 0.0)), (0.0, 1.0))
    assert_allclose(transverse_unit((0.0, 0.0, 0.0)), (0.0, 0.0, 1.0))
    t = transverse_unit((3.0, 4.0))
    assert_allclose(t, (-0.8, 0.6))
    assert_allclose(transverse_unit((3.0, 4.0), convention="mirror"), -t)
    with pytest.raises(ValueError):
        transverse_unit((1.0, 0.0), convention="sideways")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=3))
def test_transverse_unit_3d(coords):
    p = np.asarray(coords)
    # squaring coordinates below ~1e-150 underflows to subnormals and
    # costs the normalization a digit; irrelevant at physical scales
    assume(np.linalg.norm(p) == 0.0 or np.linalg.norm(p) > 1e-9)
    t = transverse_unit(p, 3)
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-12
    assert abs(t @ p) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_channels_on_grid_partitions_nodes():
    pg = GridSpec(2, 16, (-4.0, -4.0), (4.0, 4.0)).dual()
    chans, skipped = channels_on_grid(4.0, pg)
    assert len(chans) + len(skipped) == pg.node_count
    limit = 2.0 * np.sqrt(4.0)
    for ch in chans:
        assert ch.transfer_norm <= limit
    nodes = pg.nodes().reshape(pg.shape + (2,))
    for idx in skipped:
        assert np.linalg.norm(nodes[idx]) > limit


def test_channel_shell_enforced_on_construction():
    with pytest.raises(EnergyShellError):
        ScatteringChannel(
            energy=1.0,
            transfer=(1.0, 0.0),
            transverse=(0.0, 1.0),
            incident=(0.6, np.sqrt(3) / 2),
            outgoing=(-0.5, np.sqrt(3) / 2),
        )


def test_energy_set_rules():
    es = EnergySet((1.0, 2.0, 4.0))
    assert es.top == 4.0
    assert len(es) == 3
    assert list(es) == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        EnergySet((2.0, 1.0))
    with pytest.raises(ValueError):
        EnergySet(())
    with pytest.raises(ValueError):
        EnergySet((1.0, 2.0), mode="clustered")
    clustered = EnergySet((1.0, 1.5, 1.9), mode="clustered", accumulation=2.0)
    assert clustered.accumulation == 2.0
