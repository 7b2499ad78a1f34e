import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless.exceptions import ConfigError, GridMismatchError
from phaseless.grids import GridSpec, ScalarField, SpectralField, intensity


def test_axis_left_closed_right_open():
    g = GridSpec(2, 16, (-1.5, -1.5), (1.5, 1.5))
    ax = g.axis(0)
    assert ax[0] == -1.5
    assert_allclose(ax[-1], 1.5 - 3.0 / 16)
    assert_allclose(g.spacing, (3.0 / 16, 3.0 / 16))
    assert_allclose(g.cell_volume, (3.0 / 16) ** 2)


def test_shape_and_node_count():
    g = GridSpec(3, 8, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    assert g.shape == (8, 8, 8)
    assert g.node_count == 512
    nodes = g.nodes()
    assert nodes.shape == (512, 3)
    assert_allclose(nodes[0], (-1.0, -1.0, -1.0))


def test_nodes_row_major_order():
    g = GridSpec(2, 8, (0.0, 0.0), (1.0, 1.0))
    nodes = g.nodes()
    # second node advances the last axis
    assert_allclose(nodes[1], (0.0, 0.125))
    assert_allclose(nodes[8], (0.125, 0.0))


def test_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 16, (0,) * 4, (1,) * 4)
    with pytest.raises(ValueError):
        GridSpec(2, 4, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        GridSpec(2, 16, (0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(2, 16, (0.0, 0.0), (1.0, 1.0, 1.0))
    # single values broadcast to every axis
    assert GridSpec(2, 16, -1.0, 1.0).box_max == (1.0, 1.0)


def test_dual_spacing_and_involution():
    g = GridSpec(2, 16, (-1.5, -1.5), (1.5, 1.5))
    d = g.dual()
    assert_allclose(d.spacing[0], 2.0 * np.pi / 3.0)
    # dual box is centered regardless of the spatial box position
    assert_allclose(d.box_min[0], -d.box_max[0])
    assert d.dual() == g


def test_dual_anisotropic():
    g = GridSpec(2, 16, (-1.0, -2.0), (1.0, 2.0))
    d = g.dual()
    assert_allclose(d.spacing[0], 2.0 * np.pi / 2.0)
    assert_allclose(d.spacing[1], 2.0 * np.pi / 4.0)


def test_contains_ball():
    g = GridSpec(2, 16, (-1.0, -1.0), (1.0, 1.0))
    assert g.contains_ball((0.0, 0.0), 0.5)
    assert not g.contains_ball((0.8, 0.0), 0.5)
    # strict containment excludes touching the boundary
    assert not g.contains_ball((0.0, 0.0), 1.0)


def test_key_round_trip():
    g = GridSpec(2, 16, (-1.5, -1.5), (1.5, 1.5))
    h = GridSpec(2, 16, (-1.5, -1.5), (1.5, 1.5))
    assert g == h
    assert g != GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))


class TestScalarField:
    def test_shape_validation(self):
        g = GridSpec(2, 8, (0, 0), (1, 1))
        with pytest.raises(GridMismatchError):
            ScalarField(g, np.zeros((8, 4)))

    def test_l2_norm_matches_quadrature(self):
        g = GridSpec(2, 8, (0, 0), (1, 1))
        vals = np.ones(g.shape)
        f = ScalarField(g, vals)
        assert_allclose(f.l2_norm(), 1.0)


def test_spectral_field_carries_spatial_grid():
    spatial = GridSpec(2, 8, (-1.0, -1.0), (1.0, 1.0))
    dual = spatial.dual()
    s = SpectralField(dual, np.zeros(dual.shape, dtype=complex), spatial)
    assert s.spatial_grid == spatial
    with pytest.raises(GridMismatchError):
        SpectralField(dual, np.zeros((3, 3), dtype=complex), spatial)


def test_intensity_is_pythons_square_of_each_modulus(rng):
    z = rng.standard_normal(64) * 10.0 ** rng.integers(-160, 150, 64) + 1j * rng.standard_normal(64)
    z[:3] = [0.0, complex(5e-324, -5e-324), complex(-0.0, 1e154)]
    assert intensity(z).tobytes() == np.array([abs(v) ** 2 for v in z.tolist()]).tobytes()
    with pytest.raises(ConfigError, match="overflows a float"):
        intensity(np.array([1.0, 1e300j]))


@pytest.mark.parametrize(
    "n, lo, hi, message",
    [
        (8, -1e-320, 1e-320, "invalid box extent"),
        (8, -1e308, 1e308, "invalid box extent"),
        (8, 1.0, -1.0, "invalid box extent"),
        (10**300, -1.0, 1.0, "exceed a numpy index"),
        (2**32, -1.0, 1.0, "exceed a numpy index"),
    ],
    ids=["dual-not-finite", "extent-overflows", "inverted", "huge-n", "n-squared-beyond-intp"],
)
def test_gridspec_rejects_a_box_without_a_finite_dual_or_too_many_nodes(n, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(2, n, (lo, lo), (hi, hi))
