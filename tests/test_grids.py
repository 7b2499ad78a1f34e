import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless.exceptions import ConfigError, GridMismatchError
from phaseless.grids import GridSpec, ScalarField, SpectralField, column_norms, intensity


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


@pytest.mark.parametrize("dim", [2, 3])
def test_per_axis_helpers_match_the_per_node_forms(dim):
    g = GridSpec(dim, 12, (-1.5, -0.7, 0.2)[:dim], (1.2, 2.0, 3.1)[:dim])
    nodes = g.nodes()
    center = (0.3, -0.45, 1.7)[:dim]
    r2 = (nodes[:, 0] - center[0]) ** 2
    for a in range(1, dim):
        r2 = r2 + (nodes[:, a] - center[a]) ** 2
    assert g.sq_distances(center).shape == g.shape
    assert g.sq_distances(center).reshape(-1).tobytes() == r2.tobytes()
    assert g.radii().tobytes() == np.linalg.norm(nodes, axis=1).tobytes()
    v = (3.7, -2.9, 5.3)[:dim]
    assert g.wave(v).shape == g.shape
    assert_allclose(g.wave(v).reshape(-1), np.exp(1j * (nodes @ v)), rtol=1e-14, atol=0.0)


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
    # an array keeps its shape, each value its bits
    table = z.reshape(8, 8)
    assert intensity(table).shape == (8, 8)
    assert intensity(table).tobytes() == intensity(z).tobytes()


@pytest.mark.parametrize("m", [88, 377, 3000])
def test_column_norms_give_a_column_its_bits_in_any_blocking(rng, m):
    r = rng.standard_normal((m, 40)) + 1j * rng.standard_normal((m, 40))
    batch = column_norms(r)
    alone = np.concatenate([column_norms(r[:, c : c + 1]) for c in range(40)])
    blocked = np.concatenate([column_norms(r[:, lo : lo + 7]) for lo in range(0, 40, 7)])
    fortran = column_norms(np.asfortranarray(r))
    assert batch.tobytes() == alone.tobytes() == blocked.tobytes() == fortran.tobytes()
    ref = np.linalg.norm(r, axis=0)
    assert np.max(np.abs(batch - ref) / ref) <= 1e-14


@pytest.mark.parametrize(
    "n, lo, hi, message",
    [
        (8, -1e-320, 1e-320, "invalid box extent"),
        (8, -1e308, 1e308, "invalid box extent"),
        (8, 1.0, -1.0, "invalid box extent"),
        (10**300, -1.0, 1.0, "exceed a numpy index"),
        (2**32, -1.0, 1.0, "exceed a numpy index"),
        # one complex128 field of 1.6e17 bytes; no array is built to find that out
        (10**8, -1.0, 1.0, "exceeds the .* bytes of physical memory"),
        (8, -1e300, 1e300, "squared distance on the box or its dual overflows"),
        (8, -1e-200, 1e-200, "squared distance on the box or its dual overflows"),
    ],
    ids=["dual-not-finite", "extent-overflows", "inverted", "huge-n", "n-squared-beyond-intp",
         "field-beyond-memory", "box-squares-overflow", "dual-squares-overflow"],
)
def test_gridspec_rejects_a_box_without_a_finite_dual_or_too_many_nodes(n, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(2, n, (lo, lo), (hi, hi))


def test_gridspec_squared_distances_stay_finite_at_a_large_box():
    g = GridSpec(3, 8, (-1e150,) * 3, (1e150,) * 3)
    assert np.all(np.isfinite(g.sq_distances(g.box_min))) and np.all(np.isfinite(g.dual().radii()))
