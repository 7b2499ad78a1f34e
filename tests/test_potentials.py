from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import j1

from phaseless import potentials
from phaseless.exceptions import BackgroundValidationError, SupportOutsideBoxError
from phaseless.geometry import EnergySet
from phaseless.grids import GridSpec
from phaseless.potentials import (
    BallPrimitive,
    GaussianPrimitive,
    PotentialSpec,
    analytic_hat,
    grid_hats,
    rasterize,
    spec_from_dict,
    spec_to_dict,
    sup_weighted_norm,
    support_distance,
)
from phaseless.synthesis import BackgroundSet, synthesize

# Independent midpoint-quadrature values for the transform with the
# e^{+ip.x} kernel, 2048^2 nodes over the support bounding box.  The
# ball values carry the quadrature's own boundary error (~2e-7); the
# smooth gaussian integrates to ~1e-10.
BALL_HAT_ORACLE = {
    (0.0, 0.0): (0.00497372685996815, 0.0),
    (2.0943951023931953, 0.0): (0.0038874976675744768, 0.0028244323830145064),
    (3.5, -1.25): (0.0011919640530778743, 0.004293576633481645),
    (12.0, 5.0): (-0.0006323352697148985, 0.0003804107565976819),
}
GAUSS_HAT_ORACLE = {
    (0.0, 0.0): (0.00160400939254205, 0.0),
    (2.5, 1.0): (0.0012120655394687921, -0.0009214175551425092),
    (-7.0, 3.0): (-0.0008024775695938359, -0.0006875332177810489),
}


def test_ball_hat_against_quadrature_oracle():
    v = PotentialSpec.ball((0.3, -0.2), 0.25, 1.0)
    for p, (re, im) in BALL_HAT_ORACLE.items():
        got = analytic_hat(v, np.array(p))
        assert abs(got - complex(re, im)) < 3e-7


def test_gaussian_hat_against_quadrature_oracle():
    v = PotentialSpec.gaussian((-0.4, 0.35), width=0.12, cutoff=0.5, amplitude=0.7)
    for p, (re, im) in GAUSS_HAT_ORACLE.items():
        got = analytic_hat(v, np.array(p))
        assert abs(got - complex(re, im)) < 1e-9


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_analytic_hat_rows_equal_single_point_calls(dim, kind):
    # a batched call must not depend on its batch: every row bit for bit
    # equals the call on that point alone, including p = 0 and points whose
    # Gaussian tail needs a larger quadrature order than the batch minimum
    center = (0.31, -0.27, 0.13)[:dim]
    if kind == "ball":
        v = PotentialSpec.ball(center, 0.25, 1.0)
    else:
        v = PotentialSpec.gaussian(center, width=0.12, cutoff=0.5, amplitude=0.7)
    rng = np.random.default_rng(11 + dim)
    ps = rng.uniform(-40.0, 40.0, size=(300, dim))
    ps[0] = 0.0
    ps[1] = 1e-160
    batched = analytic_hat(v, ps)
    for p, got in zip(ps, batched):
        single = analytic_hat(v, p)
        assert got.real == single.real and got.imag == single.imag


def _recording_radial():
    """A stand-in for potentials._radial that records (component, q, profile) per call."""
    calls = []
    radial = potentials._radial

    def record(comp, q, dim):
        out = radial(comp, q, dim)
        calls.append((comp, q.copy(), out.copy()))
        return out

    return calls, mock.patch.object(potentials, "_radial", record)


def _hat_in_chunks(spec, nodes):
    # analytic_hat is point-wise, so chunks only bound its temporaries
    return np.concatenate([analytic_hat(spec, c) for c in np.array_split(nodes, -(-len(nodes) // 4096))])


@st.composite
def _components(draw, dim):
    center = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(dim))
    amplitude = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    if draw(st.booleans()):
        return BallPrimitive(center, draw(st.floats(0.05, 0.6)), amplitude)
    width = draw(st.floats(0.02, 0.1))
    return GaussianPrimitive(center, width, draw(st.floats(1.5, 4.0)) * width, amplitude)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), n=st.integers(8, 40))
def test_grid_scan_matches_analytic_hat(data, dim, n):
    # the probe grid of an anisotropic box: one scan gives every node's
    # radius and radial profile value bit for bit, and the transform to
    # rounding of the per-axis phase
    half = [data.draw(st.floats(2.0, 5.0)) for _ in range(dim)]
    lo = [-h * data.draw(st.floats(0.6, 1.0)) for h in half]
    pg = GridSpec(dim, n, tuple(lo), tuple(half)).dual()
    specs = [
        PotentialSpec(dim, tuple(data.draw(st.lists(_components(dim), min_size=1, max_size=3))))
        for _ in range(data.draw(st.integers(1, 2)))
    ]
    nodes = pg.nodes()
    norms = np.linalg.norm(nodes, axis=1)
    radii = pg.radii()
    assert radii.tobytes() == norms.tobytes()
    calls, recording = _recording_radial()
    with recording:
        hats = grid_hats(specs, pg, radii)
    distinct, inverse = np.unique(norms, return_inverse=True)
    assert [c for c, _, _ in calls] == [c for spec in specs for c in spec.components]
    for comp, q, profile in calls:
        assert q.tobytes() == distinct.tobytes()
        assert profile[inverse].tobytes() == potentials._radial(comp, norms, dim).tobytes()
    for spec, hat in zip(specs, hats):
        truth = _hat_in_chunks(spec, nodes)
        assert np.max(np.abs(hat - truth)) <= 1e-14 * np.max(np.abs(truth))


@pytest.mark.parametrize(
    "dim, n, distinct", [(2, 128, 2723), (3, 24, 755), (2, 64, 759)],
    ids=["oracle-2d", "oracle-3d-one-ref", "full-2d"],
)
def test_reference_scan_evaluates_each_radius_once(dim, n, distinct):
    # the probe grids of the benchmark workloads, duals of [-1.5, 1.5)^d
    pg = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim).dual()
    refs = BackgroundSet(
        (PotentialSpec.ball((-0.93, -0.61, 0.2)[:dim], 0.3), PotentialSpec.ball((0.88, 0.79, -0.1)[:dim], 0.45))
    )
    calls, recording = _recording_radial()
    with recording:
        refs.scan(pg)
    expected = np.unique(np.linalg.norm(pg.nodes(), axis=1))
    assert len(calls) == 2 and expected.size == distinct
    assert all(q.tobytes() == expected.tobytes() for _, q, _ in calls)


def test_ball_hat_closed_form_cross_check():
    # second independent route: centered ball transform is
    # A (2pi)^-2 e^{ip.c} 2 pi R J1(R|p|)/|p|
    center = np.array([0.3, -0.2])
    R, A = 0.25, 1.0
    v = PotentialSpec.ball(tuple(center), R, A)
    rng = np.random.default_rng(5)
    ps = rng.uniform(-15, 15, size=(50, 2))
    pn = np.linalg.norm(ps, axis=1)
    expected = (
        A
        * (2 * np.pi) ** -2
        * np.exp(1j * ps @ center)
        * 2.0
        * np.pi
        * R
        * j1(R * pn)
        / pn
    )
    assert_allclose(analytic_hat(v, ps), expected, atol=1e-14)


def test_hat_at_zero_is_scaled_volume():
    v = PotentialSpec.ball((0.0, 0.0), 0.5, 2.0)
    expected = 2.0 * np.pi * 0.25 / (2 * np.pi) ** 2
    assert_allclose(analytic_hat(v, np.zeros(2)), expected, rtol=1e-14)


def test_hat_linearity_of_sum():
    a = PotentialSpec.ball((0.2, 0.0), 0.3, 1.0)
    b = PotentialSpec.gaussian((-0.5, 0.4), width=0.1, cutoff=0.35, amplitude=0.5)
    p = np.array([[1.2, -0.7], [4.0, 2.0]])
    assert_allclose(analytic_hat(a + b, p), analytic_hat(a, p) + analytic_hat(b, p), rtol=1e-14)


def test_translate_phase_law():
    v = PotentialSpec.ball((0.0, 0.0), 0.4, 1.0)
    y = np.array([0.3, -0.7])
    p = np.array([[2.0, 1.0], [-3.0, 0.5]])
    shifted = v.translate(tuple(y))
    assert_allclose(analytic_hat(shifted, p), analytic_hat(v, p) * np.exp(1j * p @ y), rtol=1e-13)


def test_rasterize_pointwise_ball(box_grid, off_center_ball):
    f = rasterize(off_center_ball, box_grid)
    nodes = box_grid.nodes()
    r = np.linalg.norm(nodes - np.array([0.3, -0.2]), axis=1)
    expected = np.where(r <= 0.25, 1.0, 0.0)
    assert_allclose(f.values.reshape(-1), expected)


def test_rasterize_requires_support_inside_box():
    g = GridSpec(2, 16, (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(SupportOutsideBoxError) as info:
        rasterize(PotentialSpec.ball((0.9, 0.0), 0.3, 1.0), g)
    # plain floats, not numpy scalar reprs
    assert str(info.value) == (
        "support ball (center (0.9, 0.0), radius 0.3) is not strictly inside the grid box"
    )


def test_rasterized_mass_converges_to_ball_area():
    v = PotentialSpec.ball((0.1, 0.05), 0.5, 1.0)
    masses = []
    for n in (32, 128):
        g = GridSpec(2, n, (-1.0, -1.0), (1.0, 1.0))
        f = rasterize(v, g)
        masses.append(float(np.sum(f.values.real) * g.cell_volume))
    exact = np.pi * 0.25
    assert abs(masses[1] - exact) < abs(masses[0] - exact)
    assert abs(masses[1] - exact) < 4e-3


def test_support_distance_and_disjoint():
    a = PotentialSpec.ball((0.0, 0.0), 0.3, 1.0)
    b = PotentialSpec.ball((1.0, 0.0), 0.3, 1.0)
    assert_allclose(support_distance(a, b), 0.4, rtol=1e-12)
    pgrid = GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual()
    assert synthesize(a, BackgroundSet((b,)), EnergySet((4.0,)), pgrid).rows
    # synthesize wants a strictly positive gap: touching counts as overlapping
    for center in ((0.5, 0.0), (0.6, 0.0)):
        refs = BackgroundSet((PotentialSpec.ball(center, 0.3, 1.0),))
        with pytest.raises(BackgroundValidationError, match="overlaps"):
            synthesize(a, refs, EnergySet((4.0,)), pgrid)
    # |c_a - c_b|^2 of centres near 1e300 overflows a float; the distance does not
    far = PotentialSpec.ball((1e300, 1e300), 0.3, 1.0)
    assert support_distance(far, a) == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)


def test_sup_weighted_norm_ball_exact():
    # weight (1+|x|^2)^(sigma/2) peaks at the far edge of the support
    v = PotentialSpec.ball((0.0, 0.0), 1.0, 1.0)
    assert_allclose(sup_weighted_norm(v, 4.0), 4.0, rtol=1e-6)
    off = PotentialSpec.ball((2.0, 0.0), 0.5, 1.0)
    assert_allclose(sup_weighted_norm(off, 2.0), 7.25, rtol=1e-6)
    assert_allclose(sup_weighted_norm(off, 0.0), 1.0, rtol=1e-12)


def test_gaussian_cutoff_is_hard():
    v = PotentialSpec.gaussian((0.0, 0.0), width=0.5, cutoff=0.6, amplitude=1.0)
    g = GridSpec(2, 64, (-1.0, -1.0), (1.0, 1.0))
    f = rasterize(v, g)
    nodes = g.nodes()
    outside = np.linalg.norm(nodes, axis=1) > 0.6
    assert np.all(f.values.reshape(-1)[outside] == 0.0)


def test_spec_serialization_round_trip():
    v = PotentialSpec.ball((0.3, -0.2), 0.25, 1.0) + PotentialSpec.gaussian(
        (0.44, 0.0), width=0.035, cutoff=0.12, amplitude=0.8j
    )
    d = spec_to_dict(v)
    back = spec_from_dict(d)
    assert spec_to_dict(back) == d
    p = np.array([[1.0, 2.0], [0.5, -1.5]])
    assert_allclose(analytic_hat(back, p), analytic_hat(v, p), rtol=1e-15)


def test_spec_from_dict_rejects_unknown_kind():
    with pytest.raises(Exception):
        spec_from_dict({"dim": 2, "components": [{"kind": "torus"}]})


def test_primitive_validation():
    with pytest.raises(ValueError):
        BallPrimitive((0.0, 0.0), -0.1, 1.0)
    with pytest.raises(ValueError):
        GaussianPrimitive((0.0, 0.0), -0.5, 0.2, 1.0)
    with pytest.raises(ValueError):
        PotentialSpec.ball((0.0, 0.0), 0.2, 1.0).translate((1.0,))
    # the closed forms scale with R^d: 1e150 squares to a float but does not cube to one
    assert np.isfinite(analytic_hat(PotentialSpec.ball((0.0, 0.0), 1e150), np.zeros((1, 2))))
    with pytest.raises(ValueError, match="ball radius must be positive, with a finite power 3"):
        BallPrimitive((0.0, 0.0, 0.0), 1e150)
    with pytest.raises(ValueError, match="width and cutoff must be positive, with a finite power 2"):
        GaussianPrimitive((0.0, 0.0), 0.1, 1e300)


def test_foreign_component_is_rejected_at_construction():
    # a look-alike with a center and a radius has no closed-form transform
    lookalike = SimpleNamespace(center=(0.0, 0.0), radius=0.2, amplitude=1.0)
    with pytest.raises(TypeError, match="BallPrimitive or GaussianPrimitive, not SimpleNamespace"):
        PotentialSpec(2, (lookalike,))


def test_is_zero():
    assert PotentialSpec(2, ()).is_zero()
    assert not PotentialSpec.ball((0, 0), 0.1, 1.0).is_zero()
