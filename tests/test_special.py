import warnings

import numpy as np
import pytest
import scipy.special as sp

from phaseless import special
from phaseless.special import hankel1, j0, j1, j1_over_x, y0, y1

TINY = [0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-4]


def _zeros(count):
    """The first ``count`` zeros of J0, J1, Y0 and Y1."""
    return np.concatenate(
        [sp.jn_zeros(0, count), sp.jn_zeros(1, count), sp.yn_zeros(0, count), sp.yn_zeros(1, count)]
    )


def _samples():
    rng = np.random.default_rng(7)
    near_split = 8.0 + np.concatenate([np.linspace(-1e-3, 1e-3, 201), [-1e-15, 0.0, 1e-15]])
    zeros = _zeros(20)
    near_zeros = (zeros[:, None] + np.linspace(-1e-6, 1e-6, 21)[None, :]).ravel()
    return np.concatenate(
        [
            TINY,
            np.linspace(1e-3, 200.0, 4001),
            rng.uniform(0.0, 200.0, 4000),
            near_split,
            zeros,
            near_zeros,
            [200.0],
        ]
    )


def _scipy_hankel(n, x):
    """scipy's H_n^(1); where it gives nan at tiny x, J + iY from scipy's j and y."""
    ref = sp.hankel1(n, x)
    bad = ~np.isfinite(ref)
    ref.real[bad] = (sp.j0, sp.j1)[n](x[bad])
    ref.imag[bad] = (sp.y0, sp.y1)[n](x[bad])
    return ref


def test_j0_j1_match_scipy_absolutely():
    x = _samples()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got0, got1 = j0(x), j1(x)
    assert np.max(np.abs(got0 - sp.j0(x))) <= 5e-15
    assert np.max(np.abs(got1 - sp.j1(x))) <= 5e-15


@pytest.mark.parametrize("order", [0, 1])
def test_hankel1_matches_scipy_relatively(order):
    x = _samples()
    x = x[x > 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hankel1(order, x)
    ref = _scipy_hankel(order, x)
    finite = np.isfinite(ref)
    rel = np.abs(got[finite] - ref[finite]) / np.abs(ref[finite])
    assert np.max(rel) <= 1e-14
    # Y1 overflows to -inf at 5e-324 in both
    assert np.array_equal(got[~finite], ref[~finite])


def test_values_at_zero_are_exact_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert j0(0.0) == 1.0
        assert j1(0.0) == 0.0
        assert j1_over_x(0.0) == 0.5
        assert y0(0.0) == -np.inf
        assert y1(0.0) == -np.inf
        assert hankel1(0, 0.0) == complex(1.0, -np.inf)
        assert hankel1(1, np.array([0.0, 5e-324])).tolist() == [complex(0.0, -np.inf)] * 2


def test_j1_over_x_keeps_subnormal_and_large_arguments():
    x = np.array(TINY + [1e-3, 0.5, 7.9, 8.0, 8.1, 30.0, 200.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = j1_over_x(x)
    assert np.max(np.abs(got * x - sp.j1(x))) <= 5e-15
    tiny = x <= 1e-8
    assert np.all(np.abs(got[tiny] - 0.5) <= 1e-16)


def test_wronskian_without_scipy():
    # J1 Y0 - J0 Y1 = 2/(pi x), on both sides of the split at x = 8
    x = np.geomspace(1e-3, 1e4, 40001)
    w = j1(x) * y0(x) - j0(x) * y1(x)
    assert np.max(np.abs(w * (np.pi * x / 2.0) - 1.0)) <= 1e-14


def test_phase_reduction_matches_cos_and_sin_of_x():
    # below the reduction limit the phase comes from cos and sin of a
    # reduced argument; compare with the direct combination of cos(x) and
    # sin(x), which the module uses above it
    x = np.concatenate([np.geomspace(8.0, 4.0 * special._REDUCE_MAX, 4001), [special._REDUCE_MAX]])
    c, s = np.cos(x), np.sin(x)
    cos0, sin0 = (c + s) / np.sqrt(2.0), (s - c) / np.sqrt(2.0)
    for order, want in ((0, (cos0, sin0)), (1, (sin0, -cos0))):
        got = special._phase(order, x)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-15


def test_shapes_scalars_and_domain():
    assert isinstance(j0(3.0), np.floating)
    assert isinstance(hankel1(1, 3.0), np.complexfloating)
    grid = np.linspace(0.0, 20.0, 12).reshape(3, 4)
    assert j1(grid).shape == (3, 4)
    assert np.array_equal(hankel1(0, grid).real, j0(grid))
    assert np.array_equal(hankel1(1, grid).imag, y1(grid))
    for bad in (-1.0, -5e-324, np.nan, np.inf):
        with pytest.raises(ValueError):
            j0(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        hankel1(2, 1.0)


def test_values_do_not_depend_on_the_batch():
    # evaluation runs in blocks and splits each block at x = 8; a value
    # must come out bit for bit the same in any batch that holds it
    x = np.random.default_rng(11).uniform(0.0, 40.0, 20000)
    for f in (j1_over_x, lambda v: hankel1(0, v), lambda v: hankel1(1, v)):
        whole = f(x)
        for part in (slice(1, None), slice(8190, 8195), slice(None, None, 7), slice(12345, 12346)):
            assert f(x[part]).tobytes() == whole[part].tobytes()
        assert f(x[3]).tobytes() == whole[3].tobytes()
