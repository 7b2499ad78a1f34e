"""Bessel functions J0, J1, Y0 and Y1 of finite real argument x >= 0, in numpy only.

These are all the special functions the forward map needs: the 2-D
kernel -(i/4) H0^(1)(k|x|), the singular-cell integral with H1^(1), and
the disc transform R J1(R|p|)/(2 pi |p|).  The method is the classical
one (Moshier, "Methods and Programs for Mathematical Functions", 1989):

x <= 8, in u = x^2/32 - 1, with the logarithm split off for Y:

    J0(x) = A0(u)
    J1(x) = x A1(u)
    Y0(x) = (2/pi) ln(x) J0(x) + B0(u)
    Y1(x) = (2/pi) ln(x) J1(x) - 2/(pi x) + x B1(u)

x > 8, the Hankel asymptotic form in t = (8/x)^2, theta_n = x - (2n+1) pi/4:

    Jn(x) = sqrt(2/(pi x)) (Pn(t) cos(theta_n) - Qn(t)/x sin(theta_n))
    Yn(x) = sqrt(2/(pi x)) (Pn(t) sin(theta_n) + Qn(t)/x cos(theta_n))

with theta_n reduced against pi/4 in three parts (Cody-Waite), so no
rounded multiple of pi enters the phase.  The polynomials are
Chebyshev interpolants rewritten in the power basis; tools/fit_bessel.py
computes them, and the split of pi/4, and states their error.  Against scipy.special on
[0, 200], J0 and J1 agree within 5e-15 absolute and H0, H1 within 1e-14
relative (tests/test_special.py).  At x = 0, J0 = 1, J1 = 0 and
Y0 = Y1 = -inf, with no floating-point warning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["j0", "j1", "j1_over_x", "y0", "y1", "hankel1"]

_SPLIT = 8.0
_BLOCK = 8192
_TWO_OVER_PI = 2.0 / np.pi
# pi/4 = _PIO4_A + _PIO4_B + _PIO4_C to 1e-31; A and B have 24 significant
# bits, so k A and k B are exact for odd k < 2^29, which x <= _REDUCE_MAX keeps
_PIO4_A, _PIO4_B, _PIO4_C = 0.7853981852531433, -2.1855694143368964e-08, -8.575622497214414e-16
_REDUCE_MAX = 2.0**28
# cos and sin of q pi/2, q = 0..3
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])

# tables of tools/fit_bessel.py, highest degree first
_A0 = (
    -1.243301171273326e-11, 3.3794626319436793e-10, -7.91532308295207e-09,
    1.5955848859935914e-07, -2.717749223632098e-06, 3.847320005801417e-05,
    -0.0004435459224311503, 0.004058078988108771, -0.028472718610882047,
    0.14598884856785538, -0.5074680458471, 1.0383794611436883, -0.8080888076696872,
    -0.6484692830871821, 0.9303012472958572, 0.045829664859813754,
)
_A1 = (
    1.1658972367678622e-11, -2.9580309461613664e-10, 6.431190177265836e-09,
    -1.1966856610655616e-07, 1.8684526037206013e-06, -2.4045750380401832e-05,
    0.0002494945813597261, -0.002029039493866671, 0.012456814392263375,
    -0.05474581821299505, 0.15858376432721838, -0.2595948652859166, 0.15151665143806636,
    0.08105866038589758, -0.05814382795599107,
)
_B0 = (
    2.6926938054524057e-11, -7.165821913752182e-10, 1.6390875014077404e-08,
    -3.218450383864968e-07, 5.3213188103997145e-06, -7.279542368660281e-05,
    0.000806158605961636, -0.0070257410549918785, 0.046367047681375125,
    -0.21895747096229642, 0.6721770783431679, -1.077547733821527, 0.14412632369302475,
    1.6470964788745432, -0.8284358903604587, -0.38225065445942497,
)
_B1 = (
    -2.499531546171249e-11, 6.202538033356882e-10, -1.3153147367094951e-08,
    2.380443767044983e-07, -3.601000022590458e-06, 4.467433389052664e-05,
    -0.0004438173434420147, 0.0034224907383790058, -0.01962875683311711,
    0.07854786922274869, -0.19639839859930203, 0.2350720920666676, 0.02336757172099348,
    -0.24337743079193033, 0.07075985882118005,
)
_P0 = (
    -2.0995666028197915e-10, 1.5085549601351533e-09, -5.175933954877116e-09,
    1.1847433676494211e-08, -2.229296496119801e-08, 4.259621569036549e-08,
    -1.020738967079073e-07, 3.619796847019117e-07, -2.18391370916552e-06,
    2.7380883396213333e-05, -0.0010986328124940497, 1.0,
)
_Q0 = (
    8.343629085650415e-10, -6.543141786839604e-09, 2.393189038835657e-08,
    -5.5210690608518625e-08, 9.320008125314423e-08, -1.3038704802686792e-07,
    1.74322061386305e-07, -2.6209968625940577e-07, 5.12863259559859e-07,
    -1.453123830093762e-06, 6.590752592961311e-06, -5.5446289303758166e-05,
    0.0011444091796849237, -0.125,
)
_P1 = (
    2.2371765561506739e-10, -1.6090449520262866e-09, 5.529994111163271e-09,
    -1.2695697232698128e-08, 2.4020357187056722e-08, -4.6345375285662205e-08,
    1.1283619641156013e-07, -4.102481413356521e-07, 2.580989644711851e-06,
    -3.520399300493312e-05, 0.0018310546874936876, 1.0,
)
_Q1 = (
    -8.813949314644882e-10, 6.915307190963234e-09, -2.5311385663179643e-08,
    5.8460012918413346e-08, -9.88742569675978e-08, 1.387854757111491e-07,
    -1.866131397992775e-07, 2.8316902412580495e-07, -5.617335776528589e-07,
    1.624084069588725e-06, -7.604715014392994e-06, 6.776768695661047e-05,
    -0.0016021728515597871, 0.375,
)

_SMALL_J = (_A0, _A1)
_SMALL_Y = (_B0, _B1)


def _stacked(p, q) -> np.ndarray:
    """(degree + 1, 2, 1) table: Horner on it evaluates P and Q as the rows of one array."""
    table = np.zeros((max(len(p), len(q)), 2, 1))
    table[len(table) - len(p) :, 0, 0] = p
    table[len(table) - len(q) :, 1, 0] = q
    return table


_LARGE = (_stacked(_P0, _Q0), _stacked(_P1, _Q1))


def _horner(coef, v: np.ndarray) -> np.ndarray:
    out = coef[0] * v
    out += coef[1]
    for c in coef[2:]:
        out *= v
        out += c
    return out


def _small(n: int, x: np.ndarray, want_y: bool, over_x: bool):
    """(Jn or J1/x, Yn or None) for 0 <= x <= 8."""
    u = x * x
    u *= 1.0 / 32.0
    u -= 1.0
    j = _horner(_SMALL_J[n], u)
    zero = x == 0.0
    if n == 0:
        j[zero] = 1.0  # A0(-1) carries the rounding of its sum
    elif not over_x:
        j *= x
    if not want_y:
        return j, None
    y = _horner(_SMALL_Y[n], u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 1:
            y *= x
            y -= _TWO_OVER_PI / x
        y += _TWO_OVER_PI * np.log(x) * j
    y[zero] = -np.inf
    return j, y


def _phase(n: int, x: np.ndarray):
    """cos and sin of theta_n = x - (2n + 1) pi/4, for x > 8.

    theta_0 = m pi/2 + r with m = floor(2x/pi), so |r| <= pi/4, and
    r = x - (2m + 1) pi/4 by Cody-Waite: (2m + 1) times the 24-bit parts
    of pi/4 is exact below _REDUCE_MAX, so r carries no rounding of x,
    and cos and sin of so small an r are cheaper than of x.  Beyond
    _REDUCE_MAX cos(x) and sin(x) are combined instead.
    """
    m = x * _TWO_OVER_PI
    np.floor(m, out=m)
    k = 2.0 * m
    k += 1.0
    r = x - k * _PIO4_A
    r -= k * _PIO4_B
    r -= k * _PIO4_C
    cos_r, sin_r = np.cos(r), np.sin(r)
    # theta_n = quadrant pi/2 + r: rotate (cos r, sin r) by a multiple of pi/2
    quadrant = m.astype(np.int64)
    quadrant -= n
    quadrant &= 3
    cos_q, sin_q = _COS_QUARTER[quadrant], _SIN_QUARTER[quadrant]
    cos_th = cos_r * cos_q
    cos_th -= sin_r * sin_q
    sin_th = sin_r * cos_q
    sin_th += cos_r * sin_q
    huge = x > _REDUCE_MAX
    if huge.any():
        c, s = np.cos(x[huge]), np.sin(x[huge])
        # sqrt(2) cos(theta_0) = c + s, sqrt(2) sin(theta_0) = s - c
        cos0, sin0 = (c + s) * np.sqrt(0.5), (s - c) * np.sqrt(0.5)
        cos_th[huge], sin_th[huge] = (cos0, sin0) if n == 0 else (sin0, -cos0)
    return cos_th, sin_th


def _large(n: int, x: np.ndarray, want_y: bool, over_x: bool):
    """(Jn or J1/x, Yn or None) for x > 8."""
    t = _SPLIT / x
    t *= t
    p, q = _horner(_LARGE[n], t)
    q /= x
    cos_th, sin_th = _phase(n, x)
    amp = np.sqrt(_TWO_OVER_PI / x)
    if over_x:
        amp /= x
    j = p * cos_th
    j -= q * sin_th
    j *= amp
    if not want_y:
        return j, None
    y = p * sin_th
    y += q * cos_th
    y *= amp
    return j, y


def _bessel(n: int, x, want_y: bool, over_x: bool = False):
    """(Jn, or J1/x with ``over_x``; Yn or None) as arrays of the shape of ``x``.

    Evaluated _BLOCK values at a time, so the temporaries of a block
    stay in cache and on malloc's heap.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not ((flat >= 0.0) & (flat < np.inf)).all():  # NaN fails both
        raise ValueError("Bessel functions are implemented for finite x >= 0 only")
    j = np.empty(flat.shape)
    y = np.empty(flat.shape) if want_y else None
    for lo in range(0, flat.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        small = flat[block] <= _SPLIT
        count = np.count_nonzero(small)
        if count in (0, small.size):
            parts = [(_small if count else _large, slice(None))]
        else:
            parts = [(_small, np.flatnonzero(small)), (_large, np.flatnonzero(~small))]
        for part, idx in parts:
            js, ys = part(n, flat[block][idx], want_y, over_x)
            j[block][idx] = js
            if want_y:
                y[block][idx] = ys
    return j.reshape(x.shape), (y.reshape(x.shape) if want_y else None)


def j0(x) -> np.ndarray:
    """J0(x) for x >= 0."""
    return _bessel(0, x, False)[0][()]


def j1(x) -> np.ndarray:
    """J1(x) for x >= 0."""
    return _bessel(1, x, False)[0][()]


def j1_over_x(x) -> np.ndarray:
    """J1(x)/x for x >= 0, 1/2 at 0; no division on x <= 8, so subnormal x lose nothing."""
    return _bessel(1, x, False, over_x=True)[0][()]


def y0(x) -> np.ndarray:
    """Y0(x) for x >= 0; -inf at 0."""
    return _bessel(0, x, True)[1][()]


def y1(x) -> np.ndarray:
    """Y1(x) for x >= 0; -inf at 0 and where 2/(pi x) overflows."""
    return _bessel(1, x, True)[1][()]


def hankel1(n: int, x) -> np.ndarray:
    """H_n^(1)(x) = Jn(x) + i Yn(x) for order n in {0, 1} and x >= 0."""
    if n not in (0, 1):
        raise ValueError("hankel1 is implemented for orders 0 and 1 only")
    j, y = _bessel(n, x, True)
    out = np.empty(j.shape, dtype=np.complex128)
    out.real = j
    out.imag = y
    return out[()]
