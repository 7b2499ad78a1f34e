"""Compactly supported test potentials and their closed-form transforms.

Two primitive shapes are supported: a ball indicator and a radially
truncated Gaussian bump.  A potential is a finite sum of primitives, each
with a complex amplitude.  Closed-form transforms follow the convention
u_hat(p) = (2*pi)^(-d) * integral e^{+i p.x} u(x) dx, so translating a
primitive by y multiplies its transform by e^{i p.y}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .exceptions import SupportOutsideBoxError, UnsupportedPrimitiveError
from .grids import GridSpec, ScalarField, expi, row_dot
from .jsonread import array, choice, convert, identity, integer, number, numbers, obj, take
from .special import j0, j1_over_x

__all__ = [
    "BallPrimitive",
    "GaussianPrimitive",
    "PotentialSpec",
    "rasterize",
    "analytic_hat",
    "grid_hats",
    "support_distance",
    "sup_weighted_norm",
    "spec_to_dict",
    "spec_from_dict",
]


def _check_primitive(prim, name: str, *lengths) -> None:
    """Store ``prim``'s center as floats and amplitude as complex; check the ranges.

    Center and amplitude must be finite, and each of ``lengths`` (``name``
    in the error) positive and finite.
    """
    object.__setattr__(prim, "center", tuple(float(c) for c in prim.center))
    object.__setattr__(prim, "amplitude", complex(prim.amplitude))
    if not all(map(math.isfinite, prim.center)) or not cmath.isfinite(prim.amplitude):
        raise ValueError("primitive center and amplitude must be finite")
    if not all(0 < x < math.inf for x in lengths):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class BallPrimitive:
    """amplitude * indicator(|x - center| <= radius)."""

    center: tuple[float, ...]
    radius: float
    amplitude: complex = 1.0

    def __post_init__(self):
        _check_primitive(self, "ball radius", self.radius)

    @property
    def support_radius(self) -> float:
        return self.radius

    def translate(self, y) -> "BallPrimitive":
        c = tuple(ci + yi for ci, yi in zip(self.center, y))
        return BallPrimitive(c, self.radius, self.amplitude)


@dataclass(frozen=True)
class GaussianPrimitive:
    """amplitude * exp(-|x-center|^2 / (2 width^2)), cut off at |x-c| > cutoff.

    The cutoff keeps the support compact; the closed-form transform accounts
    for the removed tail by a radial quadrature, so it is exact for the
    truncated profile, not just the infinite one.
    """

    center: tuple[float, ...]
    width: float
    cutoff: float
    amplitude: complex = 1.0

    def __post_init__(self):
        _check_primitive(self, "width and cutoff", self.width, self.cutoff)

    @property
    def support_radius(self) -> float:
        return self.cutoff

    def translate(self, y) -> "GaussianPrimitive":
        c = tuple(ci + yi for ci, yi in zip(self.center, y))
        return GaussianPrimitive(c, self.width, self.cutoff, self.amplitude)


Primitive = Union[BallPrimitive, GaussianPrimitive]


@dataclass(frozen=True)
class PotentialSpec:
    """A finite sum of primitives sharing one ambient dimension."""

    dim: int
    components: tuple[Primitive, ...]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            if len(comp.center) != self.dim:
                raise ValueError("primitive center dimension mismatch")

    @classmethod
    def ball(cls, center, radius, amplitude=1.0) -> "PotentialSpec":
        return cls(len(center), (BallPrimitive(center, radius, amplitude),))

    @classmethod
    def gaussian(cls, center, width, cutoff, amplitude=1.0) -> "PotentialSpec":
        return cls(len(center), (GaussianPrimitive(center, width, cutoff, amplitude),))

    def translate(self, y) -> "PotentialSpec":
        y = tuple(float(v) for v in y)
        if len(y) != self.dim:
            raise ValueError("shift dimension mismatch")
        return PotentialSpec(self.dim, tuple(c.translate(y) for c in self.components))

    def __add__(self, other: "PotentialSpec") -> "PotentialSpec":
        if other.dim != self.dim:
            raise ValueError("cannot combine potentials of different dimension")
        return PotentialSpec(self.dim, self.components + other.components)

    def support_balls(self) -> list[tuple[np.ndarray, float]]:
        return [
            (np.asarray(c.center, dtype=float), c.support_radius)
            for c in self.components
        ]

    def is_zero(self) -> bool:
        return all(abs(c.amplitude) == 0 for c in self.components) or not self.components


def rasterize(spec: PotentialSpec, grid: GridSpec) -> ScalarField:
    """Pointwise node samples of the potential, with its support mask.

    Raises SupportOutsideBoxError unless every primitive support ball lies
    strictly inside the grid box.
    """
    if spec.dim != grid.dim:
        raise ValueError("potential and grid dimension mismatch")
    for center, radius in spec.support_balls():
        if not grid.contains_ball(center, radius):
            raise SupportOutsideBoxError(
                f"support ball (center {tuple(center.tolist())}, radius {radius}) "
                f"is not strictly inside the grid box"
            )
    values = np.zeros(grid.shape, dtype=np.complex128)
    mask = np.zeros(grid.shape, dtype=bool)
    for comp in spec.components:
        r2 = grid.sq_distances(comp.center)
        if isinstance(comp, BallPrimitive):
            inside = r2 <= comp.radius**2
            values[inside] += comp.amplitude
        elif isinstance(comp, GaussianPrimitive):
            inside = r2 <= comp.cutoff**2
            values[inside] += comp.amplitude * np.exp(
                -r2[inside] / (2.0 * comp.width**2)
            )
        else:  # pragma: no cover - guarded by the dataclass union
            raise UnsupportedPrimitiveError(str(type(comp)))
        mask |= inside
    values[~mask] = 0.0
    return ScalarField(grid, values, mask)


# --- closed-form transforms -------------------------------------------------


def _ball_hat_radial(q: np.ndarray, radius: float, dim: int) -> np.ndarray:
    """Transform of the unit ball indicator at |p| = q, center 0, without
    the (2*pi)^(-d) normalization already folded in here.

    d=2: R * J1(R q) / (2*pi*q), limit R^2/(4*pi) at q=0.
    d=3: (2*pi)^(-3) * 4*pi * (sin(Rq) - Rq cos(Rq)) / q^3.
    """
    z = radius * np.asarray(q, dtype=float)
    if dim == 2:
        # (R^2 / (2*pi)) * J1(z)/z
        return radius**2 / (2.0 * np.pi) * j1_over_x(z)
    # (R^3 / (2*pi^2)) * (sin z - z cos z)/z^3
    small = z < 1e-6
    zs = z[small]
    zl = z[~small]
    ratio = np.empty(z.shape)
    ratio[small] = 1.0 / 3.0 - zs**2 / 30.0 + zs**4 / 840.0
    ratio[~small] = (np.sin(zl) - zl * np.cos(zl)) / zl**3
    return radius**3 / (2.0 * np.pi**2) * ratio


@lru_cache(maxsize=64)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


# Gauss-Legendre orders of the tail integral; each point takes the
# smallest one that resolves its own oscillation, so a point's value does
# not depend on the other points of the call.
_TAIL_ORDERS = (120, 240, 480, 960, 1920, 3840, 4000)


def _gaussian_tail(q: np.ndarray, width: float, cutoff: float, dim: int) -> np.ndarray:
    """(2*pi)^(-d) * integral over |u| > cutoff of e^{i p.u} e^{-|u|^2/2w^2} du.

    Reduced to a radial integral (Bessel J0 weight in 2-D, sinc in 3-D) and
    evaluated by Gauss-Legendre on [cutoff, cutoff + 12 w]; the integrand
    has decayed to ~e^{-72} at the far end.
    """
    q = np.asarray(q, dtype=float)
    upper = cutoff + 12.0 * width
    jac = 0.5 * (upper - cutoff)
    # enough nodes for the oscillation q*(b-a) plus margin
    need = np.fmin(6.0 * q * (upper - cutoff), _TAIL_ORDERS[-1])
    orders = np.take(_TAIL_ORDERS, np.searchsorted(_TAIL_ORDERS, need))
    out = np.empty(q.shape)
    for order in sorted(set(orders.tolist())):  # np.unique would import numpy.ma
        sel = orders == order
        xg, wg = _gauss_legendre(order)
        r = jac * (xg + 1.0) + cutoff
        prof = np.exp(-(r**2) / (2.0 * width**2))
        qr = np.multiply.outer(q[sel], r)
        if dim == 2:
            kern = (1.0 / (2.0 * np.pi)) * jac * (j0(qr) * (r * prof))
        else:
            sinc = np.where(qr == 0.0, 1.0, np.sin(qr) / np.where(qr == 0.0, 1.0, qr))
            kern = (1.0 / (2.0 * np.pi**2)) * jac * (sinc * (r**2 * prof))
        out[sel] = row_dot(kern, wg)
    return out


def _gaussian_hat_radial(q: np.ndarray, width: float, cutoff: float, dim: int) -> np.ndarray:
    full = (2.0 * np.pi) ** (-dim) * (2.0 * np.pi * width**2) ** (dim / 2.0) * np.exp(
        -(width**2) * np.asarray(q, dtype=float) ** 2 / 2.0
    )
    return full - _gaussian_tail(q, width, cutoff, dim)


def _radial(comp: Primitive, q: np.ndarray, dim: int) -> np.ndarray:
    """The radial profile of one component's transform at the radii ``q``."""
    if isinstance(comp, BallPrimitive):
        return _ball_hat_radial(q, comp.radius, dim)
    if isinstance(comp, GaussianPrimitive):
        return _gaussian_hat_radial(q, comp.width, comp.cutoff, dim)
    raise UnsupportedPrimitiveError(str(type(comp)))


def analytic_hat(spec: PotentialSpec, p) -> np.ndarray:
    """Closed-form transform of the potential at momenta ``p``.

    ``p`` may be a single vector of length d or an array (..., d); returns
    complex values of matching leading shape.  Raises
    UnsupportedPrimitiveError for primitive kinds without a closed form.
    """
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = np.atleast_2d(p)
    if pts.shape[-1] != spec.dim:
        raise ValueError("momentum dimension mismatch")
    # |p| column by column: the bits of norm(pts, axis=-1), without its
    # reduction over rows of two or three
    q = pts[:, 0] * pts[:, 0]
    for a in range(1, spec.dim):
        q += pts[:, a] * pts[:, a]
    np.sqrt(q, out=q)
    out = np.zeros(q.shape, dtype=np.complex128)
    for comp in spec.components:
        phase = expi(row_dot(pts, comp.center))
        out += comp.amplitude * phase * _radial(comp, q, spec.dim)
    return out[0] if single else out


def grid_hats(specs, grid: GridSpec, radii: np.ndarray) -> list[np.ndarray]:
    """Closed-form transform of each of ``specs`` at every node of ``grid``, flat row-major.

    ``radii`` are grid.radii().  Each component's radial profile is
    evaluated once per distinct |p|, so it keeps analytic_hat's bits; the
    phase e^{i p.c} is grid.wave(c), the product of the per-axis factors
    e^{i p_a c_a}, which moves each value from analytic_hat's by rounding
    only.
    """
    distinct, inverse = np.unique(radii, return_inverse=True)
    out = []
    for spec in specs:
        if spec.dim != grid.dim:
            raise ValueError("momentum dimension mismatch")
        total = np.zeros(grid.node_count, dtype=np.complex128)
        for comp in spec.components:
            term = grid.wave(comp.center).reshape(-1)
            term *= _radial(comp, distinct, spec.dim)[inverse]
            term *= comp.amplitude
            total += term
        out.append(total)
    return out


# --- geometry helpers on supports -------------------------------------------


def support_distance(a: PotentialSpec, b: PotentialSpec) -> float:
    """Smallest gap between the support-ball unions (negative if overlapping)."""
    best = np.inf
    for ca, ra in a.support_balls():
        for cb, rb in b.support_balls():
            gap = float(np.linalg.norm(ca - cb)) - (ra + rb)
            best = min(best, gap)
    return best


def sup_weighted_norm(spec: PotentialSpec, sigma: float, samples: int = 4001) -> float:
    """Upper bound for sup_x (1+|x|^2)^(sigma/2) |v(x)| over the support.

    Exact for a single ball; a dense radial scan for Gaussian bumps; the
    triangle inequality is used across components, so overlapping
    primitives yield a valid (possibly loose) bound.
    """
    total = 0.0
    for comp in spec.components:
        dist = float(np.linalg.norm(comp.center))
        if isinstance(comp, BallPrimitive):
            far = dist + comp.radius
            total += abs(comp.amplitude) * (1.0 + far**2) ** (sigma / 2.0)
        else:
            r = np.linspace(0.0, comp.cutoff, samples)
            prof = np.exp(-(r**2) / (2.0 * comp.width**2))
            weight = (1.0 + (dist + r) ** 2) ** (sigma / 2.0)
            total += abs(comp.amplitude) * float(np.max(prof * weight))
    return total


# each primitive kind's class and the fields of its JSON form
_PRIMITIVES = {
    "ball": (BallPrimitive, ("center", "radius", "amplitude")),
    "gaussian": (GaussianPrimitive, ("center", "width", "cutoff", "amplitude")),
}
_KINDS = {cls: kind for kind, (cls, _) in _PRIMITIVES.items()}


def _complex_to_json(z: complex):
    return [z.real, z.imag] if z.imag != 0.0 else z.real


def _complex_from_json(value) -> complex:
    """A number, or a list [re, im] of two numbers."""
    if not isinstance(value, list):
        return complex(number(value))
    re, im = numbers(value)
    return complex(re, im)


# the JSON form of each primitive field: (reader, writer)
_LENGTH = (number, identity)
_FIELDS = {
    "center": (numbers, list),
    "radius": _LENGTH,
    "width": _LENGTH,
    "cutoff": _LENGTH,
    "amplitude": (_complex_from_json, _complex_to_json),
}


def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-ready description of a PotentialSpec, inverse of spec_from_dict."""
    comps = []
    for comp in spec.components:
        kind = _KINDS[type(comp)]
        fields = _PRIMITIVES[kind][1]
        comps.append({"kind": kind, **{f: _FIELDS[f][1](getattr(comp, f)) for f in fields}})
    return {"dim": spec.dim, "components": comps}


def _primitive_from_json(data, context: str) -> Primitive:
    """One component: its "kind" picks its class and the fields it takes."""
    kind = convert(data, obj, context).get("kind")
    cls, fields = _PRIMITIVES[convert(kind, choice(tuple(_PRIMITIVES)), f"{context}.kind")]
    got = take(data, context, {"kind": identity, **{f: _FIELDS[f][0] for f in fields}}, {})
    del got["kind"]
    return convert(got, lambda kw: cls(**kw), context)


def spec_from_dict(data, context: str = "spec") -> PotentialSpec:
    """The PotentialSpec of JSON form ``data``, as spec_to_dict writes it.

    Unknown keys, values of the wrong JSON type, non-finite numbers and
    values a primitive or PotentialSpec rejects are each a ConfigError
    that names the key path under ``context``.
    """
    got = take(data, context, {"dim": integer, "components": array}, {})
    comps = tuple(
        _primitive_from_json(item, f"{context}.components[{i}]")
        for i, item in enumerate(got["components"])
    )
    return convert((got["dim"], comps), lambda args: PotentialSpec(*args), context)
