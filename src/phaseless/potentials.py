"""Compactly supported test potentials and their closed-form transforms.

Two primitive shapes are supported: a ball indicator and a radially
truncated Gaussian bump.  A potential is a finite sum of primitives, each
with a complex amplitude.  Closed-form transforms follow the convention
u_hat(p) = (2*pi)^(-d) * integral e^{+i p.x} u(x) dx, so translating a
primitive by y multiplies its transform by e^{i p.y}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .exceptions import SupportOutsideBoxError, UnsupportedPrimitiveError
from .grids import GridSpec, ScalarField, row_dot
from .special import j0, j1_over_x

__all__ = [
    "BallPrimitive",
    "GaussianPrimitive",
    "PotentialSpec",
    "rasterize",
    "analytic_hat",
    "support_distance",
    "sup_weighted_norm",
    "spec_to_dict",
    "spec_from_dict",
]


@dataclass(frozen=True)
class BallPrimitive:
    """amplitude * indicator(|x - center| <= radius)."""

    center: tuple[float, ...]
    radius: float
    amplitude: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

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
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not (self.width > 0 and self.cutoff > 0):
            raise ValueError("width and cutoff must be positive")

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
        center = tuple(float(c) for c in center)
        return cls(len(center), (BallPrimitive(center, radius, amplitude),))

    @classmethod
    def gaussian(cls, center, width, cutoff, amplitude=1.0) -> "PotentialSpec":
        center = tuple(float(c) for c in center)
        return cls(
            len(center), (GaussianPrimitive(center, width, cutoff, amplitude),)
        )

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
        if not grid.contains_ball(center, radius, strict=True):
            raise SupportOutsideBoxError(
                f"support ball (center {tuple(center)}, radius {radius}) "
                f"is not strictly inside the grid box"
            )
    mesh = grid.meshgrid()
    values = np.zeros(grid.shape, dtype=np.complex128)
    mask = np.zeros(grid.shape, dtype=bool)
    for comp in spec.components:
        r2 = np.zeros(grid.shape)
        for a in range(grid.dim):
            r2 += (mesh[a] - comp.center[a]) ** 2
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


def _expi(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} as cos + i sin, as numpy's complex exp forms it for a zero real part.

    Two real functions into one complex array cost about two thirds of
    np.exp(1j * theta), which also builds the complex argument.
    """
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


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
        phase = _expi(row_dot(pts, comp.center))
        if isinstance(comp, BallPrimitive):
            radial = _ball_hat_radial(q, comp.radius, spec.dim)
        elif isinstance(comp, GaussianPrimitive):
            radial = _gaussian_hat_radial(q, comp.width, comp.cutoff, spec.dim)
        else:
            raise UnsupportedPrimitiveError(str(type(comp)))
        out += comp.amplitude * phase * radial
    return out[0] if single else out


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


def _complex_to_json(z: complex):
    z = complex(z)
    return [z.real, z.imag] if z.imag != 0.0 else z.real


def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-ready description of a PotentialSpec, inverse of spec_from_dict."""
    comps = []
    for comp in spec.components:
        if isinstance(comp, BallPrimitive):
            comps.append(
                {
                    "kind": "ball",
                    "center": list(comp.center),
                    "radius": comp.radius,
                    "amplitude": _complex_to_json(comp.amplitude),
                }
            )
        elif isinstance(comp, GaussianPrimitive):
            comps.append(
                {
                    "kind": "gaussian",
                    "center": list(comp.center),
                    "width": comp.width,
                    "cutoff": comp.cutoff,
                    "amplitude": _complex_to_json(comp.amplitude),
                }
            )
        else:  # pragma: no cover - the union covers both kinds
            raise UnsupportedPrimitiveError(type(comp).__name__)
    return {"dim": spec.dim, "components": comps}


def _amplitude_from_json(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(float(value))


def spec_from_dict(data: dict) -> PotentialSpec:
    dim = int(data["dim"])
    comps: list[Primitive] = []
    for item in data["components"]:
        kind = item["kind"]
        amp = _amplitude_from_json(item["amplitude"])
        center = tuple(float(c) for c in item["center"])
        if kind == "ball":
            comps.append(BallPrimitive(center, float(item["radius"]), amp))
        elif kind == "gaussian":
            comps.append(
                GaussianPrimitive(
                    center, float(item["width"]), float(item["cutoff"]), amp
                )
            )
        else:
            raise UnsupportedPrimitiveError(f"unknown primitive kind {kind!r}")
    return PotentialSpec(dim, tuple(comps))
