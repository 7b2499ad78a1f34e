"""Outgoing-wave kernel of the Helmholtz operator and related constants.

The kernel G(x, k) solves (Laplacian + k^2) G = delta with outgoing
radiation behavior at infinity:

    d=2:  G(x, k) = -(i/4) * H0^(1)(k |x|)
    d=3:  G(x, k) = -e^{i k |x|} / (4 pi |x|)

The far-field normalizer c(d, k) relates the scattered wave's leading
coefficient along direction x/|x| to the scattering amplitude:
scattered ~ c(d, k) * e^{i k |x|} / |x|^((d-1)/2) * f.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ZeroDisplacementError
from .special import hankel1

__all__ = [
    "radial_green",
    "outgoing_green",
    "far_field_coefficient",
    "singular_cell_weight",
]


def radial_green(r, kmag: float, dim: int) -> np.ndarray:
    """Kernel value at distance(s) ``r`` > 0: the closed forms above."""
    if dim == 2:
        return -0.25j * hankel1(0, kmag * r)
    if dim == 3:
        return -np.exp(1j * kmag * r) / (4.0 * np.pi * r)
    raise ValueError("dim must be 2 or 3")


def outgoing_green(x, kmag: float, dim: int) -> np.ndarray:
    """Kernel value at displacement(s) ``x`` for wavenumber ``kmag``.

    ``x`` is a vector of length ``dim`` or an array (..., dim).  Any zero
    displacement raises ZeroDisplacementError; use singular_cell_weight
    for integrals across the singularity.
    """
    if kmag <= 0:
        raise ValueError("wavenumber must be positive")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    r = np.linalg.norm(np.atleast_2d(x), axis=-1)
    if np.any(r == 0.0):
        raise ZeroDisplacementError("kernel is singular at zero displacement")
    out = radial_green(r, kmag, dim)
    return out[0] if single else out


def far_field_coefficient(dim: int, kmag: float) -> complex:
    """c(d, k) = -pi*i * (-2*pi*i)^((d-1)/2) * k^((d-3)/2), principal branch.

    d=3, k=1 gives -2*pi^2.
    """
    if kmag <= 0:
        raise ValueError("wavenumber must be positive")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return complex(
        -np.pi * 1j * (-2.0j * np.pi) ** ((dim - 1) / 2.0) * kmag ** ((dim - 3) / 2.0)
    )


def singular_cell_weight(kmag: float, dim: int, cell_volume: float) -> complex:
    """Integral of the kernel over the singular quadrature cell.

    The cell is replaced by the disc (d=2) or ball (d=3) of equal area or
    volume centered on the singularity, where the radial integral has a
    closed form:

    d=2, disc radius a:   1/k^2 - (i pi a / (2 k)) H1^(1)(k a)
    d=3, ball radius a:   i a e^{ika}/k - (e^{ika} - 1)/k^2

    Off-center cells use plain midpoint weights; this weight replaces only
    the diagonal so the composite rule integrates the singularity exactly
    on the equal-measure cell.
    """
    if kmag <= 0:
        raise ValueError("wavenumber must be positive")
    if cell_volume <= 0:
        raise ValueError("cell volume must be positive")
    if dim == 2:
        a = np.sqrt(cell_volume / np.pi)
        return complex(
            1.0 / kmag**2 - 0.5j * np.pi * a / kmag * hankel1(1, kmag * a)
        )
    if dim == 3:
        a = (3.0 * cell_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
        eika = np.exp(1j * kmag * a)
        return complex(1j * a * eika / kmag - (eika - 1.0) / kmag**2)
    raise ValueError("dim must be 2 or 3")
