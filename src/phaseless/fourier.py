"""Discrete realization of the transform pair

    u_hat(p) = (2*pi)^(-d) * integral e^{+i p.x} u(x) dx
    u(x)     =              integral e^{-i p.x} u_hat(p) dp

on uniform grids.  The forward direction is the rectangle rule over the
grid box, computed by an FFT with explicit phase factors for the box
offset; frequencies come out centered and ascending.  The pair is an
exact inverse of itself on the grid (round trips are identity up to
rounding), and the rectangle rule is spectrally accurate for smooth
fields supported strictly inside the box.

Both phase factors e^{+-i p.x0} come from GridSpec.wave, the grids
module's one per-axis rule: the product over axes of e^{i p_a x0_a}.
"""

from __future__ import annotations

import numpy as np

from .exceptions import GridMismatchError
from .grids import GridSpec, ScalarField, SpectralField

__all__ = ["forward_transform", "inverse_phase", "inverse_transform"]


def forward_transform(f: ScalarField) -> SpectralField:
    """Rectangle-rule approximation of u_hat on the dual grid."""
    grid = f.grid
    freq = grid.dual()
    n_total = grid.node_count
    # sum_j u_j e^{+i p_m . (j h)} = N * ifftn(u), then shift to ascending p
    spec = np.fft.fftshift(np.fft.ifftn(f.values)) * n_total
    pref = (2.0 * np.pi) ** (-grid.dim) * grid.cell_volume
    values = pref * freq.wave(grid.box_min) * spec
    return SpectralField(freq, values, grid)


def inverse_phase(grid: GridSpec) -> np.ndarray:
    """exp(-i p . x0) over ``grid``'s dual, x0 its box corner: the inverse's phase factor."""
    return np.conj(grid.dual().wave(grid.box_min))


def inverse_transform(
    s: SpectralField, grid: GridSpec | None = None, phase: np.ndarray | None = None
) -> ScalarField:
    """Rectangle-rule inverse onto the originating spatial grid.

    ``grid`` defaults to the spatial grid recorded on the spectrum; if
    given, it must have the same dual.  ``phase`` is inverse_phase of
    that grid, computed here unless a caller inverting several spectra
    onto one grid passes it.
    """
    target = grid if grid is not None else s.spatial_grid
    if target.dual() != s.grid:
        raise GridMismatchError("spectral grid is not the dual of the target grid")
    phased = s.values * (phase if phase is not None else inverse_phase(target))
    values = s.grid.cell_volume * np.fft.fftn(np.fft.ifftshift(phased))
    return ScalarField(target, values)
