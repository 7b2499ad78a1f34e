"""Uniform tensor grids and the fields that live on them.

A spatial grid covers a rectangular box [box_min, box_max) with the same
number of nodes per axis; node j along axis a sits at
``box_min[a] + j * h[a]`` with ``h[a] = (box_max[a] - box_min[a]) / n``.
Its dual grid carries the centered discrete frequencies
``2*pi*fftshift(fftfreq(n, h))`` and is itself an ordinary GridSpec, so
spectra reuse the same plumbing as spatial fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import GridMismatchError

__all__ = ["GridSpec", "ScalarField", "SpectralField", "row_dot"]


def row_dot(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` (..., d) with ``b``: one vector, or a row each.

    A stacked matmul sends every row through the same dot kernel as
    ``x @ y`` on two vectors, so a row's value does not depend on how many
    rows share the call.  ``a @ y`` over many rows (gemv), ``einsum``,
    ``sum(a * b)`` and ``norm(axis=1)`` can differ in the last ulp.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _as_tuple(x, dim: int) -> tuple[float, ...]:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise ValueError(f"expected {dim} components, got {arr.size}")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over a rectangular box, left-closed right-open.

    Parameters
    ----------
    dim : 2 or 3.
    n : nodes per axis (>= 8, same for every axis).
    box_min, box_max : box corners; anisotropic boxes are allowed.
    """

    dim: int
    n: int
    box_min: tuple[float, ...]
    box_max: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes per axis, got {self.n}")
        object.__setattr__(self, "box_min", _as_tuple(self.box_min, self.dim))
        object.__setattr__(self, "box_max", _as_tuple(self.box_max, self.dim))
        for lo, hi in zip(self.box_min, self.box_max):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid box extent [{lo}, {hi}]")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / self.n for lo, hi in zip(self.box_min, self.box_max))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def node_count(self) -> int:
        return self.n**self.dim

    def axis(self, a: int) -> np.ndarray:
        return self.box_min[a] + np.arange(self.n) * self.spacing[a]

    def axes(self) -> list[np.ndarray]:
        return [self.axis(a) for a in range(self.dim)]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (node_count, dim), row-major order."""
        mesh = self.meshgrid()
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def flat_index(self, points) -> np.ndarray:
        """Row-major flat index of the node at each row of ``points`` (rows, dim).

        Raises GridMismatchError when a point is not a node, within
        1e-9 * max(1, |coordinate|) per axis.
        """
        points = np.asarray(points, dtype=float)
        multi = []
        for a in range(self.dim):
            axis = self.axis(a)
            x = points[:, a]
            i = np.rint((x - axis[0]) / (axis[1] - axis[0]))
            inside = (i >= 0) & (i < self.n)
            i = np.where(inside, i, 0).astype(np.intp)
            if not np.all(inside & (np.abs(axis[i] - x) <= 1e-9 * np.maximum(1.0, np.abs(x)))):
                raise GridMismatchError("point is not a node of the grid")
            multi.append(i)
        return np.ravel_multi_index(multi, self.shape)

    def dual(self) -> "GridSpec":
        """Centered frequency grid dual to this one.

        Spacing is 2*pi / (box length) per axis; the node set matches
        ``2*pi*fftshift(fftfreq(n, h))`` exactly.
        """
        dp = tuple(2.0 * np.pi / (self.n * h) for h in self.spacing)
        lo = tuple(-(self.n // 2) * d for d in dp)
        hi = tuple(l + self.n * d for l, d in zip(lo, dp))
        return GridSpec(self.dim, self.n, lo, hi)

    def contains_ball(self, center, radius: float, strict: bool = True) -> bool:
        c = np.asarray(center, dtype=float)
        for a in range(self.dim):
            lo, hi = self.box_min[a], self.box_max[a]
            if strict:
                if not (c[a] - radius > lo and c[a] + radius < hi):
                    return False
            else:
                if not (c[a] - radius >= lo and c[a] + radius <= hi):
                    return False
        return True

    def key(self) -> tuple:
        return (self.dim, self.n, self.box_min, self.box_max)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _check_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != grid.shape:
        raise GridMismatchError(
            f"values shape {values.shape} does not match grid shape {grid.shape}"
        )
    if not np.all(np.isfinite(values.view(float))):
        raise ValueError("field values must be finite")
    return values


@dataclass(frozen=True)
class ScalarField:
    """Complex samples on a spatial grid, zero outside ``support_mask``.

    ``support_mask`` defaults to all-true; rasterized potentials carry the
    union of their primitive supports so quadratures can skip dead nodes.
    """

    grid: GridSpec
    values: np.ndarray
    support_mask: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        values = _check_values(self.grid, self.values)
        mask = self.support_mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.grid.shape:
                raise GridMismatchError("support_mask shape does not match grid")
            if np.any(values[~mask] != 0):
                raise ValueError("field values must vanish outside support_mask")
            object.__setattr__(self, "support_mask", _freeze(mask))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def mask(self) -> np.ndarray:
        if self.support_mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.support_mask

    def l2_norm(self) -> float:
        """Grid-quadrature L2 norm: sqrt(cell_volume * sum |u|^2)."""
        return float(
            np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2))
        )


@dataclass(frozen=True)
class SpectralField:
    """Complex samples on a centered frequency grid, ascending order per axis.

    ``spatial_grid`` is the spatial grid this spectrum transforms back to;
    its dual must equal ``grid``.  The transform pair in use is
    u_hat(p) = (2*pi)^(-d) * integral e^{+i p.x} u(x) dx,
    u(x)     =              integral e^{-i p.x} u_hat(p) dp.
    """

    grid: GridSpec
    values: np.ndarray
    spatial_grid: GridSpec

    def __post_init__(self):
        values = _check_values(self.grid, self.values)
        if self.spatial_grid.dual().key() != self.grid.key():
            raise GridMismatchError(
                "spectral grid is not the dual of the attached spatial grid"
            )
        object.__setattr__(self, "values", _freeze(values))

    def l2_norm(self) -> float:
        return float(
            np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2))
        )

    def conjugate_symmetry_error(self) -> float:
        """Max |u_hat(-p) - conj(u_hat(p))| over nodes whose mirror exists.

        Vanishes (to rounding) when the originating field is real-valued.
        The extreme node per axis (index 0 for even n) has no mirror and
        is skipped.
        """
        v = self.values
        n = self.grid.n
        idx = np.arange(n)
        mirror = 2 * (n // 2) - idx
        keep = (mirror >= 0) & (mirror < n)
        sl = tuple(np.ix_(*([idx[keep]] * self.grid.dim)))
        msl = tuple(np.ix_(*([mirror[keep]] * self.grid.dim)))
        return float(np.max(np.abs(v[msl] - np.conj(v[sl]))))
