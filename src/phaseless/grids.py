"""Uniform tensor grids and the fields that live on them.

A spatial grid covers a rectangular box [box_min, box_max) with the same
number of nodes per axis; node j along axis a sits at
``box_min[a] + j * h[a]`` with ``h[a] = (box_max[a] - box_min[a]) / n``.
Its dual grid carries the centered discrete frequencies
``2*pi*fftshift(fftfreq(n, h))`` and is itself an ordinary GridSpec, so
spectra reuse the same plumbing as spatial fields.

Functions of node coordinates that are sums or products over axes follow
one per-axis rule, ``outer``: GridSpec.sq_distances (|x - c|^2) and
GridSpec.wave (e^{i v.x}, from ``expi`` factors).  GridSpec.radii, its
square root at c = 0, is the one |p| by which the channel tables, the
reconstruction mask and the benchmark's row count decide |p| <= 2 sqrt(E).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConfigError, GridMismatchError
from .jsonread import choice, convert, integer, number, numbers, take

__all__ = [
    "GridSpec", "ScalarField", "SpectralField", "column_norms", "expi", "grid_from_json",
    "grid_to_json", "intensity", "outer", "row_dot",
]


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


def column_norms(values) -> np.ndarray:
    """2-norm of each column of a complex (rows, columns) array.

    The squares of the real and the imaginary parts are summed over the
    rows by einsum, which makes no conjugate copy and calls no BLAS, so a
    column's norm has the same bits alone, in a batch and in any blocking
    of the columns.  It agrees with ``norm(values, axis=0)`` to a few ulp.
    """
    re, im = values.real, values.imag
    return np.sqrt(np.einsum("mc,mc->c", re, re) + np.einsum("mc,mc->c", im, im))


def expi(theta) -> np.ndarray:
    """e^{i theta} as cos + i sin, at about two thirds of the cost of np.exp(1j * theta).

    Its bits are np.exp's but for the sign of a zero sine (theta = -0.0).
    """
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def outer(ufunc, terms) -> np.ndarray:
    """``ufunc.outer`` of the per-axis ``terms`` in axis order: one value per node."""
    out = terms[0]
    for term in terms[1:]:
        out = ufunc.outer(out, term)
    return out


def intensity(values) -> np.ndarray:
    """|z|^2 of each complex value, as Python's ``abs(z) ** 2`` forms it.

    The result has the shape of ``values``.  numpy's abs and power can
    differ from it in the last ulp.  A square beyond the float range is a
    ConfigError: only an amplitude far out of range makes one.
    """
    values = np.asarray(values)
    try:
        return np.array([abs(z) ** 2 for z in values.reshape(-1).tolist()]).reshape(values.shape)
    except OverflowError:
        raise ConfigError("an intensity overflows a float: too strong a potential") from None


# bytes of physical memory, the most one field on a grid may take
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
    n : nodes per axis (>= 8, same for every axis); the node count must
        fit a numpy index, and one complex128 field on the grid, 16 bytes
        a node, must fit PHYSICAL_MEMORY.
    box_min, box_max : box corners; anisotropic boxes are allowed, but
        the box and its dual must both be finite, and small enough that
        every squared distance on them (sq_distances, radii) is finite.
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
        nodes = int(self.n) ** self.dim
        if nodes > np.iinfo(np.intp).max:
            raise ValueError(f"{self.n:.3g}^{self.dim} nodes exceed a numpy index")
        if 16 * nodes > PHYSICAL_MEMORY:
            raise ValueError(f"{self.n:.3g}^{self.dim} nodes: one complex field of {16 * nodes:.3g} "
                             f"bytes exceeds the {PHYSICAL_MEMORY:.3g} bytes of physical memory")
        object.__setattr__(self, "box_min", _as_tuple(self.box_min, self.dim))
        object.__setattr__(self, "box_max", _as_tuple(self.box_max, self.dim))
        # the dual has finite corners dlo < dhi only if the box has finite lo < hi
        dual = self._dual_corners()
        for lo, hi, dlo, dhi in zip(self.box_min, self.box_max, *dual):
            if not (np.isfinite(dlo) and np.isfinite(dhi) and dlo < dhi):
                raise ValueError(f"invalid box extent [{lo}, {hi}]: box and dual must be finite")
        # |x - c| <= 2 max(|lo|, |hi|) per axis for every node x and center c in the box
        for lo, hi in ((self.box_min, self.box_max), dual):
            reach = [2.0 * max(abs(a), abs(b)) for a, b in zip(lo, hi)]
            if not np.isfinite(sum(r * r for r in reach)):
                raise ValueError(f"box {list(self.box_min)} to {list(self.box_max)}: a squared "
                                 f"distance on the box or its dual overflows a float")

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

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (node_count, dim), row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def sq_distances(self, center) -> np.ndarray:
        """|x - c|^2 at every node, shape ``shape``: the per-axis squares summed in axis order."""
        return outer(np.add, [np.square(x - c) for x, c in zip(self.axes(), center)])

    def radii(self) -> np.ndarray:
        """|x| of every node, flat row-major: the bits of ``norm(self.nodes(), axis=1)``."""
        return np.sqrt(self.sq_distances((0.0,) * self.dim)).reshape(-1)

    def wave(self, v) -> np.ndarray:
        """e^{i v.x} at every node, shape ``shape``: the product of the factors e^{i v_a x_a}."""
        return outer(np.multiply, [expi(x * va) for x, va in zip(self.axes(), v)])

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
        return GridSpec(self.dim, self.n, *self._dual_corners())

    def _dual_corners(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        # a spacing that is not positive (or underflows to 0) has an infinite dual
        dp = tuple(2.0 * np.pi / (self.n * h) if h > 0 else np.inf for h in self.spacing)
        lo = tuple(-(self.n // 2) * d for d in dp)
        hi = tuple(l + self.n * d for l, d in zip(lo, dp))
        return lo, hi

    def contains_ball(self, center, radius: float) -> bool:
        """Whether the ball lies strictly inside the box: touching a face is outside."""
        c = np.asarray(center, dtype=float)
        return all(
            c[a] - radius > lo and c[a] + radius < hi
            for a, (lo, hi) in enumerate(zip(self.box_min, self.box_max))
        )


def grid_to_json(grid: GridSpec, with_dim: bool = True) -> dict:
    """A grid's JSON form {"dim", "n", "box_min", "box_max"}; "dim" only ``with_dim``."""
    form = {"dim": grid.dim} if with_dim else {}
    return {**form, "n": grid.n, "box_min": list(grid.box_min), "box_max": list(grid.box_max)}


def grid_from_json(data, context: str, dim: int | None = None) -> GridSpec:
    """The grid of JSON form ``data``; ConfigError naming the key path of a bad value.

    ``data`` gives "n" and either "box_min" and "box_max" or "box", a
    half-width b for the box [-b, b)^d.  It gives "dim" too unless
    ``dim`` is given, as grid_to_json writes it.
    """
    keys = {"n": integer} if dim is not None else {"dim": choice((2, 3), integer), "n": integer}
    corners = {"box_min": (numbers, None), "box_max": (numbers, None), "box": (number, None)}
    got = take(data, context, keys, corners)
    dim = got.get("dim", dim)
    if got["box"] is not None:
        if got["box_min"] is not None or got["box_max"] is not None:
            raise ConfigError(f"{context}: give either box or box_min/box_max, not both")
        lo, hi = (-got["box"],) * dim, (got["box"],) * dim
    elif got["box_min"] is None or got["box_max"] is None:
        raise ConfigError(f"{context}: box_min and box_max are required")
    else:
        lo, hi = got["box_min"], got["box_max"]
    return convert((dim, got["n"], lo, hi), lambda args: GridSpec(*args), context)


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
        if self.spatial_grid.dual() != self.grid:
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
