"""Measurement geometry: scattering channels at fixed energy.

A channel pairs an incident wave vector with an outgoing one such that
both lie on the energy shell |k|^2 = E and their difference equals a
prescribed momentum transfer p.  Writing c = sqrt(E - |p|^2/4) and t for
a unit vector orthogonal to p,

    incident = p/2 + c*t,      outgoing = -p/2 + c*t,

which requires |p| <= 2*sqrt(E).  The transverse direction t is an
arbitrary convention; nothing downstream may depend on the choice, and
the reconstruction tests re-run with the mirrored convention to prove
it.

The construction is array code over rows: channel_table builds a
ChannelTable, one row per (energy, transfer) pair, and channels_on_grid
one table for every probe node inside the ball.  The single-vector
functions channel and transverse_unit are one-row tables, so a row of a
table equals the single-vector result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EnergyShellError, OutOfBallError
from .grids import GridSpec, row_dot

__all__ = [
    "ScatteringChannel",
    "ChannelTable",
    "EnergySet",
    "transverse_unit",
    "channel",
    "channel_table",
    "channels_on_grid",
]

_CONVENTIONS = ("default", "mirror")


def _transverse_rows(p: np.ndarray, convention: str) -> np.ndarray:
    """transverse_unit for every row of the (rows, d) array ``p``."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown transverse convention {convention!r}")
    dim = p.shape[1]
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    # Scale each row by a power of two near its largest |component|:
    # squaring a tiny transfer loses precision to subnormals, and other
    # inputs scale exactly.  frexp(0) has exponent 0, so p = 0 stays.
    p = np.ldexp(p, -np.frexp(np.max(np.abs(p), axis=1))[1][:, None])
    q = np.sqrt(row_dot(p, p))
    zero = q == 0.0
    t = np.full_like(p, np.nan)  # stays NaN only for a non-finite p
    t[zero] = (0.0, 1.0) if dim == 2 else (0.0, 0.0, 1.0)
    if dim == 2:
        t[~zero] = np.stack([-p[~zero, 1], p[~zero, 0]], axis=1) / q[~zero, None]
    else:
        # cross product with the first standard basis vector not parallel to p
        todo = ~zero
        for e in np.eye(3):
            cross = np.cross(p[todo], e)
            norm = np.sqrt(row_dot(cross, cross))
            take = norm > 1e-12 * q[todo]
            rows = np.flatnonzero(todo)[take]
            t[rows] = cross[take] / norm[take, None]
            todo[rows] = False
    return -t if convention == "mirror" else t


def transverse_unit(p, dim: int | None = None, convention: str = "default") -> np.ndarray:
    """Deterministic unit vector orthogonal to ``p``.

    d=2: rotate p by +90 degrees, (0, 1) at p = 0.  d=3: normalized
    cross product of p with the first standard basis vector not parallel
    to p, (0, 0, 1) at p = 0.  ``convention="mirror"`` negates the
    result, giving the second choice used by the independence tests.
    """
    p = np.asarray(p, dtype=float)
    if dim is None:
        dim = p.shape[-1]
    if p.shape != (dim,):
        raise ValueError("p must be a vector of length dim")
    return _transverse_rows(p[None, :], convention)[0]


def off_shell(a, b) -> np.ndarray:
    """The shell rule, row-wise: True where energies ``a`` and ``b`` differ
    beyond relative 1e-12 of the larger, or either is NaN."""
    return ~(np.abs(a - b) <= 1e-12 * np.maximum(a, b))


def _check_shell(energy: np.ndarray, incident: np.ndarray, outgoing: np.ndarray) -> None:
    """EnergyShellError unless |k|^2 and |l|^2 are on E's shell (off_shell) in every row."""
    k2 = row_dot(incident, incident)
    l2 = row_dot(outgoing, outgoing)
    off = off_shell(k2, energy) | off_shell(l2, energy)
    if np.any(off):
        r = int(np.argmax(off))
        raise EnergyShellError(
            f"channel off shell: |k|^2={float(k2[r])!r}, |l|^2={float(l2[r])!r}, "
            f"E={float(energy[r])!r}"
        )


@dataclass(frozen=True)
class ScatteringChannel:
    """One on-shell measurement channel at energy ``energy``.

    ``transfer`` is the momentum transfer p = incident - outgoing,
    ``transverse`` the unit vector used to complete the construction.
    """

    energy: float
    transfer: tuple[float, ...]
    transverse: tuple[float, ...]
    incident: tuple[float, ...]
    outgoing: tuple[float, ...]

    def __post_init__(self):
        if self.energy <= 0:
            raise ValueError("energy must be positive")
        object.__setattr__(self, "energy", float(self.energy))
        d = len(self.transfer)
        if d not in (2, 3):
            raise ValueError("transfer must have length 2 or 3")
        for name in ("transfer", "transverse", "incident", "outgoing"):
            coords = getattr(self, name)
            if len(coords) != d:
                raise ValueError(f"{name} has wrong length")
            object.__setattr__(self, name, tuple(float(c) for c in coords))
        _check_shell(np.array([self.energy]), np.array([self.incident]), np.array([self.outgoing]))

    @property
    def dim(self) -> int:
        return len(self.transfer)

    @property
    def transfer_norm(self) -> float:
        return float(np.linalg.norm(self.transfer))


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """Channels as arrays: row r is the channel at ``energy[r]``, ``transfer[r]``.

    ``energy`` has shape (rows,); the vectors have shape (rows, d).
    ``node`` holds each row's flat probe-grid index when the table was
    built on a grid (channels_on_grid), else None.  Indexing a row gives
    its ScatteringChannel.
    """

    energy: np.ndarray
    transfer: np.ndarray
    transverse: np.ndarray
    incident: np.ndarray
    outgoing: np.ndarray
    node: np.ndarray | None = None

    def __len__(self) -> int:
        return self.energy.shape[0]

    def __getitem__(self, row: int) -> ScatteringChannel:
        return ScatteringChannel(
            energy=float(self.energy[row]),
            transfer=self.transfer[row].tolist(),
            transverse=self.transverse[row].tolist(),
            incident=self.incident[row].tolist(),
            outgoing=self.outgoing[row].tolist(),
        )

    def __iter__(self):
        return (self[row] for row in range(len(self)))


def channel_table(energy, transfer, convention: str = "default", node=None) -> ChannelTable:
    """The channel of every row of ``transfer`` (rows, d) at ``energy``.

    ``energy`` is one value or one per row; ``node`` is stored as the
    table's node column.  Raises ValueError for a non-positive energy and
    OutOfBallError for a row with |p| > 2*sqrt(E); at equality the
    transverse coefficient vanishes and the channel degenerates to
    back-scattering incident = p/2, outgoing = -p/2.
    """
    p = np.array(transfer, dtype=float)
    if p.ndim != 2 or p.shape[1] not in (2, 3):
        raise ValueError("transfer must have shape (rows, 2) or (rows, 3)")
    energy = np.broadcast_to(np.asarray(energy, dtype=float), p.shape[:1]).copy()
    if np.any(energy <= 0):
        raise ValueError("energy must be positive")
    q2 = row_dot(p, p)
    beyond = q2 > 4.0 * energy * (1.0 + 1e-14)
    if np.any(beyond):
        r = int(np.argmax(beyond))
        raise OutOfBallError(
            f"|p|={np.sqrt(q2[r]):.6g} exceeds 2*sqrt(E)={2.0 * np.sqrt(energy[r]):.6g}"
        )
    coef = np.sqrt(np.maximum(energy - 0.25 * q2, 0.0))
    t = _transverse_rows(p, convention)
    half = 0.5 * p
    shift = coef[:, None] * t
    incident = half + shift
    outgoing = shift - half
    _check_shell(energy, incident, outgoing)
    return ChannelTable(energy, p, t, incident, outgoing, node)


def channel(E: float, p, convention: str = "default") -> ScatteringChannel:
    """Construct the channel at energy ``E`` and momentum transfer ``p``.

    A one-row channel_table, with the same errors.
    """
    return channel_table(E, np.asarray(p, dtype=float)[None, :], convention)[0]


def channels_on_grid(
    E: float, pgrid: GridSpec, convention: str = "default"
) -> tuple[ChannelTable, np.ndarray]:
    """One channel per node of ``pgrid`` inside the ball |p| <= 2*sqrt(E).

    Returns (table, skipped): the table's ``node`` column holds each
    row's flat grid index, and ``skipped`` the flat grid indices (intp)
    of the nodes outside the ball.  Order is row-major over the grid, so
    a rerun is reproducible index for index.
    """
    if E <= 0:
        raise ValueError("energy must be positive")
    nodes = pgrid.nodes()
    inside = np.sqrt(row_dot(nodes, nodes)) <= 2.0 * np.sqrt(E)
    table = channel_table(E, nodes[inside], convention, np.flatnonzero(inside))
    return table, np.flatnonzero(~inside)


@dataclass(frozen=True)
class EnergySet:
    """Ascending collection of probe energies."""

    energies: tuple[float, ...]

    def __post_init__(self):
        if not self.energies:
            raise ValueError("energy set is empty")
        es = tuple(float(e) for e in self.energies)
        if any(e <= 0 for e in es):
            raise ValueError("energies must be positive")
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValueError("energies must be strictly increasing")
        object.__setattr__(self, "energies", es)

    @property
    def top(self) -> float:
        return self.energies[-1]

    def __iter__(self):
        return iter(self.energies)

    def __len__(self) -> int:
        return len(self.energies)
