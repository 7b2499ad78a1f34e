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
one table of every probe node inside the ball, for one energy or for
several at once.  A row's bits depend only on its own energy and
transfer: channel is a one-row table, so a row of a table equals the
single-transfer result bit for bit.  A ChannelTable is the package's one
channel type.  Which probe nodes lie in the ball |p| <= 2 sqrt(E) is
decided on GridSpec.radii, the package's one |p|: the reconstruction mask
and the benchmark's row count read the same radii, so a node a dataset
holds is never one the mask calls out of the ball.

This module also owns the shell rule: check_shell tests |k|^2 and |l|^2
of every row against its energy E, and it serves both channel_table and
the solver's amplitude functions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import EnergyShellError, OutOfBallError
from .grids import GridSpec, row_dot

__all__ = [
    "CONVENTIONS",
    "MIN_ENERGY",
    "ChannelTable",
    "EnergySet",
    "check_shell",
    "channel",
    "channel_table",
    "channels_on_grid",
]

CONVENTIONS = ("default", "mirror")

# the least energy an EnergySet or a dataset row holds, the least normal
# float: below it 1/E overflows, and so does the solver's 1/k^2
MIN_ENERGY = sys.float_info.min


def _transverse_rows(p: np.ndarray, convention: str) -> np.ndarray:
    """A deterministic unit vector orthogonal to each row of the (rows, d) array ``p``.

    d=2: p rotated by +90 degrees, (0, 1) at p = 0.  d=3: the normalized
    cross product of p with the first standard basis vector not parallel
    to p, (0, 0, 1) at p = 0.  ``convention="mirror"`` negates the
    result, giving the second choice used by the independence tests.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown transverse convention {convention!r}")
    dim = p.shape[1]
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


def check_shell(energy, incident, outgoing, dim: int) -> None:
    """The shell rule, row-wise: |k|^2 and |l|^2 of every row lie on E's shell.

    ``energy`` is one value or one per row; ``incident`` and ``outgoing``
    are (rows, ``dim``) arrays, else ValueError.  A vector's energy is on
    the shell when it differs from E by at most relative 1e-12 of the
    larger of the two; NaN is off the shell.  Raises EnergyShellError
    naming the first offending row, its vector (incident or outgoing),
    that vector's energy and E.
    """
    if incident.ndim != 2 or incident.shape != outgoing.shape or incident.shape[1] != dim:
        raise ValueError(f"incident and outgoing must both have shape (rows, {dim})")
    energy = np.broadcast_to(np.asarray(energy, dtype=float), incident.shape[:1])
    e_in, e_out = row_dot(incident, incident), row_dot(outgoing, outgoing)
    off_in, off_out = (
        ~(np.abs(e - energy) <= 1e-12 * np.maximum(e, energy)) for e in (e_in, e_out)
    )
    if np.any(off_in | off_out):
        r = int(np.argmax(off_in | off_out))
        name, e = ("incident", e_in) if off_in[r] else ("outgoing", e_out)
        raise EnergyShellError(
            f"channel {r}: {name} energy {float(e[r])!r} is off the shell E={float(energy[r])!r}"
        )


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """Channels as arrays: row r is the channel at ``energy[r]``, ``transfer[r]``.

    ``energy`` has shape (rows,); the vectors have shape (rows, d).
    ``node`` holds each row's flat probe-grid index when the table was
    built on a grid (channels_on_grid), else None.
    """

    energy: np.ndarray
    transfer: np.ndarray
    transverse: np.ndarray
    incident: np.ndarray
    outgoing: np.ndarray
    node: np.ndarray | None = None

    def __len__(self) -> int:
        return self.energy.shape[0]


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
    check_shell(energy, incident, outgoing, p.shape[1])
    return ChannelTable(energy, p, t, incident, outgoing, node)


def channel(E: float, p, convention: str = "default") -> ChannelTable:
    """The channel at energy ``E`` and momentum transfer ``p``, as a one-row table.

    A channel_table of the one row ``p``, with the same errors.
    """
    return channel_table(E, np.asarray(p, dtype=float)[None, :], convention)


def channels_on_grid(
    E, pgrid: GridSpec, convention: str = "default"
) -> tuple[ChannelTable, np.ndarray]:
    """One channel per node of ``pgrid`` inside the ball |p| <= 2*sqrt(E), for each energy.

    ``E`` is one energy or a sequence of them.  Returns (table, skipped):
    the table's rows run energy by energy, in the order given, and
    row-major over the grid within each energy, so a rerun is
    reproducible index for index; its ``node`` column holds each row's
    flat grid index.  Every row equals, bit for bit, the row of a call
    with its energy alone.  ``skipped`` holds the flat grid indices
    (intp) of the nodes outside every ball, the largest one included.
    Membership of the ball is decided on pgrid.radii(), the rule the
    reconstruction mask applies, computed once per call.
    """
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    if energies.ndim != 1 or not energies.size:
        raise ValueError("E must be one energy or a non-empty sequence of energies")
    if np.any(energies <= 0):
        raise ValueError("energy must be positive")
    radii = pgrid.radii()
    inside = [radii <= 2.0 * np.sqrt(e) for e in energies]
    index = [np.flatnonzero(m) for m in inside]
    rows = np.concatenate(index)
    energy = np.repeat(energies, [len(i) for i in index])
    table = channel_table(energy, pgrid.nodes()[rows], convention, rows)
    return table, np.flatnonzero(~np.any(inside, axis=0))


@dataclass(frozen=True)
class EnergySet:
    """Ascending collection of probe energies, each in [MIN_ENERGY, inf)."""

    energies: tuple[float, ...]

    def __post_init__(self):
        if not self.energies:
            raise ValueError("energy set is empty")
        es = tuple(float(e) for e in self.energies)
        if not all(MIN_ENERGY <= e < np.inf for e in es):
            raise ValueError(f"energies must lie in [{MIN_ENERGY!r}, inf)")
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
