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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EnergyShellError, OutOfBallError
from .grids import GridSpec

__all__ = [
    "ScatteringChannel",
    "EnergySet",
    "transverse_unit",
    "channel",
    "channels_on_grid",
    "band_limited_channels",
    "channels_to_csv",
]

_CONVENTIONS = ("default", "mirror")


def transverse_unit(p, dim: int | None = None, convention: str = "default") -> np.ndarray:
    """Deterministic unit vector orthogonal to ``p``.

    d=2: rotate p by +90 degrees, (0, 1) at p = 0.  d=3: normalized
    cross product of p with the first standard basis vector not parallel
    to p, (0, 0, 1) at p = 0.  ``convention="mirror"`` negates the
    result, giving the second choice used by the independence tests.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown transverse convention {convention!r}")
    p = np.asarray(p, dtype=float)
    if dim is None:
        dim = p.shape[-1]
    if p.shape != (dim,):
        raise ValueError("p must be a vector of length dim")
    # Scale by a power of two near the largest |component|: squaring a tiny
    # transfer loses precision to subnormals, and other inputs scale exactly.
    big = max(map(abs, p.tolist()))
    if big > 0.0:
        p = np.ldexp(p, -math.frexp(big)[1])
    q = float(np.linalg.norm(p))
    if dim == 2:
        t = np.array([0.0, 1.0]) if q == 0.0 else np.array([-p[1], p[0]]) / q
    elif dim == 3:
        if q == 0.0:
            t = np.array([0.0, 0.0, 1.0])
        else:
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = 1.0
                cross = np.cross(p, e)
                norm = float(np.linalg.norm(cross))
                if norm > 1e-12 * q:
                    t = cross / norm
                    break
            else:  # pragma: no cover - some axis is always non-parallel
                raise AssertionError("no basis vector transverse to p")
    else:
        raise ValueError("dim must be 2 or 3")
    if convention == "mirror":
        t = -t
    return t


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
        k2 = sum(c * c for c in self.incident)
        l2 = sum(c * c for c in self.outgoing)
        tol = 1e-12 * self.energy
        if abs(k2 - self.energy) > tol or abs(l2 - self.energy) > tol:
            raise EnergyShellError(
                f"channel off shell: |k|^2={k2!r}, |l|^2={l2!r}, E={self.energy!r}"
            )

    @property
    def dim(self) -> int:
        return len(self.transfer)

    @property
    def transfer_norm(self) -> float:
        return float(np.linalg.norm(self.transfer))


def channel(E: float, p, convention: str = "default") -> ScatteringChannel:
    """Construct the channel at energy ``E`` and momentum transfer ``p``.

    Raises OutOfBallError when |p| > 2*sqrt(E); at equality the
    transverse coefficient vanishes and the channel degenerates to
    back-scattering incident = p/2, outgoing = -p/2.
    """
    if E <= 0:
        raise ValueError("energy must be positive")
    p = np.asarray(p, dtype=float)
    q2 = float(p @ p)
    if q2 > 4.0 * E * (1.0 + 1e-14):
        raise OutOfBallError(
            f"|p|={np.sqrt(q2):.6g} exceeds 2*sqrt(E)={2.0 * np.sqrt(E):.6g}"
        )
    coef = np.sqrt(max(E - 0.25 * q2, 0.0))
    t = transverse_unit(p, p.shape[0], convention)
    half = 0.5 * p
    shift = coef * t
    return ScatteringChannel(
        energy=float(E),
        transfer=tuple(p),
        transverse=tuple(t),
        incident=tuple(half + shift),
        outgoing=tuple(shift - half),
    )


def channels_on_grid(
    E: float, pgrid: GridSpec, convention: str = "default"
) -> tuple[list[ScatteringChannel], list[tuple[int, ...]]]:
    """One channel per node of ``pgrid`` inside the ball |p| <= 2*sqrt(E).

    Returns (channels, skipped) where ``skipped`` lists the multi-indices
    of nodes outside the ball.  Order is row-major over the grid, so a
    rerun is reproducible index for index.
    """
    if E <= 0:
        raise ValueError("energy must be positive")
    limit = 2.0 * np.sqrt(E)
    nodes = pgrid.nodes()
    channels: list[ScatteringChannel] = []
    skipped: list[tuple[int, ...]] = []
    shape = pgrid.shape
    for flat, p in enumerate(nodes):
        if np.linalg.norm(p) <= limit:
            channels.append(channel(E, p, convention))
        else:
            skipped.append(tuple(int(i) for i in np.unravel_index(flat, shape)))
    return channels, skipped


def band_limited_channels(
    E0: float, E: float, pgrid: GridSpec, convention: str = "default"
) -> list[ScatteringChannel]:
    """Channels of energy ``E`` restricted to transfers |p| < 2*sqrt(E0).

    The restriction is strict, so ``E0 = E`` drops exactly the boundary
    nodes |p| = 2*sqrt(E).  Requires 0 < E0 <= E.
    """
    if not 0 < E0 <= E:
        raise ValueError("need 0 < E0 <= E")
    limit = 2.0 * np.sqrt(E0)
    out = []
    for p in pgrid.nodes():
        if np.linalg.norm(p) < limit:
            out.append(channel(E, p, convention))
    return out


@dataclass(frozen=True)
class EnergySet:
    """Ascending collection of probe energies.

    ``mode`` records the intended limiting regime: "unbounded" for
    sequences meant to grow without bound, "clustered" for sequences
    accumulating at a finite ``accumulation`` energy.  The mode is
    metadata for reports; operations only consume ``energies``.
    """

    energies: tuple[float, ...]
    mode: str = "unbounded"
    accumulation: float | None = None

    def __post_init__(self):
        if self.mode not in ("unbounded", "clustered"):
            raise ValueError(f"unknown energy-set mode {self.mode!r}")
        if not self.energies:
            raise ValueError("energy set is empty")
        es = tuple(float(e) for e in self.energies)
        if any(e <= 0 for e in es):
            raise ValueError("energies must be positive")
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValueError("energies must be strictly increasing")
        if self.mode == "clustered":
            if self.accumulation is None or self.accumulation <= 0:
                raise ValueError("clustered mode needs a positive accumulation energy")
        object.__setattr__(self, "energies", es)

    @property
    def top(self) -> float:
        return self.energies[-1]

    def __iter__(self):
        return iter(self.energies)

    def __len__(self) -> int:
        return len(self.energies)


def channels_to_csv(channels: list[ScatteringChannel]) -> str:
    """Serialize channels as CSV with one row per channel.

    Columns: E, p_1..p_d, t_1..t_d, kin_1..kin_d, kout_1..kout_d.
    """
    if not channels:
        return ""
    d = channels[0].dim
    cols = (
        ["E"]
        + [f"p_{a + 1}" for a in range(d)]
        + [f"t_{a + 1}" for a in range(d)]
        + [f"kin_{a + 1}" for a in range(d)]
        + [f"kout_{a + 1}" for a in range(d)]
    )
    lines = [",".join(cols)]
    for ch in channels:
        if ch.dim != d:
            raise ValueError("mixed dimensions in channel list")
        row = (
            [repr(ch.energy)]
            + [repr(x) for x in ch.transfer]
            + [repr(x) for x in ch.transverse]
            + [repr(x) for x in ch.incident]
            + [repr(x) for x in ch.outgoing]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
