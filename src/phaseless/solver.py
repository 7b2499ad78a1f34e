"""Outgoing-wave field solver and scattering amplitudes.

The total field for incident plane wave e^{i k.x} satisfies

    psi(x) = e^{i k.x} + integral_D G(x - y, |k|) v(y) psi(y) dy,

discretized on the potential's grid with midpoint weights except at the
singular diagonal cell, which carries the closed-form equal-measure
integral of the kernel (see greens.singular_cell_weight).  Columns of
the kernel vanish off the support, so the system restricted to the
support nodes is exact.  One route rule, uses_direct_solve, picks the
direct solve of that system when the support has at most ``dense_limit``
nodes (or method "dense"), else the iteration

    psi_{m+1} = incident + K psi_m

on the support values; it contracts with rate O(E^{-1/2}) at high
energy, and divergence raises.  The system depends only on the support
and |k|, so direct_amplitudes factors it once per energy for every
channel.  Both routes share the weights, so they can be cross-checked
to tight tolerance.

K between support nodes needs only the kernel offsets inside the
support's bounding box, so every iteration step and every residual is
one FFT convolution on that box (_BoxOperator, the scheme of Vainikko,
"Fast solvers of the Lippmann-Schwinger equation", 2000), batched over
channels.  The full-grid convolution (_apply_kernel) remains only to
extend a solved field from the support to the whole grid.

The scattering amplitude is the weighted quadrature

    f(k, l) = (2 pi)^(-d) * integral_D e^{-i l.y} v(y) psi(y) dy,

and with psi replaced by the incident wave it collapses to the
potential's transform at p = k - l (first-order approximation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional
import warnings

import numpy as np

from .exceptions import (
    EnergyShellError,
    SolverConvergenceError,
    UnresolvedGridError,
)
from .greens import far_field_coefficient, outgoing_green, singular_cell_weight
from .grids import GridSpec, ScalarField
from .potentials import PotentialSpec, analytic_hat
from .special import hankel1

__all__ = [
    "WaveVector",
    "SolverConfig",
    "SolverReport",
    "plane_wave",
    "uses_direct_solve",
    "solve_lippmann_schwinger",
    "direct_amplitudes",
    "scattering_amplitude",
    "born_amplitude",
    "far_field_check",
]


@dataclass(frozen=True)
class WaveVector:
    """Incident wave vector; energy is |k|^2 and must be positive."""

    k: tuple[float, ...]

    def __post_init__(self):
        k = tuple(float(v) for v in np.asarray(self.k, dtype=float).reshape(-1))
        if len(k) not in (2, 3):
            raise ValueError("wave vector must have 2 or 3 components")
        object.__setattr__(self, "k", k)
        if not self.energy > 0:
            raise ValueError("wave vector energy must be positive")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)

    @property
    def energy(self) -> float:
        return float(sum(v * v for v in self.k))

    @property
    def magnitude(self) -> float:
        return float(np.sqrt(self.energy))


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 200
    resolution_factor: float = 8.0
    method: str = "auto"  # auto | born | dense
    dense_limit: int = 3000  # max support nodes for the dense route

    def __post_init__(self):
        if self.method not in ("auto", "born", "dense"):
            raise ValueError(f"unknown solver method {self.method!r}")


@dataclass(frozen=True)
class SolverReport:
    method: str  # born-iteration | dense-direct
    iterations: int
    residual: float
    converged: bool
    contraction_ratio: Optional[float] = field(default=None)


# --- kernel application ------------------------------------------------------

_KERNEL_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_KERNEL_CACHE_LIMIT = 32
# solved columns per block of amplitudes and residuals in
# direct_amplitudes: bounds its (support, block) temporaries
_CHANNEL_BLOCK = 32
# cap on the padded box buffer of one block in direct_amplitudes (a wide
# 3-D box gets fewer channels per block), and the least byte count of the
# right-hand sides it solves in one call
_BOX_BYTES = 1 << 24
# matrix rows filled per block by _support_matrix: bounds its int64
# offset array, so the matrix is the only (m, m) array ever held
_ASSEMBLY_ELEMENTS = 1 << 19


def _kernel_tables(grid: GridSpec, kmag: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights of G on the 2x zero-padded grid, and their FFT.

    Weights: midpoint value G(offset)*cell_volume off the diagonal, the
    equal-measure closed-form integral at offset zero.  The table holds
    every source-target offset inside the original box, so the direct
    route indexes it for its matrix and _BoxOperator slices it for the
    support's bounding box: every route shares identical discrete
    operators.  The spectrum of the whole table serves _apply_kernel.
    """
    key = (grid.key(), float(kmag))
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        return cached
    pad = 2 * grid.n
    offs = np.arange(pad)
    offs[offs > pad // 2] -= pad
    r2 = np.zeros((pad,) * grid.dim)
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = pad
        r2 = r2 + (offs * grid.spacing[a]).reshape(shape) ** 2
    r = np.sqrt(r2)
    origin = (0,) * grid.dim
    r[origin] = 1.0  # placeholder, overwritten below
    if grid.dim == 2:
        weights = (-0.25j * hankel1(0, kmag * r)) * grid.cell_volume
    else:
        weights = (-np.exp(1j * kmag * r) / (4.0 * np.pi * r)) * grid.cell_volume
    weights[origin] = singular_cell_weight(kmag, grid.dim, grid.cell_volume)
    spectrum = np.fft.fftn(weights)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_LIMIT:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = (weights, spectrum)
    return weights, spectrum


def _apply_kernel(source: np.ndarray, spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Aperiodic convolution of the weight kernel with ``source`` on the whole grid.

    One (2n)^d FFT pair.  The solver uses it only to extend a field
    solved on the support to every grid node; steps that need values on
    the support alone go through _BoxOperator.
    """
    pad_shape = spectrum.shape
    buf = np.zeros(pad_shape, dtype=np.complex128)
    buf[tuple(slice(0, grid.n) for _ in range(grid.dim))] = source
    conv = np.fft.ifftn(np.fft.fftn(buf) * spectrum)
    return conv[tuple(slice(0, grid.n) for _ in range(grid.dim))]


def _fft_length(need: int) -> int:
    """Smallest 5-smooth integer >= ``need``: a fast length for numpy.fft."""
    size = max(1, need)
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


class _BoxOperator:
    """K restricted to the support, as one FFT convolution on its bounding box.

    With bounding box b (nodes per axis), support-to-support offsets lie
    in -(b-1)..(b-1), so the weight table sliced to those offsets and
    zero-padded to a length L >= 2b - 1 realizes the aperiodic sum
    exactly by circular convolution.  L is the smallest 5-smooth length,
    capped at the table's own 2n.  Built once per (variant, energy).
    """

    def __init__(self, mask: np.ndarray, weights_tab: np.ndarray):
        idx = np.argwhere(mask)
        corner = idx.min(axis=0) if len(idx) else np.zeros(mask.ndim, dtype=int)
        top = idx.max(axis=0) if len(idx) else corner  # no support: a one-node box
        self.box = tuple(int(b) for b in top + 1 - corner)
        pad = weights_tab.shape[0]
        self.length = tuple(min(_fft_length(2 * b - 1), pad) for b in self.box)
        # offsets 0..b-1 sit at the front of either table, -(b-1)..-1 at its back
        dst = [np.r_[0:b, size - b + 1 : size] for b, size in zip(self.box, self.length)]
        src = [np.r_[0:b, pad - b + 1 : pad] for b in self.box]
        kernel = np.zeros(self.length, dtype=np.complex128)
        kernel[np.ix_(*dst)] = weights_tab[np.ix_(*src)]
        self.spectrum = np.fft.fftn(kernel)
        # (all columns, node positions inside the box) for the batched buffer
        self.nodes = (slice(None),) + tuple((idx - corner).T)
        self.column_bytes = 16 * int(np.prod(self.length))

    def apply(self, src: np.ndarray) -> np.ndarray:
        """K applied to each column of ``src`` (support nodes, columns), on the support.

        The forward transform zero-pads the box itself, and the inverse
        drops each axis's padding before it transforms the next axis.
        """
        axes = tuple(range(1, len(self.box) + 1))
        buf = np.zeros((src.shape[1],) + self.box, dtype=np.complex128)
        buf[self.nodes] = src.T
        conv = np.fft.fftn(buf, s=self.length, axes=axes)
        conv *= self.spectrum
        for axis, b in zip(axes, self.box):
            conv = np.fft.ifft(conv, axis=axis)[(slice(None),) * axis + (slice(0, b),)]
        return conv[self.nodes].T


def plane_wave(grid: GridSpec, k: WaveVector) -> np.ndarray:
    """e^{i k.x} sampled on the grid."""
    phase = np.zeros(grid.shape)
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = grid.n
        phase = phase + (grid.axis(a) * k.k[a]).reshape(shape)
    return np.exp(1j * phase)


def _check_resolution(grid: GridSpec, k: WaveVector, cfg: SolverConfig) -> None:
    hmax = max(grid.spacing)
    limit = 2.0 * np.pi / (cfg.resolution_factor * k.magnitude)
    if hmax > limit:
        raise UnresolvedGridError(
            f"grid spacing {hmax:.4g} exceeds {limit:.4g} needed to resolve "
            f"energy {k.energy:.4g} at resolution factor {cfg.resolution_factor}"
        )


def _support(v: ScalarField) -> np.ndarray:
    """Grid nodes where the potential acts: the only columns of K that count."""
    return v.mask & (v.values != 0)


def uses_direct_solve(v: ScalarField, cfg: SolverConfig) -> bool:
    """The route rule: True for the direct solve, False for the iteration.

    "dense" always goes direct (and fails above ``dense_limit``), "born"
    always iterates, "auto" goes direct when the support has at most
    ``dense_limit`` nodes.
    """
    if cfg.method == "auto":
        return int(np.count_nonzero(_support(v))) <= cfg.dense_limit
    return cfg.method == "dense"


def _support_matrix(v: ScalarField, weights_tab: np.ndarray, cfg: SolverConfig):
    """Support mask and the matrix I - W v restricted to the support.

    W between support nodes is read from the padded weight table through
    signed index offsets.  The matrix is filled a block of rows at a
    time, so the int64 offset array covers one block, never (m, m).  It
    comes in Fortran order, the layout LAPACK copies it into.
    """
    mask = _support(v)
    idx = np.argwhere(mask)
    m = idx.shape[0]
    if m > cfg.dense_limit:
        raise SolverConvergenceError(
            f"direct solve needs {m} support nodes, limit is {cfg.dense_limit}"
        )
    pad = weights_tab.shape[0]
    vsub = v.values[mask]
    a_mat = np.empty((m, m), dtype=np.complex128, order="F")
    # G depends on |x - y| only, so W is symmetric: row j of the C-ordered
    # transpose is -v_j W(x_j - x_i) over i, plus 1 on the diagonal
    rows = max(1, _ASSEMBLY_ELEMENTS // max(m, 1))
    for lo in range(0, m, rows):
        block = slice(lo, lo + rows)
        flat = np.zeros((len(idx[block]), m), dtype=np.int64)
        for a in range(idx.shape[1]):
            flat *= pad
            flat += np.subtract.outer(idx[block, a], idx[:, a]) % pad
        out = a_mat.T[block]
        np.take(weights_tab, flat, out=out, mode="wrap")
        out *= -vsub[block, None]
    a_mat[np.diag_indices(m)] += 1.0
    return mask, a_mat


def _support_solver(v: ScalarField, weights_tab: np.ndarray, cfg: SolverConfig):
    """Support mask and a function solving _support_matrix against columns.

    Each call is one numpy.linalg.solve: an LU factorization and the
    solve of every column given.  LAPACK factors a copy, so a call holds
    two (m, m) matrices at its peak; direct_amplitudes therefore passes
    all of an energy's channels in one call and factors once.
    """
    mask, a_mat = _support_matrix(v, weights_tab, cfg)
    return mask, lambda rhs: np.linalg.solve(a_mat, rhs)


def solve_lippmann_schwinger(
    v: ScalarField, k: WaveVector, cfg: SolverConfig = SolverConfig()
) -> tuple[ScalarField, SolverReport]:
    """Total field for incident plane wave ``k`` over potential ``v``.

    The route follows uses_direct_solve.  Both routes solve for the
    support values (the iteration applies _BoxOperator once per step and
    measures its update on the support); one full-grid kernel
    application then extends the field to every node, so off the
    support the equation holds by construction.  The report's residual
    is recomputed on the support with the box operator after the solve,
    not the last iterate's update size, and normalized by the incident
    wave's norm over the grid.  Raises SolverConvergenceError when the
    iteration diverges or a direct solve exceeds ``dense_limit``.
    """
    grid = v.grid
    _check_resolution(grid, k, cfg)
    inc = plane_wave(grid, k)
    inc_norm = float(np.linalg.norm(inc))
    mask = _support(v)

    if not np.any(mask):
        return ScalarField(grid, inc), SolverReport(
            method="born-iteration", iterations=0, residual=0.0, converged=True
        )

    weights_tab, spectrum = _kernel_tables(grid, k.magnitude)
    op = _BoxOperator(mask, weights_tab)
    vsub = v.values[mask][:, None]
    inc_sub = inc[mask][:, None]

    ratio = None
    if uses_direct_solve(v, cfg):
        _, solve = _support_solver(v, weights_tab, cfg)
        psi_sub = solve(inc_sub)
        method, iterations = "dense-direct", 1
    else:
        psi_sub = inc_sub
        updates: list[float] = []
        rising = 0
        iterations = 0
        for iterations in range(1, cfg.max_iterations + 1):
            nxt = inc_sub + op.apply(vsub * psi_sub)
            upd = float(np.linalg.norm(nxt - psi_sub)) / inc_norm
            psi_sub = nxt
            if updates and upd > updates[-1]:
                rising += 1
            else:
                rising = 0
            updates.append(upd)
            if upd <= cfg.tolerance or rising >= 5:
                break
        if not updates or updates[-1] > cfg.tolerance:
            raise SolverConvergenceError(f"iteration diverged after {iterations} steps")
        if len(updates) >= 2:
            ratios = [b / a for a, b in zip(updates, updates[1:]) if a > 0]
            if ratios:
                ratio = float(np.median(ratios))
        method = "born-iteration"

    source = np.zeros(grid.shape, dtype=np.complex128)
    source[mask] = (vsub * psi_sub)[:, 0]
    psi = inc + _apply_kernel(source, spectrum, grid)
    psi[mask] = psi_sub[:, 0]
    resid = psi_sub - inc_sub - op.apply(vsub * psi_sub)
    return ScalarField(grid, psi), SolverReport(
        method=method,
        iterations=iterations,
        residual=float(np.linalg.norm(resid)) / inc_norm,
        converged=True,
        contraction_ratio=ratio,
    )


def direct_amplitudes(
    v: ScalarField, incident, outgoing, cfg: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, float]:
    """Amplitudes f(k_c, l_c) of every channel c of one energy, one factorization.

    ``incident`` and ``outgoing`` are (channels, dim) wave vectors on one
    energy shell (relative 1e-12, every pair checked).  The support
    system is solved for every incident wave in one call; only channels
    whose right-hand sides would outgrow max(the matrix, _BOX_BYTES) are
    split into chunks, one solve each.  Blocks of the solved columns then
    give the amplitudes, one phase-matrix product each, and the worst
    residual: every channel's own FFT convolution on the support's
    bounding box, one batched _BoxOperator application per block (off
    the support the equation holds by construction), normalized as in
    solve_lippmann_schwinger.  Raises SolverConvergenceError when the
    support exceeds ``dense_limit``.
    """
    grid = v.grid
    incident = np.asarray(incident, dtype=float)
    outgoing = np.asarray(outgoing, dtype=float)
    if incident.ndim != 2 or incident.shape != outgoing.shape or incident.shape[1] != grid.dim:
        raise ValueError("incident and outgoing must both have shape (channels, dim)")
    waves = [WaveVector(k) for k in incident]
    for k, l in zip(waves, outgoing):
        _check_shell(waves[0], k.array)  # one kernel serves every channel
        _check_shell(k, l)
    _check_resolution(grid, waves[0], cfg)
    weights_tab, _ = _kernel_tables(grid, waves[0].magnitude)
    mask, solve = _support_solver(v, weights_tab, cfg)
    op = _BoxOperator(mask, weights_tab)

    coords = grid.nodes().reshape(grid.shape + (grid.dim,))[mask]
    vsub = v.values[mask][:, None]
    scale = (2.0 * np.pi) ** (-grid.dim) * grid.cell_volume
    inc_norm = grid.node_count**0.5  # |e^{i k.x}| = 1 at every node
    amps = np.empty(len(waves), dtype=complex)
    residual = 0.0
    m = len(coords)
    chunk = max(1, max(m * m, _BOX_BYTES // 16) // max(m, 1))
    step = max(1, min(_CHANNEL_BLOCK, _BOX_BYTES // op.column_bytes))
    for first in range(0, len(waves), chunk):
        inc_all = np.exp(1j * (coords @ incident[first : first + chunk].T))  # (m, chunk)
        psi_all = solve(inc_all)
        for lo in range(0, inc_all.shape[1], step):
            cols = slice(lo, lo + step)
            block = slice(first + lo, first + lo + step)
            inc, psi = inc_all[:, cols], psi_all[:, cols]
            src = vsub * psi
            phase = np.exp(-1j * (outgoing[block] @ coords.T))  # (block, m)
            amps[block] = scale * np.einsum("cm,mc->c", phase, src)
            resid = psi - inc - op.apply(src)
            residual = max(residual, float(np.max(np.linalg.norm(resid, axis=0))) / inc_norm)
    return amps, residual


# --- amplitudes ---------------------------------------------------------------


def _check_shell(k: WaveVector, l: np.ndarray) -> None:
    e_in = k.energy
    e_out = float(np.dot(l, l))
    if abs(e_in - e_out) > 1e-12 * max(e_in, e_out):
        raise EnergyShellError(
            f"in/out energies differ: {e_in!r} vs {e_out!r} "
            f"(relative {abs(e_in - e_out) / max(e_in, e_out):.3e})"
        )


def scattering_amplitude(
    v: ScalarField, psi: ScalarField, k: WaveVector, l
) -> complex:
    """f(k, l) = (2 pi)^(-d) * cell_volume * sum e^{-i l.y} v(y) psi(y).

    ``l`` must lie on the same energy shell as ``k`` (relative 1e-12).
    """
    l = np.asarray(l, dtype=float)
    _check_shell(k, l)
    if v.grid.key() != psi.grid.key():
        raise ValueError("potential and field live on different grids")
    mask = _support(v)
    if not np.any(mask):
        return 0.0 + 0.0j
    coords = v.grid.nodes().reshape(v.grid.shape + (v.grid.dim,))
    phase = np.exp(-1j * (coords[mask] @ l))
    total = np.sum(phase * v.values[mask] * psi.values[mask])
    return complex((2.0 * np.pi) ** (-v.grid.dim) * v.grid.cell_volume * total)


def born_amplitude(spec: PotentialSpec, k: WaveVector, l) -> complex:
    """First-order amplitude: the potential's transform at p = k - l."""
    l = np.asarray(l, dtype=float)
    _check_shell(k, l)
    return complex(analytic_hat(spec, k.array - l))


def far_field_check(
    v: ScalarField,
    k: WaveVector,
    cfg: SolverConfig = SolverConfig(),
    directions: Optional[np.ndarray] = None,
    radius: Optional[float] = None,
    psi: Optional[ScalarField] = None,
) -> float:
    """Max relative gap between the radiated far field and the amplitude.

    The total field is evaluated well outside the support through the
    integral representation, stripped of the incident wave, divided by
    c(d,|k|) e^{i|k||x|} / |x|^((d-1)/2), and compared against
    scattering_amplitude at l = |k| x/|x|.  Returns 0 for a zero
    potential.  Warns when the radius is small compared to the support
    diameter (near-field contamination dominates the gap there).
    """
    grid = v.grid
    mask = _support(v)
    if not np.any(mask):
        return 0.0
    coords = grid.nodes().reshape(grid.shape + (grid.dim,))
    pts = coords[mask]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diam = float(np.linalg.norm(hi - lo)) + max(grid.spacing)
    if radius is None:
        radius = 50.0 * diam
    if radius < 10.0 * diam:
        warnings.warn(
            f"far-field radius {radius:.3g} is below 10x the support diameter "
            f"{diam:.3g}; the comparison will be polluted by near-field terms",
            stacklevel=2,
        )
    if directions is None:
        if grid.dim == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            directions = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            raw = np.concatenate([np.eye(3), -np.eye(3), np.ones((1, 3)) / np.sqrt(3)])
            directions = raw
    if psi is None:
        psi, _ = solve_lippmann_schwinger(v, k, cfg)

    kmag = k.magnitude
    coeff = far_field_coefficient(grid.dim, kmag)
    src = v.values[mask] * psi.values[mask]
    amps = []
    ffs = []
    for u in np.atleast_2d(directions):
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        x_far = radius * u
        g_row = outgoing_green(x_far[None, :] - pts, kmag, grid.dim)
        scattered = grid.cell_volume * np.sum(g_row * src)
        f_ff = scattered * radius ** ((grid.dim - 1) / 2.0) / (
            coeff * np.exp(1j * kmag * radius)
        )
        f_amp = scattering_amplitude(v, psi, k, kmag * u)
        ffs.append(f_ff)
        amps.append(f_amp)
    amps = np.asarray(amps)
    ffs = np.asarray(ffs)
    scale = float(np.max(np.abs(amps)))
    if scale == 0.0:
        return float(np.max(np.abs(ffs)))
    return float(np.max(np.abs(ffs - amps)) / scale)
