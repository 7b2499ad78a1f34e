"""Outgoing-wave field solver and scattering amplitudes.

The total field for incident plane wave e^{i k.x} satisfies

    psi(x) = e^{i k.x} + integral_D G(x - y, |k|) v(y) psi(y) dy,

discretized on the potential's grid with midpoint weights except at the
singular diagonal cell, which carries the closed-form equal-measure
integral of the kernel (see greens.singular_cell_weight).  Columns of
the kernel vanish off the support, so the system restricted to the
support nodes is exact.  A single solve (solve_lippmann_schwinger) and
the amplitudes of every channel and variant of one energy
(channel_amplitudes, one kernel table for all) share one solver of that
system, _support_solver.  channel_amplitudes is given the energy E its
channels belong to and builds that table at |k| = sqrt(E); it and the
amplitude functions check their rows with geometry.check_shell, the
package's one shell rule.  One route rule, uses_direct_solve, picks the
route, and each route brings its own form of the support operator K v,
which both solves and checks its answers:

- direct, when the support has at most ``dense_limit`` nodes (or method
  "dense"): the matrix I - K v assembled from the weight table, one
  numpy.linalg.solve per chunk of incident columns, and the residual
  (I - K v) psi - incident as one matrix product with that same matrix.
  This route makes no FFT.
- iteration, otherwise: psi_{m+1} = incident + K v psi_m on the support
  values, batched over channels, each converging or failing on its own;
  it contracts with rate O(E^{-1/2}) at high energy.  K between support
  nodes needs only the kernel offsets inside the support's bounding box,
  so every step and every residual is one FFT convolution on that box
  (_BoxOperator, the scheme of Vainikko, "Fast solvers of the
  Lippmann-Schwinger equation", 2000), batched over channels.

Both forms read one weight table, so they are the same discrete operator
up to rounding and the routes can be cross-checked to tight tolerance.
A single solve extends its field from the support to the whole grid
with one more box operator, the whole grid's.

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

from .exceptions import SolverConvergenceError, UnresolvedGridError
from .geometry import check_shell
from .greens import far_field_coefficient, outgoing_green, radial_green, singular_cell_weight
from .grids import GridSpec, ScalarField, expi, outer
from .potentials import PotentialSpec, analytic_hat

__all__ = [
    "WaveVector",
    "SolverConfig",
    "SolverReport",
    "uses_direct_solve",
    "solve_lippmann_schwinger",
    "channel_amplitudes",
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
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.resolution_factor > 0:
            raise ValueError(f"resolution_factor must be positive, got {self.resolution_factor}")
        if self.dense_limit < 0:
            raise ValueError(f"dense_limit must be nonnegative, got {self.dense_limit}")


@dataclass(frozen=True)
class SolverReport:
    method: str  # born-iteration | dense-direct
    iterations: int
    residual: float
    converged: bool
    contraction_ratio: Optional[float] = field(default=None)


# --- kernel application ------------------------------------------------------

# columns per block of the iteration route's batched box convolutions
_CHANNEL_BLOCK = 32
# cap on the bytes of one block's widest temporary, the padded box buffer
# on the iteration route (a wide 3-D box gets fewer channels per block)
# and a (support, block) array in channel_amplitudes, and the least byte
# count of the right-hand sides one direct solve takes
_BOX_BYTES = 1 << 24
# matrix rows filled per block by _support_matrix: bounds its intp
# offset array, so the matrix is the only (m, m) array ever held
_ASSEMBLY_ELEMENTS = 1 << 19


def _kernel_weights(grid: GridSpec, kmag: float) -> np.ndarray:
    """Quadrature weights of G on the 2x zero-padded grid.

    Weights: midpoint value G(offset)*cell_volume off the diagonal, the
    equal-measure closed-form integral at offset zero.  The table holds
    every source-target offset inside the original box, so the direct
    route indexes it for its matrix and _BoxOperator slices it for the
    support's bounding box: every route shares identical discrete
    operators.
    """
    # the weights depend on |offset| per axis: evaluate offsets 0..n, the
    # table's first quadrant (octant in 3-D), and mirror it to -(n-1)..-1
    n = grid.n
    r = np.sqrt(outer(np.add, [np.square(np.arange(n + 1) * h) for h in grid.spacing]))
    origin = (0,) * grid.dim
    r[origin] = 1.0  # placeholder, overwritten below
    weights = radial_green(r, kmag, grid.dim) * grid.cell_volume
    weights[origin] = singular_cell_weight(kmag, grid.dim, grid.cell_volume)
    mirror = np.r_[0 : n + 1, n - 1 : 0 : -1]  # padded index -> |offset|
    return weights[np.ix_(*(mirror,) * grid.dim)]


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
    capped at the table's own 2n.  Built once per (variant, energy); a
    single solve builds one more on the whole grid to extend its field.
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
        # columns per batched application: bounds the padded buffer
        self.block = max(1, min(_CHANNEL_BLOCK, _BOX_BYTES // (16 * int(np.prod(self.length)))))

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


def _check_resolution(grid: GridSpec, kmag: float, cfg: SolverConfig) -> None:
    """UnresolvedGridError unless the grid resolves wavenumber ``kmag`` at cfg's factor."""
    hmax = max(grid.spacing)
    limit = 2.0 * np.pi / (cfg.resolution_factor * kmag)
    if hmax > limit:
        raise UnresolvedGridError(
            f"grid spacing {hmax:.4g} exceeds {limit:.4g} needed to resolve "
            f"energy {kmag * kmag:.4g} at resolution factor {cfg.resolution_factor}"
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

    W between support nodes is read from the padded weight table, which
    is even in each axis offset, at the absolute offsets per axis: no
    offset wraps, and the entries are those at the signed offsets.  The
    matrix is filled a block of rows at a time, so the intp offset array
    covers one block, never (m, m).  It comes in Fortran order, the
    layout LAPACK copies it into.
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
    # node indices premultiplied by the table's flat stride of their axis
    strided = idx * pad ** np.arange(idx.shape[1] - 1, -1, -1)
    a_mat = np.empty((m, m), dtype=np.complex128, order="F")
    # G depends on |x - y| only, so W is symmetric: row j of the C-ordered
    # transpose is -v_j W(x_j - x_i) over i, plus 1 on the diagonal
    rows = max(1, _ASSEMBLY_ELEMENTS // max(m, 1))
    for lo in range(0, m, rows):
        block = slice(lo, lo + rows)
        flat = np.subtract.outer(strided[block, 0], strided[:, 0])
        np.abs(flat, out=flat)
        for a in range(1, idx.shape[1]):
            step = np.subtract.outer(strided[block, a], strided[:, a])
            flat += np.abs(step, out=step)
        out = a_mat.T[block]
        np.take(weights_tab, flat, out=out, mode="clip")
        out *= -vsub[block, None]
    a_mat[np.diag_indices(m)] += 1.0
    return mask, a_mat


def _born_iteration(op: _BoxOperator, vsub: np.ndarray, inc: np.ndarray, cfg: SolverConfig,
                    inc_norm: float):
    """The iteration psi <- inc + K v psi on the support, each column on its own.

    A step applies ``op`` to the running columns.  A column stops once its
    update (its change's norm over ``inc_norm``) is within cfg.tolerance,
    after five rising updates in a row, or at cfg.max_iterations, and has
    failed unless its last update is within the tolerance: it takes the
    steps, and fails, as it would alone.  Returns (psi, steps, failed,
    updates), column c's updates in the first steps[c] rows of updates.
    """
    cols = inc.shape[1]
    psi = inc.copy()
    steps = np.zeros(cols, dtype=int)
    rising = np.zeros(cols, dtype=int)
    last = np.full(cols, np.inf)
    updates = []
    run = np.arange(cols)
    for _ in range(cfg.max_iterations):
        if not run.size:
            break
        nxt = inc[:, run] + op.apply(vsub * psi[:, run])
        upd = np.linalg.norm(nxt - psi[:, run], axis=0) / inc_norm
        psi[:, run] = nxt
        rising[run] = np.where(upd > last[run], rising[run] + 1, 0)
        last[run] = upd
        updates.append(last.copy())
        steps[run] += 1
        run = run[(upd > cfg.tolerance) & (rising[run] < 5)]
    return psi, steps, ~(last <= cfg.tolerance), np.reshape(updates, (-1, cols))


def _support_solver(v: ScalarField, mask: np.ndarray, weights_tab: np.ndarray,
                    cfg: SolverConfig):
    """The route's solve of the support system, its residual, the columns per solve, the route.

    Returns (solve, residual, chunk, route).  solve(inc) maps incident columns
    on the support to (psi, steps, failed, updates) as _born_iteration
    does, and residual(psi, inc) gives psi - inc - K v psi column by
    column, with the same operator the route solved with.  The direct
    route assembles A = I - K v: a solve is one numpy.linalg.solve, which
    factors a copy of A, on right-hand sides up to max(the matrix,
    _BOX_BYTES), so an energy is factored once, and the residual is the
    product A psi - inc.  The iteration route builds the _BoxOperator: a
    solve takes one block of its columns, and the residual is one
    batched FFT convolution.  route is the SolverReport method name,
    "dense-direct" or "born-iteration".  Raises SolverConvergenceError
    above ``dense_limit``.
    """
    if uses_direct_solve(v, cfg):
        _, a_mat = _support_matrix(v, weights_tab, cfg)
        m = a_mat.shape[0]

        def solve(inc):  # one step per column, no failure, no updates
            n = inc.shape[1]
            return np.linalg.solve(a_mat, inc), np.ones(n, int), np.zeros(n, bool), np.empty((0, n))

        def residual(psi, inc):
            return a_mat @ psi - inc

        return solve, residual, max(1, max(m * m, _BOX_BYTES // 16) // max(m, 1)), "dense-direct"
    op = _BoxOperator(mask, weights_tab)
    vsub = v.values[mask][:, None]
    inc_norm = v.grid.node_count**0.5  # |e^{i k.x}| = 1 at every node

    def residual(psi, inc):
        return psi - inc - op.apply(vsub * psi)

    def solve(inc):
        return _born_iteration(op, vsub, inc, cfg, inc_norm)

    return solve, residual, op.block, "born-iteration"


def solve_lippmann_schwinger(
    v: ScalarField, k: WaveVector, cfg: SolverConfig = SolverConfig()
) -> tuple[ScalarField, SolverReport]:
    """Total field for incident plane wave ``k`` over potential ``v``.

    The support values come from _support_solver with one column; the
    whole grid's _BoxOperator extends them to every node, so off the
    support the equation holds by construction.  The report's residual is
    the route's own residual on the support, normalized by the incident
    wave's norm over the grid; its contraction ratio is the median ratio
    of successive iteration updates.  Raises SolverConvergenceError when
    the iteration fails or a direct solve exceeds ``dense_limit``.
    """
    grid = v.grid
    _check_resolution(grid, k.magnitude, cfg)
    inc = grid.wave(k.k)
    mask = _support(v)

    if not np.any(mask):
        return ScalarField(grid, inc), SolverReport(
            method="born-iteration", iterations=0, residual=0.0, converged=True
        )

    weights_tab = _kernel_weights(grid, k.magnitude)
    solve, residual, _, route = _support_solver(v, mask, weights_tab, cfg)
    vsub = v.values[mask][:, None]
    inc_sub = inc[mask][:, None]
    psi_sub, steps, failed, updates = solve(inc_sub)
    iterations = int(steps[0])
    if failed[0]:
        raise SolverConvergenceError(f"iteration diverged after {iterations} steps")
    done = updates[:iterations, 0]
    ratios = done[1:][done[:-1] > 0] / done[:-1][done[:-1] > 0]

    source = np.zeros(grid.shape, dtype=np.complex128)
    source[mask] = (vsub * psi_sub)[:, 0]
    whole = _BoxOperator(np.ones(grid.shape, dtype=bool), weights_tab)
    psi = inc + whole.apply(source.reshape(-1, 1)).reshape(grid.shape)
    psi[mask] = psi_sub[:, 0]
    return ScalarField(grid, psi), SolverReport(
        method=route,
        iterations=iterations,
        residual=float(np.linalg.norm(residual(psi_sub, inc_sub))) / grid.node_count**0.5,
        converged=True,
        contraction_ratio=float(np.median(ratios)) if ratios.size else None,
    )


class _AxisWaves:
    """Plane waves e^{sign i k.x} on the support nodes, from one factor table per axis.

    A node's coordinates are grid axis values, so e^{i k.x} is the
    product over axes a of e^{i k_a x_a}, GridSpec.wave's rule: a single
    solve's incident wave on the support has a column's bits.  Each axis
    holds one table of those factors, a row per distinct support
    coordinate on that axis and a column per row of ``vectors``;
    columns(rows) multiplies the tables' gathered rows into the
    (support, len(rows)) waves of the rows ``rows`` (a slice) of
    ``vectors``.
    """

    def __init__(self, grid: GridSpec, idx: np.ndarray, vectors: np.ndarray, sign: float):
        self.tables, self.nodes = [], []  # per axis: factors, each node's table row
        for a in range(grid.dim):
            used, where = np.unique(idx[:, a], return_inverse=True)
            self.tables.append(expi(np.multiply.outer(grid.axis(a)[used], sign * vectors[:, a])))
            self.nodes.append(where)

    def columns(self, rows: slice) -> np.ndarray:
        wave = self.tables[0][self.nodes[0], rows]
        for table, nodes in zip(self.tables[1:], self.nodes[1:]):
            wave *= table[nodes, rows]
        return wave


def channel_amplitudes(
    fields: list[ScalarField], energy: float, incident, outgoing,
    cfg: SolverConfig = SolverConfig(),
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Amplitudes f(k_c, l_c) of every channel c at ``energy``, one column per field.

    ``fields`` are the potentials (variants) on one grid; ``incident`` and
    ``outgoing`` are (channels, dim) wave vectors on the shell of
    ``energy``, checked row-wise by geometry.check_shell.  The kernel is
    built at |k| = sqrt(energy), so a channel's amplitude does not depend
    on the other rows of the call.  The rows, the resolution and the
    kernel table are checked and built once, and _field_amplitudes answers
    each field in turn on the rows no earlier field failed.  Returns
    (amplitudes, failed, worst iterations, worst residual), the worst over
    the rows each field did not fail; a failed row is NaN in every column.
    An iteration that does not converge fails its own row only, and a
    direct solve above ``dense_limit`` fails every row.
    """
    incident = np.asarray(incident, dtype=float)
    outgoing = np.asarray(outgoing, dtype=float)
    amps = np.full((len(incident), len(fields)), np.nan, dtype=complex)
    failed = np.zeros(len(incident), dtype=bool)
    if not len(incident):  # no channel: nothing to check or solve
        return amps, failed, 0, 0.0
    grid = fields[0].grid
    if any(fld.grid != grid for fld in fields):
        raise ValueError("the fields of one call must share one grid")
    if not energy > 0:
        raise ValueError("energy must be positive")
    check_shell(energy, incident, outgoing, grid.dim)
    kmag = float(np.sqrt(energy))
    _check_resolution(grid, kmag, cfg)
    weights_tab = _kernel_weights(grid, kmag)
    iterations, worst = 0, 0.0
    for col, fld in enumerate(fields):
        live = np.flatnonzero(~failed)
        if not live.size:
            break
        amps[live, col], lost, steps, residual = _field_amplitudes(
            fld, weights_tab, incident[live], outgoing[live], cfg
        )
        failed[live[lost]] = True
        iterations, worst = max(iterations, steps), max(worst, residual)
    amps[failed] = np.nan
    return amps, failed, iterations, worst


def _field_amplitudes(
    v: ScalarField, weights_tab: np.ndarray, incident: np.ndarray, outgoing: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """channel_amplitudes for one field, on checked rows; the caller NaNs the failed ones.

    _support_solver solves chunks of the channels, whose waves come from
    per-axis factor tables (_AxisWaves).  Blocks of solved columns, at
    most a chunk and at most _BOX_BYTES per (support, block) array, give
    the amplitudes, one weighted sum each, and the residuals, normalized
    as in solve_lippmann_schwinger.  The field's matrix, solutions and
    wave tables are freed on return, before the next field builds its own.
    """
    grid = v.grid
    mask = _support(v)
    amps = np.full(len(incident), np.nan, dtype=complex)
    failed = np.ones(len(incident), dtype=bool)
    try:
        solve, residual, chunk, _ = _support_solver(v, mask, weights_tab, cfg)
    except SolverConvergenceError:
        return amps, failed, 0, 0.0

    idx = np.argwhere(mask)
    waves_in = _AxisWaves(grid, idx, incident, 1.0)
    waves_out = _AxisWaves(grid, idx, outgoing, -1.0)
    vsub = v.values[mask][:, None]
    scale = (2.0 * np.pi) ** (-grid.dim) * grid.cell_volume
    inc_norm = grid.node_count**0.5  # |e^{i k.x}| = 1 at every node
    # a block lies inside one chunk (on the iteration route a chunk is the
    # box operator's block, which a wide box makes small), and each
    # (support, block) temporary within _BOX_BYTES
    block = max(1, min(chunk, _BOX_BYTES // (16 * max(len(idx), 1))))
    iterations, worst = 0, 0.0
    for first in range(0, len(incident), chunk):
        inc_all = waves_in.columns(slice(first, first + chunk))  # (m, chunk)
        psi_all, steps, lost, _ = solve(inc_all)
        failed[first : first + chunk] = lost
        iterations = max(iterations, int(np.max(steps[~lost], initial=0)))
        for lo in range(0, inc_all.shape[1], block):
            cols = slice(lo, min(lo + block, inc_all.shape[1]))
            rows = slice(first + cols.start, first + cols.stop)
            inc, psi = inc_all[:, cols], psi_all[:, cols]
            weighted = waves_out.columns(rows)
            weighted *= vsub  # v(y) e^{-i l.y} on the support, (m, block)
            amps[rows] = scale * np.einsum("mc,mc->c", weighted, psi)
            resid = np.linalg.norm(residual(psi, inc), axis=0)[~lost[cols]]
            worst = max(worst, float(np.max(resid, initial=0.0)) / inc_norm)
    return amps, failed, iterations, worst


# --- amplitudes ---------------------------------------------------------------


def scattering_amplitude(v: ScalarField, psi: ScalarField, k: WaveVector, l):
    """f(k, l) = (2 pi)^(-d) * cell_volume * sum e^{-i l.y} v(y) psi(y).

    ``l`` is one outgoing vector, giving a complex, or a (rows, d) array,
    giving an array of amplitudes; every row must lie on the shell of
    k.energy (geometry.check_shell).  The waves come from per-axis factor
    tables (_AxisWaves), in blocks of rows within _BOX_BYTES.
    """
    rows = np.atleast_2d(np.asarray(l, dtype=float))
    check_shell(k.energy, np.broadcast_to(k.array, (len(rows), len(k.k))), rows, v.grid.dim)
    if v.grid != psi.grid:
        raise ValueError("potential and field live on different grids")
    mask = _support(v)
    idx = np.argwhere(mask)
    source = v.values[mask] * psi.values[mask]
    waves = _AxisWaves(v.grid, idx, rows, -1.0)
    block = max(1, _BOX_BYTES // (16 * max(len(idx), 1)))
    amps = np.empty(len(rows), dtype=complex)
    for lo in range(0, len(rows), block):
        amps[lo : lo + block] = source @ waves.columns(slice(lo, lo + block))
    amps *= (2.0 * np.pi) ** (-v.grid.dim) * v.grid.cell_volume
    return complex(amps[0]) if np.ndim(l) == 1 else amps


def born_amplitude(spec: PotentialSpec, k: WaveVector, l):
    """First-order amplitude: the potential's transform at p = k - l.

    ``l`` is one vector, giving a complex, or (rows, d), giving an array;
    every row must lie on the shell of k.energy (geometry.check_shell).
    """
    rows = np.atleast_2d(np.asarray(l, dtype=float))
    check_shell(k.energy, np.broadcast_to(k.array, (len(rows), len(k.k))), rows, len(k.k))
    amps = analytic_hat(spec, k.array - rows)
    return complex(amps[0]) if np.ndim(l) == 1 else amps


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
            directions = np.concatenate([np.eye(3), -np.eye(3), np.ones((1, 3)) / np.sqrt(3)])
    if psi is None:
        psi, _ = solve_lippmann_schwinger(v, k, cfg)

    kmag = k.magnitude
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    # the radiated field at radius * u, one row of kernel values per direction
    g_rows = outgoing_green(radius * u[:, None, :] - pts, kmag, grid.dim)
    scattered = grid.cell_volume * (g_rows @ (v.values[mask] * psi.values[mask]))
    ffs = scattered * radius ** ((grid.dim - 1) / 2.0) / (
        far_field_coefficient(grid.dim, kmag) * np.exp(1j * kmag * radius)
    )
    amps = scattering_amplitude(v, psi, k, kmag * u)
    scale = float(np.max(np.abs(amps)))
    if scale == 0.0:
        return float(np.max(np.abs(ffs)))
    return float(np.max(np.abs(ffs - amps)) / scale)
