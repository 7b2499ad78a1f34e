"""Inversion of phaseless data: moduli, phases, masking, and synthesis.

Every step is array code over the whole probe grid:

  1. one pass over the unflagged rows, sorted by (node, energy),
     estimates |target transform|^2 at each node from its highest
     energies (intensities converge to that limit as energy grows),
  2. the phase of every usable node follows in closed form from the
     interference with one or two known reference scatterers,
  3. nodes where that algebra is singular are masked: vanishing
     moduli, a degenerate reference pair (the rule of
     BackgroundSet.singular_nodes), failed solves, no data,
  4. masked nodes are inpainted from their neighbors, and the result
     is band-limited with a smooth taper and transformed back to real
     space.

With two references the phase is unique; with one reference the law of
cosines leaves two candidates per node, and the pipeline returns both
globally coherent branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import fit_decay
from .exceptions import (
    DegenerateDataError,
    DegenerateFitError,
    GridMismatchError,
    NoDataError,
    SingularNodeError,
)
from .fourier import inverse_transform
from .grids import GridSpec, ScalarField, SpectralField
from .potentials import PotentialSpec, analytic_hat
from .synthesis import FLAG_OK, BackgroundSet, PhaselessDataset

__all__ = [
    "SingularMask",
    "ReconstructionOptions",
    "ReconstructionResult",
    "recover_modulus_sq",
    "recover_phase_two_refs",
    "recover_phase_one_ref",
    "build_mask",
    "reconstruct",
]


@dataclass(frozen=True)
class SingularMask:
    """Per-node trouble flags over a probe grid (flat, row-major).

    target_null: recovered target modulus below threshold (phase is
    meaningless there).  ref_null[j]: reference transform j below
    threshold.  pair_degenerate: the two reference phases agree modulo
    pi, making the two-reference system singular; by construction this
    flag is only raised off the ref_null sets.  out_of_ball: no row
    reaches the node.  solver_failed: synthesis flagged a row at the
    node; a node whose rows are all flagged has no modulus estimate but
    stays in the ball, so it counts toward masked_fraction.
    """

    target_null: np.ndarray
    ref_null: tuple[np.ndarray, ...]
    pair_degenerate: np.ndarray
    out_of_ball: np.ndarray
    solver_failed: np.ndarray
    thresholds: dict

    def __post_init__(self):
        for arr in (self.target_null, self.pair_degenerate, self.out_of_ball,
                    self.solver_failed, *self.ref_null):
            if arr.dtype != np.bool_ or arr.shape != self.target_null.shape:
                raise ValueError("mask arrays must be boolean and congruent")
        if np.any(self.pair_degenerate & np.logical_or.reduce(self.ref_null)):
            raise ValueError("pair degeneracy is defined off the reference zero sets")

    @property
    def any_flag(self) -> np.ndarray:
        flags = self.target_null | self.pair_degenerate | self.out_of_ball | self.solver_failed
        for rn in self.ref_null:
            flags = flags | rn
        return flags

    @property
    def masked_fraction(self) -> float:
        """Fraction of in-ball nodes carrying any flag."""
        reachable = ~self.out_of_ball
        total = int(np.sum(reachable))
        if total == 0:
            return 1.0
        return float(np.sum(self.any_flag & reachable) / total)


@dataclass(frozen=True)
class ReconstructionOptions:
    """Knobs for the inversion pipeline; defaults follow the design notes."""

    spatial_grid: GridSpec | None = None
    estimator: str = "top"
    p_cut: float | None = None
    taper_fraction: float = 0.1
    eps_zero: float | None = None
    eps_pair: float | None = None
    mask_fraction_limit: float = 0.2
    declared_support: PotentialSpec | None = None
    declared_real: bool = False

    def __post_init__(self):
        if self.estimator not in ("top", "richardson"):
            raise ValueError(f"unknown modulus estimator {self.estimator!r}")
        if not 0.0 <= self.taper_fraction < 1.0:
            raise ValueError("taper fraction must lie in [0, 1)")
        if not 0.0 < self.mask_fraction_limit <= 1.0:
            raise ValueError("mask fraction limit must lie in (0, 1]")


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered spectrum and potential plus the mask that shaped them.

    ``spectrum`` holds the raw recovered transform on the probe grid
    (no band limit applied), so spectral comparisons are not polluted
    by the taper; the band limit enters only the real-space synthesis.
    """

    spectrum: SpectralField
    mask: SingularMask
    potential: ScalarField
    branch: str
    diagnostics: dict = field(default_factory=dict)


def _unflagged_by_node(ds: PhaselessDataset):
    """Unflagged rows sorted by (node, E), with nodes, energies and top-row mask."""
    node, energy = ds.node_index, ds.energy
    ok = np.nonzero(ds.flags == FLAG_OK)[0]
    rows = ok[np.lexsort((energy[ok], node[ok]))]
    nodes = node[rows]
    last = np.ones(rows.size, dtype=bool)
    last[:-1] = nodes[1:] != nodes[:-1]
    return rows, nodes, energy[rows], last


def _recover_all_moduli(ds: PhaselessDataset, by_node, estimator: str) -> np.ndarray:
    """recover_modulus_sq for every node and column; NaN where no unflagged row.

    ``by_node`` is the result of _unflagged_by_node(ds).
    """
    if estimator not in ("top", "richardson"):
        raise ValueError(f"unknown modulus estimator {estimator!r}")
    rows, nodes, energy, last = by_node
    out = np.full((ds.pgrid.node_count, ds.values.shape[1]), np.nan)
    out[nodes[last]] = ds.values[rows[last]]
    if estimator == "richardson":
        # sorted row i is the second-highest of its node when row i + 1
        # is the top row of the same node
        pair = last[1:] & (nodes[1:] == nodes[:-1])
        ea, eb = np.sqrt(energy[:-1][pair])[:, None], np.sqrt(energy[1:][pair])[:, None]
        sa, sb = ds.values[rows[:-1][pair]], ds.values[rows[1:][pair]]
        out[nodes[1:][pair]] = np.maximum((eb * sb - ea * sa) / (eb - ea), 0.0)
    return out


def recover_modulus_sq(
    ds: PhaselessDataset, node: int, j: int = 0, estimator: str = "top"
) -> float:
    """Squared-modulus estimate for column ``j`` at probe node ``node``.

    "top" returns the intensity at the largest energy holding the node
    with an unflagged channel.  "richardson" additionally uses the
    second-largest such energy, extrapolating under the model
    intensity(E) = limit + const/sqrt(E) and clamping at zero; with a
    single usable energy it degrades to "top".
    """
    if node not in ds.node_index:
        raise NoDataError(f"no channel reaches probe node {node}")
    value = _recover_all_moduli(ds, _unflagged_by_node(ds), estimator)[node]
    if np.isnan(value[0]):
        raise NoDataError(f"all channels at probe node {node} are flagged")
    if j < 0 or j >= value.size:
        raise ValueError(f"no intensity column {j}")
    return float(value[j])


def recover_phase_two_refs(
    m0, m1, m2, w1hat, w2hat, eps_zero: float, eps_pair: float, eps_ref=None
):
    """Phase of the target transform from two reference interferences.

    Solves the 2x2 linear system in (cos, sin) of the unknown phase that
    the two intensity differences induce, then renormalizes onto the
    unit circle.  Returns (unit phase, pre-normalization deviation);
    the deviation is a data-consistency residual, zero for exact data.
    Arguments may be scalars, giving (complex, float), or equal-shape
    arrays of nodes, giving arrays.  Raises SingularNodeError when the
    target modulus is below ``eps_zero``, reference j's modulus below
    ``eps_ref[j]`` (default ``eps_zero``; the mask passes the threshold
    it applied to each reference), or the reference phases are
    degenerate below ``eps_pair`` at any node.
    """
    e1, e2 = eps_ref if eps_ref is not None else (eps_zero, eps_zero)
    amp0 = np.sqrt(np.maximum(m0, 0.0))
    a1, a2 = np.abs(w1hat), np.abs(w2hat)
    if np.any(amp0 < eps_zero):
        raise SingularNodeError("target modulus below threshold")
    if np.any((a1 < e1) | (a2 < e2)):
        raise SingularNodeError("reference transform below threshold")
    b1, b2 = np.angle(w1hat), np.angle(w2hat)
    det = np.sin(b2 - b1)
    # |omega1^2 - omega2^2| = 2 |sin(b2 - b1)| is the caller-facing
    # degeneracy measure; keep the same scale here.
    if np.any(2.0 * np.abs(det) < eps_pair):
        raise SingularNodeError("reference pair is phase-degenerate at this node")
    r1 = (m1 - m0 - a1 * a1) / (2.0 * amp0 * a1)
    r2 = (m2 - m0 - a2 * a2) / (2.0 * amp0 * a2)
    cos_a = (np.sin(b2) * r1 - np.sin(b1) * r2) / det
    sin_a = (np.cos(b1) * r2 - np.cos(b2) * r1) / det
    length = np.hypot(cos_a, sin_a)
    if np.any(length == 0.0):
        raise SingularNodeError("degenerate phase system (zero solution)")
    z = cos_a / length + 1j * (sin_a / length)
    dev = np.abs(length - 1.0)
    if z.ndim == 0:
        return complex(z), float(dev)
    return z, dev


def recover_phase_one_ref(m0, m1, w1hat, eps_zero: float, eps_ref=None):
    """Two-candidate phase recovery from a single reference.

    Returns (cos of the phase offset, clamp amount, (plus, minus))
    where the candidates are exp(i(beta1 +/- arccos(...))) with the
    arccos taken in [0, pi].  Exact data keeps the cosine inside
    [-1, 1]; any excess is clamped and reported.  Scalar arguments give
    floats and complex numbers, equal-shape arrays give arrays.  The
    target modulus is checked against ``eps_zero``, the reference's
    against ``eps_ref[0]`` (default ``eps_zero``).
    """
    (e1,) = eps_ref if eps_ref is not None else (eps_zero,)
    amp0 = np.sqrt(np.maximum(m0, 0.0))
    a1 = np.abs(w1hat)
    if np.any((amp0 < eps_zero) | (a1 < e1)):
        raise SingularNodeError("modulus below threshold")
    raw = (m1 - m0 - a1 * a1) / (2.0 * amp0 * a1)
    cos_d = np.clip(raw, -1.0, 1.0)
    clamp = np.abs(raw - cos_d)
    b1 = np.angle(w1hat)
    delta = np.arccos(cos_d)
    plus = np.exp(1j * (b1 + delta))
    minus = np.exp(1j * (b1 - delta))
    if cos_d.ndim == 0:
        return float(cos_d), float(clamp), (complex(plus), complex(minus))
    return cos_d, clamp, (plus, minus)


def build_mask(
    ds: PhaselessDataset,
    refs: BackgroundSet,
    moduli: np.ndarray,
    eps_zero: float | None = None,
    eps_pair: float | None = None,
) -> SingularMask:
    """Flag probe nodes where phase recovery is ill-posed.

    ``moduli`` is the (n_nodes, 1 + n_refs) array of recovered squared
    moduli with NaN where no estimate exists.  Thresholds default to
    1e-3 of each quantity's grid maximum; the reference rule is
    BackgroundSet.singular_nodes.
    """
    pgrid = ds.pgrid
    nodes = pgrid.nodes()
    n_nodes = nodes.shape[0]
    if moduli.shape[0] != n_nodes:
        raise ValueError("moduli rows must cover every probe node")

    reached = np.zeros(n_nodes, dtype=bool)
    reached[ds.node_index] = True
    no_data = np.isnan(moduli[:, 0])
    top = max(ds.energies)
    in_ball = np.linalg.norm(nodes, axis=1) <= 2.0 * np.sqrt(top)
    out_of_ball = ~in_ball | ~reached

    solver_failed = np.zeros(n_nodes, dtype=bool)
    solver_failed[ds.node_index[ds.flags != FLAG_OK]] = True

    amp0 = np.sqrt(np.where(no_data, 0.0, np.maximum(moduli[:, 0], 0.0)))
    scale0 = float(np.max(amp0)) if amp0.size else 0.0
    ez = eps_zero if eps_zero is not None else 1e-3 * scale0
    target_null = in_ball & ~no_data & (amp0 < ez)

    ref_null, pair, eps_ref, ep = refs.singular_nodes(nodes, eps_zero, eps_pair)
    return SingularMask(
        target_null=target_null,
        ref_null=ref_null,
        pair_degenerate=pair,
        out_of_ball=out_of_ball,
        solver_failed=solver_failed,
        thresholds={"eps_zero": ez, "eps_ref": eps_ref, "eps_pair": ep},
    )


def _inpaint(values: np.ndarray, good: np.ndarray, fill: np.ndarray, shape) -> np.ndarray:
    """Average each node of ``fill`` from its good neighbors; zero if isolated.

    Single pass: only originally good nodes feed the averages.  The
    neighbors are summed over the 3^d shifted windows of the zero-padded
    grid, in ``np.ndindex`` order.
    """
    good_grid = np.pad(good.reshape(shape), 1)
    val_grid = np.pad(np.where(good, values, 0.0).reshape(shape), 1)
    acc = np.zeros(shape, dtype=complex)
    count = np.zeros(shape)
    for offset in np.ndindex(*(3,) * len(shape)):
        if all(o == 1 for o in offset):
            continue
        window = tuple(slice(o, o + s) for o, s in zip(offset, shape))
        acc += val_grid[window]
        count += good_grid[window]
    avg = np.divide(acc, count, out=np.zeros(shape, dtype=complex), where=count > 0)
    out = values.copy()
    out[fill] = avg.reshape(-1)[fill]
    return out


def _taper_window(pnorm: np.ndarray, p_cut: float, fraction: float) -> np.ndarray:
    """1 inside, cosine roll-off over the outer ``fraction`` of the cut."""
    inner = p_cut * (1.0 - fraction)
    w = np.zeros_like(pnorm)
    w[pnorm <= inner] = 1.0
    band = (pnorm > inner) & (pnorm <= p_cut)
    if fraction > 0.0:
        w[band] = 0.5 * (1.0 + np.cos(np.pi * (pnorm[band] - inner) / (p_cut - inner)))
    else:
        w[band] = 1.0
    return w


def _modulus_decay_diagnostic(ds: PhaselessDataset, by_node) -> dict:
    """Spread of per-node intensities against the top energy, fitted."""
    if len(ds.energies) < 5:
        return {"available": False}
    rows, _, energy, last = by_node
    top = max(ds.energies)
    run = np.cumsum(last) - last  # each sorted row's node run
    top_rows = rows[last]
    keep = (energy[last] == top)[run] & (energy != top)
    spread = np.abs(ds.values[rows[keep], 0] - ds.values[top_rows[run[keep]], 0])
    kept = energy[keep]
    pairs = [(float(E), float(spread[kept == E].max())) for E in np.unique(kept)]
    if len(pairs) < 4:
        return {"available": False}
    try:
        slope, intercept = fit_decay([p[0] for p in pairs], [p[1] for p in pairs])
    except DegenerateFitError:
        return {"available": False}
    return {"available": True, "slope": slope, "intercept": intercept,
            "pairs": pairs}


def reconstruct(
    ds: PhaselessDataset,
    refs: BackgroundSet | None = None,
    options: ReconstructionOptions | None = None,
):
    """Run the full inversion pipeline on a phaseless dataset.

    Returns one ReconstructionResult for two references, or a
    (plus, minus) tuple for one reference.  Raises DegenerateDataError
    when more than ``options.mask_fraction_limit`` of reachable nodes
    are masked, which is the signature of a degenerate reference pair
    (for instance two references related by a pure shift).
    """
    opts = options or ReconstructionOptions()
    refs = refs if refs is not None else ds.backgrounds
    if refs is None:
        raise NoDataError("dataset carries no reference scatterers")
    if ds.n_refs != refs.count:
        raise ValueError("reference count differs from dataset columns")
    if not ds.rows:
        raise NoDataError("dataset is empty")

    pgrid = ds.pgrid
    spatial = opts.spatial_grid
    if spatial is None:
        raise ValueError("options.spatial_grid is required for real-space output")
    if spatial.dual().key() != pgrid.key():
        raise GridMismatchError("spatial grid's dual differs from the probe grid")

    by_node = _unflagged_by_node(ds)
    moduli = _recover_all_moduli(ds, by_node, opts.estimator)
    mask = build_mask(ds, refs, moduli, opts.eps_zero, opts.eps_pair)
    frac = mask.masked_fraction
    if frac > opts.mask_fraction_limit:
        pair_frac = float(np.mean(mask.pair_degenerate))
        hint = (
            " (the reference-pair degeneracy dominates; references related "
            "by a pure shift produce exactly this)"
            if pair_frac > 0.5 * frac
            else ""
        )
        raise DegenerateDataError(
            f"{100.0 * frac:.1f}% of reachable probe nodes are masked{hint}"
        )

    nodes = pgrid.nodes()
    hats = refs.reference_hats(nodes)
    ez = mask.thresholds["eps_zero"]
    er = mask.thresholds["eps_ref"]
    ep = mask.thresholds["eps_pair"]
    usable = ~mask.any_flag

    top = max(ds.energies)
    p_cut = opts.p_cut if opts.p_cut is not None else 0.9 * 2.0 * np.sqrt(top)

    diag_common = {
        "masked_fraction": frac,
        "estimator": opts.estimator,
        "p_cut": p_cut,
        "modulus_decay": _modulus_decay_diagnostic(ds, by_node),
    }

    m = moduli[usable]
    if refs.count == 2:
        phases = np.zeros(nodes.shape[0], dtype=complex)
        deviations = np.full(nodes.shape[0], np.nan)
        phases[usable], deviations[usable] = recover_phase_two_refs(
            m[:, 0], m[:, 1], m[:, 2], hats[0][usable], hats[1][usable], ez, ep, er
        )
        result = _assemble(
            ds, moduli, phases, usable, mask, spatial, p_cut, opts,
            branch="two-reference",
            diagnostics={
                **diag_common,
                "max_phase_residual": float(np.nanmax(deviations)) if usable.any() else None,
                "mean_phase_residual": float(np.nanmean(deviations)) if usable.any() else None,
            },
        )
        return result

    # Single reference: carry both branches to the end.
    plus = np.zeros(nodes.shape[0], dtype=complex)
    minus = np.zeros(nodes.shape[0], dtype=complex)
    clamps = np.full(nodes.shape[0], np.nan)
    _, clamps[usable], (plus[usable], minus[usable]) = recover_phase_one_ref(
        m[:, 0], m[:, 1], hats[0][usable], ez, er
    )
    diag = {
        **diag_common,
        "max_cosine_clamp": float(np.nanmax(clamps)) if usable.any() else None,
    }
    return (
        _assemble(ds, moduli, plus, usable, mask, spatial, p_cut, opts,
                  branch="one-reference-plus", diagnostics=diag),
        _assemble(ds, moduli, minus, usable, mask, spatial, p_cut, opts,
                  branch="one-reference-minus", diagnostics=diag),
    )


def _assemble(ds, moduli, phases, usable, mask, spatial, p_cut, opts, branch, diagnostics):
    pgrid = ds.pgrid
    nodes = pgrid.nodes()
    amp0 = np.sqrt(np.where(np.isnan(moduli[:, 0]), 0.0, np.maximum(moduli[:, 0], 0.0)))
    raw = np.where(usable, amp0 * phases, 0.0 + 0.0j)

    fill = mask.any_flag & ~mask.out_of_ball
    filled = _inpaint(raw, usable, fill, pgrid.shape)

    spectrum = SpectralField(pgrid, filled.reshape(pgrid.shape), spatial)

    pnorm = np.linalg.norm(nodes, axis=1)
    window = _taper_window(pnorm, p_cut, opts.taper_fraction)
    banded = SpectralField(pgrid, (filled * window).reshape(pgrid.shape), spatial)
    potential = inverse_transform(banded, spatial)

    values = potential.values
    support_mask = None
    if opts.declared_support is not None:
        mesh = spatial.meshgrid()
        keep = np.zeros(spatial.shape, dtype=bool)
        for center, radius in opts.declared_support.support_balls():
            r2 = sum((mesh[a] - center[a]) ** 2 for a in range(spatial.dim))
            keep |= r2 <= radius * radius
        values = np.where(keep, values, 0.0)
        support_mask = keep
        potential = ScalarField(spatial, values, support_mask)

    re_norm = float(np.linalg.norm(values.real))
    im_norm = float(np.linalg.norm(values.imag))
    diagnostics = dict(diagnostics)
    diagnostics["imag_to_real_ratio"] = im_norm / re_norm if re_norm > 0 else np.inf
    if opts.declared_real and re_norm > 0 and im_norm > 0.05 * re_norm:
        diagnostics["realness_warning"] = (
            f"imaginary residue {im_norm / re_norm:.3g} exceeds 5% of the real part"
        )

    return ReconstructionResult(
        spectrum=spectrum,
        mask=mask,
        potential=potential,
        branch=branch,
        diagnostics=diagnostics,
    )
