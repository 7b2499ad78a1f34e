"""Inversion of phaseless data: moduli, phases, masking, and synthesis.

``reconstruct(ds, options)`` takes the references from the dataset,
``ds.backgrounds``, and returns a tuple of results.  Each step is one
array call, none loops over nodes in Python:

  1. recover_modulus_sq: one pass over the unflagged rows, sorted by
     (node, energy), estimates every column's |transform|^2 at every
     node from its highest energies (intensities converge to that
     limit as energy grows),
  2. build_mask: nodes where the phase algebra is singular are masked:
     a vanishing target modulus, failed solves, no data, and the null
     and degenerate-pair sets of the references' one BackgroundSet.scan
     of the probe grid, which the pre-flight validate_backgrounds reads
     too,
  3. recover_phase_two_refs / recover_phase_one_ref give the phase of
     every unmasked node in closed form from the interference with the
     known references; they take no thresholds, since the mask alone
     decides which nodes are singular,
  4. each masked node inside the ball is inpainted from its good
     neighbors, gathered for those nodes alone, and the result is
     band-limited with a smooth taper and transformed back to real
     space.

With two references the phase is unique and the tuple holds one
result; with one reference the law of cosines leaves two candidates per
node, and the tuple holds both globally coherent branches.  The branches
share one mask, and step 4 computes what does not depend on the phases
(amplitudes, fill nodes, taper window, support crop, the inverse
transform's phase factor) once for all of them.
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
from .fourier import inverse_phase, inverse_transform
from .geometry import in_ball
from .grids import GridSpec, ScalarField, SpectralField
# analytic_hat is not called here; it stays importable from this module
# because perfbench/tracing.py wraps it by name.
from .potentials import PotentialSpec, analytic_hat
from .synthesis import FLAG_OK, PhaselessDataset, ReferenceScan, null_nodes

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
    """Pipeline knobs; ``spatial_grid``, the output's grid, has the probe grid as its dual."""

    spatial_grid: GridSpec
    estimator: str = "top"
    p_cut: float | None = None
    taper_fraction: float = 0.1
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
        if self.p_cut is not None and not self.p_cut > 0:
            raise ValueError(f"p_cut must be positive, got {self.p_cut}")


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


def recover_modulus_sq(ds: PhaselessDataset, estimator: str = "top") -> np.ndarray:
    """Squared-modulus table: one row per probe node, one column per intensity column.

    "top" takes a node's intensities at the largest energy holding the
    node with an unflagged channel.  "richardson" additionally uses the
    second-largest such energy, extrapolating under the model
    intensity(E) = limit + const/sqrt(E) and clamping at zero; a node
    with a single usable energy keeps "top".  A row is NaN where no
    unflagged row reaches its node.
    """
    if estimator not in ("top", "richardson"):
        raise ValueError(f"unknown modulus estimator {estimator!r}")
    rows, nodes, energy, last = _unflagged_by_node(ds)
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


def recover_phase_two_refs(m0, m1, m2, w1hat, w2hat):
    """Phase of the target transform from two reference interferences.

    Arguments are equal-shape arrays over nodes, the nodes build_mask
    leaves unmasked: the mask alone decides which nodes are singular.
    Solves the 2x2 linear system in (cos, sin) of the unknown phase that
    the two intensity differences induce, then renormalizes onto the
    unit circle.  Returns arrays (unit phase, pre-normalization
    deviation); the deviation is a data-consistency residual, zero for
    exact data.  Raises SingularNodeError where a divisor is exactly
    zero: a target or reference modulus, the system's determinant or
    the solution's length.
    """
    amp0 = np.sqrt(np.maximum(m0, 0.0))
    a1, a2 = np.abs(w1hat), np.abs(w2hat)
    if np.any(amp0 == 0.0):
        raise SingularNodeError("target modulus is zero")
    if np.any((a1 == 0.0) | (a2 == 0.0)):
        raise SingularNodeError("reference transform is zero")
    b1, b2 = np.angle(w1hat), np.angle(w2hat)
    det = np.sin(b2 - b1)
    if np.any(det == 0.0):
        raise SingularNodeError("reference pair is phase-degenerate at this node")
    r1 = (m1 - m0 - a1 * a1) / (2.0 * amp0 * a1)
    r2 = (m2 - m0 - a2 * a2) / (2.0 * amp0 * a2)
    cos_a = (np.sin(b2) * r1 - np.sin(b1) * r2) / det
    sin_a = (np.cos(b1) * r2 - np.cos(b2) * r1) / det
    length = np.hypot(cos_a, sin_a)
    if np.any(length == 0.0):
        raise SingularNodeError("degenerate phase system (zero solution)")
    return cos_a / length + 1j * (sin_a / length), np.abs(length - 1.0)


def recover_phase_one_ref(m0, m1, w1hat):
    """Two-candidate phase recovery from a single reference.

    Arguments are equal-shape arrays over the nodes build_mask leaves
    unmasked.  Returns arrays (cos of the phase offset, clamp amount,
    (plus, minus)) where the candidates are exp(i(beta1 +/- arccos(...)))
    with the arccos taken in [0, pi].  Exact data keeps the cosine
    inside [-1, 1]; any excess is clamped and reported.  Raises
    SingularNodeError where the target or reference modulus is zero.
    """
    amp0 = np.sqrt(np.maximum(m0, 0.0))
    a1 = np.abs(w1hat)
    if np.any((amp0 == 0.0) | (a1 == 0.0)):
        raise SingularNodeError("modulus is zero")
    raw = (m1 - m0 - a1 * a1) / (2.0 * amp0 * a1)
    cos_d = np.clip(raw, -1.0, 1.0)
    b1 = np.angle(w1hat)
    delta = np.arccos(cos_d)
    return cos_d, np.abs(raw - cos_d), (np.exp(1j * (b1 + delta)), np.exp(1j * (b1 - delta)))


def build_mask(ds: PhaselessDataset, moduli: np.ndarray, scan: ReferenceScan) -> SingularMask:
    """Flag probe nodes where phase recovery is ill-posed.

    ``moduli`` is recover_modulus_sq's (n_nodes, 1 + n_refs) table, NaN
    where no estimate exists.  ``scan`` is the command's one
    ds.backgrounds.scan of the probe grid: its radii decide which nodes
    lie in the ball, and its null and pair sets, with their thresholds,
    are the reference rule.  The target modulus, 0 where no estimate
    exists, is null by the references' rule, synthesis.null_nodes: below
    1e-3 of its grid maximum, and everywhere if that maximum is zero or
    subnormal.  No threshold is a setting.
    """
    n_nodes = ds.pgrid.node_count
    if moduli.shape[0] != n_nodes:
        raise ValueError("moduli rows must cover every probe node")

    reached = np.zeros(n_nodes, dtype=bool)
    reached[ds.node_index] = True
    no_data = np.isnan(moduli[:, 0])
    top = max(ds.energies)
    inside = in_ball(scan.radii, top)
    out_of_ball = ~inside | ~reached

    solver_failed = np.zeros(n_nodes, dtype=bool)
    solver_failed[ds.node_index[ds.flags != FLAG_OK]] = True

    amp0 = np.sqrt(np.where(no_data, 0.0, np.maximum(moduli[:, 0], 0.0)))
    null, ez = null_nodes(amp0)
    target_null = inside & ~no_data & null

    return SingularMask(
        target_null=target_null,
        ref_null=scan.ref_null,
        pair_degenerate=scan.pair_degenerate,
        out_of_ball=out_of_ball,
        solver_failed=solver_failed,
        thresholds={"eps_zero": ez, "eps_ref": scan.eps_ref, "eps_pair": scan.eps_pair},
    )


def _inpaint(values: np.ndarray, good: np.ndarray, fill: np.ndarray, shape) -> np.ndarray:
    """Average each node of ``fill`` from its good neighbors; zero if isolated.

    Single pass: only originally good nodes feed the averages.  The
    3^d - 1 neighbors of the fill nodes alone are gathered from the flat
    zero-padded grid and summed from zero in ``np.ndindex`` order, so
    the work scales with the fill nodes, not the grid.
    """
    padded = tuple(s + 2 for s in shape)
    good_flat = np.pad(good.reshape(shape), 1).reshape(-1)
    val_flat = np.pad(np.where(good, values, 0.0).reshape(shape), 1).reshape(-1)
    at = np.flatnonzero(np.pad(fill.reshape(shape), 1))
    centre = np.ravel_multi_index((1,) * len(shape), padded)
    acc = np.zeros(at.size, dtype=complex)
    count = np.zeros(at.size)
    for offset in np.ndindex(*(3,) * len(shape)):
        if all(o == 1 for o in offset):
            continue
        near = at + (np.ravel_multi_index(offset, padded) - centre)
        acc += val_flat[near]
        count += good_flat[near]
    out = values.copy()
    out[fill] = np.divide(acc, count, out=np.zeros(at.size, dtype=complex), where=count > 0)
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


def _modulus_decay_diagnostic(ds: PhaselessDataset) -> dict:
    """Spread of per-node intensities against the top energy, fitted."""
    if len(ds.energies) < 5:
        return {"available": False}
    rows, _, energy, last = _unflagged_by_node(ds)
    top = max(ds.energies)
    run = np.cumsum(last) - last  # each sorted row's node run
    top_rows = rows[last]
    keep = (energy[last] == top)[run] & (energy != top)
    spread = np.abs(ds.values[rows[keep], 0] - ds.values[top_rows[run[keep]], 0])
    kept = energy[keep]
    # sorted(set()), not np.unique, which imports numpy.ma (13 ms) on first use
    pairs = [(E, float(spread[kept == E].max())) for E in sorted(set(kept.tolist()))]
    if len(pairs) < 4:
        return {"available": False}
    try:
        slope, intercept = fit_decay([p[0] for p in pairs], [p[1] for p in pairs])
    except DegenerateFitError:
        return {"available": False}
    return {"available": True, "slope": slope, "intercept": intercept,
            "pairs": pairs}


def reconstruct(ds: PhaselessDataset, options: ReconstructionOptions):
    """Run the full inversion pipeline on a phaseless dataset.

    The references are the dataset's own, ``ds.backgrounds``.  Returns a
    tuple of ReconstructionResult: one for two references, the (plus,
    minus) branches for one reference, which carry the same SingularMask
    object.  Raises DegenerateDataError when more than
    ``options.mask_fraction_limit`` of reachable nodes are masked, which
    is the signature of a degenerate reference pair (for instance two
    references related by a pure shift).
    """
    refs = ds.backgrounds
    if refs is None:
        raise NoDataError("dataset carries no reference scatterers")
    if not ds.rows:
        raise NoDataError("dataset is empty")

    pgrid = ds.pgrid
    spatial = options.spatial_grid
    if spatial.dual() != pgrid:
        raise GridMismatchError("spatial grid's dual differs from the probe grid")

    moduli = recover_modulus_sq(ds, options.estimator)
    # the one scan of the probe grid that every step below reads
    scan = refs.scan(pgrid)
    mask = build_mask(ds, moduli, scan)
    frac = mask.masked_fraction
    if frac > options.mask_fraction_limit:
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

    usable = ~mask.any_flag

    top = max(ds.energies)
    p_cut = options.p_cut if options.p_cut is not None else 0.9 * 2.0 * np.sqrt(top)

    diag_common = {
        "masked_fraction": frac,
        "estimator": options.estimator,
        "p_cut": p_cut,
        "modulus_decay": _modulus_decay_diagnostic(ds),
    }

    m = moduli[usable]
    if refs.count == 2:
        phases = np.zeros(pgrid.node_count, dtype=complex)
        deviations = np.full(pgrid.node_count, np.nan)
        phases[usable], deviations[usable] = recover_phase_two_refs(
            m[:, 0], m[:, 1], m[:, 2], scan.hats[0][usable], scan.hats[1][usable]
        )
        diag = {
            **diag_common,
            "max_phase_residual": float(np.nanmax(deviations)) if usable.any() else None,
            "mean_phase_residual": float(np.nanmean(deviations)) if usable.any() else None,
        }
        return _assemble(ds, scan.radii, moduli, usable, mask, spatial, p_cut, options, diag,
                         {"two-reference": phases})

    # Single reference: carry both branches to the end.
    plus = np.zeros(pgrid.node_count, dtype=complex)
    minus = np.zeros(pgrid.node_count, dtype=complex)
    clamps = np.full(pgrid.node_count, np.nan)
    _, clamps[usable], (plus[usable], minus[usable]) = recover_phase_one_ref(
        m[:, 0], m[:, 1], scan.hats[0][usable]
    )
    diag = {
        **diag_common,
        "max_cosine_clamp": float(np.nanmax(clamps)) if usable.any() else None,
    }
    return _assemble(ds, scan.radii, moduli, usable, mask, spatial, p_cut, options, diag,
                     {"one-reference-plus": plus, "one-reference-minus": minus})


def _assemble(ds, radii, moduli, usable, mask, spatial, p_cut, opts, diagnostics, branches):
    """One ReconstructionResult per entry of ``branches``, a {name: unit phases} dict.

    What the branches share is computed once: the target amplitudes,
    the fill nodes, the taper window (on ``radii``, the probe grid's
    |p| from reconstruct's one scan), the declared-support crop and the
    inverse transform's phase factor.  Each branch then inpaints,
    band-limits and inverts its own spectrum.
    """
    pgrid = ds.pgrid
    amp0 = np.sqrt(np.where(np.isnan(moduli[:, 0]), 0.0, np.maximum(moduli[:, 0], 0.0)))
    fill = mask.any_flag & ~mask.out_of_ball
    window = _taper_window(radii, p_cut, opts.taper_fraction)
    phase = inverse_phase(spatial)
    keep = None
    if opts.declared_support is not None:
        keep = np.zeros(spatial.shape, dtype=bool)
        for center, radius in opts.declared_support.support_balls():
            keep |= spatial.sq_distances(center) <= radius * radius

    results = []
    for branch, phases in branches.items():
        raw = np.where(usable, amp0 * phases, 0.0 + 0.0j)
        filled = _inpaint(raw, usable, fill, pgrid.shape)
        spectrum = SpectralField(pgrid, filled.reshape(pgrid.shape), spatial)
        banded = SpectralField(pgrid, (filled * window).reshape(pgrid.shape), spatial)
        potential = inverse_transform(banded, spatial, phase)
        values = potential.values
        if keep is not None:
            values = np.where(keep, values, 0.0)
            potential = ScalarField(spatial, values, keep)

        # not np.linalg.norm: its threaded BLAS dot is slower here and sums in thread order
        re_norm = float(np.sqrt(np.sum(np.square(values.real))))
        im_norm = float(np.sqrt(np.sum(np.square(values.imag))))
        diag = dict(diagnostics)
        diag["imag_to_real_ratio"] = im_norm / re_norm if re_norm > 0 else np.inf
        if opts.declared_real and re_norm > 0 and im_norm > 0.05 * re_norm:
            diag["realness_warning"] = (
                f"imaginary residue {im_norm / re_norm:.3g} exceeds 5% of the real part"
            )
        results.append(ReconstructionResult(
            spectrum=spectrum, mask=mask, potential=potential, branch=branch, diagnostics=diag,
        ))
    return tuple(results)
