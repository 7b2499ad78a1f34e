"""Build phaseless datasets: squared scattering amplitudes, no phases.

A dataset stores, per channel, the intensities

    m_0 = |f|^2        for the target alone,
    m_j = |f_j|^2      for target plus reference scatterer j,

where each reference w_j is a known potential supported strictly away
from the target.  Phases are discarded the moment a value is stored;
reconstruction has to earn them back.  The channels of all energies come
as one row-wise table (geometry.channels_on_grid), energy by energy, and
a dataset keeps only each row's energy and probe-node index: the row's
momentum transfer is that node, and the dataset's energies are its rows'.
Two modes: "born-oracle" takes amplitudes from closed-form transforms
(the infinite-energy limit, exact), one analytic_hat call per scatterer
component on the distinct transfers incident - outgoing of the whole
table; "full-solver" runs the integral-equation solver: per energy, one
solver.channel_amplitudes call answers every channel of every variant,
each variant by one direct solve or by one iteration batched over
channels.

write_dataset stores the rows as CSV and, in a JSON header, only what the
rows cannot say: mode, convention, probe grid, references, the solver's
notes and the CSV's hash.  read_dataset parses a CSV body in one
np.loadtxt pass, names the first bad line when that pass fails, and
holds each row to channels_on_grid's rule: a node (GridSpec.flat_index)
in its energy's ball (geometry.in_ball on GridSpec.radii).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BackgroundValidationError,
    GridMismatchError,
    InputFileError,
    OutOfBallError,
    PhaselessError,
)
# channel, born_amplitude, scattering_amplitude and
# solve_lippmann_schwinger are not called here; they stay importable from
# this module because perfbench/tracing.py wraps them by name.
from .geometry import (
    CONVENTIONS, MIN_ENERGY, ChannelTable, EnergySet, channel, channel_table, channels_on_grid,
    in_ball,
)
from .grids import GridSpec, grid_from_json, grid_to_json, intensity
from .jsonread import array, canonical, choice, convert, obj, string, take
from .potentials import (
    PotentialSpec,
    analytic_hat,
    grid_hats,
    rasterize,
    spec_from_dict,
    spec_to_dict,
    support_distance,
)
from .solver import (
    SolverConfig,
    born_amplitude,
    channel_amplitudes,
    scattering_amplitude,
    solve_lippmann_schwinger,
)

__all__ = [
    "BackgroundSet",
    "ReferenceScan",
    "PhaselessDataset",
    "BackgroundReport",
    "synthesize",
    "translation_twin_demo",
    "validate_backgrounds",
    "write_dataset",
    "read_dataset",
    "csv_rows",
]

FLAG_OK = 0
FLAG_SOLVER_FAILED = 1

MODES = ("born-oracle", "full-solver")


def pair_gap(hats, moduli) -> np.ndarray:
    """|u_1^2 - u_2^2| of the unit phases u_j = h_j / m_j, ``moduli`` m_j = |h_j|.

    The two-reference phase system is singular where it vanishes.  u_j = 0
    where m_j is zero or subnormal: complex division by a subnormal
    modulus overflows, so those nodes divide by inf.
    """
    u1, u2 = (h / np.where(m < sys.float_info.min, np.inf, m) for h, m in zip(hats, moduli))
    return np.abs(u1**2 - u2**2)


@dataclass(frozen=True, eq=False)
class ReferenceScan:
    """A command's one BackgroundSet.scan of the references over a probe grid.

    ``radii`` are pgrid.radii(), ``hats`` each reference's transform at
    every node (flat, row-major) and ``moduli`` their |.|; ``ref_null``
    and ``pair_degenerate``, by thresholds ``eps_ref`` and ``eps_pair``,
    are the singular nodes that the pre-flight check and the mask read.
    """

    radii: np.ndarray
    hats: tuple[np.ndarray, ...]
    moduli: tuple[np.ndarray, ...]
    ref_null: tuple[np.ndarray, ...]
    pair_degenerate: np.ndarray
    eps_ref: tuple[float, ...]
    eps_pair: float | None


@dataclass(frozen=True)
class BackgroundSet:
    """One or two known reference scatterers.

    Validation here is purely structural (count, dimension, non-empty).
    Geometric checks against a target and the probe grid live in
    validate_backgrounds and synthesize, which know the context.
    """

    backgrounds: tuple[PotentialSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "backgrounds", tuple(self.backgrounds))
        n = len(self.backgrounds)
        if n not in (1, 2):
            raise BackgroundValidationError("need one or two reference scatterers")
        dims = {w.dim for w in self.backgrounds}
        if len(dims) != 1:
            raise BackgroundValidationError("references must share one dimension")
        for j, w in enumerate(self.backgrounds):
            if w.is_zero():
                raise BackgroundValidationError(f"reference {j + 1} is identically zero")
        if n == 2:
            self._check_distinct()

    def _check_distinct(self):
        # Equality of the transforms on a fixed probe set is our stand-in
        # for equality of the references themselves; distinct primitives
        # agreeing on all 64 points would be a measure-zero accident.  The
        # probes are a Kronecker sequence on [-12, 12)^d, j * (sqrt 2,
        # sqrt 3, sqrt 5) mod 1 rescaled, which needs no numpy.random.
        w1, w2 = self.backgrounds
        steps = np.sqrt([2.0, 3.0, 5.0])[: self.backgrounds[0].dim]
        probes = 24.0 * np.modf(np.arange(1, 65)[:, None] * steps)[0] - 12.0
        h1 = analytic_hat(w1, probes)
        h2 = analytic_hat(w2, probes)
        scale = max(float(np.max(np.abs(h1))), float(np.max(np.abs(h2))), 1e-300)
        if float(np.max(np.abs(h1 - h2))) <= 1e-12 * scale:
            raise BackgroundValidationError("the two references are identical")

    @property
    def count(self) -> int:
        return len(self.backgrounds)

    @property
    def dim(self) -> int:
        return self.backgrounds[0].dim

    def scan(
        self, pgrid: GridSpec, eps_zero: float | None = None, eps_pair: float | None = None
    ) -> ReferenceScan:
        """The references on every node of ``pgrid``, with their singular nodes.

        One potentials.grid_hats call evaluates each radial profile once
        per distinct |p|.  Reference j is null where its modulus is below
        ``eps_zero`` or, by default, 1e-3 of its own maximum over the
        nodes, and everywhere if that maximum is zero or subnormal.  Two
        references are degenerate off both null sets where pair_gap is
        below ``eps_pair``, by default 1e-3 of the gap's maximum.  The gap
        lies in [0, 2]; a maximum below 1e-9 is rounding noise (two real
        transforms, say), and the default threshold is then 1e-12, which
        flags every node.  A reference whose peak intensity overflows is
        a BackgroundValidationError.
        """
        radii = pgrid.radii()
        hats = tuple(grid_hats(self.backgrounds, pgrid, radii))
        moduli = tuple(np.abs(h) for h in hats)
        peaks = [float(np.max(m)) for m in moduli]
        for j, top in enumerate(peaks):
            if math.isinf(top * top):
                raise BackgroundValidationError(f"reference {j + 1} is too strong: its "
                                                f"intensity overflows (peak modulus {top:.3g})")
        eps_ref = tuple(eps_zero if eps_zero is not None else 1e-3 * top for top in peaks)
        # the default threshold 1e-3 * top underflows to 0 for a vanishing or
        # subnormal peak, and would then flag no node
        ref_null = tuple(
            (m < e) | (top < sys.float_info.min) for m, e, top in zip(moduli, eps_ref, peaks)
        )
        pair = np.zeros(pgrid.node_count, dtype=bool)
        if self.count == 2:
            gap = pair_gap(hats, moduli)
            if eps_pair is None:
                eps_pair = 1e-3 * max(float(np.max(gap)), 1e-9)
            pair = (gap < eps_pair) & ~(ref_null[0] | ref_null[1])
        return ReferenceScan(radii, hats, moduli, ref_null, pair, eps_ref, eps_pair)


def references_to_json(refs: BackgroundSet | None) -> list:
    """The JSON form of ``refs``: a list of potential specs, empty for None."""
    return [spec_to_dict(w) for w in refs.backgrounds] if refs is not None else []


def references_from_json(data, context: str) -> BackgroundSet | None:
    """The references of JSON form ``data``, as references_to_json writes them."""
    items = convert(data, array, context)
    specs = tuple(spec_from_dict(w, f"{context}[{i}]") for i, w in enumerate(items))
    return convert(specs, BackgroundSet, context) if specs else None


@dataclass(frozen=True)
class PhaselessDataset:
    """Channel rows plus their stored intensities.

    Row r is the channel at energy ``energy[r]`` whose momentum transfer
    is the probe node ``node_index[r]``, a flat row-major index on
    ``pgrid``, so a reconstruction can address recovered values onto
    spectral nodes without interpolation.  ``values`` has shape
    (rows, 1 + n_refs): column 0 is the target intensity, column j the
    intensity with reference j added.  ``flags`` marks per-channel
    synthesis failures; flagged rows carry NaN values and are never
    silently dropped.  ``n_refs`` must equal the count of ``backgrounds``
    (0 without references), so a dataset holds one description of its
    references.  ``energies``, the rows' distinct energies in ascending
    order, is derived once from ``energy``.  The arrays are read-only.
    """

    mode: str
    pgrid: GridSpec
    energy: np.ndarray
    node_index: np.ndarray
    values: np.ndarray
    flags: np.ndarray
    backgrounds: BackgroundSet | None
    convention: str = "default"
    solver_notes: dict = field(default_factory=dict)
    energies: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        energy = np.asarray(self.energy, dtype=float)
        node_index = np.asarray(self.node_index, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        flags = np.asarray(self.flags, dtype=np.uint8)
        m = len(energy)
        if (
            energy.shape != (m,)
            or node_index.shape != (m,)
            or flags.shape != (m,)
            or values.ndim != 2
            or values.shape[0] != m
        ):
            raise ValueError("channel rows, values and flags must have one entry per row")
        if np.any((node_index < 0) | (node_index >= self.pgrid.node_count)):
            raise ValueError("a node index is no node of the probe grid")
        count = self.backgrounds.count if self.backgrounds is not None else 0
        if values.shape[1] != 1 + count:
            raise ValueError(f"{values.shape[1]} intensity columns for {count} reference(s)")
        ok = flags == FLAG_OK
        if values.size and (np.any(values[ok] < 0) or not np.all(np.isfinite(values[ok]))):
            raise ValueError("unflagged intensities must be finite and nonnegative")
        for name, arr in zip(
            ("energy", "node_index", "values", "flags"), (energy, node_index, values, flags)
        ):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # not np.unique, whose first call imports numpy.ma (about 20 ms and 1 MB)
        object.__setattr__(self, "energies", tuple(sorted(set(energy.tolist()))))

    @property
    def n_refs(self) -> int:
        return self.values.shape[1] - 1

    @property
    def rows(self) -> int:
        return self.energy.shape[0]

    @property
    def transfer(self) -> np.ndarray:
        """Every row's momentum transfer, its node's coordinates: shape (rows, d)."""
        index = np.unravel_index(self.node_index, self.pgrid.shape)
        return np.stack([self.pgrid.axis(a)[i] for a, i in enumerate(index)], axis=1)

    @property
    def channels(self) -> ChannelTable:
        """Every row's channel, derived from its energy and transfer."""
        return channel_table(self.energy, self.transfer, self.convention, self.node_index)


def _ensure_disjoint(v: PotentialSpec, refs: BackgroundSet) -> None:
    if v.is_zero():
        return
    for j, w in enumerate(refs.backgrounds):
        gap = support_distance(v, w)
        if gap <= 0.0:
            raise BackgroundValidationError(
                f"reference {j + 1} support overlaps the target (gap {gap:.3g})"
            )


def _oracle_rows(variants, chans: ChannelTable) -> np.ndarray:
    """Born intensities |v^(k - l)|^2 of every channel, one column per variant.

    The transform depends only on the transfer k - l, so analytic_hat runs
    once per scatterer component: at each distinct probe node the rows
    reach, and at the rows whose k - l differs in its bits from their
    node's coordinates (rounding in the shell construction), which keep
    their own point.  A variant sums its components from zero in
    analytic_hat's order, so each value equals analytic_hat's of the
    variant bit for bit.  grids.intensity runs once per (point, variant).
    """
    p = chans.incident - chans.outgoing
    _, first, point = np.unique(chans.node, return_index=True, return_inverse=True)
    own = np.flatnonzero(np.any(p.view(np.uint64) != chans.transfer.view(np.uint64), axis=1))
    point[own] = len(first) + np.arange(len(own))
    points = np.concatenate([chans.transfer[first], p[own]])
    hats: dict = {}
    values = np.empty((len(chans), len(variants)))
    for col, spec in enumerate(variants):
        total = np.zeros(len(points), dtype=np.complex128)
        for comp in spec.components:
            if comp not in hats:
                hats[comp] = analytic_hat(PotentialSpec(spec.dim, (comp,)), points)
            total += hats[comp]
        values[:, col] = intensity(total)[point]
    return values


def synthesize(
    v: PotentialSpec,
    refs: BackgroundSet | None,
    energies: EnergySet,
    pgrid: GridSpec,
    mode: str = "born-oracle",
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    convention: str = "default",
) -> PhaselessDataset:
    """Synthesize intensities for every on-shell channel of every energy.

    ``refs`` may be None for a references-free diagnostic run (target
    intensity only).  In full-solver mode ``grid`` is required and each
    variant (target, target+ref_j) is rasterized once and solved per
    energy; a row whose solve fails is flagged and set to NaN rather
    than dropped, so downstream masking sees it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown synthesis mode {mode!r}")
    if refs is not None:
        _ensure_disjoint(v, refs)
        if refs.dim != v.dim:
            raise ValueError("reference dimension differs from target")
    if pgrid.dim != v.dim:
        raise GridMismatchError("probe grid dimension differs from target")

    variants = [v] + [v + w for w in (refs.backgrounds if refs else ())]
    fields = None
    cfg = solver or SolverConfig()
    if mode == "full-solver":
        if grid is None:
            raise ValueError("full-solver mode needs a spatial grid")
        fields = [rasterize(spec, grid) for spec in variants]

    chans, _ = channels_on_grid(energies.energies, pgrid, convention)
    # the table's rows run energy by energy: rows lo:hi belong to E
    edges = np.searchsorted(chans.energy, energies.energies + (np.inf,))
    if mode == "born-oracle":
        values = _oracle_rows(variants, chans)
    else:
        values = np.empty((len(chans), len(variants)))
    flags = np.full(len(chans), FLAG_OK, dtype=np.uint8)
    notes: dict = {"per_energy": {}}
    for E, lo, hi in zip(energies, edges, edges[1:]):
        worst = {}
        if mode == "full-solver":
            amps, failed, its, res = channel_amplitudes(
                fields, E, chans.incident[lo:hi], chans.outgoing[lo:hi], cfg
            )
            values[lo:hi] = intensity(amps)
            flags[lo:hi] = np.where(failed, FLAG_SOLVER_FAILED, FLAG_OK)
            worst = {"iterations": its, "residual": res}
        notes["per_energy"][repr(float(E))] = {
            "channels": int(hi - lo), "failed": int(np.count_nonzero(flags[lo:hi])), **worst
        }

    return PhaselessDataset(
        mode=mode,
        pgrid=pgrid,
        energy=chans.energy,
        node_index=chans.node,
        values=values,
        flags=flags,
        backgrounds=refs,
        convention=convention,
        solver_notes=notes,
    )


def translation_twin_demo(
    v: PotentialSpec,
    y,
    E: float,
    pgrid: GridSpec,
    mode: str = "born-oracle",
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    convention: str = "default",
) -> float:
    """Max relative intensity discrepancy between a target and its translate.

    Intensities are synthesized for v and for v shifted by ``y`` over all
    channels at energy ``E`` under ``convention``; the return value is the
    largest absolute difference normalized by the largest intensity of the
    unshifted run.  Identical intensities for y != 0 are exactly the
    non-uniqueness the phaseless data cannot escape.
    """
    shifted = v.translate(y)
    single = EnergySet((float(E),))
    a = synthesize(v, None, single, pgrid, mode, grid, solver, convention)
    b = synthesize(shifted, None, single, pgrid, mode, grid, solver, convention)
    scale = float(np.max(a.values)) if a.values.size else 0.0
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a.values - b.values)) / scale)


@dataclass(frozen=True)
class BackgroundReport:
    """Numerical health check of a reference set over a probe grid."""

    zero_fraction: tuple[float, ...]
    zero_radii: tuple[tuple[float, ...], ...]
    degenerate_pair_fraction: float | None
    translate_degeneracy: bool
    estimated_shift: tuple[float, ...] | None
    warnings: tuple[str, ...]


def _cluster_radii(radii: np.ndarray, resolution: float) -> tuple[float, ...]:
    """Mean radius of each run of sorted radii whose steps stay within ``resolution``."""
    r = np.sort(radii)
    clusters = np.split(r, np.flatnonzero(np.diff(r) > resolution) + 1) if r.size else []
    return tuple(float(np.mean(c)) for c in clusters)


def validate_backgrounds(
    refs: BackgroundSet,
    pgrid: GridSpec,
    eps_zero: float | None = None,
    eps_pair: float | None = None,
) -> BackgroundReport:
    """Scan reference transforms on the probe grid for singular structure.

    Reports, per reference, the fraction of nodes where the transform
    modulus is below threshold (phase information dies there) and the
    clustered radii of those nodes.  For two references it also measures
    where the two phases agree modulo pi, the configuration that makes
    the two-reference linear system singular, and detects the pure
    translate w2 = w1(. - y), for which that degeneracy fills whole
    hyperplane families.  Both sets are those of one BackgroundSet.scan
    of the grid, the scan the reconstruction mask reads, and every step
    below reads its transforms, moduli and radii |p|.
    """
    scan = refs.scan(pgrid, eps_zero, eps_pair)
    if max(float(np.max(m)) for m in scan.moduli) == 0.0:
        raise BackgroundValidationError("all reference transforms vanish on the grid")
    warnings: list[str] = []

    zero_fraction = []
    zero_radii = []
    dp = float(np.max(pgrid.spacing))
    for j, small in enumerate(scan.ref_null):
        frac = float(np.mean(small))
        zero_fraction.append(frac)
        zero_radii.append(_cluster_radii(scan.radii[small], 2.0 * dp))
        if frac > 0.25:
            warnings.append(
                f"reference {j + 1} transform is below threshold on "
                f"{100.0 * frac:.1f}% of probe nodes"
            )

    pair_fraction = None
    translate_flag = False
    shift_est = None
    if refs.count == 2:
        off_zero = ~(scan.ref_null[0] | scan.ref_null[1])
        pair_fraction = float(np.sum(scan.pair_degenerate) / max(np.sum(off_zero), 1))
        if pair_fraction > 0.05:
            warnings.append(
                "two-reference phase system is near-singular on "
                f"{100.0 * pair_fraction:.1f}% of usable nodes"
            )
        translate_flag, shift_est = _detect_translate(pgrid, scan, off_zero)
        if translate_flag:
            warnings.append(
                "reference 2 looks like a translate of reference 1 "
                f"(estimated shift {shift_est}); the pair degeneracy then "
                "fills hyperplanes and two-reference recovery breaks down"
            )

    return BackgroundReport(
        zero_fraction=tuple(zero_fraction),
        zero_radii=tuple(zero_radii),
        degenerate_pair_fraction=pair_fraction,
        translate_degeneracy=translate_flag,
        estimated_shift=shift_est,
        warnings=tuple(warnings),
    )


def _detect_translate(pgrid, scan: ReferenceScan, usable):
    """Detect w2 = w1 shifted: equal moduli and a linear phase ratio."""
    if not np.any(usable):
        return False, None
    mags, hats = scan.moduli, scan.hats
    mod_gap = float(np.max(np.abs(mags[0][usable] - mags[1][usable])))
    if mod_gap > 1e-8 * float(np.max(mags[0])):
        return False, None
    # Phase of w2/w1 should be p . y; estimate y from finite differences
    # along each grid axis, then verify the linear model globally.
    ratio = hats[1] / np.where(usable, hats[0], 1.0)
    shape = pgrid.shape
    ratio_grid = ratio.reshape(shape)
    usable_grid = usable.reshape(shape)
    shift = []
    for a in range(pgrid.dim):
        upper, lower = np.arange(1, shape[a]), np.arange(0, shape[a] - 1)
        both = np.take(usable_grid, upper, axis=a) & np.take(usable_grid, lower, axis=a)
        # an unusable node's ratio may be 0: divide only where both neighbours are usable
        step = np.take(ratio_grid, upper, axis=a)[both] / np.take(ratio_grid, lower, axis=a)[both]
        angles = np.angle(step)
        if angles.size == 0:
            return False, None
        shift.append(float(np.median(angles)) / pgrid.spacing[a])
    y = np.array(shift)
    actual = np.where(usable, ratio, 1.0)
    predicted = np.where(usable, pgrid.wave(y).reshape(-1), 1.0)
    err = float(np.max(np.abs(actual - predicted)))
    if err < 1e-6:
        return True, tuple(y.tolist())
    return False, None


_DATASET_SCHEMA = "phaseless-dataset/2"


def _repr_cells(column: np.ndarray) -> list[str]:
    """``repr`` of each entry of a 1-D column, called once per distinct bit pattern.

    Floats are told apart by their bits, so ``-0.0`` keeps its sign and
    NaN reads ``nan``; an integer entry's ``repr`` is its ``str``.
    """
    column = np.ascontiguousarray(column)
    bits = column.view(np.uint64) if column.dtype == np.float64 else column
    distinct, inverse = np.unique(bits, return_inverse=True)
    cells = np.array([repr(x) for x in distinct.view(column.dtype).tolist()], dtype=object)
    return cells[inverse].tolist()


def csv_rows(columns: Iterable[np.ndarray]) -> Iterator[str]:
    """Comma-joined CSV rows of equal-length 1-D ``columns``, cells as in ``_repr_cells``."""
    return map(",".join, zip(*map(_repr_cells, columns)))


def write_dataset(ds: PhaselessDataset, base: str) -> None:
    """Write ``base``.csv (rows) and ``base``.json (header).

    A row's cells are its energy, transfer, intensities and flag, each
    Python's shortest round-trip ``repr`` of its value (NaN as ``nan``),
    formatted once per distinct bit pattern of its column, so
    ``read_dataset`` gets every value back exactly.  The header holds
    only what the rows cannot say: schema, mode, transverse convention,
    probe grid, references, solver notes and a content hash of the CSV
    body.  The energies are the rows', the dimension the grid's and the
    reference count the references'; the target is never stored.
    """
    d = ds.pgrid.dim
    cols = ["E"] + [f"p_{a + 1}" for a in range(d)] + ["m_0"]
    cols += [f"m_{j + 1}" for j in range(ds.n_refs)]
    cols.append("flags")
    columns = [ds.energy, *ds.transfer.T, *ds.values.T, ds.flags]
    csv_text = "\n".join([",".join(cols), *csv_rows(columns)]) + "\n"
    with open(base + ".csv", "w") as fh:
        fh.write(csv_text)

    header = {
        "schema": _DATASET_SCHEMA,
        "mode": ds.mode,
        "convention": ds.convention,
        "pgrid": grid_to_json(ds.pgrid),
        "references": references_to_json(ds.backgrounds),
        "solver_notes": ds.solver_notes,
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
    }
    with open(base + ".json", "w") as fh:
        fh.write(canonical(header))


def _row_error(lines: list[str], width: int, base: str) -> InputFileError:
    """The error naming the first of ``lines`` that np.loadtxt reads as no row of ``width`` cells.

    The line is named by its cell count, else by its first cell that
    numpy's parser rejects: a value that is no float, a flag (the last
    cell) that is no uint8.  ``lines`` must hold such a line.
    """
    for number, line in enumerate(lines, start=2):
        at, cells = f"{base}.csv: line {number}", line.split(",")
        if len(cells) != width:
            return InputFileError(f"{at} has {len(cells)} cells, not {width}")
        for col, cell in enumerate(cells):
            kind = np.uint8 if col == width - 1 else np.float64
            try:
                np.loadtxt([line], kind, delimiter=",", comments=None, usecols=col)
            except ValueError:
                if kind is np.uint8:
                    return InputFileError(f"{at}: flag {cell!r} is not an integer 0-255")
                return InputFileError(f"{at}: {cell!r} is not a number")


def _reject_rows(bad: np.ndarray, error: type, base: str, message) -> None:
    """Raise ``error`` naming ``base``.csv and the line of the first ``bad`` row r, ``message(r)``."""
    if np.any(bad):
        row = int(np.argmax(bad))
        raise error(f"{base}.csv: line {row + 2}: {message(row)}")


def read_dataset(base: str) -> PhaselessDataset:
    """Rebuild a dataset written by write_dataset.

    One np.loadtxt pass parses the CSV body into float cells and a uint8
    flag per row, every written value back exactly; only when it fails
    are the lines scanned for the first bad one.  Raises InputFileError
    (a ValueError) naming the file when a file cannot be read, the
    header is no dataset header or breaks the config's rules (an unknown
    or missing key, a value of the wrong JSON type, a non-finite number,
    a grid or references the package rejects, an unknown mode or
    convention; the CSV hash does not cover the header) or the CSV does
    not match its recorded hash, and naming the file and line when a CSV
    row has not 3 + d + (the count of the header's references) cells, a
    value that is no number, a flag that is no integer 0-255, an
    unflagged intensity that is negative or not finite, an energy outside
    EnergySet's range [MIN_ENERGY, inf), or a transfer that is no node of
    the header's probe grid; OutOfBallError (an input error) naming the
    file and line when a row's node lies outside its energy's ball
    (geometry.in_ball).  A row's transfer is read back as its node.
    """
    try:
        with open(base + ".json") as fh:
            header = json.load(fh)
        with open(base + ".csv") as fh:
            csv_text = fh.read()
    except OSError as exc:
        raise InputFileError(f"{exc.filename}: cannot read dataset ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{base}.json: invalid JSON ({exc})") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != _DATASET_SCHEMA:
        raise InputFileError(f"{base}.json: unknown dataset schema {schema!r}")
    try:
        header = take(
            header,
            "header",
            {"schema": string, "mode": choice(MODES), "convention": choice(CONVENTIONS),
             "pgrid": lambda v: grid_from_json(v, "header.pgrid"),
             "references": lambda v: references_from_json(v, "header.references"),
             "csv_sha256": string},
            {"solver_notes": (obj, {})},
        )
    except (ValueError, PhaselessError) as exc:
        raise InputFileError(f"{base}.json: malformed dataset header ({exc})") from exc
    pgrid = header["pgrid"]
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digest != header["csv_sha256"]:
        raise InputFileError(f"dataset CSV {base}.csv does not match its recorded hash")

    refs = header["references"]
    d = pgrid.dim
    width = 3 + d + (refs.count if refs is not None else 0)
    lines = csv_text.strip().split("\n")[1:]
    row_type = np.dtype([("cells", np.float64, (width - 1,)), ("flag", np.uint8)])
    rows = np.zeros(0, row_type)  # loadtxt warns on an empty body
    try:
        if lines:
            rows = np.loadtxt(lines, row_type, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        raise _row_error(lines, width, base) from None
    if len(rows) != len(lines):  # loadtxt skips an empty line, which is no row
        raise _row_error(lines, width, base)
    body = rows["cells"]
    energy, transfer, values = body[:, 0], body[:, 1 : 1 + d], body[:, 1 + d :]
    flags = rows["flag"]
    _reject_rows((flags == FLAG_OK) & ~np.all(np.isfinite(values) & (values >= 0), axis=1),
                 InputFileError, base, lambda r: f"unflagged intensities {values[r].tolist()} "
                 "are not all finite and nonnegative")
    _reject_rows(~((energy >= MIN_ENERGY) & (energy < np.inf)), InputFileError, base,
                 lambda r: f"energy {float(energy[r])!r} is not in [{MIN_ENERGY!r}, inf)")
    try:
        node_index = pgrid.flat_index(transfer)
    except GridMismatchError:
        raise InputFileError(f"{base}.csv: a transfer is off the grid of {base}.json") from None
    radii = pgrid.radii()[node_index]
    _reject_rows(~in_ball(radii, energy), OutOfBallError, base,
                 lambda r: f"|p|={radii[r]:.6g} exceeds 2*sqrt(E)={2.0 * np.sqrt(energy[r]):.6g}")
    return PhaselessDataset(
        mode=header["mode"],
        pgrid=pgrid,
        energy=energy,
        node_index=node_index,
        values=values,
        flags=flags,
        backgrounds=refs,
        convention=header["convention"],
        solver_notes=header["solver_notes"],
    )
