"""Build phaseless datasets: squared scattering amplitudes, no phases.

A dataset stores, per channel, the intensities

    m_0 = |f|^2        for the target alone,
    m_j = |f_j|^2      for target plus reference scatterer j,

where each reference w_j is a known potential supported strictly away
from the target.  Phases are discarded the moment a value is stored;
reconstruction has to earn them back.  The channels of one energy come
as one row-wise table (geometry.channels_on_grid), and a dataset keeps
only each row's energy, transfer and probe-node index.  Two modes:
"born-oracle" takes amplitudes from closed-form transforms (the
infinite-energy limit, exact), one analytic_hat call per (variant,
energy) on the transfers incident - outgoing; "full-solver" runs the
integral-equation solver: per energy, one solver.channel_amplitudes call
answers every channel of every variant, each variant by one direct solve
or by one iteration batched over channels.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BackgroundValidationError, GridMismatchError
# channel, born_amplitude, scattering_amplitude and
# solve_lippmann_schwinger are not called here; they stay importable from
# this module because perfbench/tracing.py wraps them by name.
from .geometry import ChannelTable, EnergySet, channel, channel_table, channels_on_grid
from .grids import GridSpec
from .potentials import (
    PotentialSpec,
    analytic_hat,
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
    "PhaselessDataset",
    "BackgroundReport",
    "synthesize",
    "translation_twin_demo",
    "validate_backgrounds",
    "write_dataset",
    "read_dataset",
]

FLAG_OK = 0
FLAG_SOLVER_FAILED = 1

MODES = ("born-oracle", "full-solver")


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

    def reference_hats(self, p: np.ndarray) -> list[np.ndarray]:
        return [analytic_hat(w, p) for w in self.backgrounds]

    def singular_nodes(
        self, hats, eps_zero: float | None = None, eps_pair: float | None = None
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[float, ...], float | None]:
        """Nodes where reference-based phase recovery is singular.

        ``hats`` are the reference transforms there, reference_hats of the
        nodes: callers that need the transforms themselves compute them
        once.  Returns (ref_null, pair_degenerate, eps_ref, eps_pair
        applied).  ref_null[j]: |w_j hat| < eps_ref[j], which is
        ``eps_zero`` or, by default, 1e-3 of that reference's own maximum
        over the nodes.  pair_degenerate (two references): the unit phases
        agree modulo pi, |u_1^2 - u_2^2| < ``eps_pair``, by default 1e-3
        of that gap's maximum, counted only off both zero sets.
        """
        mags = [np.abs(h) for h in hats]
        eps_ref = tuple(
            eps_zero if eps_zero is not None else 1e-3 * float(np.max(m)) for m in mags
        )
        ref_null = tuple(m < e for m, e in zip(mags, eps_ref))
        pair = np.zeros(len(hats[0]), dtype=bool)
        if self.count == 2:
            safe = [np.where(m > 0, m, 1.0) for m in mags]
            gap = np.abs((hats[0] / safe[0]) ** 2 - (hats[1] / safe[1]) ** 2)
            if eps_pair is None:
                eps_pair = 1e-3 * max(float(np.max(gap)), 1e-30)
            pair = (gap < eps_pair) & ~(ref_null[0] | ref_null[1])
        return ref_null, pair, eps_ref, eps_pair


@dataclass(frozen=True)
class PhaselessDataset:
    """Channel rows plus their stored intensities.

    Row r is the channel at energy ``energy[r]`` and momentum transfer
    ``transfer[r]`` (shape (rows, d)); ``node_index[r]`` is the flat
    index of that transfer on ``pgrid``, so a reconstruction can address
    recovered values onto spectral nodes without interpolation.
    ``values`` has shape (rows, 1 + n_refs): column 0 is the target
    intensity, column j the intensity with reference j added.  ``flags``
    marks per-channel synthesis failures; flagged rows carry NaN values
    and are never silently dropped.  The arrays are read-only.
    """

    mode: str
    pgrid: GridSpec
    energies: tuple[float, ...]
    energy: np.ndarray
    transfer: np.ndarray
    node_index: np.ndarray
    values: np.ndarray
    flags: np.ndarray
    backgrounds: BackgroundSet | None
    convention: str = "default"
    solver_notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        energy = np.asarray(self.energy, dtype=float)
        transfer = np.asarray(self.transfer, dtype=float)
        node_index = np.asarray(self.node_index, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        flags = np.asarray(self.flags, dtype=np.uint8)
        m = len(energy)
        if (
            energy.shape != (m,)
            or transfer.shape != (m, self.pgrid.dim)
            or node_index.shape != (m,)
            or flags.shape != (m,)
            or values.ndim != 2
            or values.shape[0] != m
        ):
            raise ValueError("channel rows, values and flags must have one entry per row")
        ok = flags == FLAG_OK
        if values.size and (np.any(values[ok] < 0) or not np.all(np.isfinite(values[ok]))):
            raise ValueError("unflagged intensities must be finite and nonnegative")
        for name, arr in zip(
            ("energy", "transfer", "node_index", "values", "flags"),
            (energy, transfer, node_index, values, flags),
        ):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))

    @property
    def n_refs(self) -> int:
        return self.values.shape[1] - 1

    @property
    def rows(self) -> int:
        return self.energy.shape[0]

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

    Python's abs(z) ** 2 per value: numpy's abs and power can differ
    from it in the last ulp.
    """
    p = chans.incident - chans.outgoing
    values = np.empty((len(chans), len(variants)))
    for col, spec in enumerate(variants):
        values[:, col] = [abs(z) ** 2 for z in analytic_hat(spec, p).tolist()]
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

    tables: list[ChannelTable] = []
    rows: list[np.ndarray] = []
    flag_list: list[np.ndarray] = []
    notes: dict = {"per_energy": {}}
    for E in energies:
        chans, _ = channels_on_grid(E, pgrid, convention)
        if mode == "born-oracle":
            values = _oracle_rows(variants, chans)
            failed, worst = np.zeros(len(chans), dtype=bool), {}
        else:
            amps, failed, its, res = channel_amplitudes(
                fields, E, chans.incident, chans.outgoing, cfg
            )
            values, worst = np.abs(amps) ** 2, {"iterations": its, "residual": res}
        tables.append(chans)
        rows.append(values)
        flag_list.append(np.where(failed, FLAG_SOLVER_FAILED, FLAG_OK))
        notes["per_energy"][repr(float(E))] = {
            "channels": len(chans), "failed": int(np.sum(failed)), **worst
        }

    return PhaselessDataset(
        mode=mode,
        pgrid=pgrid,
        energies=tuple(energies),
        energy=np.concatenate([t.energy for t in tables]),
        transfer=np.concatenate([t.transfer for t in tables]),
        node_index=np.concatenate([t.node for t in tables]),
        values=np.vstack(rows),
        flags=np.concatenate(flag_list),
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
    if radii.size == 0:
        return ()
    out = []
    for r in np.sort(radii):
        if out and r - out[-1][-1] <= resolution:
            out[-1].append(r)
        else:
            out.append([r])
    return tuple(float(np.mean(c)) for c in out)


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
    hyperplane families.  Both sets follow BackgroundSet.singular_nodes,
    the rule the reconstruction mask applies.
    """
    nodes = pgrid.nodes()
    hats = refs.reference_hats(nodes)
    mags = [np.abs(h) for h in hats]
    if max(float(np.max(m)) for m in mags) == 0.0:
        raise BackgroundValidationError("all reference transforms vanish on the grid")
    ref_null, pair_nodes, _, _ = refs.singular_nodes(hats, eps_zero, eps_pair)
    warnings: list[str] = []

    zero_fraction = []
    zero_radii = []
    rnorm = np.linalg.norm(nodes, axis=1)
    dp = float(np.max(pgrid.spacing))
    for j, small in enumerate(ref_null):
        frac = float(np.mean(small))
        zero_fraction.append(frac)
        zero_radii.append(_cluster_radii(rnorm[small], 2.0 * dp))
        if frac > 0.25:
            warnings.append(
                f"reference {j + 1} transform is below threshold on "
                f"{100.0 * frac:.1f}% of probe nodes"
            )

    pair_fraction = None
    translate_flag = False
    shift_est = None
    if refs.count == 2:
        off_zero = ~(ref_null[0] | ref_null[1])
        pair_fraction = float(np.sum(pair_nodes) / max(np.sum(off_zero), 1))
        if pair_fraction > 0.05:
            warnings.append(
                "two-reference phase system is near-singular on "
                f"{100.0 * pair_fraction:.1f}% of usable nodes"
            )
        translate_flag, shift_est = _detect_translate(pgrid, mags, hats, off_zero)
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


def _detect_translate(pgrid, mags, hats, usable):
    """Detect w2 = w1 shifted: equal moduli and a linear phase ratio."""
    if not np.any(usable):
        return False, None
    mod_gap = float(np.max(np.abs(mags[0][usable] - mags[1][usable])))
    if mod_gap > 1e-8 * float(np.max(mags[0])):
        return False, None
    # Phase of w2/w1 should be p . y; estimate y from finite differences
    # along each grid axis, then verify the linear model globally.
    ratio = np.where(usable, hats[1] / np.where(usable, hats[0], 1.0), np.nan)
    shape = pgrid.shape
    ratio_grid = ratio.reshape(shape)
    usable_grid = usable.reshape(shape)
    shift = []
    for a in range(pgrid.dim):
        step = np.take(ratio_grid, np.arange(1, shape[a]), axis=a) / np.take(
            ratio_grid, np.arange(0, shape[a] - 1), axis=a
        )
        both = np.take(usable_grid, np.arange(1, shape[a]), axis=a) & np.take(
            usable_grid, np.arange(0, shape[a] - 1), axis=a
        )
        angles = np.angle(step[both])
        if angles.size == 0:
            return False, None
        shift.append(float(np.median(angles)) / pgrid.spacing[a])
    y = np.array(shift)
    nodes = pgrid.nodes()
    predicted = np.exp(1j * nodes @ y)
    actual = np.where(usable, ratio, 1.0)
    predicted = np.where(usable, predicted, 1.0)
    err = float(np.max(np.abs(actual - predicted)))
    if err < 1e-6:
        return True, tuple(y)
    return False, None


_DATASET_SCHEMA = "phaseless-dataset/1"


def write_dataset(ds: PhaselessDataset, base: str, withhold_target: bool = False,
                  target: PotentialSpec | None = None) -> None:
    """Write ``base``.csv (rows) and ``base``.json (header).

    The header records everything needed to rebuild channel geometry:
    probe grid, energies, mode, transverse convention, references, and a
    content hash of the CSV body.  ``target`` is stored only when given
    and not withheld, supporting blind-test datasets.
    """
    d = ds.pgrid.dim
    cols = ["E"] + [f"p_{a + 1}" for a in range(d)] + ["m_0"]
    cols += [f"m_{j + 1}" for j in range(ds.n_refs)]
    cols.append("flags")
    lines = [",".join(cols)]
    for E, p, vals, flag in zip(
        ds.energy.tolist(), ds.transfer.tolist(), ds.values.tolist(), ds.flags.tolist()
    ):
        cells = [repr(E)] + [repr(x) for x in p]
        cells += ["nan" if math.isnan(val) else repr(val) for val in vals]
        cells.append(str(flag))
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    with open(base + ".csv", "w") as fh:
        fh.write(csv_text)

    header = {
        "schema": _DATASET_SCHEMA,
        "mode": ds.mode,
        "convention": ds.convention,
        "dim": d,
        "pgrid": _grid_to_dict(ds.pgrid),
        "energies": [float(e) for e in ds.energies],
        "n_refs": ds.n_refs,
        "references": [spec_to_dict(w) for w in ds.backgrounds.backgrounds]
        if ds.backgrounds is not None
        else [],
        "target": spec_to_dict(target) if (target is not None and not withhold_target) else None,
        "target_withheld": bool(withhold_target),
        "solver_notes": ds.solver_notes,
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
    }
    with open(base + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid_to_dict(g: GridSpec) -> dict:
    return {
        "dim": g.dim,
        "n": g.n,
        "box_min": [float(x) for x in g.box_min],
        "box_max": [float(x) for x in g.box_max],
    }


def _grid_from_dict(d: dict) -> GridSpec:
    return GridSpec(int(d["dim"]), int(d["n"]), tuple(d["box_min"]), tuple(d["box_max"]))


def read_dataset(base: str) -> PhaselessDataset:
    """Rebuild a dataset written by write_dataset.

    The CSV is parsed into arrays.  Raises ValueError when the CSV does
    not match its recorded hash or the header's columns, OutOfBallError
    (or EnergyShellError) when a row is no on-shell channel of its
    energy, and GridMismatchError when a transfer is not a probe-grid
    node.
    """
    with open(base + ".json") as fh:
        header = json.load(fh)
    if header.get("schema") != _DATASET_SCHEMA:
        raise ValueError(f"unknown dataset schema {header.get('schema')!r}")
    with open(base + ".csv") as fh:
        csv_text = fh.read()
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digest != header["csv_sha256"]:
        raise ValueError("dataset CSV does not match its recorded hash")

    pgrid = _grid_from_dict(header["pgrid"])
    refs = (
        BackgroundSet(tuple(spec_from_dict(w) for w in header["references"]))
        if header["references"]
        else None
    )
    convention = header["convention"]
    d = pgrid.dim
    n_refs = int(header["n_refs"])
    width = 3 + d + n_refs
    rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
    if any(len(cells) != width for cells in rows):
        raise ValueError(f"dataset CSV rows must have {width} columns")
    numbers = np.array([[float(x) for x in cells[:-1]] for cells in rows]).reshape(-1, width - 1)
    energy, transfer = numbers[:, 0], numbers[:, 1 : 1 + d]
    channel_table(energy, transfer, convention)  # raises for a row off the shell or ball

    return PhaselessDataset(
        mode=header["mode"],
        pgrid=pgrid,
        energies=tuple(header["energies"]),
        energy=energy,
        transfer=transfer,
        node_index=pgrid.flat_index(transfer),
        values=numbers[:, 1 + d :],
        flags=np.array([int(cells[-1]) for cells in rows], dtype=np.uint8),
        backgrounds=refs,
        convention=convention,
        solver_notes=header.get("solver_notes", {}),
    )
