"""Build phaseless datasets: squared scattering amplitudes, no phases.

A dataset stores, per channel, the intensities

    m_0 = |f|^2        for the target alone,
    m_j = |f_j|^2      for target plus reference scatterer j,

where each reference w_j is a known potential supported strictly away
from the target.  Phases are discarded the moment a value is stored;
reconstruction has to earn them back.  Two modes: "born-oracle" takes
amplitudes from closed-form transforms (the infinite-energy limit,
exact), "full-solver" runs the integral-equation solver per channel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    BackgroundValidationError,
    GridMismatchError,
    SolverConvergenceError,
)
from .geometry import EnergySet, ScatteringChannel, channel, channels_on_grid
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
    WaveVector,
    born_amplitude,
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
        # Equality of the transforms on a fixed random probe set is our
        # stand-in for equality of the references themselves; distinct
        # primitives agreeing on all 64 points would be a measure-zero
        # accident.
        w1, w2 = self.backgrounds
        rng = np.random.default_rng(171)
        probes = rng.uniform(-12.0, 12.0, size=(64, self.backgrounds[0].dim))
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
        self, p: np.ndarray, eps_zero: float | None = None, eps_pair: float | None = None
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, float | None]:
        """Nodes of ``p`` where reference-based phase recovery is singular.

        Returns (ref_null, pair_degenerate, eps_pair applied).  ref_null[j]:
        |w_j hat| < ``eps_zero``, by default 1e-3 of that reference's own
        maximum over ``p``.  pair_degenerate (two references): the unit
        phases agree modulo pi, |u_1^2 - u_2^2| < ``eps_pair``, by default
        1e-3 of that gap's maximum, counted only off both zero sets.
        """
        hats = self.reference_hats(p)
        mags = [np.abs(h) for h in hats]
        ref_null = tuple(
            m < (eps_zero if eps_zero is not None else 1e-3 * float(np.max(m))) for m in mags
        )
        pair = np.zeros(len(p), dtype=bool)
        if self.count == 2:
            safe = [np.where(m > 0, m, 1.0) for m in mags]
            gap = np.abs((hats[0] / safe[0]) ** 2 - (hats[1] / safe[1]) ** 2)
            if eps_pair is None:
                eps_pair = 1e-3 * max(float(np.max(gap)), 1e-30)
            pair = (gap < eps_pair) & ~(ref_null[0] | ref_null[1])
        return ref_null, pair, eps_pair


@dataclass(frozen=True)
class PhaselessDataset:
    """Channels plus their stored intensities.

    ``values`` has shape (len(channels), 1 + n_refs): column 0 is the
    target intensity, column j the intensity with reference j added.
    ``node_index`` maps each channel to a flat index of ``pgrid`` so a
    reconstruction can address recovered values onto spectral nodes
    without interpolation.  ``flags`` marks per-channel synthesis
    failures; flagged rows carry NaN values and are never silently
    dropped.
    """

    mode: str
    pgrid: GridSpec
    energies: tuple[float, ...]
    channels: tuple[ScatteringChannel, ...]
    node_index: tuple[int, ...]
    values: np.ndarray
    flags: np.ndarray
    backgrounds: BackgroundSet | None
    convention: str = "default"
    solver_notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown synthesis mode {self.mode!r}")
        values = np.asarray(self.values, dtype=float)
        flags = np.asarray(self.flags, dtype=np.uint8)
        m = len(self.channels)
        if values.shape[0] != m or flags.shape != (m,):
            raise ValueError("values/flags length mismatch with channels")
        ok = flags == FLAG_OK
        if values.size and (np.any(values[ok] < 0) or not np.all(np.isfinite(values[ok]))):
            raise ValueError("unflagged intensities must be finite and nonnegative")
        values.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "node_index", tuple(int(i) for i in self.node_index))

    @property
    def n_refs(self) -> int:
        return self.values.shape[1] - 1

    def rows_for_energy(self, E: float) -> np.ndarray:
        es = np.array([ch.energy for ch in self.channels])
        return np.nonzero(np.isclose(es, E, rtol=1e-12, atol=0.0))[0]

    def row_lookup(self) -> dict[tuple[float, int], int]:
        """Map (energy, flat p-grid index) -> row number."""
        return {
            (ch.energy, idx): row
            for row, (ch, idx) in enumerate(zip(self.channels, self.node_index))
        }


def _ensure_disjoint(v: PotentialSpec, refs: BackgroundSet) -> None:
    if v.is_zero():
        return
    for j, w in enumerate(refs.backgrounds):
        gap = support_distance(v, w)
        if gap <= 0.0:
            raise BackgroundValidationError(
                f"reference {j + 1} support overlaps the target (gap {gap:.3g})"
            )


def _oracle_row(variants, ch: ScatteringChannel) -> np.ndarray:
    k = WaveVector(ch.incident)
    l = np.asarray(ch.outgoing)
    return np.array([abs(born_amplitude(spec, k, l)) ** 2 for spec in variants])


def _solver_row(fields, channel, cfg) -> tuple[np.ndarray, int, dict]:
    k = WaveVector(channel.incident)
    l = np.asarray(channel.outgoing)
    row = np.empty(len(fields))
    worst = {"iterations": 0, "residual": 0.0}
    for col, fld in enumerate(fields):
        psi, report = solve_lippmann_schwinger(fld, k, cfg)
        worst["iterations"] = max(worst["iterations"], report.iterations)
        worst["residual"] = max(worst["residual"], report.residual)
        f = scattering_amplitude(fld, psi, k, l)
        row[col] = abs(f) ** 2
    return row, FLAG_OK, worst


def _solve_chunk(args):
    fields, chans, cfg = args
    out = []
    for ch in chans:
        try:
            out.append(_solver_row(fields, ch, cfg))
        except SolverConvergenceError:
            out.append((np.full(len(fields), np.nan), FLAG_SOLVER_FAILED, None))
    return out


def _solve_all(fields, chans, cfg, workers: int):
    """Solve every channel, optionally across processes, in stable order."""
    if workers <= 1 or len(chans) < 2:
        return _solve_chunk((fields, chans, cfg))
    from concurrent.futures import ProcessPoolExecutor

    parts = np.array_split(np.arange(len(chans)), min(workers, len(chans)))
    jobs = [(fields, [chans[i] for i in idx], cfg) for idx in parts if idx.size]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_solve_chunk, jobs):
            out.extend(part)
    return out


def synthesize(
    v: PotentialSpec,
    refs: BackgroundSet | None,
    energies: EnergySet,
    pgrid: GridSpec,
    mode: str = "born-oracle",
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    convention: str = "default",
    workers: int = 1,
) -> PhaselessDataset:
    """Synthesize intensities for every on-shell channel of every energy.

    ``refs`` may be None for a references-free diagnostic run (target
    intensity only).  In full-solver mode ``grid`` is required and each
    variant (target, target+ref_j) is rasterized once and solved per
    channel; a channel whose solve fails is flagged and its row set to
    NaN rather than dropped, so downstream masking sees it.
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

    channels: list[ScatteringChannel] = []
    node_index: list[int] = []
    rows: list[np.ndarray] = []
    flag_list: list[int] = []
    notes: dict = {"per_energy": {}}
    shape = pgrid.shape
    for E in energies:
        chans, _ = channels_on_grid(E, pgrid, convention)
        failed = 0
        worst = {"iterations": 0, "residual": 0.0}
        if mode == "born-oracle":
            per_channel = [(_oracle_row(variants, ch), FLAG_OK, None) for ch in chans]
        else:
            per_channel = _solve_all(fields, chans, cfg, workers)
        for ch, (row, flag, stats) in zip(chans, per_channel):
            channels.append(ch)
            node_index.append(_flat_index(pgrid, ch.transfer, shape))
            rows.append(row)
            flag_list.append(flag)
            if flag != FLAG_OK:
                failed += 1
            if stats is not None:
                worst["iterations"] = max(worst["iterations"], stats["iterations"])
                worst["residual"] = max(worst["residual"], stats["residual"])
        notes["per_energy"][repr(float(E))] = {
            "channels": len(chans),
            "failed": failed,
            **({} if mode == "born-oracle" else worst),
        }

    values = np.vstack(rows) if rows else np.zeros((0, len(variants)))
    return PhaselessDataset(
        mode=mode,
        pgrid=pgrid,
        energies=tuple(energies),
        channels=tuple(channels),
        node_index=tuple(node_index),
        values=values,
        flags=np.array(flag_list, dtype=np.uint8),
        backgrounds=refs,
        convention=convention,
        solver_notes=notes,
    )


def _flat_index(pgrid: GridSpec, p, shape) -> int:
    multi = []
    for a in range(pgrid.dim):
        axis = pgrid.axis(a)
        i = int(round((p[a] - axis[0]) / (axis[1] - axis[0])))
        if not (0 <= i < shape[a]) or abs(axis[i] - p[a]) > 1e-9 * max(1.0, abs(p[a])):
            raise GridMismatchError("channel transfer is not a probe-grid node")
        multi.append(i)
    return int(np.ravel_multi_index(multi, shape))


def translation_twin_demo(
    v: PotentialSpec,
    y,
    E: float,
    pgrid: GridSpec,
    mode: str = "born-oracle",
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    workers: int = 1,
) -> float:
    """Max relative intensity discrepancy between a target and its translate.

    Intensities are synthesized for v and for v shifted by ``y`` over all
    channels at energy ``E``; the return value is the largest absolute
    difference normalized by the largest intensity of the unshifted run.
    Identical intensities for y != 0 are exactly the non-uniqueness the
    phaseless data cannot escape.
    """
    shifted = v.translate(y)
    single = EnergySet((float(E),))
    a = synthesize(v, None, single, pgrid, mode, grid, solver, workers=workers)
    b = synthesize(shifted, None, single, pgrid, mode, grid, solver, workers=workers)
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
    ref_null, pair_nodes, _ = refs.singular_nodes(nodes, eps_zero, eps_pair)
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
    for row, ch in enumerate(ds.channels):
        cells = [repr(ch.energy)] + [repr(x) for x in ch.transfer]
        for col in range(ds.values.shape[1]):
            val = ds.values[row, col]
            cells.append("nan" if np.isnan(val) else repr(float(val)))
        cells.append(str(int(ds.flags[row])))
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
    """Rebuild a dataset written by write_dataset (channels re-derived)."""
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
    lines = csv_text.strip().split("\n")[1:]
    channels, node_index, rows, flags = [], [], [], []
    shape = pgrid.shape
    for line in lines:
        cells = line.split(",")
        E = float(cells[0])
        p = tuple(float(x) for x in cells[1 : 1 + d])
        vals = [float(x) for x in cells[1 + d : 2 + d + n_refs]]
        flag = int(cells[2 + d + n_refs])
        channels.append(channel(E, p, convention))
        node_index.append(_flat_index(pgrid, p, shape))
        rows.append(np.array(vals))
        flags.append(flag)

    return PhaselessDataset(
        mode=header["mode"],
        pgrid=pgrid,
        energies=tuple(header["energies"]),
        channels=tuple(channels),
        node_index=tuple(node_index),
        values=np.vstack(rows) if rows else np.zeros((0, 1 + n_refs)),
        flags=np.array(flags, dtype=np.uint8),
        backgrounds=refs,
        convention=convention,
        solver_notes=header.get("solver_notes", {}),
    )
