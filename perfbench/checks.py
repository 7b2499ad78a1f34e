"""Correctness checks on a workload's outputs, computed apart from the program.

Nothing here compares against a stored copy of earlier output.  The
oracle checks re-code the ball transforms and the band-limited inverse
transform.  The full-solver checks rebuild channels, evaluate the
discrete integral equation on the support by a direct sum, and test
reciprocity.  Each check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import j1

# limits of the acceptance suite (criteria 1 and 6)
SPECTRUM_ATOL = 1e-8
REAL_SPACE_LIMIT = 0.15
# the equation residual the solver's 1e-8 tolerance should meet with margin
RESIDUAL_LIMIT = 1e-6
RECIPROCITY_RTOL = 1e-6
SAMPLE_ROWS = 4


def ball_hat(p: np.ndarray, center, radius: float, amplitude: float = 1.0) -> np.ndarray:
    """(2 pi)^-d times the integral of e^{i p.x} over a ball: J1 in 2-D, sin/cos in 3-D."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.linalg.norm(p, axis=1)
    z = radius * q
    if p.shape[1] == 2:
        safe = np.where(q > 0, q, 1.0)
        radial = np.where(q > 0, radius * j1(z) / (2.0 * np.pi * safe), radius**2 / (4.0 * np.pi))
    else:
        small = z < 0.1
        zs = np.where(small, 1.0, z)
        shape = (np.sin(zs) - zs * np.cos(zs)) / zs**3
        series = 1.0 / 3.0 - z**2 / 30.0 + z**4 / 840.0 - z**6 / 45360.0
        radial = radius**3 * np.where(small, series, shape) / (2.0 * np.pi**2)
    return amplitude * radial * np.exp(1j * (p @ np.asarray(center, dtype=float)))


def spec_hat(spec: dict, p: np.ndarray) -> np.ndarray:
    return sum(ball_hat(p, c["center"], c["radius"], c["amplitude"]) for c in spec["components"])


def _grid(cfg: dict) -> tuple[int, int, float]:
    g = cfg["grid"]
    return cfg["dimension"], g["n"], g["box"]


def _axes(n: int, box: float) -> tuple[np.ndarray, np.ndarray]:
    """Spatial and dual (frequency) axis of an n-node grid over [-box, box)."""
    x = -box + np.arange(n) * (2.0 * box / n)
    p = (np.arange(n) - n // 2) * (2.0 * np.pi / (2.0 * box))
    return x, p


def _nodes(axis: np.ndarray, dim: int) -> np.ndarray:
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def probe_nodes(cfg: dict) -> np.ndarray:
    dim, n, box = _grid(cfg)
    return _nodes(_axes(n, box)[1], dim)


def expected_channels(cfg: dict) -> int:
    """On-shell channels: probe nodes with |p| <= 2 sqrt(E), summed over energies."""
    q = np.linalg.norm(probe_nodes(cfg), axis=1)
    return int(sum(np.sum(q <= 2.0 * np.sqrt(E)) for E in cfg["energies"]))


def read_dataset_rows(out: Path, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(E, p, m, flags) columns of ``dataset.csv``."""
    table = np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1 : 1 + dim], table[:, 1 + dim : -1], table[:, -1].astype(int)


def flagged_rows(out: Path, dim: int) -> int:
    return int(np.count_nonzero(read_dataset_rows(out, dim)[3]))


def _read_field(base: Path) -> np.ndarray:
    """A field written by the program: interleaved little-endian float64 pairs."""
    raw = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
    return raw[0::2] + 1j * raw[1::2]


def _check_dataset(cfg: dict, out: Path) -> tuple[list[str], tuple]:
    dim = cfg["dimension"]
    E, p, m, flags = read_dataset_rows(out, dim)
    errors = []
    want = expected_channels(cfg)
    if E.size != want:
        errors.append(f"dataset has {E.size} rows, {want} on-shell channels expected")
    ok = flags == 0
    if not np.all(np.isfinite(m[ok])) or np.any(m[ok] < 0):
        errors.append("unflagged intensities are not finite and nonnegative")
    on_shell = np.linalg.norm(p, axis=1) <= 2.0 * np.sqrt(E) * (1 + 1e-12)
    if not np.all(on_shell):
        errors.append(f"{int(np.sum(~on_shell))} rows lie outside the ball |p| <= 2 sqrt(E)")
    return errors, (E, p, m, flags)


def _flags(mask: dict, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(any flag, out of ball) as boolean node arrays from the report's index lists."""
    flagged = np.zeros(n_nodes, dtype=bool)
    lists = [mask["target_null"], mask["pair_degenerate"], mask["out_of_ball"],
             mask["solver_failed"], *mask["ref_null"]]
    for idx in lists:
        flagged[np.asarray(idx, dtype=int)] = True
    out_of_ball = np.zeros(n_nodes, dtype=bool)
    out_of_ball[np.asarray(mask["out_of_ball"], dtype=int)] = True
    return flagged, out_of_ball


def _check_mask(cfg: dict, nodes: np.ndarray, truth: np.ndarray, mask: dict) -> list[str]:
    """The mask rule re-applied to the true transforms; every node list must match.

    A node is masked where a modulus is below 1e-3 of its grid maximum,
    where the two reference phases agree modulo pi (the squared unit
    phases differ by less than 1e-3 of their largest difference), or
    where no channel reaches it.
    """
    out_of_ball = np.linalg.norm(nodes, axis=1) > 2.0 * np.sqrt(max(cfg["energies"]))
    amp0 = np.where(out_of_ball, 0.0, np.abs(truth))
    expect = {"out_of_ball": out_of_ball,
              "target_null": ~out_of_ball & (amp0 < 1e-3 * amp0.max())}
    hats = [spec_hat(w, nodes) for w in cfg["references"]]
    ref_null = [np.abs(h) < 1e-3 * np.abs(h).max() for h in hats]
    pair = np.zeros(nodes.shape[0], dtype=bool)
    if len(hats) == 2:
        units = [h / np.where(np.abs(h) > 0, np.abs(h), 1.0) for h in hats]
        gap = np.abs(units[0] ** 2 - units[1] ** 2)
        pair = (gap < 1e-3 * gap.max()) & ~(ref_null[0] | ref_null[1])
    expect["pair_degenerate"] = pair
    errors = []
    for key, want in expect.items():
        got = np.asarray(mask[key], dtype=int)
        if not np.array_equal(got, np.nonzero(want)[0]):
            errors.append(f"mask list {key} differs from the re-derived one")
    for j, want in enumerate(ref_null):
        if not np.array_equal(np.asarray(mask["ref_null"][j], dtype=int), np.nonzero(want)[0]):
            errors.append(f"mask list ref_null[{j}] differs from the re-derived one")
    return errors


def _taper(q: np.ndarray, p_cut: float, fraction: float) -> np.ndarray:
    inner = p_cut * (1.0 - fraction)
    roll = 0.5 * (1.0 + np.cos(np.pi * (q - inner) / (p_cut - inner)))
    return np.where(q <= inner, 1.0, np.where(q <= p_cut, roll, 0.0))


def band_limited_truth(cfg: dict, p_cut: float, fraction: float = 0.1) -> np.ndarray:
    """The target pushed through the taper and the support crop, by a matrix DFT.

    u(x) = dp^d * sum_p e^{-i p.x} vhat(p) w(|p|), evaluated axis by axis.
    """
    dim, n, box = _grid(cfg)
    x, paxis = _axes(n, box)
    pn = _nodes(paxis, dim)
    spec = (spec_hat(cfg["target"], pn) * _taper(np.linalg.norm(pn, axis=1), p_cut, fraction))
    spec = spec.reshape((n,) * dim)
    dft = np.exp(-1j * np.outer(x, paxis))
    letters = "abc"[:dim]
    for a in range(dim):
        expr = f"{letters},x{letters[a]}->" + letters.replace(letters[a], "x")
        spec = np.einsum(expr, spec, dft)
    values = spec.reshape(-1) * (2.0 * np.pi / (2.0 * box)) ** dim
    xn = _nodes(x, dim)
    keep = np.zeros(xn.shape[0], dtype=bool)
    for comp in cfg["target"]["components"]:
        keep |= np.sum((xn - np.asarray(comp["center"])) ** 2, axis=1) <= comp["radius"] ** 2
    return np.where(keep, values, 0.0)


def check_oracle(cfg: dict, out: Path) -> list[str]:
    """Born-oracle data and its inversion against the re-coded ball transforms."""
    errors, (E, p, m, _) = _check_dataset(cfg, out)
    refs = cfg["references"]
    vhat = spec_hat(cfg["target"], p)
    expect = [np.abs(vhat) ** 2] + [np.abs(vhat + spec_hat(w, p)) ** 2 for w in refs]
    scale = max(float(np.max(col)) for col in expect)
    gap = max(float(np.max(np.abs(m[:, j] - col))) for j, col in enumerate(expect))
    if gap > 1e-10 * scale:
        errors.append(f"oracle intensities differ from |vhat + what|^2 by {gap:.3e}")

    nodes = probe_nodes(cfg)
    truth = spec_hat(cfg["target"], nodes)
    report = json.loads((out / "reconstruct_report.json").read_text())
    mask = report["results"]["branches"][0]["mask"]
    errors += _check_mask(cfg, nodes, truth, mask)
    flagged, out_of_ball = _flags(mask, nodes.shape[0])
    usable = ~flagged
    in_ball = ~out_of_ball
    frac = float(np.sum(flagged & in_ball) / max(np.sum(in_ball), 1))
    limit = cfg.get("reconstruction", {}).get("mask_fraction_limit", 0.2)
    if frac > limit:
        errors.append(f"masked fraction {frac:.4f} exceeds the config's limit {limit}")
    if abs(frac - mask["masked_fraction"]) > 1e-12:
        errors.append("reported masked fraction disagrees with the mask lists")
    if not usable.any():
        return errors + ["no usable node"]

    if len(refs) == 2:
        spectrum = _read_field(out / "recon_spectrum")
        err = float(np.max(np.abs(spectrum[usable] - truth[usable])))
        if err > SPECTRUM_ATOL:
            errors.append(f"off-mask spectrum error {err:.3e} exceeds {SPECTRUM_ATOL}")
        p_cut = 0.9 * 2.0 * np.sqrt(max(cfg["energies"]))
        potential = _read_field(out / "recon_potential")
        band = band_limited_truth(cfg, p_cut)
        rel = float(np.linalg.norm(potential - band) / np.linalg.norm(band))
        if rel > REAL_SPACE_LIMIT:
            errors.append(f"real-space relative L2 error {rel:.4f} exceeds {REAL_SPACE_LIMIT}")
        return errors

    # one reference: per node, one branch is the truth and both obey |z + what|^2 = m1
    plus = _read_field(out / "recon_spectrum_plus")
    minus = _read_field(out / "recon_spectrum_minus")
    best = np.minimum(np.abs(plus - truth), np.abs(minus - truth))
    err = float(np.max(best[usable]))
    if err > SPECTRUM_ATOL:
        errors.append(f"neither branch matches the transform: worst {err:.3e}")
    top = E == max(cfg["energies"])
    m1 = np.full(nodes.shape[0], np.nan)
    m1[_node_index(cfg, p[top])] = m[top, 1]
    what = spec_hat(refs[0], nodes)
    for name, z in (("plus", plus), ("minus", minus)):
        resid = np.abs(np.abs(z + what) ** 2 - m1)[usable]
        worst = float(np.max(resid))
        if not worst <= 1e-10 * float(np.nanmax(m1)):
            errors.append(f"branch {name} breaks |z + what|^2 = m1 by {worst:.3e}")
    return errors


def _node_index(cfg: dict, p: np.ndarray) -> np.ndarray:
    """Flat probe-grid index of each transfer ``p``."""
    dim, n, box = _grid(cfg)
    steps = np.rint(p / (2.0 * np.pi / (2.0 * box))).astype(int) + n // 2
    return np.ravel_multi_index(tuple(steps.T), (n,) * dim)


def _transverse(p: np.ndarray) -> np.ndarray:
    """The package's default transverse unit vector, re-derived."""
    q = np.linalg.norm(p)
    if p.size == 2:
        return np.array([0.0, 1.0]) if q == 0 else np.array([-p[1], p[0]]) / q
    if q == 0:
        return np.array([0.0, 0.0, 1.0])
    for axis in range(3):
        cross = np.cross(p, np.eye(3)[axis])
        if np.linalg.norm(cross) > 1e-12 * q:
            return cross / np.linalg.norm(cross)
    raise ValueError("no transverse direction")


def _raster(spec: dict, xn: np.ndarray) -> np.ndarray:
    values = np.zeros(xn.shape[0])
    for comp in spec["components"]:
        inside = np.sum((xn - np.asarray(comp["center"])) ** 2, axis=1) <= comp["radius"] ** 2
        values[inside] += comp["amplitude"]
    return values


def check_full(cfg: dict, out: Path) -> list[str]:
    """Full-solver data: direct-sum equation residual, reciprocity, Born-gap decay."""
    from phaseless.greens import outgoing_green, singular_cell_weight
    from phaseless.grids import GridSpec, ScalarField
    from phaseless.solver import WaveVector, solve_lippmann_schwinger

    errors, (E, p, m, flags) = _check_dataset(cfg, out)
    if np.any(flags):
        errors.append(f"{int(np.count_nonzero(flags))} rows are flagged")
    dim, n, box = _grid(cfg)
    grid = GridSpec(dim, n, (-box,) * dim, (box,) * dim)
    x, _ = _axes(n, box)
    xn = _nodes(x, dim)
    cell = (2.0 * box / n) ** dim
    refs = cfg["references"]
    variants = [cfg["target"]] + [
        {"components": cfg["target"]["components"] + w["components"]} for w in refs
    ]
    sample = sorted({int(round(i * (E.size - 1) / (SAMPLE_ROWS - 1))) for i in range(SAMPLE_ROWS)})
    operators: dict = {}

    def amplitude(support, vals, psi, l):
        return (2.0 * np.pi) ** (-dim) * cell * np.sum(np.exp(-1j * (support @ l)) * vals * psi)

    for col, spec in enumerate(variants):
        values = _raster(spec, xn)
        on = values != 0
        support, vals = xn[on], values[on]
        field = ScalarField(grid, values.reshape(grid.shape), on.reshape(grid.shape))
        for row in sample:
            energy, q = float(E[row]), p[row]
            kmag = np.sqrt(energy)
            if (col, energy) not in operators:
                diff = support[:, None, :] - support[None, :, :]
                off = ~np.eye(support.shape[0], dtype=bool)
                g = np.empty((support.shape[0],) * 2, dtype=complex)
                g[off] = outgoing_green(diff[off], kmag, dim) * cell
                g[~off] = singular_cell_weight(kmag, dim, cell)
                operators[(col, energy)] = g
            g = operators[(col, energy)]
            coef = np.sqrt(max(energy - 0.25 * float(q @ q), 0.0))
            t = _transverse(q)
            k, l = 0.5 * q + coef * t, coef * t - 0.5 * q
            intensities = []
            for kin, kout in ((k, l), (-l, -k)):
                psi, _ = solve_lippmann_schwinger(field, WaveVector(kin))
                psi_s = psi.values.reshape(-1)[on]
                inc = np.exp(1j * (support @ kin))
                resid = np.linalg.norm(psi_s - inc - g @ (vals * psi_s)) / np.linalg.norm(inc)
                if not resid <= RESIDUAL_LIMIT:
                    errors.append(f"row {row} variant {col}: direct-sum residual {resid:.3e}")
                intensities.append(abs(amplitude(support, vals, psi_s, kout)) ** 2)
            stored = m[row, col]
            if abs(intensities[0] - stored) > 1e-9 * max(stored, 1e-300):
                errors.append(f"row {row} variant {col}: stored {stored!r} vs re-solved {intensities[0]!r}")
            if abs(intensities[1] - stored) > RECIPROCITY_RTOL * stored:
                errors.append(
                    f"row {row} variant {col}: reciprocity gap "
                    f"{abs(intensities[1] - stored) / stored:.3e}"
                )

    # Multiple scattering fades as the energy grows, so the gap to the first
    # Born term shrinks.  The Born term is the rasterized target's own
    # transform, summed directly: against the continuum ball's transform
    # the gap is dominated by the grid's area error and hardly moves.
    on = _raster(cfg["target"], xn) != 0
    vhat = (2.0 * np.pi) ** (-dim) * cell * np.exp(1j * (p @ xn[on].T)).sum(axis=1)
    vhat2 = np.abs(vhat) ** 2
    gaps = [
        float(np.max(np.abs(m[E == e, 0] - vhat2[E == e]))) / float(np.max(vhat2))
        for e in cfg["energies"]
    ]
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        errors.append(f"gap to the Born term does not shrink with energy: {gaps}")
    return errors


def check(cfg: dict, out: Path) -> list[str]:
    if cfg["mode"] == "born-oracle":
        return check_oracle(cfg, out)
    return check_full(cfg, out)
