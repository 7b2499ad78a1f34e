"""Command-line driver: one config in, one reproducible bundle out.

Every subcommand reads a JSON experiment config, writes its artifacts
under the output directory, and finishes with a report JSON that embeds
the exact config plus content hashes, so a bundle can always be traced
back to the run that produced it.  Identical configs give byte-identical
outputs under one BLAS thread count (the direct solve's OpenBLAS sums
depend on it); nothing here consults the clock or the process id.

Exit codes: 0 success; a package error exits with its class's
``exit_code`` after one stderr line led by its ``label`` (see
exceptions.py): 2 config error or bad input file, 3 solver failure,
4 a configured acceptance threshold was not met.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import bounds_report, fit_decay
from .config import ExperimentConfig, config_to_dict, load_config
from .exceptions import ConfigError, InputFileError, PhaselessError, SolverConvergenceError
from .fieldio import write_field
from .geometry import MIN_ENERGY, channel
from .grids import intensity
from .jsonread import canonical
from .potentials import analytic_hat, rasterize
from .reconstruct import reconstruct
from .solver import WaveVector, scattering_amplitude, solve_lippmann_schwinger
from .synthesis import (
    csv_rows,
    read_dataset,
    synthesize,
    translation_twin_demo,
    validate_backgrounds,
    write_dataset,
)

__all__ = ["main"]

_BUNDLE_SCHEMA = "phaseless-bundle/1"


def _report_text(obj, indent: str = "", _ints: dict | None = None) -> str:
    """``obj`` laid out as jsonread.canonical lays it out, but a list of scalars on one line.

    A reconstruction report's mask index lists hold thousands of
    integers, one line each under canonical.  A list of ints alone
    (no bools) is laid out by ``repr``, which gives json.dumps's bytes
    for it, and once per list object: the one-reference branches share
    their mask lists.  Other lists are looked at once per item type.
    """
    ints = {} if _ints is None else _ints
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (
            f"{inner}{json.dumps(k)}: {_report_text(obj[k], inner, ints)}" for k in sorted(obj)
        )
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        # every list of obj lives while obj does, so its id is its own
        if id(obj) in ints:
            return ints[id(obj)]
        types = set(map(type, obj))
        if types == {int}:
            ints[id(obj)] = text = repr(list(obj))
            return text
        if any(issubclass(t, (dict, list, tuple)) for t in types):
            items = (inner + _report_text(v, inner, ints) for v in obj)
            return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(obj)


_PLAIN = frozenset((int, str, bool, type(None)))


def _json_safe(obj):
    """Numpy scalars to python, non-finite floats to strings.

    A list or tuple whose items are all of a plain type (int, str,
    bool, None) is returned as a list without visiting its items.
    """
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if _PLAIN.issuperset(map(type, obj)):
            return obj if type(obj) is list else list(obj)
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, complex):
        return [_json_safe(obj.real), _json_safe(obj.imag)]
    return obj


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Bundle:
    """Collects a run's artifacts and writes the final report once."""

    def __init__(self, command: str, cfg: ExperimentConfig, outdir: Path):
        self.command = command
        self.cfg_dict = config_to_dict(cfg)
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}
        self.inputs: dict[str, str] = {"config": _sha256_text(canonical(self.cfg_dict))}

    def track(self, *paths: Path) -> None:
        for p in paths:
            self.files[p.name] = _sha256_file(p)

    def write_text(self, name: str, text: str) -> Path:
        path = self.outdir / name
        path.write_text(text)
        self.track(path)
        return path

    def note_input(self, name: str, digest: str) -> None:
        self.inputs[name] = digest

    def finish(self, results: dict) -> Path:
        report = {
            "schema": _BUNDLE_SCHEMA,
            "command": self.command,
            "config": self.cfg_dict,
            "input_sha256": self.inputs,
            "outputs_sha256": dict(sorted(self.files.items())),
            "results": _json_safe(results),
        }
        path = self.outdir / f"{self.command}_report.json"
        path.write_text(_report_text(report) + "\n")
        return path


def _outgoing_directions(dim: int) -> np.ndarray:
    """Deterministic unit directions covering the measurement sphere."""
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(72) / 72
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    lat = np.pi * (np.arange(12) + 0.5) / 12
    lon = 2.0 * np.pi * np.arange(24) / 24
    t, ph = np.meshgrid(lat, lon, indexing="ij")
    return np.stack(
        [np.sin(t) * np.cos(ph), np.sin(t) * np.sin(ph), np.cos(t)], axis=-1
    ).reshape(-1, 3)


def cmd_forward(cfg: ExperimentConfig, outdir: Path) -> int:
    """Solve the total field per energy and tabulate far-field amplitudes."""
    bundle = _Bundle("forward", cfg, outdir)
    field_v = rasterize(cfg.target, cfg.grid)
    dirs = _outgoing_directions(cfg.dimension)
    rows = ["E," + ",".join(f"l_{a + 1}" for a in range(cfg.dimension)) + ",re_f,im_f,abs2_f"]
    reports = {}
    zero = np.zeros(cfg.dimension)
    for i, E in enumerate(cfg.energies):
        incident = channel(E, zero, cfg.convention).incident[0]
        k = WaveVector(incident)
        psi, rep = solve_lippmann_schwinger(field_v, k, cfg.solver)
        base = outdir / f"forward_psi_E{i}"
        bundle.track(*write_field(psi, base))
        reports[repr(float(E))] = {
            "incident": incident.tolist(),
            "method": rep.method,
            "iterations": rep.iterations,
            "residual": rep.residual,
            "contraction_ratio": rep.contraction_ratio,
            "field_file": base.name,
        }
        outgoing = np.sqrt(E) * dirs
        amps = scattering_amplitude(field_v, psi, k, outgoing)
        abs2 = intensity(amps)
        energy = np.full(len(outgoing), float(E))
        rows += csv_rows([energy, *outgoing.T, amps.real, amps.imag, abs2])
    bundle.write_text("forward_amplitudes.csv", "\n".join(rows) + "\n")
    report = bundle.finish({"per_energy": reports, "target_is_zero": cfg.target.is_zero()})
    print(f"forward: wrote {len(cfg.energies)} field(s) -> {report}")
    return 0


def _synthesize(cfg: ExperimentConfig, references):
    """The config's dataset over all its energies, with ``references`` (None: the target alone)."""
    return synthesize(
        cfg.target,
        references,
        cfg.energies,
        cfg.probe(),
        cfg.mode,
        grid=cfg.grid,
        solver=cfg.solver,
        convention=cfg.convention,
    )


def cmd_synthesize(cfg: ExperimentConfig, outdir: Path) -> int:
    bundle = _Bundle("synthesize", cfg, outdir)
    ds = _synthesize(cfg, cfg.references)
    base = outdir / "dataset"
    write_dataset(ds, str(base))
    bundle.track(base.with_suffix(".csv"), base.with_suffix(".json"))
    results: dict = {"rows": ds.rows, "n_refs": ds.n_refs, "mode": ds.mode}
    if cfg.references is not None:
        rep = validate_backgrounds(cfg.references, cfg.probe())
        results["background_report"] = dataclasses.asdict(rep)
        for w in rep.warnings:
            print(f"warning: {w}", file=sys.stderr)
    report = bundle.finish(results)
    print(f"synthesize: {ds.rows} rows -> {report}")
    return 0


def _mask_index_lists(mask) -> dict:
    return {
        "target_null": np.nonzero(mask.target_null)[0].tolist(),
        "ref_null": [np.nonzero(r)[0].tolist() for r in mask.ref_null],
        "pair_degenerate": np.nonzero(mask.pair_degenerate)[0].tolist(),
        "out_of_ball": np.nonzero(mask.out_of_ball)[0].tolist(),
        "solver_failed": np.nonzero(mask.solver_failed)[0].tolist(),
        "masked_fraction": mask.masked_fraction,
        "thresholds": dict(mask.thresholds),
    }


def cmd_reconstruct(cfg: ExperimentConfig, outdir: Path, dataset: str | None) -> int:
    bundle = _Bundle("reconstruct", cfg, outdir)
    if cfg.references is None:
        raise ConfigError("reconstruct needs reference scatterers in the config")
    if dataset is not None:
        ds = read_dataset(dataset)
        # reconstruct reads the references from the dataset; the config
        # describes the same experiment, so they must agree
        if ds.backgrounds != cfg.references:
            raise InputFileError(f"{dataset}.json: references differ from the config's")
        bundle.note_input("dataset_csv", _sha256_file(Path(dataset + ".csv")))
    else:
        ds = _synthesize(cfg, cfg.references)
    branches = reconstruct(ds, cfg.reconstruction)
    # the branches of one reconstruction share its mask
    mask = _mask_index_lists(branches[0].mask)
    results: dict = {"branches": []}
    for res in branches:
        tag = {"two-reference": "", "one-reference-plus": "_plus", "one-reference-minus": "_minus"}[
            res.branch
        ]
        spec_base = outdir / f"recon_spectrum{tag}"
        pot_base = outdir / f"recon_potential{tag}"
        bundle.track(*write_field(res.spectrum, spec_base))
        bundle.track(*write_field(res.potential, pot_base))
        results["branches"].append(
            {
                "branch": res.branch,
                "spectrum_file": spec_base.name,
                "potential_file": pot_base.name,
                "mask": mask,
                "diagnostics": res.diagnostics,
            }
        )
    report = bundle.finish(results)
    names = ", ".join(b["branch"] for b in results["branches"])
    print(f"reconstruct: {names} -> {report}")
    return 0


def _convergence_errors(cfg: ExperimentConfig) -> tuple[list, list]:
    """Per-energy worst intensity error against the closed-form transform.

    One synthesis of the target alone covers every energy; a failed
    channel is a SolverConvergenceError naming the lowest energy with one.
    """
    ds = _synthesize(cfg, None)
    energies, errors = [], []
    for E in cfg.energies:
        rows = ds.energy == E
        failed = int(np.count_nonzero(ds.flags[rows]))
        if failed:
            raise SolverConvergenceError(f"{failed} channel(s) failed at energy {E:.6g}")
        truth = intensity(analytic_hat(cfg.target, ds.transfer[rows]))
        energies.append(float(E))
        errors.append(float(np.max(np.abs(ds.values[rows, 0] - truth))))
    return energies, errors


def cmd_convergence(cfg: ExperimentConfig, outdir: Path) -> int:
    bundle = _Bundle("convergence", cfg, outdir)
    energies, errors = _convergence_errors(cfg)
    slope, intercept = fit_decay(energies, errors)
    lo, hi = cfg.convergence["slope_window"]
    ok = lo <= slope <= hi
    rows = ["E,error"] + [f"{repr(e)},{repr(x)}" for e, x in zip(energies, errors)]
    bundle.write_text("convergence.csv", "\n".join(rows) + "\n")
    report = bundle.finish(
        {
            "energies": energies,
            "errors": errors,
            "slope": slope,
            "intercept": intercept,
            "slope_window": [lo, hi],
            "within_window": ok,
        }
    )
    print(f"convergence: slope {slope:.4f} window [{lo}, {hi}] -> {report}")
    if not ok:
        print(
            f"threshold failure: slope {slope:.4f} outside [{lo}, {hi}]",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_ambiguity_demo(cfg: ExperimentConfig, outdir: Path) -> int:
    bundle = _Bundle("ambiguity-demo", cfg, outdir)
    if cfg.shift is None:
        raise ConfigError("ambiguity-demo needs a shift in the config")
    E = cfg.energies.top
    disc = translation_twin_demo(
        cfg.target,
        cfg.shift,
        E,
        cfg.probe(),
        cfg.mode,
        grid=cfg.grid,
        solver=cfg.solver,
        convention=cfg.convention,
    )
    shifted = rasterize(cfg.target.translate(cfg.shift), cfg.grid)
    base = outdir / "ambiguity_shifted_potential"
    bundle.track(*write_field(shifted, base))
    report = bundle.finish(
        {
            "shift": list(cfg.shift),
            "energy": float(E),
            "max_relative_discrepancy": disc,
            "shifted_potential_file": base.name,
        }
    )
    print(f"ambiguity-demo: max relative intensity discrepancy {disc:.3e}")
    print(f"shifted potential field: {base}.bin")
    print(f"report: {report}")
    return 0


def _error_table(path: Path) -> tuple[list[float], list[float]]:
    """The E and error columns of an ``E,error`` CSV with a header line.

    Raises InputFileError naming the file, and the line, when it cannot
    be read, a line holds no two numbers or an energy lies outside
    EnergySet's range [MIN_ENERGY, inf).
    """
    try:
        lines = path.read_text().strip().split("\n")[1:]
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read error table ({exc.strerror})") from exc
    energies, errors = [], []
    for number, line in enumerate(lines, start=2):
        try:
            e, x = line.split(",")[:2]
            energy, error = float(e), float(x)
        except ValueError as exc:
            raise InputFileError(
                f"{path}: line {number} is not an 'E,error' pair of numbers: {line!r}"
            ) from exc
        if not MIN_ENERGY <= energy < np.inf:
            raise InputFileError(
                f"{path}: line {number}: energy {energy!r} is not in [{MIN_ENERGY!r}, inf)"
            )
        energies.append(energy)
        errors.append(error)
    return energies, errors


def cmd_bounds(cfg: ExperimentConfig, outdir: Path) -> int:
    bundle = _Bundle("bounds", cfg, outdir)
    if cfg.bounds["errors_csv"] is not None:
        path = Path(cfg.bounds["errors_csv"])
        energies, errors = _error_table(path)
        bundle.note_input("errors_csv", _sha256_file(path))
    else:
        energies, errors = _convergence_errors(cfg)
    rep = bounds_report(
        cfg.target, energies, errors, sigma=cfg.bounds["sigma"], a0=cfg.bounds["a0"]
    )
    rows = ["E,error,bound"]
    for e, x in zip(energies, errors):
        rows.append(f"{repr(float(e))},{repr(float(x))},{repr(rep.bound_at(e))}")
    bundle.write_text("bounds_errors.csv", "\n".join(rows) + "\n")
    results = dataclasses.asdict(rep)
    del results["energies"], results["errors"]
    results["bound_holds"] = rep.bound_holds()
    report = bundle.finish(results)
    print(f"bounds: slope {rep.slope:.4f}, bound holds: {rep.bound_holds()} -> {report}")
    return 0


_COMMANDS = {
    "forward": "solve total fields and tabulate far-field amplitudes",
    "synthesize": "generate a phaseless intensity dataset",
    "reconstruct": "invert a dataset back to the target potential",
    "convergence": "measure intensity error decay across energies",
    "ambiguity-demo": "show translation invariance of the intensities",
    "bounds": "evaluate the error-bound constants against measured decay",
}


def _parse(argv):
    """The parsed arguments of ``argv`` (default: ``sys.argv[1:]``).

    When ``argv`` starts with a command name only that command's parser
    is built; the top-level usage still lists every command.  Otherwise
    (no command, an unknown one, ``--help``) all of them are built.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="phaseless",
        description="Phaseless scattering experiments: synthesis, inversion, diagnostics.",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # with one parser built, the metavar keeps the usage's list of every command
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.add_argument("--config", required=True, help="experiment JSON path")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=1, help="retired and ignored")
        if name == "reconstruct":
            p.add_argument(
                "dataset",
                nargs="?",
                default=None,
                help="dataset base path (without .csv/.json); default: synthesize per config",
            )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workers != 1:
        print(f"warning: --workers is retired; ignoring --workers {args.workers}", file=sys.stderr)
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.output
        if out is None:
            raise ConfigError("no output directory: set config.output or pass --out")
        outdir = Path(out)
        if args.command == "forward":
            return cmd_forward(cfg, outdir)
        if args.command == "synthesize":
            return cmd_synthesize(cfg, outdir)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, outdir, args.dataset)
        if args.command == "convergence":
            return cmd_convergence(cfg, outdir)
        if args.command == "ambiguity-demo":
            return cmd_ambiguity_demo(cfg, outdir)
        if args.command == "bounds":
            return cmd_bounds(cfg, outdir)
        raise ConfigError(f"unknown command {args.command!r}")
    except PhaselessError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
