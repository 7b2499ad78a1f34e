"""Experiment configuration: one JSON document drives one reproducible run.

The schema is versioned and strict, at every depth: inside "target" and
"references" as at the top.  An unknown key is a ConfigError, so a typo
cannot silently fall back to a default, and every key it accepts is
read by some command.  A value of the wrong JSON type is a ConfigError
too: it is checked, never coerced, so 2.7 is no integer and "false" no
boolean, and a number must be finite.  The converters of jsonread read
each value, the type that owns it checks its range, and the error names
its key path, such as config.target.components[0].radius.  Dataset
headers are read by the same rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bounds import contraction_onset, weight_norm_constant
from .exceptions import ConfigError
from .geometry import CONVENTIONS, EnergySet
from .grids import GridSpec, grid_from_json, grid_to_json
from .jsonread import (
    boolean, choice, convert, given, identity, integer, number, numbers, obj, string, take
)
from .potentials import PotentialSpec, spec_from_dict, spec_to_dict
from .reconstruct import ReconstructionOptions
from .solver import SolverConfig
from .synthesis import MODES, BackgroundSet, references_from_json, references_to_json

__all__ = ["ExperimentConfig", "load_config", "config_to_dict"]

SCHEMA = "phaseless-experiment/1"

# the most energies E_min/E_max/count may generate; the configs in use have 2 to 5
MAX_ENERGY_COUNT = 1000


def _energies_from(data, context: str) -> EnergySet:
    if isinstance(data, list):
        return convert(data, lambda v: EnergySet(numbers(v)), context)
    got = take(
        data,
        context,
        {},
        {
            "list": (numbers, None),
            "E_min": (number, None),
            "E_max": (number, None),
            "count": (integer, None),
            "spacing": (choice(("geometric", "linear")), "geometric"),
        },
    )
    if got["list"] is not None:
        energies = got["list"]
    else:
        if got["E_min"] is None or got["E_max"] is None or got["count"] is None:
            raise ConfigError(f"{context}: need either list or E_min/E_max/count")
        n = got["count"]
        if not 1 <= n <= MAX_ENERGY_COUNT:
            raise ConfigError(f"{context}.count: {n:.6g} is not in [1, {MAX_ENERGY_COUNT}]")
        if got["spacing"] == "geometric":
            if not (got["E_min"] > 0 and got["E_max"] > 0):
                raise ConfigError(f"{context}: geometric spacing needs E_min, E_max > 0")
            ratio = (got["E_max"] / got["E_min"]) ** (1.0 / max(n - 1, 1))
            energies = tuple(got["E_min"] * ratio**i for i in range(n))
        else:
            step = (got["E_max"] - got["E_min"]) / max(n - 1, 1)
            energies = tuple(got["E_min"] + step * i for i in range(n))
    return convert(energies, EnergySet, context)


# the solver and reconstruction sections' keys: each names a field of
# SolverConfig or ReconstructionOptions, which holds its default and range
_SOLVER_KEYS = {
    "tolerance": number,
    "max_iterations": integer,
    "resolution_factor": number,
    "method": string,
    "dense_limit": integer,
}
_RECONSTRUCTION_KEYS = {
    "estimator": string,
    "p_cut": number,
    "taper_fraction": number,
    "eps_zero": number,
    "eps_pair": number,
    "mask_fraction_limit": number,
    "declared_real": boolean,
}


def _reconstruction_from(
    data: dict, context: str, spatial_grid: GridSpec, target: PotentialSpec
) -> ReconstructionOptions:
    """Options over ``spatial_grid``, declaring ``target``'s support unless restrict_support is false."""
    got = given(data, context, {**_RECONSTRUCTION_KEYS, "restrict_support": boolean})
    support = target if got.pop("restrict_support", True) else None
    return convert(
        got, lambda kw: ReconstructionOptions(spatial_grid, declared_support=support, **kw), context
    )


def _convergence_from(data: dict, context: str) -> dict:
    got = take(data, context, {}, {"slope_window": (numbers, (-0.75, -0.30))})
    win = got["slope_window"]
    if len(win) != 2 or not win[0] < win[1]:
        raise ConfigError(f"{context}.slope_window: need [lo, hi] with lo < hi")
    return got


def _bounds_from(data: dict, context: str, dim: int) -> dict:
    """The bounds section; sigma and a0 must pass the rules bounds_report applies to them."""
    optional = {"sigma": (number, None), "a0": (number, 1.0), "errors_csv": (string, None)}
    got = take(data, context, {}, optional)
    if got["sigma"] is not None:
        convert(got["sigma"], lambda sigma: weight_norm_constant(dim, sigma), context)
    convert(got["a0"], lambda a0: contraction_onset(0.0, a0), context)
    return got


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, typed view of one experiment JSON document."""

    scenario: str
    dimension: int
    grid: GridSpec
    target: PotentialSpec
    references: BackgroundSet | None
    energies: EnergySet
    mode: str
    solver: SolverConfig
    reconstruction: ReconstructionOptions
    convergence: dict
    bounds: dict
    probe_grid: GridSpec | None
    shift: tuple[float, ...] | None
    convention: str
    output: str | None

    def probe(self) -> GridSpec:
        """The momentum grid: explicit probe grid's dual, else the main dual."""
        return (self.probe_grid or self.grid).dual()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    # the config's keys are ExperimentConfig's fields, and schema; each
    # section is converted in place to its field's type
    got = take(
        data,
        "config",
        {"schema": string, "dimension": choice((2, 3), integer), "grid": identity,
         "target": identity, "energies": identity},
        {
            "scenario": (string, "unnamed"),
            "references": (identity, []),
            "mode": (choice(MODES), "born-oracle"),
            "solver": (obj, {}),
            "reconstruction": (obj, {}),
            "convergence": (obj, {}),
            "bounds": (obj, {}),
            "probe_grid": (identity, None),
            "shift": (numbers, None),
            "convention": (choice(CONVENTIONS), "default"),
            "output": (string, None),
        },
    )
    schema = got.pop("schema")
    if schema != SCHEMA:
        raise ConfigError(f"config.schema: expected {SCHEMA!r}, got {schema!r}")
    dim = got["dimension"]
    got["grid"] = grid_from_json(got["grid"], "config.grid", dim)
    target = got["target"] = spec_from_dict(got["target"], "config.target")
    if target.dim != dim:
        raise ConfigError("config.target: dimension mismatch")
    refs = got["references"] = references_from_json(got["references"], "config.references")
    if refs is not None and refs.dim != dim:
        raise ConfigError("config.references: dimension mismatch")
    got["energies"] = _energies_from(got["energies"], "config.energies")
    solver = given(got["solver"], "config.solver", _SOLVER_KEYS)
    got["solver"] = convert(solver, lambda kw: SolverConfig(**kw), "config.solver")
    if got["probe_grid"] is not None:
        got["probe_grid"] = grid_from_json(got["probe_grid"], "config.probe_grid", dim)
    got["reconstruction"] = _reconstruction_from(
        got["reconstruction"], "config.reconstruction", got["probe_grid"] or got["grid"], target
    )
    got["convergence"] = _convergence_from(got["convergence"], "config.convergence")
    got["bounds"] = _bounds_from(got["bounds"], "config.bounds", dim)
    if got["shift"] is not None and len(got["shift"]) != dim:
        raise ConfigError("config.shift: dimension mismatch")
    return ExperimentConfig(**got)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a config, suitable for embedding in outputs."""
    return {
        "schema": SCHEMA,
        "scenario": cfg.scenario,
        "dimension": cfg.dimension,
        "grid": grid_to_json(cfg.grid, with_dim=False),
        "target": spec_to_dict(cfg.target),
        "references": references_to_json(cfg.references),
        "energies": {"list": [float(e) for e in cfg.energies]},
        "mode": cfg.mode,
        "solver": {key: getattr(cfg.solver, key) for key in _SOLVER_KEYS},
        "reconstruction": {
            **{key: getattr(cfg.reconstruction, key) for key in _RECONSTRUCTION_KEYS},
            "restrict_support": cfg.reconstruction.declared_support is not None,
        },
        "convergence": {"slope_window": list(cfg.convergence["slope_window"])},
        "bounds": dict(cfg.bounds),
        "probe_grid": cfg.probe_grid and grid_to_json(cfg.probe_grid, with_dim=False),
        "shift": list(cfg.shift) if cfg.shift is not None else None,
        "convention": cfg.convention,
        "output": cfg.output,
    }
