"""Experiment configuration: one JSON document drives one reproducible run.

The schema is versioned and strict: unknown keys anywhere are a
ConfigError, so a typo cannot silently fall back to a default, and
every key it accepts is read by some command.  A malformed value is a
ConfigError too, and so is a value of the wrong JSON type: it is checked,
never coerced, so 2.7 is no integer and "false" no boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bounds import contraction_onset, weight_norm_constant
from .exceptions import ConfigError, DivergentIntegralError
from .geometry import EnergySet
from .grids import GridSpec
from .potentials import PotentialSpec, spec_from_dict, spec_to_dict
from .reconstruct import ReconstructionOptions
from .solver import SolverConfig
from .synthesis import MODES, BackgroundSet

__all__ = ["ExperimentConfig", "load_config", "config_to_dict"]

SCHEMA = "phaseless-experiment/1"


def _take(data: dict, context: str, required: dict, optional: dict) -> dict:
    """Pull typed values out of ``data``; reject unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for key, conv in required.items():
        if key not in data:
            raise ConfigError(f"{context}: missing required key {key!r}")
        out[key] = _convert(data[key], conv, f"{context}.{key}")
    for key, (conv, default) in optional.items():
        # an explicit null means "unset", same as omitting the key, so a
        # config echo containing nulls re-parses to the same config
        if data.get(key) is None:
            out[key] = default
        else:
            out[key] = _convert(data[key], conv, f"{context}.{key}")
    return out


def _identity(value):
    return value


def _convert(value, conv, context: str):
    try:
        return conv(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _json_type(kind: type, name: str):
    """Converter that passes a value of JSON type ``kind`` through and rejects the rest."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {name}, got {value!r}")
        return value

    return check


_str = _json_type(str, "a string")
_bool = _json_type(bool, "true or false")
_object = _json_type(dict, "an object")
_list = _json_type(list, "a list")


def _float(value) -> float:
    """A JSON number, as a float; bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """A JSON integer; a float only without a fractional part (2.0)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _floats(value) -> tuple[float, ...]:
    """A JSON list of numbers, as floats."""
    return tuple(_float(x) for x in _list(value))


def _grid_from(data: dict, dim: int, context: str) -> GridSpec:
    got = _take(
        data,
        context,
        {"n": _int},
        {"box_min": (_floats, None), "box_max": (_floats, None), "box": (_float, None)},
    )
    if got["box"] is not None:
        if got["box_min"] is not None or got["box_max"] is not None:
            raise ConfigError(f"{context}: give either box or box_min/box_max, not both")
        b = float(got["box"])
        lo, hi = (-b,) * dim, (b,) * dim
    else:
        if got["box_min"] is None or got["box_max"] is None:
            raise ConfigError(f"{context}: box_min and box_max are required")
        lo, hi = got["box_min"], got["box_max"]
    try:
        return GridSpec(dim, got["n"], lo, hi)
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _energies_from(data, context: str) -> EnergySet:
    if isinstance(data, list):
        return _build_energy_set(_convert(data, _floats, context), context)
    got = _take(
        data,
        context,
        {},
        {
            "list": (_floats, None),
            "E_min": (_float, None),
            "E_max": (_float, None),
            "count": (_int, None),
            "spacing": (_str, "geometric"),
        },
    )
    if got["list"] is not None:
        energies = got["list"]
    else:
        if got["E_min"] is None or got["E_max"] is None or got["count"] is None:
            raise ConfigError(f"{context}: need either list or E_min/E_max/count")
        n = got["count"]
        if n < 1:
            raise ConfigError(f"{context}: count must be >= 1")
        if got["spacing"] == "geometric":
            if not (got["E_min"] > 0 and got["E_max"] > 0):
                raise ConfigError(f"{context}: geometric spacing needs E_min, E_max > 0")
            ratio = (got["E_max"] / got["E_min"]) ** (1.0 / max(n - 1, 1))
            energies = tuple(got["E_min"] * ratio**i for i in range(n))
        elif got["spacing"] == "linear":
            step = (got["E_max"] - got["E_min"]) / max(n - 1, 1)
            energies = tuple(got["E_min"] + step * i for i in range(n))
        else:
            raise ConfigError(f"{context}: unknown spacing {got['spacing']!r}")
    return _build_energy_set(energies, context)


def _build_energy_set(energies, context) -> EnergySet:
    try:
        return EnergySet(energies)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _solver_from(data: dict, context: str) -> SolverConfig:
    got = _take(
        data,
        context,
        {},
        {
            "tolerance": (_float, 1e-8),
            "max_iterations": (_int, 200),
            "resolution_factor": (_float, 8.0),
            "method": (_str, "auto"),
            "dense_limit": (_int, 3000),
        },
    )
    try:
        return SolverConfig(**got)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _reconstruction_from(data: dict, context: str) -> dict:
    return _take(
        data,
        context,
        {},
        {
            "estimator": (_str, "top"),
            "p_cut": (_float, None),
            "taper_fraction": (_float, 0.1),
            "eps_zero": (_float, None),
            "eps_pair": (_float, None),
            "mask_fraction_limit": (_float, 0.2),
            "restrict_support": (_bool, True),
            "declared_real": (_bool, False),
        },
    )


def _convergence_from(data: dict, context: str) -> dict:
    got = _take(
        data,
        context,
        {},
        {"slope_window": (_floats, (-0.75, -0.30))},
    )
    win = got["slope_window"]
    if len(win) != 2 or not win[0] < win[1]:
        raise ConfigError(f"{context}.slope_window: need [lo, hi] with lo < hi")
    return got


def _bounds_from(data: dict, context: str, dim: int) -> dict:
    """The bounds section; sigma and a0 must pass the rules bounds_report applies to them."""
    got = _take(
        data,
        context,
        {},
        {
            "sigma": (_float, None),
            "a0": (_float, 1.0),
            "errors_csv": (_str, None),
        },
    )
    try:
        if got["sigma"] is not None:
            weight_norm_constant(dim, got["sigma"])
        contraction_onset(0.0, got["a0"])
    except (ValueError, DivergentIntegralError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return got


def _spec_from(data, context: str) -> PotentialSpec:
    try:
        return spec_from_dict(data)
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}") from exc


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
    reconstruction: dict
    convergence: dict
    bounds: dict
    probe_grid: GridSpec | None
    shift: tuple[float, ...] | None
    convention: str
    output: str | None

    def probe(self) -> GridSpec:
        """The momentum grid: explicit probe grid's dual, else the main dual."""
        base = self.probe_grid if self.probe_grid is not None else self.grid
        return base.dual()

    def reconstruction_options(self) -> ReconstructionOptions:
        r = self.reconstruction
        return ReconstructionOptions(
            spatial_grid=self.probe_grid if self.probe_grid is not None else self.grid,
            estimator=r["estimator"],
            p_cut=r["p_cut"],
            taper_fraction=r["taper_fraction"],
            eps_zero=r["eps_zero"],
            eps_pair=r["eps_pair"],
            mask_fraction_limit=r["mask_fraction_limit"],
            declared_support=self.target if r["restrict_support"] else None,
            declared_real=r["declared_real"],
        )


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
    got = _take(
        data,
        "config",
        {"schema": _str, "dimension": _int, "grid": _object, "target": _identity},
        {
            "scenario": (_str, "unnamed"),
            "references": (_list, []),
            "energies": (_identity, None),
            "mode": (_str, "born-oracle"),
            "solver": (_object, None),
            "reconstruction": (_object, None),
            "convergence": (_object, None),
            "bounds": (_object, None),
            "probe_grid": (_object, None),
            "shift": (_floats, None),
            "convention": (_str, "default"),
            "output": (_str, None),
        },
    )
    if got["schema"] != SCHEMA:
        raise ConfigError(f"config.schema: expected {SCHEMA!r}, got {got['schema']!r}")
    dim = got["dimension"]
    if dim not in (2, 3):
        raise ConfigError("config.dimension: must be 2 or 3")
    grid = _grid_from(got["grid"], dim, "config.grid")
    target = _spec_from(got["target"], "config.target")
    if target.dim != dim:
        raise ConfigError("config.target: dimension mismatch")
    refs = None
    if got["references"]:
        specs = tuple(
            _spec_from(w, f"config.references[{i}]") for i, w in enumerate(got["references"])
        )
        try:
            refs = BackgroundSet(specs)
        except Exception as exc:
            raise ConfigError(f"config.references: {exc}") from exc
        if refs.dim != dim:
            raise ConfigError("config.references: dimension mismatch")
    if got["energies"] is None:
        raise ConfigError("config.energies: required")
    energies = _energies_from(got["energies"], "config.energies")
    if got["mode"] not in MODES:
        raise ConfigError(f"config.mode: must be one of {MODES}")
    solver = _solver_from(got["solver"] or {}, "config.solver")
    recon = _reconstruction_from(got["reconstruction"] or {}, "config.reconstruction")
    conv = _convergence_from(got["convergence"] or {}, "config.convergence")
    bounds = _bounds_from(got["bounds"] or {}, "config.bounds", dim)
    probe_grid = (
        _grid_from(got["probe_grid"], dim, "config.probe_grid")
        if got["probe_grid"] is not None
        else None
    )
    shift = got["shift"]
    if shift is not None and len(shift) != dim:
        raise ConfigError("config.shift: dimension mismatch")
    if got["convention"] not in ("default", "mirror"):
        raise ConfigError("config.convention: must be 'default' or 'mirror'")
    cfg = ExperimentConfig(
        scenario=got["scenario"],
        dimension=dim,
        grid=grid,
        target=target,
        references=refs,
        energies=energies,
        mode=got["mode"],
        solver=solver,
        reconstruction=recon,
        convergence=conv,
        bounds=bounds,
        probe_grid=probe_grid,
        shift=shift,
        convention=got["convention"],
        output=got["output"],
    )
    try:
        cfg.reconstruction_options()
    except ValueError as exc:
        raise ConfigError(f"config.reconstruction: {exc}") from exc
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical echo of a config, suitable for embedding in outputs."""
    return {
        "schema": SCHEMA,
        "scenario": cfg.scenario,
        "dimension": cfg.dimension,
        "grid": {
            "n": cfg.grid.n,
            "box_min": [float(x) for x in cfg.grid.box_min],
            "box_max": [float(x) for x in cfg.grid.box_max],
        },
        "target": spec_to_dict(cfg.target),
        "references": [spec_to_dict(w) for w in cfg.references.backgrounds]
        if cfg.references
        else [],
        "energies": {"list": [float(e) for e in cfg.energies]},
        "mode": cfg.mode,
        "solver": {
            "tolerance": cfg.solver.tolerance,
            "max_iterations": cfg.solver.max_iterations,
            "resolution_factor": cfg.solver.resolution_factor,
            "method": cfg.solver.method,
            "dense_limit": cfg.solver.dense_limit,
        },
        "reconstruction": dict(cfg.reconstruction),
        "convergence": {"slope_window": list(cfg.convergence["slope_window"])},
        "bounds": dict(cfg.bounds),
        "probe_grid": None
        if cfg.probe_grid is None
        else {
            "n": cfg.probe_grid.n,
            "box_min": [float(x) for x in cfg.probe_grid.box_min],
            "box_max": [float(x) for x in cfg.probe_grid.box_max],
        },
        "shift": list(cfg.shift) if cfg.shift is not None else None,
        "convention": cfg.convention,
        "output": cfg.output,
    }
