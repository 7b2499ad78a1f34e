"""Field serialization: raw float64 pairs plus a JSON sidecar.

``<base>.bin`` holds little-endian IEEE-754 float64 values interleaved
(re, im), row-major over the grid.  ``<base>.json`` describes the grid:
{"dim", "n", "box_min", "box_max", "kind"} with kind "spatial" or
"spectral"; spectral sidecars additionally record the originating
spatial box so the spectrum can be inverted after a round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .grids import GridSpec, ScalarField, SpectralField

__all__ = ["write_field", "read_field"]

Field = Union[ScalarField, SpectralField]


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_field(field: Field, base: Union[str, Path]) -> tuple[Path, Path]:
    """Write ``<base>.bin`` and ``<base>.json``; returns their paths.

    The values go out as the field's own little-endian complex128
    buffer, which is the interleaved (re, im) <f8 layout, without a copy.
    """
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")

    grid = field.grid
    meta = {
        "dim": grid.dim,
        "n": grid.n,
        "box_min": list(grid.box_min),
        "box_max": list(grid.box_max),
        "kind": "spectral" if isinstance(field, SpectralField) else "spatial",
    }
    if isinstance(field, SpectralField):
        meta["spatial_box_min"] = list(field.spatial_grid.box_min)
        meta["spatial_box_max"] = list(field.spatial_grid.box_max)

    # little-endian complex128 is the interleaved (re, im) <f8 layout itself
    bin_path.write_bytes(np.ascontiguousarray(field.values, dtype="<c16").reshape(-1).data)
    json_path.write_text(_canonical_json(meta))
    return bin_path, json_path


def read_field(base: Union[str, Path]) -> Field:
    """The field write_field wrote at ``base``, every value's bits restored."""
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<c16")
    values = raw.reshape((meta["n"],) * meta["dim"])
    grid = GridSpec(meta["dim"], meta["n"], tuple(meta["box_min"]), tuple(meta["box_max"]))
    if meta["kind"] == "spectral":
        spatial = GridSpec(
            meta["dim"],
            meta["n"],
            tuple(meta["spatial_box_min"]),
            tuple(meta["spatial_box_max"]),
        )
        return SpectralField(grid, values, spatial)
    return ScalarField(grid, values)
