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

from .exceptions import InputFileError, PhaselessError
from .grids import ScalarField, SpectralField, grid_from_json, grid_to_json
from .jsonread import canonical, choice, convert, obj

__all__ = ["write_field", "read_field"]

Field = Union[ScalarField, SpectralField]


def write_field(field: Field, base: Union[str, Path]) -> tuple[Path, Path]:
    """Write ``<base>.bin`` and ``<base>.json``; returns their paths.

    The values go out as the field's own little-endian complex128
    buffer, which is the interleaved (re, im) <f8 layout, without a copy.
    """
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")

    meta = {
        **grid_to_json(field.grid),
        "kind": "spectral" if isinstance(field, SpectralField) else "spatial",
    }
    if isinstance(field, SpectralField):
        meta["spatial_box_min"] = list(field.spatial_grid.box_min)
        meta["spatial_box_max"] = list(field.spatial_grid.box_max)

    # little-endian complex128 is the interleaved (re, im) <f8 layout itself
    bin_path.write_bytes(np.ascontiguousarray(field.values, dtype="<c16").reshape(-1).data)
    json_path.write_text(canonical(meta))
    return bin_path, json_path


def read_field(base: Union[str, Path]) -> Field:
    """The field write_field wrote at ``base``, every value's bits restored.

    A sidecar that is not one write_field writes, or values that do not
    fit it, are an InputFileError naming ``base``; a missing file raises
    the OSError.
    """
    base = Path(base)
    json_path = base.with_suffix(".json")
    try:
        meta = convert(json.loads(json_path.read_text()), obj, "sidecar")
        kind = convert(meta.pop("kind", None), choice(("spatial", "spectral")), "sidecar.kind")
        spatial = {}
        if kind == "spectral":  # the grid's JSON form plus the spatial box
            spatial = {key: meta.pop(f"spatial_{key}", None) for key in ("box_min", "box_max")}
        grid = grid_from_json(meta, "sidecar")
        values = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<c16")
        values = values.reshape(grid.shape)
        if kind == "spectral":
            return SpectralField(grid, values, grid_from_json({**meta, **spatial}, "sidecar"))
        return ScalarField(grid, values)
    except (ValueError, PhaselessError) as exc:
        raise InputFileError(f"{base}: malformed field ({exc})") from exc
