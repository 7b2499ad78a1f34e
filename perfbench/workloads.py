"""The benchmark's workloads: one experiment config each, run through ``COMMANDS``.

Every config is built from a seed.  The seed shifts the target's centre
by whole grid cells (at most ``CELLS`` cells per axis), which keeps the
target inside the box and away from the references, and keeps the
rasterized target the same set of nodes, so solver work hardly changes
with the seed.  The program receives only the generated config file.
"""

from __future__ import annotations

import numpy as np

SCHEMA = "phaseless-experiment/1"
BOX = 1.5
CELLS = {2: 2, 3: 1}

TARGET_2D = (0.3, -0.2)
REFS_2D = (((-0.93, -0.61), 0.3), ((0.88, 0.79), 0.45))
TARGET_3D = (0.3, -0.2, 0.1)
REF_3D = ((-0.75, -0.6, -0.5), 0.3)


def _ball(center, radius: float) -> dict:
    return {
        "dim": len(center),
        "components": [
            {"kind": "ball", "center": [float(c) for c in center], "radius": radius, "amplitude": 1.0}
        ],
    }


def _shifted(center, seed: int, n: int) -> list[float]:
    """``center`` moved by a seed-drawn whole number of grid cells per axis."""
    dim = len(center)
    cells = CELLS[dim]
    steps = np.random.default_rng(seed).integers(-cells, cells + 1, size=dim)
    h = 2.0 * BOX / n
    return [float(c + s * h) for c, s in zip(center, steps)]


def _config(dim: int, n: int, target: dict, energies, mode: str, **extra) -> dict:
    doc = {
        "schema": SCHEMA,
        "dimension": dim,
        "grid": {"n": n, "box": BOX},
        "target": target,
        "energies": [float(e) for e in energies],
        "mode": mode,
    }
    doc.update(extra)
    return doc


def oracle_2d(seed: int, smoke: bool) -> dict:
    n, energies = (32, (25, 50)) if smoke else (128, (25, 50, 100, 200, 400))
    return _config(
        2, n, _ball(_shifted(TARGET_2D, seed, n), 0.25), energies, "born-oracle",
        references=[_ball(c, r) for c, r in REFS_2D],
        reconstruction={"estimator": "richardson"},
    )


def oracle_3d_one_ref(seed: int, smoke: bool) -> dict:
    n, energies = (12, (9, 16)) if smoke else (24, (25, 50))
    return _config(
        3, n, _ball(_shifted(TARGET_3D, seed, n), 0.25), energies, "born-oracle",
        references=[_ball(*REF_3D)],
    )


def full_2d(seed: int, smoke: bool) -> dict:
    n, energies = (32, (25, 50)) if smoke else (64, (50, 100))
    return _config(
        2, n, _ball(_shifted(TARGET_2D, seed, n), 0.25), energies, "full-solver",
        references=[_ball(c, r) for c, r in REFS_2D],
    )


# each command runs in its own process, in this order
COMMANDS = ("synthesize", "reconstruct")

WORKLOADS = {
    "oracle-2d": oracle_2d,
    "oracle-3d-one-ref": oracle_3d_one_ref,
    "full-2d": full_2d,
}
