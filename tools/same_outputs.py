"""Check that this tree and another source tree write the same bytes.

    python3 tools/same_outputs.py OTHER_SRC [--seeds 0 3] [--workload NAME ...] [--keep DIR]
                                  [--other-blas-threads N]

OTHER_SRC is the ``src`` directory of another checkout, for instance a
clone of the parent commit.  Every workload config of
``perfbench/workloads.py`` (imported, never written) is built at each
seed and written to a working directory; both trees run ``python -m
phaseless.cli synthesize`` and ``reconstruct`` on the saved dataset.
The workload ``commands-2d``, one 2-D full-solver config defined here,
covers the other commands: ``forward``, ``convergence``, ``bounds``,
``ambiguity-demo`` and ``reconstruct`` without a dataset, each in its
own output directory.  ``oracle-commands-2d``, the same config in mode
"born-oracle", runs ``ambiguity-demo`` and ``reconstruct`` without a
dataset, the commands that synthesize oracle data in-process.  Every
support of the full-solver runs is solved directly, so ``born-2d``, the
same config with solver method "born", covers the iteration route:
``synthesize``, ``reconstruct`` on its dataset and ``forward``.  Every
other run uses real amplitude 1.0; ``complex-2d``, the same geometry
with complex target and reference amplitudes, runs ``synthesize`` and
``reconstruct`` on its dataset in both modes.  Each side runs in its
own directory with the same relative paths, so the reports embed the
same paths.  Every output
file (datasets, tables, reports, the ``.bin``/``.json`` fields) is
compared byte for byte.  Each command runs with RuntimeWarning and
UserWarning turned into errors, as under pytest, so a command that warns
fails the check.

Prints one line per differing or missing file and a summary; exits 0
when every file is identical, 1 otherwise.  With ``--other-blas-threads
N`` the other tree runs under ``OPENBLAS_NUM_THREADS=N`` (this tree under
the inherited environment), and the differing files are listed without
failing: the check then reports how far the outputs depend on the BLAS
thread count, and exits 0.  A differing ``.bin`` field
or CSV table gets the largest absolute and relative difference of its
values (relative to the larger magnitude of each pair), a differing
report names each mask index list and each ``outputs_sha256`` entry that
differs, and any other differing JSON file names the top-level keys this
tree added, removed or changed.  The working directory
is a temporary one, removed at the end, unless ``--keep`` names one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _ball(center, radius: float, amplitude=1.0) -> dict:
    return {"dim": 2, "components": [
        {"kind": "ball", "center": list(center), "radius": radius, "amplitude": amplitude}
    ]}


# 40^2, E = 9..36, two references and a shift; the slope window is wide
# enough for convergence to exit 0 (its slope here is about +0.46)
COMMANDS_2D = {
    "schema": "phaseless-experiment/1",
    "dimension": 2,
    "grid": {"n": 40, "box": 1.5},
    "target": _ball((0.3, -0.2), 0.25),
    "references": [_ball((-0.93, -0.61), 0.3), _ball((0.88, 0.79), 0.45)],
    "energies": [9.0, 16.0, 25.0, 36.0],
    "mode": "full-solver",
    "shift": [0.5, -0.25],
    "convergence": {"slope_window": [-1.0, 1.0]},
}
# runs of commands without a dataset, each in its own output directory:
# the config and the commands of each
COMMAND_RUNS = {
    "commands-2d": (COMMANDS_2D, ("forward", "convergence", "bounds", "ambiguity-demo",
                                  "reconstruct")),
    "oracle-commands-2d": ({**COMMANDS_2D, "mode": "born-oracle"}, ("ambiguity-demo",
                                                                    "reconstruct")),
}
BORN_2D = {**COMMANDS_2D, "solver": {"method": "born"}}
# the same geometry with complex amplitudes ([re, im]), in both modes
COMPLEX_2D = {
    **COMMANDS_2D,
    "target": _ball((0.3, -0.2), 0.25, [0.8, 0.3]),
    "references": [_ball((-0.93, -0.61), 0.3, [1.0, -0.5]), _ball((0.88, 0.79), 0.45, [0.6, 0.4])],
}


def _workloads():
    """perfbench's workload configs by name, and the commands each runs in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        from workloads import COMMANDS, WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS, COMMANDS


def _runs(names, seeds):
    """(config file, config, jobs) per run; a job is (command, output dir, dataset or None)."""
    workloads, commands = _workloads()
    runs = []
    for name in names:
        if name in COMMAND_RUNS:
            doc, commands = COMMAND_RUNS[name]
            runs.append((f"{name}.json", doc, [(c, f"out/{name}/{c}", None) for c in commands]))
            continue
        if name == "born-2d":
            out = f"out/{name}"
            jobs = [("synthesize", out, None), ("reconstruct", out, f"{out}/dataset"),
                    ("forward", f"{out}/forward", None)]
            runs.append((f"{name}.json", BORN_2D, jobs))
            continue
        if name == "complex-2d":
            for mode in ("full-solver", "born-oracle"):
                out = f"out/{name}-{mode}"
                jobs = [("synthesize", out, None), ("reconstruct", out, f"{out}/dataset")]
                runs.append((f"{name}-{mode}.json", {**COMPLEX_2D, "mode": mode}, jobs))
            continue
        for seed in seeds:
            out = f"out/{name}-{seed}"
            jobs = [(c, out, f"{out}/dataset" if c == "reconstruct" else None) for c in commands]
            runs.append((f"{name}-{seed}.json", workloads[name](seed, False), jobs))
    return runs


def _run(src: Path, side: Path, config: str, jobs, env: dict) -> None:
    env = dict(env, PYTHONPATH=str(src))
    for command, out, dataset in jobs:
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
                "-m", "phaseless.cli", command, "--config", config, "--out", out]
        if dataset is not None:
            argv.append(dataset)
        proc = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {command} {config} exited {proc.returncode}:\n{proc.stderr}")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _largest_differences(a: np.ndarray, b: np.ndarray) -> str:
    """Largest |a - b| and |a - b| / max(|a|, |b|) over pairs that differ; NaN pairs match."""
    if a.shape != b.shape:
        return f"{a.size} values against {b.size}"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = np.abs(a[~same] - b[~same])
    scale = np.maximum(np.abs(a[~same]), np.abs(b[~same]))
    rel = np.divide(gap, scale, out=np.full(gap.shape, np.inf), where=scale > 0)
    return f"max abs {np.max(gap, initial=0.0):.3g}, max rel {np.max(rel, initial=0.0):.3g}"


def _csv_values(data: bytes) -> np.ndarray | None:
    """A CSV table's cells below its header as floats; None when a cell is no number."""
    try:
        return np.array([float(c) for line in data.decode().split("\n")[1:] if line
                         for c in line.split(",")])
    except ValueError:
        return None


def _mask_lists(report: dict) -> dict:
    """The mask index lists of a reconstruct report, by name; none for other reports."""
    branches = report["results"].get("branches", [])
    return {f"branches[{i}].mask.{key}": value for i, branch in enumerate(branches)
            for key, value in branch["mask"].items() if isinstance(value, list)}


def _key_changes(this: dict, other: dict) -> list[str]:
    """The keys of ``this`` that ``other`` lacks, that only ``other`` has, and that differ."""
    changes = (("added", this.keys() - other.keys()), ("removed", other.keys() - this.keys()),
               ("changed", {k for k in this.keys() & other.keys() if this[k] != other[k]}))
    return [f"{label} {', '.join(sorted(keys))}" for label, keys in changes if keys]


def _detail(name: str, this: bytes, other: bytes) -> str:
    """How two differing files differ, as far as their kind tells."""
    if name.endswith(".bin"):
        if len(this) != len(other) or len(this) % 16:
            return f"{len(this)} bytes against {len(other)}"
        return _largest_differences(np.frombuffer(this, "<c16"), np.frombuffer(other, "<c16"))
    if name.endswith(".csv"):
        a, b = _csv_values(this), _csv_values(other)
        if a is None or b is None:
            return "cells that are no numbers"
        header = "" if this.split(b"\n")[0] == other.split(b"\n")[0] else "header differs; "
        return header + _largest_differences(a, b)
    if not name.endswith(".json"):
        return ""
    this, other = json.loads(this), json.loads(other)
    if not name.endswith("_report.json"):
        keys = _key_changes(this, other)
        return "keys " + "; ".join(keys) if keys else ""
    details = []
    a, b = _mask_lists(this), _mask_lists(other)
    if a:
        masks = [p for p in sorted(a.keys() | b.keys()) if a.get(p) != b.get(p)]
        details.append(f"mask lists differ: {', '.join(masks)}" if masks else "mask lists identical")
    hashes = _key_changes(this["outputs_sha256"], other["outputs_sha256"])
    return "; ".join(details + [f"outputs_sha256 {h}" for h in hashes])


def compare(other_src: Path, seeds, names, work: Path, other_env: dict) -> list[str]:
    """Run both trees on every run of ``names``, the other under ``other_env``; the differences."""
    sides = {"this": (ROOT / "src", dict(os.environ)), "other": (other_src, other_env)}
    for side in sides:
        (work / side).mkdir(parents=True, exist_ok=True)
    runs = _runs(names, seeds)
    for config, doc, jobs in runs:
        text = json.dumps(doc, indent=2)
        for side, (src, env) in sides.items():
            (work / side / config).write_text(text)
            _run(src, work / side, config, jobs, env)
    this, other = _files(work / "this" / "out"), _files(work / "other" / "out")
    problems = [f"only in this tree: {f}" for f in sorted(this.keys() - other.keys())]
    problems += [f"only in {other_src}: {f}" for f in sorted(other.keys() - this.keys())]
    for f in sorted(this.keys() & other.keys()):
        if this[f] != other[f]:
            detail = _detail(f, this[f], other[f])
            problems.append(f"differs: {f}" + (f" ({detail})" if detail else ""))
    print(f"{len(this.keys() & other.keys())} files compared over {len(runs)} run(s)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workload names, the runs defined here among them "
                             "(default: all)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="working directory to keep (default: a temporary one)")
    parser.add_argument("--other-blas-threads", type=int, default=None, metavar="N",
                        help="run the other tree with OPENBLAS_NUM_THREADS=N and list the "
                             "differing files without failing")
    args = parser.parse_args(argv)
    other_src = args.other_src.resolve()
    if not (other_src / "phaseless").is_dir():
        parser.error(f"{other_src} holds no phaseless package")
    threads = args.other_blas_threads
    if threads is not None and not 1 <= threads <= (os.cpu_count() or 1):
        parser.error(f"--other-blas-threads must be between 1 and the CPU count, got {threads}")
    other_env = dict(os.environ)
    if threads is not None:
        other_env["OPENBLAS_NUM_THREADS"] = str(threads)
    names = args.workload or [*_workloads()[0], *COMMAND_RUNS, "born-2d", "complex-2d"]
    work = args.keep or Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        problems = compare(other_src, args.seeds, names, work.resolve(), other_env)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print("identical" if not problems else f"{len(problems)} difference(s)")
    if threads is not None:
        mine = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        print(f"OPENBLAS_NUM_THREADS: {mine} in this tree, {threads} in the other; "
              f"differences listed, not failed")
        return 0
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
