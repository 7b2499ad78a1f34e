"""Check that this tree and another source tree write the same bytes.

    python3 tools/same_outputs.py OTHER_SRC [--seeds 0 3] [--workload NAME ...] [--keep DIR]

OTHER_SRC is the ``src`` directory of another checkout, for instance a
clone of the parent commit.  Every workload config of
``perfbench/workloads.py`` (imported, never written) is built at each
seed and written to a working directory; both trees run ``python -m
phaseless.cli synthesize`` and ``reconstruct`` on the saved dataset.
The workload ``commands-2d``, one 2-D full-solver config defined here,
covers the other commands: ``forward``, ``convergence``, ``bounds``,
``ambiguity-demo`` and ``reconstruct`` without a dataset, each in its
own output directory.  Each side runs in its own directory with the
same relative paths, so the reports embed the same paths.  Every output
file (datasets, tables, reports, the ``.bin``/``.json`` fields) is
compared byte for byte.

Prints one line per differing or missing file and a summary; exits 0
when every file is identical, 1 otherwise.  The working directory is a
temporary one, removed at the end, unless ``--keep`` names one.
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

ROOT = Path(__file__).resolve().parent.parent


def _ball(center, radius: float) -> dict:
    return {"dim": 2, "components": [
        {"kind": "ball", "center": list(center), "radius": radius, "amplitude": 1.0}
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
OTHER_COMMANDS = ("forward", "convergence", "bounds", "ambiguity-demo", "reconstruct")


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
        if name == "commands-2d":
            jobs = [(c, f"out/{name}/{c}", None) for c in OTHER_COMMANDS]
            runs.append((f"{name}.json", COMMANDS_2D, jobs))
            continue
        for seed in seeds:
            out = f"out/{name}-{seed}"
            jobs = [(c, out, f"{out}/dataset" if c == "reconstruct" else None) for c in commands]
            runs.append((f"{name}-{seed}.json", workloads[name](seed, False), jobs))
    return runs


def _run(src: Path, side: Path, config: str, jobs) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for command, out, dataset in jobs:
        argv = [sys.executable, "-m", "phaseless.cli", command, "--config", config, "--out", out]
        if dataset is not None:
            argv.append(dataset)
        proc = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {command} {config} exited {proc.returncode}:\n{proc.stderr}")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def compare(other_src: Path, seeds, names, work: Path) -> list[str]:
    """Run both trees on every run of ``names``; the differences, as lines."""
    sides = {"this": ROOT / "src", "other": other_src}
    for side in sides:
        (work / side).mkdir(parents=True, exist_ok=True)
    runs = _runs(names, seeds)
    for config, doc, jobs in runs:
        text = json.dumps(doc, indent=2)
        for side, src in sides.items():
            (work / side / config).write_text(text)
            _run(src, work / side, config, jobs)
    this, other = _files(work / "this" / "out"), _files(work / "other" / "out")
    problems = [f"only in this tree: {f}" for f in sorted(this.keys() - other.keys())]
    problems += [f"only in {other_src}: {f}" for f in sorted(other.keys() - this.keys())]
    problems += [f"differs: {f}" for f in sorted(this.keys() & other.keys()) if this[f] != other[f]]
    print(f"{len(this.keys() & other.keys())} files compared over {len(runs)} run(s)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workload names, commands-2d among them (default: all)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="working directory to keep (default: a temporary one)")
    args = parser.parse_args(argv)
    other_src = args.other_src.resolve()
    if not (other_src / "phaseless").is_dir():
        parser.error(f"{other_src} holds no phaseless package")
    names = args.workload or [*_workloads()[0], "commands-2d"]
    work = args.keep or Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        problems = compare(other_src, args.seeds, names, work.resolve())
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print("identical" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
