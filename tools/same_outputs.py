"""Check that this tree and another source tree write the same bytes.

    python3 tools/same_outputs.py OTHER_SRC [--seeds 0 3] [--workload NAME ...] [--keep DIR]

OTHER_SRC is the ``src`` directory of another checkout, for instance a
clone of the parent commit.  Every workload config of
``perfbench/workloads.py`` (imported, never written) is built at each
seed and written to a working directory.  Both trees then run
``python -m phaseless.cli synthesize`` and ``reconstruct`` on the saved
dataset, each side in its own directory with the same relative paths,
so the reports embed the same paths.  Every output file (datasets,
reports, the ``.bin``/``.json`` fields) is compared byte for byte.

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


def _workloads():
    """perfbench's workload configs by name, and the commands each runs in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        from workloads import COMMANDS, WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS, COMMANDS


def _run(src: Path, side: Path, config: str, out: str, commands) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in commands:
        argv = [sys.executable, "-m", "phaseless.cli", command, "--config", config, "--out", out]
        if command == "reconstruct":
            argv.append(f"{out}/dataset")
        proc = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {command} {config} exited {proc.returncode}:\n{proc.stderr}")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def compare(other_src: Path, seeds, names, work: Path) -> list[str]:
    """Run both trees on every (workload, seed); the differences, as lines."""
    workloads, commands = _workloads()
    sides = {"this": ROOT / "src", "other": other_src}
    for side in sides:
        (work / side).mkdir(parents=True, exist_ok=True)
    for name in names:
        for seed in seeds:
            config = f"{name}-{seed}.json"
            text = json.dumps(workloads[name](seed, False), indent=2)
            for side, src in sides.items():
                (work / side / config).write_text(text)
                _run(src, work / side, config, f"out/{name}-{seed}", commands)
    this, other = _files(work / "this" / "out"), _files(work / "other" / "out")
    problems = [f"only in this tree: {f}" for f in sorted(this.keys() - other.keys())]
    problems += [f"only in {other_src}: {f}" for f in sorted(other.keys() - this.keys())]
    problems += [f"differs: {f}" for f in sorted(this.keys() & other.keys()) if this[f] != other[f]]
    print(f"{len(this.keys() & other.keys())} files compared over {len(names)} workload(s) "
          f"x {len(seeds)} seed(s)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workload names (default: every workload)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="working directory to keep (default: a temporary one)")
    args = parser.parse_args(argv)
    other_src = args.other_src.resolve()
    if not (other_src / "phaseless").is_dir():
        parser.error(f"{other_src} holds no phaseless package")
    names = args.workload or list(_workloads()[0])
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
