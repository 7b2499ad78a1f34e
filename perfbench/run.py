"""Benchmark of the ``phaseless`` commands on fixed, seeded workloads.

    python3 perfbench/run.py --workload oracle-2d --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all     # the three workloads in turn
    python3 perfbench/run.py --smoke            # each at tiny sizes, two rounds

Run from the repository root; the package is imported from ``src``.
Each command of a workload runs in its own interpreter through
``perfbench/child.py``.  A run first spawns one unmeasured interpreter
(so compiled bytecode exists), then repeats whole rounds of the workload's commands while the next
round is expected to end within ``--seconds``.  Every metric is the
median over the run's rounds (set-up: over every command of them).
The outputs of the first round are checked by ``checks.py``; later
rounds must reproduce them byte for byte.  Times leave out the CPU steal
that fell on each process (see ``child.unstolen``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate and it holds the per-layer metrics, taken from the
traced rounds only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import steal_seconds, unstolen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170.0
# Under glibc's adaptive mmap threshold, whether the solver's large
# temporaries are mapped, trimmed and faulted in afresh on every kernel
# application depends on heap history: the hash seed, or a path one letter
# longer, flips full-2d synthesis between ~20k and ~1.3M minor faults
# (+45% wall time).  Children run with the thresholds the adaptive rule
# itself reaches once a block of its largest size (32 MiB) has been freed,
# which always gives the ~20k mode.  See README.md, "The allocator".
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


@dataclass
class Spawned:
    """One interpreter: its set-up and command times and its resource use."""

    exit: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    steal_s: float = 0.0
    user_s: float = 0.0
    sys_s: float = 0.0
    minor_faults: int = 0
    maxrss_kb: int = 0
    spans: list = field(default_factory=list)


class Runner:
    def __init__(self, work: Path, config: Path):
        self.work = work
        self.config = config
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str], trace: bool) -> Spawned:
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), result.name, self.config.name, "1" if trace else "0"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start, steal_start = time.monotonic(), steal_seconds()
        with open(self.work / "child.log", "ab") as log:
            try:
                proc = subprocess.run(cmd + argv, env=self.env, cwd=self.work, stdout=log,
                                      stderr=log, timeout=CHILD_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = -1
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = Spawned(
            exit=code,
            user_s=after.ru_utime - before.ru_utime,
            sys_s=after.ru_stime - before.ru_stime,
            minor_faults=after.ru_minflt - before.ru_minflt,
        )
        if result.exists():
            data = json.loads(result.read_text())
            out.setup_s = unstolen(data["ready"] - start, data["steal_ready"] - steal_start,
                                   data["cpu_ready"])
            out.wall_s = data["wall_s"]
            out.steal_s = data["steal_s"]
            out.maxrss_kb = data["maxrss_kb"]
            out.spans = data["spans"]
        return out


def _median(values) -> float:
    return float(statistics.median(values))


def _report_hashes(out: Path, command: str) -> dict:
    path = out / f"{command}_report.json"
    return json.loads(path.read_text())["outputs_sha256"] if path.exists() else {}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns end-to-end and (if traced) per-layer metrics."""
    from checks import check, expected_channels, flagged_rows
    from workloads import COMMANDS, WORKLOADS

    cfg = WORKLOADS[name](seed, smoke)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(cfg, indent=2))
        out = work / "out"
        runner = Runner(work, config)
        deadline = time.monotonic() + seconds

        warm = runner.spawn([], False)
        if warm.exit != 0:
            log = (work / "child.log").read_text(errors="replace")
            raise RuntimeError(f"the package does not import or the config does not load:\n{log}")

        channels = expected_channels(cfg)
        attempted = failed = 0
        check_errors: list[str] | None = None
        hashes = None
        untraced, traced, cycles = [], [], []
        modes = (False, True) if trace else (False,)
        while True:
            cycle = 0.0
            for traced_round in modes:
                round_start = time.monotonic()
                spawned = []
                for command in COMMANDS:
                    # paths relative to the work directory: their length is
                    # then the same in every run
                    argv = [command, "--config", config.name, "--out", out.name, "--workers", "1"]
                    if command == "reconstruct":
                        argv.append(f"{out.name}/dataset")
                    spawned.append(runner.spawn(argv, traced_round))
                cycle += time.monotonic() - round_start
                attempted += len(COMMANDS) + channels
                failed += sum(s.exit != 0 for s in spawned)
                if spawned[0].exit != 0:
                    failed += channels
                else:
                    failed += flagged_rows(out, cfg["dimension"])
                round_hashes = [_report_hashes(out, c) for c in COMMANDS]
                if check_errors is None:
                    check_start = time.monotonic()
                    try:
                        check_errors = check(cfg, out)
                    except Exception as exc:  # a missing or malformed output
                        check_errors = [f"check raised {type(exc).__name__}: {exc}"]
                    hashes = round_hashes
                    # checking is not measuring
                    deadline += time.monotonic() - check_start
                elif round_hashes != hashes:
                    check_errors.append("a later round's outputs differ from the first round's")
                (traced if traced_round else untraced).append(spawned)
            cycles.append(cycle)
            if time.monotonic() + _median(cycles) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "setup_s": _median(s.setup_s for spawned in untraced for s in spawned),
        "wall_s": _median(sum(s.wall_s for s in r) for r in untraced),
        "cpu_s": _median(sum(s.user_s + s.sys_s for s in r) for r in untraced),
        "peak_rss_mb": _median(max(s.maxrss_kb for s in r) / 1024.0 for r in untraced),
        "channels_per_s": _median(channels / r[0].wall_s if r[0].wall_s > 0 else 0.0
                                  for r in untraced),
    }
    result = {
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(untraced),
        "check_errors": check_errors,
        "round_walls": [[(round(s.wall_s, 3), round(s.steal_s, 3)) for s in r] for r in untraced],
        "end_to_end": e2e,
    }
    if trace:
        from tracing import layer_metrics

        per_round = []
        for r in traced:
            layers = layer_metrics([s.spans for s in r])
            layers["process.user_s"] = sum(s.user_s for s in r)
            layers["process.sys_s"] = sum(s.sys_s for s in r)
            layers["process.minor_faults"] = sum(s.minor_faults for s in r)
            layers["process.steal_s"] = sum(s.steal_s for s in r)
            per_round.append(layers)
        layers = {key: _median(r[key] for r in per_round) for key in per_round[0]}
        layers["trace.overhead_s"] = (
            _median(sum(s.wall_s for s in r) for r in traced) - e2e["wall_s"]
        )
        result["per_layer"] = layers
    return result


def _benchmark_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(result: dict, trace: bool, units: dict) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _describe(name: str, res: dict, line: dict) -> None:
    print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} rounds={res['rounds']}", file=sys.stderr)
    print(f"   (wall time, steal left out) of each command, by untraced round: "
          f"{res['round_walls']}", file=sys.stderr)
    for err in res["check_errors"] or []:
        print(f"   check failed: {err}", file=sys.stderr)
    for key, m in line["metrics"].items():
        print(f"   {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="shifts the target (default 0)")
    parser.add_argument("--seconds", type=float, default=38.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)

    if not (SRC / "phaseless" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    units = _benchmark_units()
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            res = measure(name, args.seed, 0.0, trace=True, smoke=True)
            for trace in (False, True):
                line = summary(res, trace, units)
                _describe(name, res, line)
            ok = ok and res["correct"] and res["failed"] == 0
        print(json.dumps({"smoke": "pass" if ok else "fail"}))
        return 0 if ok else 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or 'all'")
    trace = bool(args.trace)
    lines = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, trace)
        lines[name] = summary(res, trace, units)
        _describe(name, res, lines[name])
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        for name, line in lines.items():
            print(json.dumps({"workload": name, **line}))
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "workloads": {name: line["metrics"] for name, line in lines.items()},
        }))
    ok = all(line["correct"] and line["failed"] == 0 for line in lines.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
